"""Peak memory of the two audits grows by a few bytes per round, not by k floats.

Both audits reduce a transcript to the k x k pair sums, so neither needs a
(T, k) array: at k = 19 one such float array alone is 152 B per round. The
peak is measured with the standard library's tracemalloc, which numpy
reports its buffers to, from T = 20,000 to 200,000 rounds on inputs built
beforehand.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from regretaudit.aggregate import DriftAssumption, audit_aggregated
from regretaudit.audit import regret_curve
from regretaudit.core import AuditConfig, CostRange, PriceGrid, Transcript

K = 19
GRID = PriceGrid(np.linspace(0.05, 0.95, K).tolist())
SMALL, LARGE = 20_000, 200_000
MAX_GROWTH_BYTES_PER_ROUND = 24


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def growth_per_round(make_args, fn) -> float:
    small, large = make_args(SMALL), make_args(LARGE)
    return (peak_bytes(fn, *large) - peak_bytes(fn, *small)) / (LARGE - SMALL)


def greedy_rounds(rounds: int, explore: float = 0.01):
    """An epsilon-greedy seller's rounds: the greedy price of each round
    (its distinct row) and the price it posted."""
    rng = np.random.default_rng(rounds)
    greedy = rng.integers(K, size=rounds)
    posted = np.where(rng.random(rounds) < explore, rng.integers(K, size=rounds), greedy)
    return greedy, posted, rng.random(rounds)


def test_aggregated_audit_peak_grows_by_a_few_bytes_per_round():
    drift = DriftAssumption(epsilon=5e-4, support_floor=0.5)
    config = AuditConfig(CostRange(0.1, 0.9), 6e-3, 0.05)

    def make_args(rounds):
        _, posted, alloc = greedy_rounds(rounds)
        return posted, alloc, GRID, drift, config

    assert growth_per_round(make_args, audit_aggregated) <= MAX_GROWTH_BYTES_PER_ROUND


def test_regret_curve_peak_grows_by_a_few_bytes_per_round():
    explore = 0.01
    table = np.full((K, K), explore / K) + np.eye(K) * (1.0 - explore)

    def make_args(rounds):
        greedy, posted, alloc = greedy_rounds(rounds, explore)
        return (Transcript(GRID, posted, alloc, greedy, table),)

    assert growth_per_round(make_args, regret_curve) <= MAX_GROWTH_BYTES_PER_ROUND
