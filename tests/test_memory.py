"""Peak memory of the two audits and of the file readers grows by a few bytes per round.

Both audits reduce a transcript to the k x k pair sums, so neither needs a
(T, k) array: at k = 19 one such float array alone is 152 B per round. The
readers keep typed columns, a few 8-byte entries per round, and no Python
object per round. The peak is measured with the standard library's
tracemalloc, which numpy reports its buffers to, between two horizons on
inputs built beforehand: T = 20,000 and 200,000 rounds for the audits and
the reduced file, and 2,000 and 20,000 for full transcripts, whose lines
are about 20 times longer.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from regretaudit.aggregate import DriftAssumption, audit_aggregated, read_price_series
from regretaudit.audit import regret_curve
from regretaudit.core import (
    AuditConfig,
    CostRange,
    PriceGrid,
    Transcript,
    format_float,
    read_transcript,
    write_records,
    write_transcript,
)

K = 19
GRID = PriceGrid(np.linspace(0.05, 0.95, K).tolist())
SMALL, LARGE = 20_000, 200_000
MAX_GROWTH_BYTES_PER_ROUND = 24
# A reader holds the posted prices, the allocations, the line numbers and,
# for a full transcript, the row ids: 8 B each per round. When no row
# repeats, the bound also covers each round's row: k = 4 floats in the
# table and a bytes key, about 120 B with its dictionary entry.
MAX_READ_GROWTH_BYTES_PER_ROUND = 48
MAX_READ_DISTINCT_GROWTH_BYTES_PER_ROUND = 224


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def growth_per_round(make_args, fn, small: int = SMALL, large: int = LARGE) -> float:
    small_args, large_args = make_args(small), make_args(large)
    return (peak_bytes(fn, *large_args) - peak_bytes(fn, *small_args)) / (large - small)


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


def test_transcript_reader_peak_grows_by_a_few_bytes_per_round(tmp_path):
    # A Q-learner's rows: a handful of distinct ones, in runs of any length.
    explore = 0.01
    table = np.full((K, K), explore / K) + np.eye(K) * (1.0 - explore)

    def make_args(rounds):
        greedy, posted, alloc = greedy_rounds(rounds, explore)
        path = str(tmp_path / f"q{rounds}.jsonl")
        write_transcript(Transcript(GRID, posted, alloc, greedy, table), path)
        return (path,)

    growth = growth_per_round(make_args, read_transcript, SMALL // 10, LARGE // 10)
    assert growth <= MAX_READ_GROWTH_BYTES_PER_ROUND


def test_transcript_reader_peak_with_a_new_row_every_round(tmp_path):
    # A multiplicative-weights learner's rows: every round's is new.
    grid = PriceGrid([0.0, 1.0, 2.0, 3.0])

    def make_args(rounds):
        rng = np.random.default_rng(rounds)
        rows = rng.dirichlet(np.ones(len(grid)), size=rounds)
        posted = rng.integers(len(grid), size=rounds)
        path = str(tmp_path / f"mwu{rounds}.jsonl")
        write_transcript(Transcript(grid, posted, rng.random(rounds), np.arange(rounds), rows), path)
        return (path,)

    growth = growth_per_round(make_args, read_transcript, SMALL // 10, LARGE // 10)
    assert growth <= MAX_READ_DISTINCT_GROWTH_BYTES_PER_ROUND


def test_price_series_reader_peak_grows_by_a_few_bytes_per_round(tmp_path):
    def make_args(rounds):
        _, posted, alloc = greedy_rounds(rounds)
        path = str(tmp_path / f"reduced{rounds}.jsonl")
        lines = (
            f'{{"t": {t}, "posted": {p}, "alloc": {format_float(a)}}}\n'
            for t, (p, a) in enumerate(zip(posted.tolist(), alloc.tolist()), 1)
        )
        write_records(path, GRID, lines)
        return (path,)

    assert growth_per_round(make_args, read_price_series) <= MAX_READ_GROWTH_BYTES_PER_ROUND
