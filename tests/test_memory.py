"""Peak memory of the simulator, the two audits, the ground-truth oracle,
the file writers and readers grows by a few bytes per round.

Both audits reduce a transcript to the k x k pair sums, so neither needs a
(T, k) array: at k = 19 one such float array alone is 152 B per round. Nor
does the oracle, which groups the rounds into distinct (distribution, truth
row) pairs by sorting one 8-byte key per round. The simulator and the
readers keep typed columns, a few 8-byte entries per round, and no Python
object per round. The writers and the manipulation demo's mean-based check
walk a block of rounds at a time and keep nothing per round. The peak is
measured with the standard library's tracemalloc, which numpy reports its
buffers to, between two horizons on inputs built beforehand: T = 20,000
and 200,000 rounds for the audits, the reduced file, the oracle's figure
rows and the demo's check, and 2,000 and 20,000 for the simulator and for
full transcripts and truth sidecars, whose lines are about 20 times longer.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from regretaudit.aggregate import DriftAssumption, audit_aggregated, read_price_series
from regretaudit.audit import audit, regret_curve
from regretaudit.figures import cost_sweep_rows, horizon_rows, log_spaced_horizons, write_truth
from regretaudit.market import Market, UniformDuopoly, manipulation_valuation_table
from regretaudit.oracles import GroundTruth, materialize_truth
from regretaudit.sellers import (
    MWUStrategy,
    QLearnerStrategy,
    mean_based_violations,
    reward_bounds,
    simulate,
)
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
# The exact audit keeps per distinct row its round count and its k
# allocation sums, 40 B at k = 4, which is per round when no row repeats
# (an 8-byte cell id per round stands in for the counts while the sums are
# built). The bound is the figure measured when the margin still read a
# weight per round (47.2 B): any per-row temporary of the margin held next
# to the sums would exceed it.
MAX_AUDIT_DISTINCT_GROWTH_BYTES_PER_ROUND = 48
# The simulator keeps, per seller, the posted prices, the allocations, the
# payoffs and the row ids, and the uniforms of both sellers' draws: 80 B per
# round. When no row repeats, each seller's new row of k = 4 floats is
# also kept in its table and as the bytes key of its dictionary entry.
MAX_SIMULATE_GROWTH_BYTES_PER_ROUND = 96
MAX_SIMULATE_DISTINCT_GROWTH_BYTES_PER_ROUND = 448
# A walk a block of rounds at a time keeps nothing per round. A writer
# keeps only the texts of the block it writes, so nothing per round either,
# whether no row repeats or each repeats once in the next round (111.8 B
# per round for the latter when it kept every repeated row's text to the
# end, 10.2 B for the former when it kept two flags and a reference per
# distinct row).
MAX_BLOCKED_GROWTH_BYTES_PER_ROUND = 2
MAX_WRITE_DISTINCT_GROWTH_BYTES_PER_ROUND = 2
TABLE_GRID = PriceGrid([0.0, 1.0, 2.0, 3.0])


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


def q_transcript_and_truth(rounds: int):
    """A k = 19 Q-learner's transcript against a random opponent trace, and
    the uniform duopoly's ground truth along that trace."""
    explore = 0.01
    table = np.full((K, K), explore / K) + np.eye(K) * (1.0 - explore)
    greedy, posted, alloc = greedy_rounds(rounds, explore)
    opponent = np.random.default_rng(rounds + 1).integers(K, size=rounds)
    truth = materialize_truth(Market(GRID, UniformDuopoly(), (0.1, 0.2)), opponent, 0)
    return Transcript(GRID, posted, alloc, greedy, table), truth


def test_true_regret_sweep_peak_grows_by_a_few_bytes_per_round():
    def make_args(rounds):
        transcript, truth = q_transcript_and_truth(rounds)
        return regret_curve(transcript), truth, transcript

    def sweep(curve, truth, transcript):
        return cost_sweep_rows(curve, 0.1, 0.9, 81, truth, transcript)

    assert growth_per_round(make_args, sweep) <= MAX_GROWTH_BYTES_PER_ROUND


def test_true_regret_horizons_peak_grows_by_a_few_bytes_per_round():
    def horizons(transcript, truth):
        return horizon_rows(transcript, truth, [0.1, 0.5], log_spaced_horizons(len(transcript)))

    assert growth_per_round(q_transcript_and_truth, horizons) <= MAX_GROWTH_BYTES_PER_ROUND


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


def distinct_rows_transcript(rounds: int) -> Transcript:
    """A multiplicative-weights learner's transcript: every round's row is new."""
    rng = np.random.default_rng(rounds)
    rows = rng.dirichlet(np.ones(len(TABLE_GRID)), size=rounds)
    posted = rng.integers(len(TABLE_GRID), size=rounds)
    return Transcript(TABLE_GRID, posted, rng.random(rounds), np.arange(rounds), rows)


def test_audit_peak_with_a_new_row_every_round():
    config = AuditConfig(CostRange(0.0, 1.0), 6e-3, 0.05)

    def make_args(rounds):
        return distinct_rows_transcript(rounds), config

    assert growth_per_round(make_args, audit) <= MAX_AUDIT_DISTINCT_GROWTH_BYTES_PER_ROUND


def test_transcript_reader_peak_with_a_new_row_every_round(tmp_path):
    def make_args(rounds):
        path = str(tmp_path / f"mwu{rounds}.jsonl")
        write_transcript(distinct_rows_transcript(rounds), path)
        return (path,)

    growth = growth_per_round(make_args, read_transcript, SMALL // 10, LARGE // 10)
    assert growth <= MAX_READ_DISTINCT_GROWTH_BYTES_PER_ROUND


@pytest.mark.slow
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


def q_duopoly(rounds: int):
    """simulate's arguments: two fresh Q-learners on the k = 19 duopoly."""
    market = Market(GRID, UniformDuopoly(), (0.1, 0.2))
    strategies = tuple(QLearnerStrategy.standard(GRID, cost) for cost in market.costs)
    return market, strategies, rounds


def mwu_table(rounds: int):
    """simulate's arguments: two fresh MWU learners on the k = 4 table."""
    market = Market(TABLE_GRID, manipulation_valuation_table(0.005), (0.0, 0.0))
    bounds = reward_bounds(market)
    return market, tuple(MWUStrategy.fresh(4, 1e-3, *bounds) for _ in market.costs), rounds


def test_simulate_peak_grows_by_its_columns():
    simulate(*q_duopoly(100))  # first calls fill caches that later runs reuse
    growth = growth_per_round(q_duopoly, simulate, SMALL // 10, LARGE // 10)
    assert growth <= MAX_SIMULATE_GROWTH_BYTES_PER_ROUND


def test_simulate_peak_with_a_new_row_every_round():
    simulate(*mwu_table(100))
    growth = growth_per_round(mwu_table, simulate, SMALL // 10, LARGE // 10)
    assert growth <= MAX_SIMULATE_DISTINCT_GROWTH_BYTES_PER_ROUND


def test_transcript_writer_keeps_nothing_per_round(tmp_path):
    def make_args(rounds):
        transcript, _ = q_transcript_and_truth(rounds)
        return transcript, str(tmp_path / "q.jsonl")

    growth = growth_per_round(make_args, write_transcript, SMALL // 10, LARGE // 10)
    assert growth <= MAX_BLOCKED_GROWTH_BYTES_PER_ROUND


def test_transcript_writer_peak_with_a_new_row_every_round(tmp_path):
    def make_args(rounds):
        return distinct_rows_transcript(rounds), str(tmp_path / "mwu.jsonl")

    growth = growth_per_round(make_args, write_transcript, SMALL // 10, LARGE // 10)
    assert growth <= MAX_WRITE_DISTINCT_GROWTH_BYTES_PER_ROUND


def rows_repeated_twice(rounds: int) -> tuple[Transcript, GroundTruth]:
    """A transcript and a truth whose rounds take the row ids 0, 0, 1, 1,
    2, 2, ...: each row recurs once, in the next round."""
    rng = np.random.default_rng(rounds)
    rows = rng.dirichlet(np.ones(len(TABLE_GRID)), size=(rounds + 1) // 2)
    index = np.arange(rounds) // 2
    posted = rng.integers(len(TABLE_GRID), size=rounds)
    transcript = Transcript(TABLE_GRID, posted, rng.random(rounds), index, rows)
    return transcript, GroundTruth(TABLE_GRID.levels, rows, index)


@pytest.mark.parametrize("writer", [write_transcript, write_truth], ids=["transcript", "truth"])
def test_writer_peak_with_rows_repeated_twice(tmp_path, writer):
    def make_args(rounds):
        transcript, truth = rows_repeated_twice(rounds)
        return transcript if writer is write_transcript else truth, str(tmp_path / "twice.jsonl")

    growth = growth_per_round(make_args, writer, SMALL // 10, LARGE // 10)
    assert growth <= MAX_WRITE_DISTINCT_GROWTH_BYTES_PER_ROUND


def test_truth_writer_keeps_nothing_per_round(tmp_path):
    def make_args(rounds):
        _, truth = q_transcript_and_truth(rounds)
        return truth, str(tmp_path / "truth.jsonl")

    growth = growth_per_round(make_args, write_truth, SMALL // 10, LARGE // 10)
    assert growth <= MAX_BLOCKED_GROWTH_BYTES_PER_ROUND


def test_mean_based_check_keeps_nothing_per_round():
    market = Market(TABLE_GRID, manipulation_valuation_table(0.005), (0.0, 0.0))
    _, utilities = market.tables[1]

    def make_args(rounds):
        learner = MWUStrategy.fresh(4, 2.0, *reward_bounds(market))
        opponent = np.random.default_rng(rounds + 1).integers(4, size=rounds)
        return learner, utilities, opponent, distinct_rows_transcript(rounds), 1e-4, rounds

    assert growth_per_round(make_args, mean_based_violations) <= MAX_BLOCKED_GROWTH_BYTES_PER_ROUND
