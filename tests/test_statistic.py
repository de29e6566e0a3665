"""The audits' one statistic, the pair sums M[p, q] = sum_t pi_t(p) xhat_t(q).

`pair_sums` fills M from per-row allocation sums instead of the (T, k) x-hat
array, and `audit_aggregated` adds M up over fixed-size blocks of rounds.
Both are pinned here to dense references written on the test side:

- M against the dense `per_round_dists(tr).T @ estimate_allocations(tr)`
  and against M summed exactly in `Fraction`s. Only the order of the float additions
  differs, and every term is non-negative, so each entry's error is at most
  about (T + k) units in the last place of max|M|. The stated bound is
  1e-12 * max|M| for T <= 200;
- the blocked windowed frequencies and estimated rows, bit for bit, against
  a (T + 1, k) prefix sum and a per-round renormalization, at horizons
  around the block size and windows shorter than a block, longer than one
  and as long as the horizon;
- the cost sweeps that no longer build (n, k, k) arrays, bit for bit
  against the broadcast expressions they replace.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretaudit import aggregate
from regretaudit.aggregate import (
    DistributionEstimate,
    DriftAssumption,
    audit_aggregated,
    estimate_distributions,
)
from regretaudit.audit import (
    PWLInCost,
    audit_with_margin,
    block_rows,
    estimate_allocations,
    pair_sums,
    regret_curve,
)
from regretaudit.core import AuditConfig, CostRange, PriceGrid, Transcript
from regretaudit.oracles import GroundTruth, true_calibrated_regret

from witnesses import per_round_dists, per_round_freqs, transcript_from_rounds

F = Fraction
M_REL_TOL = 1e-12


@st.composite
def transcripts(draw):
    """Transcripts with few distinct rows or one per round, supports that
    skip the lowest prices (fill 1) or have gaps (copied fills), and some
    zero allocations; T = 1 and k = 1 included."""
    k = draw(st.integers(1, 6))
    rounds = draw(st.integers(1, 200))
    per_round = draw(st.booleans())
    n = rounds if per_round else draw(st.integers(1, min(rounds, 4)))
    lowest = draw(st.integers(0, k - 1))  # prices below it are never supported
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.zeros((n, k))
    for row in table:
        support = rng.choice(np.arange(lowest, k), size=int(rng.integers(1, k - lowest + 1)), replace=False)
        row[np.sort(support)] = rng.integers(1, 17, size=len(support)) / 16.0
        row /= row.sum()
    index = np.arange(rounds) if per_round else rng.integers(n, size=rounds)
    posted = np.array([rng.choice(np.flatnonzero(table[i])) for i in index], dtype=np.int64)
    alloc = np.where(rng.random(rounds) < zero_share, 0.0, rng.random(rounds))
    grid = PriceGrid(np.sort(rng.uniform(0.1, 2.0, size=k)).tolist())
    return Transcript(grid, posted, alloc, index, table)


def exact_pair_sums(tr: Transcript) -> np.ndarray:
    """M from its definition, round by round and price by price, in Fractions."""
    k = tr.dist_table.shape[1]
    m = [[F(0)] * k for _ in range(k)]
    for row, j, a in zip(per_round_dists(tr).tolist(), tr.posted.tolist(), tr.alloc.tolist()):
        xhat, fill = [], F(1)
        for q in range(k):
            if row[q] > 0:
                fill = F(a) / F(row[j]) if q == j else F(0)
            xhat.append(fill)
        for p in range(k):
            if row[p] > 0:
                m[p] = [acc + F(row[p]) * x for acc, x in zip(m[p], xhat)]
    return np.array(m, dtype=object)


class TestPairSums:
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(tr=transcripts())
    def test_matches_dense_and_exact_sums(self, tr):
        m = pair_sums(tr)
        exact = exact_pair_sums(tr)
        scale = float(max(abs(v) for v in exact.ravel()))
        error = max(abs(F(float(a)) - b) for a, b in zip(m.ravel(), exact.ravel()))
        assert float(error) <= M_REL_TOL * scale
        dense = per_round_dists(tr).T @ estimate_allocations(tr)
        assert np.abs(m - dense).max() <= M_REL_TOL * scale

    def test_curve_is_the_curve_of_the_pair_sums(self, rng):
        grid = PriceGrid([0.2, 0.5, 0.9])
        table = np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]])
        index = rng.integers(2, size=50)
        posted = np.array([rng.choice(np.flatnonzero(table[i])) for i in index])
        tr = Transcript(grid, posted, rng.random(50), index, table)
        curve = regret_curve(tr)
        expected = PWLInCost.from_pair_sums(pair_sums(tr), grid.levels, 50)
        assert curve.slopes.tobytes() == expected.slopes.tobytes()
        assert curve.intercepts.tobytes() == expected.intercepts.tobytes()
        assert curve.breakpoints == expected.breakpoints

    def test_rows_beyond_one_block(self, rng):
        # One distinct row per round over several row blocks.
        k = 3
        rounds = 2 * block_rows(k) + 5
        table = rng.integers(1, 5, size=(rounds, k)) / 1.0
        table /= table.sum(axis=1, keepdims=True)
        posted = np.array([rng.choice(k, p=row) for row in table])
        tr = Transcript(PriceGrid([1.0, 2.0, 3.0]), posted, rng.random(rounds), np.arange(rounds), table)
        dense = per_round_dists(tr).T @ estimate_allocations(tr)
        assert np.abs(pair_sums(tr) - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_empty_transcript_rejected(self):
        with pytest.raises(ValueError, match="empty transcript"):
            pair_sums(transcript_from_rounds(PriceGrid([1.0]), [], [], []))


def dense_freqs(posted: np.ndarray, k: int, window: int) -> np.ndarray:
    """Windowed frequencies from a (T + 1, k) prefix sum of one-hot rows."""
    T = len(posted)
    onehot = np.zeros((T + 1, k))
    onehot[np.arange(1, T + 1), posted] = 1.0
    prefix = np.cumsum(onehot, axis=0)
    starts = np.array([min(max(t - (window - 1) // 2, 0), T - window) for t in range(T)])
    return (prefix[starts + window] - prefix[starts]) / window


def dense_estimated_rows(freqs: np.ndarray, posted: np.ndarray, rho_prime: float) -> np.ndarray:
    """Each round's frequencies renormalized over its kept prices, one round at a time."""
    rows = np.zeros_like(freqs)
    for t, (f, j) in enumerate(zip(freqs, posted.tolist())):
        keep = f >= rho_prime
        keep[j] = True
        rows[t] = np.where(keep, f, 0.0) / f[keep].sum()
    return rows


def drifting_prices(rng, k: int, rounds: int) -> np.ndarray:
    """Posted prices whose distribution moves slowly, so that windows see
    partial supports."""
    phase = np.linspace(0.0, 3.0, rounds)[:, None]
    weights = 0.01 + np.cos(phase + 0.6 * np.arange(k)[None, :]) ** 8
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    u = rng.random(rounds)[:, None]
    return np.minimum((u > cdf).sum(axis=1), k - 1).astype(np.int64)


K = 5
B = block_rows(K)
HORIZONS = (1, B - 1, B, B + 1, 3 * B + 7)


def windows_for(T: int) -> list[int]:
    """A window shorter than a block, one longer than a block and the horizon."""
    return sorted({min(T, 37), *([B + 11] if B + 11 <= T else []), T})


class TestBlockedEstimates:
    @pytest.mark.parametrize("T", HORIZONS)
    def test_frequencies_are_bit_identical_to_a_prefix_sum(self, rng, T):
        posted = drifting_prices(rng, K, T)
        for window in windows_for(T):
            est = DistributionEstimate(posted, K, 0.1, window)
            expected = dense_freqs(posted, K, window)
            assert per_round_freqs(est).tobytes() == expected.tobytes()
            lo, hi = T // 3, T - T // 5
            blocks = [f for _, f in est.blocks(lo, hi)]
            assert [a for a, _ in est.blocks(lo, hi)] == list(range(lo, hi, B))
            got = np.concatenate(blocks) if blocks else np.zeros((0, K))
            assert got.tobytes() == expected[lo:hi].tobytes()

    def test_estimate_distributions_keeps_its_window_and_bound(self, rng):
        posted = drifting_prices(rng, K, 4000)
        est = estimate_distributions(posted, PriceGrid(range(1, K + 1)), DriftAssumption(epsilon=1e-4), 0.05)
        log_term = math.log(2 * 4000 * K / 0.05)
        assert est.window == math.ceil(log_term / (2 * (1e-4 * log_term / 2) ** (2 / 3)))
        assert per_round_freqs(est).tobytes() == dense_freqs(posted, K, est.window).tobytes()

    @pytest.mark.parametrize(
        "T, target", [(T, L) for T in HORIZONS[1:] for L in (37, B + 11) if L <= T]
    )
    def test_audit_matches_a_dense_reference(self, rng, monkeypatch, T, target):
        grid = PriceGrid([0.2, 0.4, 0.6, 0.8, 1.0])
        posted = drifting_prices(rng, K, T)
        alloc = np.where(rng.random(T) < 0.1, 0.0, rng.random(T))
        delta = 0.05
        log_term = math.log(2 * T * K / delta)
        eps = (2 / log_term) * (log_term / (2 * target)) ** 1.5  # balances at about `target`
        drift = DriftAssumption(epsilon=eps, support_floor=1.0)
        cfg = AuditConfig(CostRange(0.1, 0.9), 0.05, delta)
        seen = []
        original = aggregate.pair_sums
        monkeypatch.setattr(aggregate, "pair_sums", lambda tr: seen.append(tr.dist_table) or original(tr))
        report = audit_aggregated(posted, alloc, grid, drift, cfg)
        window = estimate_distributions(posted, grid, drift, delta).window
        assert (window < B) == (target < B)
        rho_prime = (4 * eps * log_term) ** (1 / 3)
        rows = dense_estimated_rows(dense_freqs(posted, K, window), posted, rho_prime)
        assert np.concatenate(seen).tobytes() == rows.tobytes()
        assert len(seen) == math.ceil(T / B)
        tr = Transcript(grid, posted, alloc, np.arange(T), rows)
        dense = per_round_dists(tr).T @ estimate_allocations(tr)
        curve = PWLInCost.from_pair_sums(dense, grid.levels, T)
        expected = audit_with_margin(curve, grid, T, cfg, report.error_margin, "aggregated")
        assert report.verdict == expected.verdict
        assert report.swap_at_optimum == expected.swap_at_optimum
        assert report.estimated_plausible_cost == pytest.approx(expected.estimated_plausible_cost, abs=1e-9)
        assert report.estimated_regret == pytest.approx(expected.estimated_regret, rel=1e-9, abs=1e-12)
        for (c, v), (c_ref, v_ref) in zip(report.curve_samples, expected.curve_samples, strict=True):
            assert (c, v) == pytest.approx((c_ref, v_ref), rel=1e-9, abs=1e-12)


def broadcast_values(curve: PWLInCost, cs) -> np.ndarray:
    """The sweep as one (n, k, k) broadcast."""
    cs = np.asarray(cs, dtype=float)
    lines = curve.slopes[None, :, :] * cs[:, None, None] + curve.intercepts[None, :, :]
    return lines.max(axis=2).sum(axis=1)


def broadcast_true_regret(m: np.ndarray, levels: np.ndarray, cs: np.ndarray, rounds: int) -> list:
    """The true calibrated regret at each cost as one (n, k, k) broadcast."""
    margins = levels[None, :] - cs[:, None]
    gains = margins[:, None, :] * m - (margins * np.diag(m))[:, :, None]
    return (gains.max(axis=2).sum(axis=1) / rounds).tolist()


class TestCostSweeps:
    @pytest.mark.parametrize("k", (1, 4, 19))
    def test_curve_values_equal_the_broadcast(self, rng, k):
        for _ in range(5):
            curve = PWLInCost(rng.normal(size=(k, k)), rng.normal(size=(k, k)), ())
            for cs in ([0.3], rng.uniform(-1, 2, size=257)):
                assert curve.values(cs).tobytes() == broadcast_values(curve, cs).tobytes()

    @pytest.mark.parametrize("k", (1, 3, 19))
    def test_true_regret_equals_the_broadcast(self, rng, k):
        rounds = 40
        levels = np.sort(rng.uniform(0.1, 2.0, size=k))
        dists = rng.integers(0, 4, size=(rounds, k)) / 1.0
        dists[:, 0] += 1.0
        dists /= dists.sum(axis=1, keepdims=True)
        values = rng.random((rounds, k))
        cs = rng.uniform(0, 1, size=9)
        truth = GroundTruth(tuple(levels.tolist()), values, np.arange(rounds))
        m = dists.T @ values
        ids = np.arange(rounds)  # a table row per round
        assert true_calibrated_regret(dists, ids, truth, cs) == broadcast_true_regret(m, levels, cs, rounds)
        # Exact: the same floats, held as Fractions.
        table = np.array([[F(v) for v in row] for row in values.tolist()], dtype=object)
        exact = GroundTruth(truth.levels, table, truth.index)
        rounds_exact = list(zip(dists.tolist(), table))
        m_exact = np.array(
            [[sum(F(d[p]) * x[q] for d, x in rounds_exact) for q in range(k)] for p in range(k)],
            dtype=object,
        )
        levels_exact = np.array([F(v) for v in levels.tolist()], dtype=object)
        cs_exact = np.array([F(c) for c in cs.tolist()], dtype=object)
        expected = broadcast_true_regret(m_exact, levels_exact, cs_exact, rounds)
        assert true_calibrated_regret(dists, ids, exact, cs.tolist()) == expected

    def test_long_sweep_stays_small(self, rng):
        k = 19
        curve = PWLInCost(rng.normal(size=(k, k)), rng.normal(size=(k, k)), ())
        cs = np.linspace(0.0, 1.0, 100_000)
        tracemalloc.start()
        try:
            curve.values(cs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
