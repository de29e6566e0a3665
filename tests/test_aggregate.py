import io
import math

import numpy as np
import pytest

from regretaudit.aggregate import (
    DriftAssumption,
    InsufficientData,
    aggregated_error_margin,
    audit_aggregated,
    estimate_distributions,
    read_price_series,
)
from regretaudit.audit import audit
from regretaudit.core import (
    AuditConfig,
    CostRange,
    PriceGrid,
    TranscriptParseError,
)
from regretaudit.market import Market, manipulation_valuation_table
from regretaudit.sellers import FixedPriceStrategy, MWUStrategy, reward_bounds, simulate

from conftest import transcript_from
from witnesses import (
    drift_horizon_floor,
    dumps_transcript,
    minimum_rounds_for_aggregated_audit,
    per_round_dists,
    per_round_freqs,
)


class TestEstimateDistributions:
    def test_constant_price_gives_point_masses(self):
        grid = PriceGrid([1.0, 2.0, 3.0])
        drift = DriftAssumption(epsilon=1e-3, support_floor=0.5)
        est = estimate_distributions([1] * 500, grid, drift, 0.05)
        assert np.array_equal(per_round_freqs(est)[:, 1], np.ones(500))
        assert per_round_freqs(est)[:, 0].max() == 0.0

    def test_window_length_formula_and_clamping(self, rng):
        grid = PriceGrid([1.0, 2.0])
        T, k, delta, eps = 800, 2, 0.05, 1e-3
        drift = DriftAssumption(epsilon=eps, support_floor=0.5)
        posted = rng.integers(0, 2, size=T).tolist()
        est = estimate_distributions(posted, grid, drift, delta)
        log_term = math.log(2 * T * k / delta)
        t_opt = (eps * log_term / 2) ** (1 / 3)
        assert est.window == math.ceil(log_term / (2 * t_opt**2))
        # Boundary windows shift inward but always average exactly L rounds.
        onehot = np.zeros((T, k))
        onehot[np.arange(T), posted] = 1.0
        L = est.window
        for i in (0, 1, T // 2, T - 2, T - 1):
            start = min(max(i - (L - 1) // 2, 0), T - L)
            assert np.allclose(per_round_freqs(est)[i], onehot[start : start + L].mean(axis=0))
            assert per_round_freqs(est)[i].sum() == pytest.approx(1.0)

    def test_drift_too_large_for_horizon(self):
        # The balancing window grows as the drift bound shrinks: a small
        # bound, or T ** -gamma for a large gamma, needs more rounds than
        # the horizon has, and one that underflows to 0 needs unboundedly many.
        grid = PriceGrid([1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_distributions([0] * 50, grid, DriftAssumption(epsilon=1e-6, support_floor=0.5), 0.05)
        for gamma, window in ((5.0, "715153369631"), (1e6, "inf")):
            with pytest.raises(ValueError, match=rf"balancing window \({window} rounds .* exceeds the 3000-round horizon"):
                estimate_distributions([0] * 3000, grid, DriftAssumption(gamma=gamma, support_floor=0.9), 0.05)

    @pytest.mark.slow
    def test_mwu_errors_respect_lemma_bound(self, rng):
        # 100 seeded runs of a slow learner against a fixed opponent; the
        # measured sup-norm error must stay below the stated bound in at
        # least 95 of them at delta = 0.05.
        grid = PriceGrid([0.0, 1.0, 2.0, 3.0])
        tab = manipulation_valuation_table(0.005)
        eta, T, delta = 1e-3, 4000, 0.05
        drift = DriftAssumption(epsilon=eta, support_floor=0.05)
        bound = (4 * eta * math.log(2 * T * len(grid) / delta)) ** (1 / 3)
        market = Market(grid, tab, (0, 0))
        hits = 0
        for seed in range(100):
            learner = MWUStrategy.fresh(4, eta, *reward_bounds(market))
            res = simulate(market, (FixedPriceStrategy(1, 4), learner), T, "expected", seed)
            tr = res.transcripts[1]
            est = estimate_distributions(tr.posted, grid, drift, delta)
            true = per_round_dists(tr)
            err = float(np.abs(per_round_freqs(est) - true).max())
            hits += err <= bound
        assert hits >= 95

    def test_iid_error_shrinks_like_inverse_sqrt_window(self, rng):
        grid = PriceGrid([1.0, 2.0, 3.0])
        probs = np.array([0.2, 0.5, 0.3])
        T, delta = 4000, 0.05
        errs = []
        windows = []
        for eps in (2e-3, 2e-5):
            drift = DriftAssumption(epsilon=eps, support_floor=0.05)
            per_seed = []
            for seed in range(10):
                r = np.random.default_rng(seed)
                posted = r.choice(3, size=T, p=probs).tolist()
                est = estimate_distributions(posted, grid, drift, delta)
                per_seed.append(float(np.abs(per_round_freqs(est) - probs[None, :]).mean()))
            errs.append(np.mean(per_seed))
            windows.append(est.window)
        expected_ratio = math.sqrt(windows[1] / windows[0])
        measured_ratio = errs[0] / errs[1]
        assert 0.55 * expected_ratio <= measured_ratio <= 1.8 * expected_ratio


class TestAggregatedAudit:
    def test_insufficient_data_result(self):
        grid = PriceGrid([1.0, 2.0])
        drift = DriftAssumption(gamma=0.3, support_floor=0.4)
        cfg = AuditConfig(CostRange(0.0, 1.0), 0.1, 0.05)
        with pytest.raises(InsufficientData, match="insufficient data") as caught:
            audit_aggregated([0] * 100, [0.5] * 100, grid, drift, cfg)
        assert caught.value.rho_prime >= 0.4

    def test_constant_price_matches_exact_audit(self):
        grid = PriceGrid([0.5, 1.0, 1.5])
        rounds = 3000
        allocs = (0.4 + 0.2 * np.sin(np.arange(rounds))).clip(0, 1)
        dists = [np.array([0.0, 1.0, 0.0])] * rounds
        tr = transcript_from(grid, dists, [1] * rounds, allocs)
        cfg = AuditConfig(CostRange(0.1, 0.9), 0.1, 0.05)
        exact = audit(tr, cfg)
        drift = DriftAssumption(gamma=0.7, support_floor=0.9)
        agg = audit_aggregated([1] * rounds, allocs.tolist(), grid, drift, cfg)
        assert agg.provenance == "aggregated"
        assert agg.estimated_plausible_cost == exact.estimated_plausible_cost
        assert agg.estimated_regret == pytest.approx(exact.estimated_regret, abs=1e-12)

    def test_margin_formula(self):
        val = aggregated_error_margin(10_000, 4, 3.0, 0.2, 0.5, 0.05)
        estimation = 4 * (3.0 * 0.2 / 0.5) * (1 / 0.3 + 1)
        concentration = math.sqrt(math.log(8 * 16 / 0.05) * 2 * (1 / 0.5 + 1) ** 2 * 9 / 10_000)
        assert val == pytest.approx(estimation + concentration, rel=1e-12)

    def test_posted_price_always_in_support(self):
        # One stray posting below the detection threshold must not break the
        # propensity division.
        grid = PriceGrid([1.0, 2.0])
        rounds = 2000
        posted = [1] * rounds
        posted[1000] = 0
        drift = DriftAssumption(gamma=0.7, support_floor=0.5)
        cfg = AuditConfig(CostRange(0.0, 1.0), 0.1, 0.05)
        result = audit_aggregated(posted, [0.5] * rounds, grid, drift, cfg)
        assert result.verdict in ("PASS", "FAIL")

    def test_endogenous_grid_adds_gap_to_aggregated_verdict(self):
        grid = PriceGrid([0.2, 0.5, 0.6], continuum_upper=1.0)
        rounds = 2000
        drift = DriftAssumption(gamma=0.7, support_floor=0.9)
        cfg = AuditConfig(CostRange(0.0, 0.5), 0.1, 0.05, endogenous=True)
        result = audit_aggregated([1] * rounds, [0.5] * rounds, grid, drift, cfg)
        assert result.discretization_loss == pytest.approx(0.4)

    def test_horizon_floor_solves_fixed_point(self):
        gamma, k, delta = 0.5, 4, 0.05
        t0 = drift_horizon_floor(gamma, k, delta)
        assert t0 ** (gamma / 2) == pytest.approx(math.log(8 * t0 * k**3 / delta), rel=1e-6)
        bound = minimum_rounds_for_aggregated_audit(gamma, 0.3, k, 3.0, 0.1, delta)
        assert bound > t0


class TestReducedTranscript:
    def test_reads_reduced_and_full_files(self, rng):
        grid = PriceGrid([1.0, 2.0])
        reduced = (
            '{"grid": [1.0, 2.0], "continuum_upper": null}\n'
            '{"t": 1, "posted": 0, "alloc": 0.25}\n'
            '{"t": 2, "posted": 1, "alloc": 0.75}\n'
        )
        g, posted, allocs = read_price_series(io.StringIO(reduced))
        assert g.levels == grid.levels
        assert posted.tolist() == [0, 1]
        assert allocs.tolist() == [0.25, 0.75]
        dists = [np.array([0.5, 0.5])] * 2
        tr = transcript_from(grid, dists, [0, 1], [0.25, 0.75])
        g, posted, allocs = read_price_series(io.StringIO(dumps_transcript(tr)))
        assert posted.tolist() == [0, 1]

    def test_round_contiguity_enforced(self):
        text = (
            '{"grid": [1.0], "continuum_upper": null}\n'
            '{"t": 2, "posted": 0, "alloc": 0.25}\n'
        )
        with pytest.raises(TranscriptParseError):
            read_price_series(io.StringIO(text))

    def test_drift_assumption_validation(self):
        with pytest.raises(ValueError):
            DriftAssumption(epsilon=0.0, support_floor=0.5)
        with pytest.raises(ValueError):
            DriftAssumption(gamma=-0.1, support_floor=0.5)
        with pytest.raises(ValueError):
            DriftAssumption(gamma=0.5, support_floor=0.0)
        for bounds in ({}, {"epsilon": 0.01, "gamma": 0.5}):
            with pytest.raises(ValueError, match="exactly one of epsilon and gamma"):
                DriftAssumption(**bounds, support_floor=0.5)
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite gamma"):
                DriftAssumption(gamma=value, support_floor=0.5)
            with pytest.raises(ValueError, match="finite epsilon"):
                DriftAssumption(epsilon=value, support_floor=0.5)
