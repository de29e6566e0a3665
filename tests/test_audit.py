import itertools
import json
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from regretaudit.audit import (
    audit,
    discretization_loss,
    error_margin,
    estimate_allocations,
    minimize_over_cost,
    regret_curve,
)
from regretaudit.core import (
    AuditConfig,
    CostRange,
    PriceGrid,
)

from conftest import dense_row, dyadic_distribution, random_instance, sample_posted, transcript_from
from witnesses import (
    per_round_allocations,
    per_round_truth,
    pessimistic_allocation,
    transcript_from_rounds,
    true_pessimistic_regret,
)

F = Fraction


def random_transcript(rng, k=4, rounds=30):
    grid = PriceGrid(np.sort(rng.uniform(0.1, 2.0, size=k)).tolist())
    dists = [dyadic_distribution(rng, k) for _ in range(rounds)]
    posted = sample_posted(rng, dists)
    allocs = rng.random(rounds)
    return transcript_from(grid, dists, posted, allocs)


class TestEstimateAllocations:
    def test_point_mass_fill(self):
        grid = PriceGrid([0.2, 0.5, 0.8, 0.9])
        tr = transcript_from(grid, [dense_row(4, (1,), (1.0,))], [1], [0.4])
        xhat = estimate_allocations(tr)
        assert xhat.tolist() == [[1.0, 0.4, 0.4, 0.4]]

    def test_support_gap_uses_lower_neighbor(self):
        grid = PriceGrid([0.3, 0.5, 0.7])
        tr = transcript_from(grid, [dense_row(3, (1,), (1.0,))], [1], [0.6])
        xhat = estimate_allocations(tr)
        assert xhat.tolist() == [[1.0, 0.6, 0.6]]

    def test_supported_but_not_posted_is_zero(self):
        grid = PriceGrid([0.3, 0.5, 0.7])
        dist = dense_row(3, (0, 2), (0.5, 0.5))
        tr = transcript_from(grid, [dist], [0], [0.8])
        xhat = estimate_allocations(tr)
        # Posted price propensity-weighted; the other supported price stays 0
        # and the unsupported middle price copies its lower neighbor.
        assert xhat.tolist() == [[1.6, 1.6, 0.0]]

    def test_matches_per_round_fill_on_multi_round_transcripts(self, rng):
        # Distinct rows shared across rounds, supports with gaps or starting
        # above index 0, and zero allocations; the fill is written round by
        # round, price by price, from its definition.
        k = 6
        for _ in range(40):
            rows = [dyadic_distribution(rng, k) for _ in range(int(rng.integers(1, 5)))]
            rows.append(dense_row(k, (2, 5), (0.25, 0.75)))
            ids = rng.integers(len(rows), size=int(rng.integers(1, 30)))
            dists = [rows[d] for d in ids]
            posted = sample_posted(rng, dists)
            allocs = np.where(rng.random(len(ids)) < 0.3, 0.0, rng.random(len(ids)))
            tr = transcript_from(PriceGrid([0.1, 0.2, 0.4, 0.5, 0.7, 0.9]), dists, posted, allocs)
            expected = np.empty((len(ids), k))
            for t, (row, a, x) in enumerate(zip(dists, posted, allocs)):
                fill = 1.0
                for q in range(k):
                    if row[q] > 0:
                        fill = x / row[a] if q == a else 0.0
                    expected[t, q] = fill
            assert estimate_allocations(tr).tobytes() == expected.tobytes()

    def test_expected_estimate_is_pessimistic_completion(self, rng):
        # Power-of-two probabilities make the float propensity division
        # exact, so the realization average equals the filled truth exactly.
        patterns = [(1.0,), (0.5, 0.5), (0.5, 0.25, 0.25), (0.25, 0.25, 0.5)]
        grid = PriceGrid([0.4, 0.9, 1.6])
        for _ in range(30):
            probs = patterns[int(rng.integers(len(patterns)))]
            support = sorted(rng.choice(3, size=len(probs), replace=False).tolist())
            dist = dense_row(3, support, probs)
            x = np.sort(rng.random(3))[::-1]
            expectation = [F(0)] * 3
            for a, pa in zip(support, probs):
                tr = transcript_from(grid, [dist], [a], [x[a]])
                xhat = estimate_allocations(tr)[0]
                for p in range(3):
                    expectation[p] += F(pa) * F(float(xhat[p]))
            truth = per_round_truth(grid.levels, [tuple(float(v) for v in x)], exact=True)
            z = pessimistic_allocation(truth, [dist])
            assert expectation == [F(v) for v in z.table[z.index[0]]]


def direct_term(tr, est, p, q, c, order):
    """Average benefit of substituting p with q at cost c, summed round by
    round in the given order."""
    levels = tr.grid.levels
    total = 0.0
    for t in order:
        pi_p = tr.dist_table[tr.dist_index[t], p]
        total += pi_p * ((levels[q] - c) * est[t, q] - (levels[p] - c) * est[t, p])
    return total / len(tr)


class TestPairwiseRegret:
    # The benefit of substituting p with q is slopes[p, q] * c + intercepts[p, q].
    def test_identical_substitution_is_zero(self, rng):
        tr = random_transcript(rng)
        curve = regret_curve(tr)
        assert curve.slopes[2, 2] == 0 and curve.intercepts[2, 2] == 0

    def test_unit_allocations(self):
        grid = PriceGrid([1.0, 2.5])
        tr = transcript_from(grid, [dense_row(2, (0,), (1.0,))], [0], [1.0])
        curve = regret_curve(tr)
        assert curve.slopes[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert curve.intercepts[0, 1] == pytest.approx(2.5 - 1.0, abs=1e-15)

    def test_matches_reordered_summation(self, rng):
        tr = random_transcript(rng, k=3, rounds=5)
        est = estimate_allocations(tr)
        curve = regret_curve(tr)
        order = rng.permutation(len(tr))
        for p in range(3):
            for q in range(3):
                s, b = curve.slopes[p, q], curve.intercepts[p, q]
                for c in rng.uniform(0, 1.5, size=3):
                    assert s * c + b == pytest.approx(direct_term(tr, est, p, q, c, order), abs=1e-12)


class TestRegretCurve:
    def test_single_price_grid_is_zero_function(self):
        grid = PriceGrid([1.0])
        dist = np.array([1.0])
        tr = transcript_from(grid, [dist] * 3, [0, 0, 0], [0.5, 0.6, 0.7])
        curve = regret_curve(tr)
        for c in (0.0, 0.5, 1.0):
            assert curve.values([c])[0] == 0.0

    def test_matches_direct_evaluation(self, rng):
        tr = random_transcript(rng, k=5, rounds=40)
        curve = regret_curve(tr)
        est = estimate_allocations(tr)
        order = range(len(tr))
        for c in rng.uniform(0, 2.5, size=100):
            direct = [max(direct_term(tr, est, p, q, c, order) for q in range(5)) for p in range(5)]
            assert curve.values([c])[0] == pytest.approx(sum(direct), abs=1e-10)
            best = [max(s * c + b for s, b in zip(curve.slopes[p], curve.intercepts[p])) for p in range(5)]
            assert best == pytest.approx(direct, abs=1e-10)

    def test_convexity_and_slope_monotonicity(self, rng):
        for _ in range(10):
            tr = random_transcript(rng, k=4, rounds=20)
            curve = regret_curve(tr)
            bps = [b for b in curve.breakpoints if np.isfinite(b)]
            probes = sorted([*rng.uniform(-1, 3, size=20), *bps])
            # Midpoint convexity at random cost triples.
            for _ in range(100):
                a, b = np.sort(rng.uniform(-1, 3, size=2))
                m = (a + b) / 2
                assert curve.values([m])[0] <= (curve.values([a])[0] + curve.values([b])[0]) / 2 + 1e-9
            # Active slopes never decrease from left to right.
            slopes = []
            for lo, hi in zip(probes, probes[1:]):
                if hi - lo < 1e-9:
                    continue
                slopes.append((curve.values([hi])[0] - curve.values([lo])[0]) / (hi - lo))
            assert all(b >= a - 1e-7 for a, b in zip(slopes, slopes[1:]))


class TestMinimize:
    @staticmethod
    def decreasing_curve():
        # Posted the high price with allocation 0.2: moving down to the low
        # price gains (1 - c) * 1 - (2 - c) * 0.2 = 0.6 - 0.8c, decreasing
        # until it hits the stay-put line at c = 0.75.
        grid = PriceGrid([1.0, 2.0])
        tr = transcript_from(grid, [np.array([0.0, 1.0])], [1], [0.2])
        return regret_curve(tr)

    def test_decreasing_piece_picks_upper_end(self):
        c, v = minimize_over_cost(self.decreasing_curve(), CostRange(0.0, 0.5))
        assert c == 0.5
        assert v == pytest.approx(0.6 - 0.8 * 0.5)

    def test_flat_stretch_ties_to_smallest_cost(self):
        # Beyond c = 0.75 the curve is identically zero; the tie breaks left.
        c, v = minimize_over_cost(self.decreasing_curve(), CostRange(0.8, 1.5))
        assert (c, v) == (0.8, 0.0)

    def test_constant_function_ties_to_smallest_cost(self):
        grid = PriceGrid([1.0])
        tr = transcript_from(grid, [np.array([1.0])], [0], [0.5])
        curve = regret_curve(tr)
        c, v = minimize_over_cost(curve, CostRange(0.2, 0.8))
        assert (c, v) == (0.2, 0.0)

    def test_matches_dense_grid_scan(self, rng):
        # The exact minimum can only undercut a finite scan; the undercut is
        # bounded by the active slope across half a scan step.
        for _ in range(20):
            tr = random_transcript(rng, k=6, rounds=50)
            curve = regret_curve(tr)
            lo, hi = 0.0, 2.0
            step = (hi - lo) / 100_000
            c_star, v_star = minimize_over_cost(curve, CostRange(lo, hi))
            cs = np.linspace(lo, hi, 100_001)
            vals = curve.values(cs)
            idx = int(vals.argmin())
            assert v_star <= vals[idx] + 1e-9
            slope_bound = float(np.abs(curve.slopes).sum())
            assert vals[idx] - v_star <= slope_bound * step + 1e-9
            assert abs(c_star - cs[idx]) <= step + 1e-12


class TestErrorMargin:
    @staticmethod
    def uniform_transcript(rounds=100, min_prob=0.5):
        grid = PriceGrid([0.5, 1.0])
        dist = np.array([min_prob, 1.0 - min_prob])
        posted = [0] * rounds
        return transcript_from(grid, [dist] * rounds, posted, [0.5] * rounds)

    def test_closed_form_value(self):
        tr = self.uniform_transcript()
        delta = error_margin(tr, alpha=0.05)
        assert delta == pytest.approx(1.9116, abs=1e-3)
        with mpmath.workdps(50):
            expected = (2 * 1.0 / 100) * mpmath.sqrt(
                2 * mpmath.log(2 * 4 / mpmath.mpf("0.05")) * 100 * (1 / mpmath.mpf("0.5") + 1) ** 2
            )
            assert delta == pytest.approx(float(expected), rel=1e-12)

    def test_halving_support_minimum_scales_per_round_term(self):
        a = error_margin(self.uniform_transcript(min_prob=0.5), 0.05)
        b = error_margin(self.uniform_transcript(min_prob=0.25), 0.05)
        assert b / a == pytest.approx(5 / 3, rel=1e-12)

    def test_inverse_sqrt_t_scaling(self):
        a = error_margin(self.uniform_transcript(rounds=100), 0.05)
        b = error_margin(self.uniform_transcript(rounds=400), 0.05)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_alpha_domain(self):
        tr = self.uniform_transcript(rounds=3)
        with pytest.raises(ValueError):
            error_margin(tr, 0.0)
        with pytest.raises(ValueError):
            error_margin(tr, 1.0)


class TestDiscretizationLoss:
    def test_includes_boundary_gaps(self):
        grid = PriceGrid([0.2, 0.5, 0.6], continuum_upper=1.0)
        assert discretization_loss(grid) == pytest.approx(0.4)
        grid = PriceGrid([0.5, 0.6], continuum_upper=0.7)
        assert discretization_loss(grid) == pytest.approx(0.5)

    def test_requires_continuum_bound(self):
        with pytest.raises(ValueError):
            discretization_loss(PriceGrid([0.2, 0.5]))


class TestAudit:
    def test_empty_transcript_rejected(self):
        tr = transcript_from_rounds(PriceGrid([1.0]), [], [], [])
        cfg = AuditConfig(CostRange(0.0, 1.0), 0.1, 0.05)
        with pytest.raises(ValueError):
            audit(tr, cfg)

    def test_report_json_is_strict(self, rng):
        report = audit(random_transcript(rng), AuditConfig(CostRange(0.0, 1.0), 0.1, 0.05))
        assert json.loads(report.to_json())["rounds"] == 30
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                replace(report, error_margin=bad).to_json()

    def test_best_responder_passes_when_margin_small(self, rng):
        # Static demand, mass 0.9 on the better price: regret is just the
        # exploration mix, and at this horizon the margin fits under 2r.
        grid = PriceGrid([0.4, 0.8])
        x = (1.0, 0.55)
        rounds = 20_000
        dist = np.array([0.1, 0.9])
        posted = sample_posted(rng, [dist] * rounds)
        allocs = [x[p] for p in posted]
        tr = transcript_from(grid, [dist] * rounds, posted, allocs)
        cfg = AuditConfig(CostRange(0.1, 0.3), threshold_r=0.25, confidence_alpha=0.05)
        report = audit(tr, cfg)
        assert report.error_margin < 0.45
        assert report.verdict == "PASS"

    def test_fail_when_threshold_tiny(self, rng):
        tr = random_transcript(rng, k=3, rounds=50)
        cfg = AuditConfig(CostRange(0.0, 1.0), threshold_r=1e-9, confidence_alpha=0.05)
        assert audit(tr, cfg).verdict == "FAIL"

    def test_verdict_matches_reported_quantities(self, rng):
        for _ in range(10):
            tr = random_transcript(rng, k=3, rounds=40)
            r = float(rng.uniform(0.05, 2.0))
            cfg = AuditConfig(CostRange(0.0, 1.5), r, 0.05)
            report = audit(tr, cfg)
            expected_pass = (
                report.estimated_regret + report.error_margin + report.discretization_loss
                <= 2 * r
            )
            assert (report.verdict == "PASS") == expected_pass

    def test_enlarging_cost_range_never_flips_pass_to_fail(self, rng):
        for _ in range(20):
            tr = random_transcript(rng, k=3, rounds=30)
            r = float(rng.uniform(0.3, 3.0))
            narrow = AuditConfig(CostRange(0.4, 0.6), r, 0.05)
            wide = AuditConfig(CostRange(0.0, 1.2), r, 0.05)
            if audit(tr, narrow).verdict == "PASS":
                assert audit(tr, wide).verdict == "PASS"

    def test_endogenous_adds_gap(self, rng):
        grid = PriceGrid([0.2, 0.5, 0.6], continuum_upper=1.0)
        dist = np.array([0.25, 0.25, 0.5])
        posted = sample_posted(rng, [dist] * 10)
        tr = transcript_from(grid, [dist] * 10, posted, [0.5] * 10)
        base = audit(tr, AuditConfig(CostRange(0.0, 0.5), 0.1, 0.05))
        endo = audit(tr, AuditConfig(CostRange(0.0, 0.5), 0.1, 0.05, endogenous=True))
        assert base.discretization_loss == 0.0
        assert endo.discretization_loss == pytest.approx(0.4)
        assert endo.estimated_regret == base.estimated_regret

    def test_report_json_keys(self, rng):
        tr = random_transcript(rng, k=3, rounds=10)
        report = audit(tr, AuditConfig(CostRange(0.0, 1.0), 0.1, 0.05))
        obj = json.loads(report.to_json())
        for key in ("c_tilde", "regret", "delta", "d", "verdict", "curve"):
            assert key in obj
        assert obj["verdict"] in ("PASS", "FAIL")
        assert all(len(pair) == 2 for pair in obj["curve"])


class TestWorkedExampleThresholds:
    def test_verdict_flips_between_example_thresholds(self, rng):
        # The worked example is quoted with two thresholds, 6e-3 and 6e-2.
        # This transcript's regret-plus-margin sits between 2x the two, so
        # the strict threshold fails it and the loose one passes it.
        grid = PriceGrid([0.4, 0.8])
        x = (1.0, 1.0 / 3.0)
        rounds = 100_000
        dist = np.array([0.5, 0.5])
        posted = sample_posted(rng, [dist] * rounds)
        tr = transcript_from(grid, [dist] * rounds, posted, [x[p] for p in posted])
        strict = audit(tr, AuditConfig(CostRange(0.2, 0.2), 6e-3, 0.05))
        loose = audit(tr, AuditConfig(CostRange(0.2, 0.2), 6e-2, 0.05))
        assert strict.verdict == "FAIL"
        assert loose.verdict == "PASS"


class TestEstimatorTargetsPessimisticRegret:
    def test_small_scale_expectation_identity(self, rng):
        # Enumerate every realization path of small instances; averaging the
        # audit's affine terms must land exactly on the pessimistic regret.
        for _ in range(10):
            k = int(rng.integers(2, 4))
            rounds = int(rng.integers(1, 5))
            grid_obj, dists, truth = random_instance(rng, k=k, rounds=rounds)
            slopes = np.zeros((k, k))
            intercepts = np.zeros((k, k))
            values = per_round_allocations(truth)
            for path in itertools.product(*[np.flatnonzero(d).tolist() for d in dists]):
                prob = float(np.prod([d[a] for d, a in zip(dists, path)]))
                tr = transcript_from(
                    grid_obj, dists, list(path), [values[t, a] for t, a in enumerate(path)]
                )
                curve = regret_curve(tr)
                slopes += prob * curve.slopes
                intercepts += prob * curve.intercepts
            for c in rng.uniform(0, float(min(grid_obj.levels)), size=5):
                assembled = float(np.sum(np.max(slopes * c + intercepts, axis=1)))
                target = float(true_pessimistic_regret(truth, dists, float(c)))
                assert assembled == pytest.approx(target, abs=1e-12)
