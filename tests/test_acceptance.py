"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines as
they complete.

Criterion 7 checks the desk-scale (200,000-round) regret magnitude against
each run's exact regret, not against the paper's [1e-3, 1e-2] band. That band
is not reached at this horizon: the exact regret of seller 1 is 0.025 at its
minimizing cost and 0.026 at its true cost 0.1, following 0.0069 + 3,800/T,
and the estimate sits above it by the upward bias of a sum over p of maxima over
q of noisy pairwise benefits (median estimates 0.059 and 0.100). It is not
reached at 1e6 rounds either (seeds 0 and 1: estimates 0.011-0.013 at the
estimated plausible cost and 0.028-0.030 at 0.1; exact regret 0.0057 at its
minimizer and 0.0106 at 0.1). The check instead requires, in the median over
the runs, estimate >= exact (the assembled estimate is biased upward) and
estimate - exact <= sqrt(2 ln 2k) * S, where S = sum_p max_{q != p} sd(p, q)
is computed exactly from each run's distributions and oracle allocations
(see estimator_pair_sd, pinned by path enumeration).
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from regretaudit.aggregate import DriftAssumption, audit_aggregated
from regretaudit.audit import audit, error_margin, minimize_over_cost, regret_curve
from regretaudit.core import (
    AuditConfig,
    CostRange,
    PriceGrid,
)
from regretaudit.market import (
    UniformDuopoly,
    best_pure_equilibrium,
    expected_payoff_matrix,
    manipulation_valuation_table,
    uniform_demand,
)
from regretaudit.oracles import GroundTruth, best_in_hindsight_regret, materialize_truth, true_calibrated_regret
from regretaudit.sellers import (
    ManipulatorSchedule,
    ManipulatorStrategy,
    MWUStrategy,
    QLearnerStrategy,
    reward_bounds,
    simulate,
)

from conftest import dense_row, random_instance, transcript_from
from witnesses import (
    brute_force_estimator_expectation,
    encode_rows,
    indistinguishable_ground_truths,
    per_round_allocations,
    per_round_dists,
    reduction_estimate,
    sample_transcript,
    transcript_from_rounds,
    true_pessimistic_regret,
)

F = Fraction


def report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{tail}")


# ---------------------------------------------------------------------------
# 1. Payoff-table fidelity
# ---------------------------------------------------------------------------


def test_criterion_01_payoff_table_fidelity():
    t0 = time.time()
    expected = {
        (0, 0): ((F(123, 200), F(0)), (F(77, 200), F(0))),
        (0, 1): ((F(17, 20), F(1, 2)), (F(3, 10), F(-1))),
        (0, 2): ((F(523, 600), F(1, 3)), (F(77, 200), F(-1))),
        (1, 0): ((F(77, 100), F(0)), (F(123, 200), F(0))),
        (1, 1): ((F(123, 100), F(0)), (F(77, 100), F(0))),
        (1, 2): ((F(17, 10), F(1)), (F(9, 20), F(-3, 2))),
        (2, 0): ((F(123, 200), F(0)), (F(159, 200), F(0))),
        (2, 1): ((F(231, 200), F(0)), (F(123, 100), F(0))),
        (2, 2): ((F(369, 200), F(0)), (F(231, 200), F(0))),
    }
    probe = F(1, 128)
    m0 = expected_payoff_matrix(manipulation_valuation_table(0), [1, 2, 3], (0, 0))
    m1 = expected_payoff_matrix(manipulation_valuation_table(probe), [1, 2, 3], (0, 0))
    worst = F(0)
    for i in range(3):
        for j in range(3):
            for side, (intercept, slope) in enumerate(expected[(i, j)]):
                # Each seller's table is indexed [opponent's price][own price].
                opp, own = (j, i) if side == 0 else (i, j)
                b = m0[side][opp][own]
                v = m1[side][opp][own]
                s = (v - b) / probe
                worst = max(worst, abs(b - intercept), abs(s - slope))
    ok = worst <= F(1, 10**12)
    report_line(1, "payoff-table fidelity", ok, f"max coeff error {worst}, {time.time() - t0:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 2. Benchmark payoffs and equilibrium of the duopoly
# ---------------------------------------------------------------------------


def test_criterion_02_duopoly_benchmarks():
    t0 = time.time()
    env = UniformDuopoly(0.1, 0.2)
    x1, x2 = uniform_demand(env, 0.5, 0.55)
    p_a = ((0.5 - 0.1) * x1, (0.55 - 0.2) * x2)
    x1, x2 = uniform_demand(env, 0.6, 0.65)
    p_b = ((0.6 - 0.1) * x1, (0.65 - 0.2) * x2)
    tol = 5e-4 + 1e-12  # 0.1595 sits exactly 5e-4 from the rounded 0.159
    checks = [
        abs(p_a[0] - 0.1595) < 1e-12,
        abs(p_a[1] - 0.1142) < 5e-5,
        abs(p_a[0] - 0.159) <= tol,
        abs(p_a[1] - 0.114) <= tol,
        abs(p_b[0] - 0.169) <= tol,
        abs(p_b[1] - 0.122) <= tol,
    ]
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    eq = best_pure_equilibrium(grid, expected_payoff_matrix(env, grid, (0.1, 0.2)))
    checks.append(eq[0] == (0.5, 0.55))
    ok = all(checks)
    report_line(
        2,
        "duopoly benchmark payoffs",
        ok,
        f"(0.5,0.55)->({p_a[0]:.4f},{p_a[1]:.4f}), equilibrium {eq[0]}, {time.time() - t0:.2f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Estimator exactness on enumerable instances
# ---------------------------------------------------------------------------


def test_criterion_03_estimator_exactness():
    t0 = time.time()
    rng = np.random.default_rng(33)
    exact = 0
    total = 0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        rounds = int(rng.integers(1, 5))
        _, dists, truth = random_instance(rng, k=k, rounds=rounds)
        for _ in range(5):
            c = F(int(rng.integers(0, 120)), 100)
            total += 1
            exact += brute_force_estimator_expectation(dists, truth, c) == (
                true_pessimistic_regret(truth, dists, c)
            )
    ok = exact == total
    report_line(3, "estimator exactness", ok, f"{exact}/{total} exact, {time.time() - t0:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 4. Concentration of the estimator around its target
# ---------------------------------------------------------------------------


def concentration_environment():
    k, rounds = 5, 5000
    levels = (0.1, 0.3, 0.5, 0.7, 0.9)
    grid = PriceGrid(levels)
    env_rng = np.random.default_rng(777)
    dists = []
    for t in range(rounds):
        if env_rng.random() < 0.3:
            size = int(env_rng.integers(2, k + 1))
            support = sorted(env_rng.choice(k, size=size, replace=False).tolist())
        else:
            support = list(range(k))
        raw = env_rng.dirichlet(np.ones(len(support)))
        probs = 0.26 / len(support) + 0.74 * raw  # support minimum >= 0.052
        dists.append(dense_row(k, support, (probs / probs.sum()).tolist()))
    lv = np.asarray(levels)
    t_idx = np.arange(rounds)[:, None]
    values = np.clip(0.95 - 0.9 * lv[None, :] + 0.05 * np.sin(t_idx / 50.0 + lv[None, :]), 0, 1)
    truth = GroundTruth(levels, values, np.arange(rounds))
    return grid, dists, truth


def test_criterion_04_concentration():
    t0 = time.time()
    grid, dists, truth = concentration_environment()
    rounds, k = per_round_allocations(truth).shape
    c = 0.2
    target = float(true_pessimistic_regret(truth, dists, c))
    dense = np.stack(dists)
    cums = np.cumsum(dense, axis=1)
    last_support = np.array([np.flatnonzero(d)[-1] for d in dists])
    values = per_round_allocations(truth)
    delta = None
    exceed = 0
    n_transcripts = 500
    for seed in range(n_transcripts):
        u = np.random.default_rng((9000, seed)).random(rounds)
        posted = np.minimum((cums <= u[:, None]).sum(axis=1), last_support)
        transcript = transcript_from_rounds(
            grid, posted, values[np.arange(rounds), posted], dists
        )
        if delta is None:
            delta = error_margin(transcript, alpha=0.05)
        estimate = regret_curve(transcript).values([c])[0]
        exceed += abs(estimate - target) > delta
    rate = exceed / n_transcripts
    ok = rate <= 0.05
    report_line(
        4,
        "estimator concentration",
        ok,
        f"exceed rate {rate:.3f} (margin {delta:.3f}, target {target:.4f}), {time.time() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Cost minimization against a dense scan
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_05_cost_minimization():
    t0 = time.time()
    rng = np.random.default_rng(55)
    lo, hi = 0.0, 2.0
    points = 100_000
    step = (hi - lo) / points
    ok_all = True
    worst_value_gap = 0.0
    for _ in range(100):
        k, rounds = 6, 50
        grid = PriceGrid(np.sort(rng.uniform(0.1, 2.5, size=k)).tolist())
        from conftest import dyadic_distribution, sample_posted

        dists = [dyadic_distribution(rng, k) for _ in range(rounds)]
        posted = sample_posted(rng, dists)
        allocs = rng.random(rounds)
        tr = transcript_from(grid, dists, posted, allocs)
        curve = regret_curve(tr)
        c_star, v_star = minimize_over_cost(curve, CostRange(lo, hi))
        cs = np.linspace(lo, hi, points + 1)
        vals = curve.values(cs)
        idx = int(vals.argmin())
        # The exact minimum can only undercut the scan, by at most the active
        # slope across half a step; the argument must land within one step.
        slope_allowance = float(np.abs(curve.slopes).sum()) * step
        ok_all &= v_star <= vals[idx] + 1e-9
        ok_all &= vals[idx] - v_star <= slope_allowance + 1e-9
        ok_all &= abs(c_star - cs[idx]) <= step + 1e-12
        worst_value_gap = max(worst_value_gap, float(vals[idx] - v_star))
    report_line(
        5,
        "cost minimization vs dense scan",
        bool(ok_all),
        f"worst scan undercut {worst_value_gap:.2e}, {time.time() - t0:.0f}s",
    )
    assert ok_all


# ---------------------------------------------------------------------------
# 6. Manipulation of a mean-based learner
# ---------------------------------------------------------------------------

MANIP_PHASE1 = 10_000
MANIP_EPSILON = 0.005
MANIP_ETA = 2.0


@pytest.fixture(scope="module")
def manipulation_run():
    table = manipulation_valuation_table(MANIP_EPSILON)
    grid = PriceGrid([0.0, 1.0, 2.0, 3.0])
    schedule = ManipulatorSchedule.standard(MANIP_PHASE1)
    learner = MWUStrategy.fresh(4, MANIP_ETA, *reward_bounds(table, grid, (0.0, 0.0)))
    result = simulate(
        grid,
        (ManipulatorStrategy(schedule, grid), learner),
        table,
        (0.0, 0.0),
        schedule.total_rounds,
        "expected",
        seed=0,
    )
    return grid, table, schedule, result


def test_criterion_06_manipulation(manipulation_run):
    t0 = time.time()
    grid, table, schedule, result = manipulation_run
    phase1 = schedule.phase1_rounds

    posted = [tr.posted for tr in result.transcripts]
    window_start = phase1 + math.ceil(3 * MANIP_EPSILON * phase1)
    freq_top = float((posted[1][window_start - 1 :] == 3).mean())

    benchmark = (2.583 * phase1, 1.617 * phase1)  # 2.1T times the (1.23, 0.77) equilibrium
    totals = (float(result.payoffs[0].sum()), float(result.payoffs[1].sum()))

    truths = [materialize_truth(table, grid.levels, posted[1 - i], i) for i in range(2)]
    bih = [best_in_hindsight_regret(truths[i], 0.0, result.payoffs[i]) for i in range(2)]

    # The manipulator posts one price for sure: one one-hot row per price.
    float_truth = GroundTruth(tuple(float(v) for v in grid.levels), truths[0].table.astype(float), truths[0].index)
    calibrated1 = true_calibrated_regret(np.eye(4), posted[0], float_truth, 0.0)

    parts = {
        "freq": freq_top >= 0.95,
        "payoffs": totals[0] > benchmark[0] and totals[1] > benchmark[1],
        "bih": max(bih) <= 0.02,
        "calibrated": calibrated1 >= 0.05,
    }
    ok = all(parts.values())
    report_line(
        6,
        "mean-based manipulation",
        ok,
        f"freq3={freq_top:.4f}, payoffs=({totals[0] / phase1:.4f},{totals[1] / phase1:.4f})T "
        f"vs (2.583,1.617)T, bih=({bih[0]:.4f},{bih[1]:.4f}), cal1={calibrated1:.4f}, "
        f"{time.time() - t0:.0f}s",
    )
    assert ok, parts


# ---------------------------------------------------------------------------
# 7. Desk-scale reproduction of the Q-learning experiment
# ---------------------------------------------------------------------------

DESK_ROUNDS = 200_000
DESK_SEEDS = 20
DESK_TRUE_COST = 0.1
DESK_GRID = PriceGrid([round(0.05 * i, 2) for i in range(1, 20)])


def estimator_pair_sd(probs: np.ndarray, alloc: np.ndarray, levels, costs) -> np.ndarray:
    """Exact standard deviation of each estimated substitution benefit, per cost.

    For full-support distributions pi_t and true allocations x_t, with
    a_t(q) = (l_q - c) x_t(q), the estimate of the benefit of moving p to
    q != p is T^-1 sum_t pi_t(p) (1[J_t=q] a_t(q)/pi_t(q) - 1[J_t=p] a_t(p)/pi_t(p)).
    Given the distributions, its variance over the posted prices J_t is

        sd(p, q; c)^2 = T^-2 sum_t pi_t(p)^2 [a_t(q)^2/pi_t(q) + a_t(p)^2/pi_t(p)
                                              - (a_t(q) - a_t(p))^2],

    a quadratic form in the margins l - c over three sums that do not depend
    on c. Entry [i, p, q] is at costs[i]; the diagonal (q = p) is 0.
    """
    T = probs.shape[0]
    w = probs**2
    x2 = alloc * alloc
    swap = w.T @ (x2 / probs - x2)  # sum_t pi_t(p)^2 x_t(q)^2 (1/pi_t(q) - 1)
    cross = (w * alloc).T @ alloc  # sum_t pi_t(p)^2 x_t(p) x_t(q)
    own = ((probs - w) * x2).sum(axis=0)  # sum_t (pi_t(p) - pi_t(p)^2) x_t(p)^2
    m = np.asarray(levels, dtype=float)[None, :] - np.asarray(costs, dtype=float)[:, None]
    var = (
        m[:, None, :] ** 2 * swap
        + 2.0 * m[:, :, None] * m[:, None, :] * cross
        + (m**2 * own)[:, :, None]
    ) / T**2
    var[:, np.arange(len(own)), np.arange(len(own))] = 0.0
    return np.sqrt(np.maximum(var, 0.0))


def estimator_sd_sum(probs: np.ndarray, alloc: np.ndarray, levels, costs) -> np.ndarray:
    """S(c) = sum_p max_{q != p} sd(p, q; c) per cost: the noise scale of the
    assembled estimate."""
    sd = estimator_pair_sd(probs, alloc, levels, costs)
    k = sd.shape[1]
    sd[:, np.arange(k), np.arange(k)] = -np.inf
    return sd.max(axis=2).sum(axis=1)


def desk_run(seed: int) -> dict:
    """One desk-scale duopoly run: the pattern, and seller 1's estimated regret
    beside its exact regret and the estimator's noise scale, at the true cost
    and at the estimated plausible cost."""
    grid = DESK_GRID
    env = UniformDuopoly(0.1, 0.2)
    s1 = QLearnerStrategy.standard(grid, DESK_TRUE_COST)
    s2 = QLearnerStrategy.standard(grid, 0.2)
    result = simulate(grid, (s1, s2), env, (DESK_TRUE_COST, 0.2), DESK_ROUNDS, "expected", seed=seed)
    seller1, seller2 = result.transcripts
    last1 = seller1.posted[-10:].tolist()
    last2 = seller2.posted[-10:].tolist()
    modal = Counter(zip(last1, last2)).most_common(1)[0][0]
    curve = regret_curve(seller1)
    c_tilde, plausible = minimize_over_cost(curve, CostRange(DESK_TRUE_COST, 0.9))
    # The same minimization over a range reaching below the true cost.
    c_wide, _ = minimize_over_cost(curve, CostRange(0.0, 0.9))

    # Under expected feedback the oracle allocations are the exact ground
    # truth, and under full support the pessimistic completion is the truth
    # itself, so true_calibrated_regret is exactly the audit's target.
    probs = per_round_dists(seller1)
    assert (probs > 0).all(), "criterion 7 needs full-support distributions"
    posted1 = seller1.posted
    truth = materialize_truth(env, grid.levels, seller2.posted, 0)
    alloc = per_round_allocations(truth)
    assert np.array_equal(alloc[np.arange(len(posted1)), posted1], seller1.alloc)

    costs = (c_tilde, DESK_TRUE_COST)
    sd_sums = estimator_sd_sum(probs, alloc, grid.levels, costs)
    summary = {"modal": (grid.levels[modal[0]], grid.levels[modal[1]]), "c_wide": c_wide}
    for name, c, estimate, sd_sum in zip(
        ("plausible", "true_cost"), costs, (plausible, curve.values([DESK_TRUE_COST])[0]), sd_sums
    ):
        summary[name] = {
            "estimate": estimate,
            "exact": true_calibrated_regret(seller1.dist_table, seller1.dist_index, truth, c),
            "sd_sum": float(sd_sum),
        }
    return summary


@pytest.fixture(scope="module")
def duopoly_runs():
    return [desk_run(seed) for seed in range(DESK_SEEDS)]


def magnitude_check(runs: list[dict], name: str) -> tuple[bool, str]:
    """The estimate may not understate the exact regret, and may exceed it by
    no more than the sub-Gaussian maximal bound sqrt(2 ln 2k) times the noise
    scale S, in the median over the runs."""
    estimate = np.array([s[name]["estimate"] for s in runs])
    exact = np.array([s[name]["exact"] for s in runs])
    sd_sum = np.array([s[name]["sd_sum"] for s in runs])
    allowance = math.sqrt(2.0 * math.log(2 * len(DESK_GRID))) * float(np.median(sd_sum))
    excess = float(np.median(estimate - exact))
    ok = np.median(estimate) >= np.median(exact) and excess <= allowance
    detail = (
        f"{name}: median estimate {np.median(estimate):.4f}, exact {np.median(exact):.4f}, "
        f"excess {excess:.4f} <= {allowance:.4f}"
    )
    return bool(ok), detail


@pytest.mark.slow
def test_criterion_07_desk_scale_reproduction(duopoly_runs):
    modal_hits = sum(s["modal"] == (0.6, 0.65) for s in duopoly_runs)
    order_hits = sum(
        s["plausible"]["estimate"] < s["true_cost"]["estimate"] for s in duopoly_runs
    )
    # The paper's "pretending to have higher costs": over [0, 0.9] the
    # plausible cost still lies above the true cost 0.1.
    above_hits = sum(s["c_wide"] > DESK_TRUE_COST for s in duopoly_runs)
    plausible_ok, plausible_detail = magnitude_check(duopoly_runs, "plausible")
    true_cost_ok, true_cost_detail = magnitude_check(duopoly_runs, "true_cost")

    parts = {
        "modal": modal_hits >= 10,
        "ordering": order_hits >= 18,
        "above_true_cost": above_hits >= 18,
        "magnitude": plausible_ok and true_cost_ok,
    }
    ok = all(parts.values())
    report_line(
        7,
        "desk-scale reproduction",
        ok,
        f"modal {modal_hits}/20, ordering {order_hits}/20, c_tilde on [0, 0.9] above the true cost "
        f"{above_hits}/20, {plausible_detail}; {true_cost_detail}",
    )
    # The paper's [1e-3, 1e-2] magnitude is not the expected value at this
    # horizon, for the estimate or for the exact regret. At 200,000 rounds the
    # exact regret is 0.026 at the true cost in every seed, and 0.025 at its
    # own minimizing cost (seeds 0 and 1). From 1e5 to 1e6 rounds it follows
    # 0.0069 + 3,800/T: 0.0068 is the stage regret of epsilon-greedy play at
    # (0.6, 0.65), the rest is the learning transient. Each pairwise benefit is estimated without bias, but the
    # sum over p of maxima over q is biased upward, and its noise grows with
    # propensity weights of up to k/explore_eps = 1900. So the estimate must
    # not fall below the exact regret, and may exceed it by at most the
    # maximal bound sqrt(2 ln 2k) = 2.70 times S. Measured over the 20 seeds:
    # at c = 0.1, S = 0.056 and (estimate - exact)/S = 0.92..1.63; at the
    # estimated plausible cost, S = 0.067..0.114 and the ratio 0.16..0.48;
    # the excess is positive in every seed.
    assert ok, parts


def test_estimator_pair_sd_matches_path_enumeration():
    """Criterion 7's sd formula equals the variance of regret_curve's lines
    over every posted path of a small full-support instance."""
    grid = PriceGrid([0.5, 1.0, 1.5])
    probs = np.array([[0.25, 0.5, 0.25], [0.125, 0.375, 0.5], [0.5, 0.0625, 0.4375]])
    alloc = np.array([[0.9, 0.6, 0.2], [1.0, 0.5, 0.5], [0.7, 0.7, 0.1]])
    dists = list(probs)
    paths = list(itertools.product(range(3), repeat=3))
    assert len(paths) == 27
    weights = np.array([np.prod(probs[np.arange(3), path]) for path in paths])
    curves = [
        regret_curve(transcript_from(grid, dists, path, alloc[np.arange(3), path]))
        for path in paths
    ]
    costs = (0.0, 0.7)
    for c, sd in zip(costs, estimator_pair_sd(probs, alloc, grid.levels, costs)):
        for p in range(3):
            for q in range(3):
                values = np.array([curve.slopes[p, q] * c + curve.intercepts[p, q] for curve in curves])
                mean = float(weights @ values)
                variance = float(weights @ (values - mean) ** 2)
                assert variance == pytest.approx(sd[p, q] ** 2, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# 8. Aggregated audit against the exact-distribution audit
# ---------------------------------------------------------------------------


def test_criterion_08_aggregated_audit():
    t0 = time.time()
    eta, rounds = 1e-3, 20_000
    table = manipulation_valuation_table(0.005)
    grid = PriceGrid([0.0, 1.0, 2.0, 3.0])
    bounds = reward_bounds(table, grid, (0.0, 0.0))
    learners = (MWUStrategy.fresh(4, eta, *bounds), MWUStrategy.fresh(4, eta, *bounds))
    result = simulate(grid, learners, table, (0.0, 0.0), rounds, "expected", seed=11)

    # Per-step sup-norm drift of both learners' distributions stays under eta.
    drift_ok = all(
        np.abs(np.diff(per_round_dists(tr), axis=0)).max() <= eta + 1e-12 for tr in result.transcripts
    )

    transcript = result.transcripts[0]
    config = AuditConfig(CostRange(0.0, 1.0), threshold_r=6e-3, confidence_alpha=0.05)
    exact_report = audit(transcript, config)

    gamma = math.log(1.0 / eta) / math.log(rounds)  # drift rate: T ** -gamma = eta
    drift = DriftAssumption(gamma=gamma, support_floor=0.3)
    agg_report = audit_aggregated(transcript.posted, transcript.alloc, grid, drift, config)

    same_verdict = agg_report.verdict == exact_report.verdict
    gap = abs(agg_report.estimated_regret - exact_report.estimated_regret)
    within = gap <= agg_report.error_margin
    ok = drift_ok and same_verdict and within
    report_line(
        8,
        "aggregated audit",
        ok,
        f"drift<=eta {drift_ok}, verdicts {exact_report.verdict}/{agg_report.verdict}, "
        f"|dR|={gap:.4f} vs margin {agg_report.error_margin:.3f}, {time.time() - t0:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Reduction from threshold audits to a regret estimate
# ---------------------------------------------------------------------------


def test_criterion_09_reduction():
    t0 = time.time()
    epsilon, p_bar, failure_rate = 0.05, 3.0, 1e-3
    truth = 0.155
    trials = 10_000
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(trials):
        def auditor(r):
            answer = "S" if truth <= r else "G"
            if rng.random() < failure_rate:
                answer = "G" if answer == "S" else "S"
            return answer

        estimate = reduction_estimate(auditor, epsilon, p_bar, rng)
        hits += abs(estimate - truth) <= epsilon
    rate = hits / trials
    floor = 1 - p_bar * failure_rate / epsilon - 0.01
    ok = rate >= floor
    report_line(
        9, "reduction to threshold audits", ok, f"accuracy {rate:.4f} >= {floor:.4f}, {time.time() - t0:.0f}s"
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. Indistinguishable ground truths
# ---------------------------------------------------------------------------


def test_criterion_10_indistinguishable_pair():
    t0 = time.time()
    rounds = 50
    dists, low, high = indistinguishable_ground_truths(levels=(1, 2, 3), a=1, rounds=rounds)
    grid = PriceGrid([1.0, 2.0, 3.0])

    identical = all(
        sample_transcript(grid, dists, low, seed) == sample_transcript(grid, dists, high, seed)
        for seed in range(20)
    )
    table, index = encode_rows(dists)
    gap = true_calibrated_regret(table, index, high, 0) - true_calibrated_regret(table, index, low, 0)
    predicted = F(1) * (F(3) - F(2))
    pessimistic = true_pessimistic_regret(low, dists, 0)

    tracked = 0
    seeds = 200
    delta = None
    for seed in range(seeds):
        transcript = sample_transcript(grid, dists, low, seed)
        if delta is None:
            delta = error_margin(transcript, alpha=0.05)
        estimate = regret_curve(transcript).values([0.0])[0]
        tracked += abs(estimate - float(pessimistic)) <= delta
    frac = tracked / seeds
    parts = {
        "identical": identical,
        "gap": gap == predicted,
        "tracking": frac >= 0.95,
    }
    ok = all(parts.values())
    report_line(
        10,
        "indistinguishable ground truths",
        ok,
        f"identical {identical}, gap {gap} == {predicted}, tracked {frac:.2f} within "
        f"{delta:.2f}, {time.time() - t0:.0f}s",
    )
    assert ok, parts
