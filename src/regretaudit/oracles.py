"""Ground-truth quantities the auditor never sees.

These back the simulator and the test suites: exact calibrated regret, the
regret-maximizing completion of partially observed demand, best-in-hindsight
regret, the reduction from threshold audits to a regret estimator, and
brute-force expectations of the audit estimator on instances small enough to
enumerate every realization path.

Exact paths run on fractions.Fraction; floats are converted exactly (every
float is a dyadic rational), so equality assertions are meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .core import PriceGrid, Transcript, draw, running_sums
from .market import demand_table

Numeric = Union[int, float, Fraction]


@dataclass(frozen=True)
class GroundTruth:
    """Full allocation vectors per round: values[t][p] over the price grid."""

    levels: tuple[Numeric, ...]
    values: object  # (T, k) ndarray for float work, nested sequences for exact work

    def row(self, t: int) -> Sequence[Numeric]:
        return self.values[t]

    @property
    def rounds(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class SwapMap:
    """A total remapping of grid indices: sigma[p] is the replacement for p."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        k = len(self.sigma)
        if any(not (0 <= q < k) for q in self.sigma):
            raise ValueError("swap map must be total on the grid")

    def __call__(self, p: int) -> int:
        return self.sigma[p]


def materialize_truth(oracle, levels: Sequence[Numeric], opponent_indices: Sequence[int], seller: int) -> GroundTruth:
    """Build per-round allocation vectors from a demand oracle and the
    opponent's realized price trace (as grid indices)."""
    x1, x2 = demand_table(oracle, levels)
    # by_opp[j][p]: the seller's demand at own price p against opponent price j.
    by_opp = tuple(zip(*x1)) if seller == 0 else x2
    if any(isinstance(v, Fraction) for row in by_opp for v in row):
        return GroundTruth(tuple(levels), tuple(by_opp[j] for j in opponent_indices))
    opp = np.asarray(opponent_indices, dtype=int)
    return GroundTruth(tuple(levels), np.asarray(by_opp, dtype=float)[opp])


# ---------------------------------------------------------------------------
# Sparse views and exactness dispatch
# ---------------------------------------------------------------------------


def _sparse_rows(distributions):
    """Per round, the (index, probability) pairs of positive probability.

    `distributions` holds one dense row per round, of floats or of Fractions:
    a (T, k) array or a sequence of rows.
    """
    for row in np.asarray(distributions).tolist():
        yield [(i, p) for i, p in enumerate(row) if p > 0]


def _sparse_dists(distributions) -> list[list[tuple[int, Fraction]]]:
    return [[(i, Fraction(p)) for i, p in row] for row in _sparse_rows(distributions)]


def _exact_sum(values) -> Fraction:
    """Exact sum, as integers over the least common denominator (a power of
    two when every value is a float)."""
    ratios = [(v if type(v) is float else Fraction(v)).as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


def _wants_exact(truth: GroundTruth, costs: Sequence[Numeric] = ()) -> bool:
    """Exact work for a truth that is not a float array, or for a Fraction cost."""
    if any(isinstance(c, Fraction) for c in costs):
        return True
    values = truth.values
    return not (isinstance(values, np.ndarray) and values.dtype != object)


# ---------------------------------------------------------------------------
# Calibrated regret
# ---------------------------------------------------------------------------


def calibrated_regret_of_swap(distributions, truth: GroundTruth, cost: Numeric, swap: SwapMap) -> Numeric:
    """Average benefit of rerouting every posted price p to swap(p)."""
    sparse = _sparse_dists(distributions)
    c = Fraction(cost)
    levels = [Fraction(v) for v in truth.levels]
    total = Fraction(0)
    for t, row in enumerate(sparse):
        x = truth.row(t)
        for p, prob in row:
            q = swap(p)
            total += prob * ((levels[q] - c) * Fraction(x[q]) - (levels[p] - c) * Fraction(x[p]))
    return total / len(sparse)


def _exact_pair_sums(distributions, truth: GroundTruth) -> tuple[list[list[Fraction]], int]:
    """M[p][q] = sum_t pi_t(p) x_t(q), exact, and the number of rounds.

    Rounds that share a truth row share x_t, so pi_t(p) is summed once per
    row and the sum multiplies that row: T*s exact additions plus
    rows*k^2 products, where s is the support size. Rows are told apart
    by identity, which is cheap to hash; materialize_truth shares one row
    object between the rounds at each opponent price, so it has at most k.
    """
    k = len(truth.levels)
    groups: dict[int, tuple[Sequence, list[list]]] = {}
    T = 0
    for t, row in enumerate(_sparse_rows(distributions)):
        x = truth.row(t)
        group = groups.get(id(x))
        if group is None:
            # The group holds x, so no other row can take its id meanwhile.
            group = groups[id(x)] = (x, [[] for _ in range(k)])
        for p, prob in row:
            group[1][p].append(prob)
        T += 1
    m = [[Fraction(0)] * k for _ in range(k)]
    for row, probs in groups.values():
        x = [Fraction(v) for v in row]
        for p, values in enumerate(probs):
            if values:
                total = _exact_sum(values)
                m[p] = [acc + total * v for acc, v in zip(m[p], x)]
    return m, T


def true_calibrated_regret(distributions, truth: GroundTruth, cost: Union[Numeric, Sequence[Numeric]]):
    """Maximum average gain over all swap maps, via per-price decomposition.

    Decomposing (best replacement separately for each posted price) equals
    maximizing over all k^k swap maps because the objective is additive over
    the posted price. The pair sums M do not depend on the cost, so a
    sequence of costs is evaluated from one M and returns a list in order;
    a single cost returns a Fraction on the exact path, else a float.
    """
    costs = [cost] if np.ndim(cost) == 0 else list(cost)
    if _wants_exact(truth, costs):
        pairs, T = _exact_pair_sums(distributions, truth)
        m = np.array(pairs, dtype=object)
        levels = np.array([Fraction(v) for v in truth.levels], dtype=object)
        cs = np.array([Fraction(c) for c in costs], dtype=object)
    else:
        values = truth.as_array()
        T = values.shape[0]
        m = np.asarray(distributions, dtype=float).T @ values  # m[p, q] = sum_t pi_t(p) x_t(q)
        levels = np.asarray(truth.levels, dtype=float)
        cs = np.asarray(costs, dtype=float)
    # gains[i, p, q] = (l_q - c_i) M[p, q] - (l_p - c_i) M[p, p]
    margins = levels[None, :] - cs[:, None]
    gains = margins[:, None, :] * m - (margins * np.diag(m))[:, :, None]
    regrets = (gains.max(axis=2).sum(axis=1) / T).tolist()
    return regrets[0] if np.ndim(cost) == 0 else regrets


def pessimistic_allocation(truth: GroundTruth, distributions) -> GroundTruth:
    """The regret-maximizing completion of the ground truth off the supports.

    Supported prices keep their true allocation; an unsupported price copies
    the nearest supported lower price, or 1 when every supported price lies
    above it.
    """
    k = len(truth.levels)
    sparse = _sparse_dists(distributions)
    exact = _wants_exact(truth)
    rows = []
    for t, row in enumerate(sparse):
        supported = {i for i, _ in row}
        x = truth.row(t)
        out = []
        carry = 1 if exact else 1.0
        for p in range(k):
            if p in supported:
                carry = x[p]
            out.append(carry)
        rows.append(tuple(out))
    if exact:
        return GroundTruth(truth.levels, tuple(rows))
    return GroundTruth(truth.levels, np.asarray(rows, dtype=float))


def true_pessimistic_regret(truth: GroundTruth, distributions, cost: Numeric) -> Numeric:
    """Calibrated regret of the pessimistic completion: the supremum over all
    ground truths indistinguishable from the observed data."""
    return true_calibrated_regret(distributions, pessimistic_allocation(truth, distributions), cost)


def best_in_hindsight_regret(counterfactual_utilities, realized_utilities) -> float:
    """Per-round gap to the best single fixed price in hindsight.

    counterfactual_utilities[t][p] is the utility price p would have earned in
    round t; realized_utilities[t] is what the seller actually earned.
    """
    u = np.asarray(counterfactual_utilities, dtype=float)
    realized = np.asarray(realized_utilities, dtype=float)
    T = u.shape[0]
    return float((u.sum(axis=0).max() - realized.sum()) / T)


# ---------------------------------------------------------------------------
# Reduction: threshold audits -> regret estimate
# ---------------------------------------------------------------------------


def reduction_estimate(
    auditor: Callable[[float], str],
    epsilon: float,
    p_bar: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate the regret of a fixed transcript from a black-box threshold auditor.

    Runs p_bar/epsilon audits at thresholds epsilon, 2*epsilon, ..., p_bar.
    An S answer at threshold r confines the regret to [0, r], a G answer to
    [r + epsilon, p_bar]. If the intersection of all returned intervals has
    length at most epsilon its midpoint is returned; otherwise (including a
    contradictory, empty intersection) a uniform random guess in [0, p_bar].
    """
    if rng is None:
        rng = np.random.default_rng()
    n_audits = int(round(p_bar / epsilon))
    lo, hi = 0.0, p_bar
    for i in range(1, n_audits + 1):
        r = i * epsilon
        answer = auditor(r)
        if answer == "S":
            hi = min(hi, r)
        elif answer == "G":
            lo = max(lo, r + epsilon)
        else:
            raise ValueError(f"auditor must answer 'S' or 'G', got {answer!r}")
    if lo <= hi and hi - lo <= epsilon:
        return (lo + hi) / 2.0
    return float(rng.uniform(0.0, p_bar))


# ---------------------------------------------------------------------------
# Brute-force expectations over all realization paths
# ---------------------------------------------------------------------------

_MAX_PATHS = 100_000


def _estimator_fill(xhat_supported: dict[int, Fraction], supported: set[int], k: int) -> list[Fraction]:
    """The audit estimator's per-round table for one realization, exact."""
    out = []
    carry = Fraction(1)
    for p in range(k):
        if p in supported:
            carry = xhat_supported.get(p, Fraction(0))
        out.append(carry)
    return out


def _enumerate_paths(distributions, truth: GroundTruth):
    """Yield (path probability, per-round exact estimator tables)."""
    k = len(truth.levels)
    sparse = _sparse_dists(distributions)
    total_paths = 1
    for row in sparse:
        total_paths *= len(row)
        if total_paths > _MAX_PATHS:
            raise ValueError("instance too large to enumerate realization paths")
    per_round_choices = []
    for t, row in enumerate(sparse):
        supported = {i for i, _ in row}
        x = [Fraction(v) for v in truth.row(t)]
        choices = []
        for posted, prob in row:
            table = _estimator_fill({posted: x[posted] / prob}, supported, k)
            choices.append((prob, table))
        per_round_choices.append(choices)
    for combo in itertools.product(*per_round_choices):
        path_prob = Fraction(1)
        for prob, _ in combo:
            path_prob *= prob
        yield path_prob, [table for _, table in combo]


def _pairwise_terms(distributions, tables, levels, cost: Fraction):
    """Substitution-benefit matrix of the estimator for one realization path."""
    k = len(levels)
    sparse = _sparse_dists(distributions)
    T = len(sparse)
    r = [[Fraction(0)] * k for _ in range(k)]
    for t, row in enumerate(sparse):
        xhat = tables[t]
        for p, prob in row:
            for q in range(k):
                r[p][q] += prob * ((levels[q] - cost) * xhat[q] - (levels[p] - cost) * xhat[p])
    return [[v / T for v in row] for row in r]


def brute_force_estimator_expectation(distributions, truth: GroundTruth, cost: Numeric) -> Fraction:
    """Exact expectation of the audit estimator over every realization path.

    The expectation is taken where the estimator is linear in the data: on
    the per-pair substitution benefits. The convex assembly (sum over p of
    the best substitution) is then applied to the expected terms, which is
    the quantity the concentration analysis centers the estimator on. See
    brute_force_realized_average for the path average of the assembled value.
    """
    k = len(truth.levels)
    levels = [Fraction(v) for v in truth.levels]
    cost = Fraction(cost)
    expected = [[Fraction(0)] * k for _ in range(k)]
    for path_prob, tables in _enumerate_paths(distributions, truth):
        r = _pairwise_terms(distributions, tables, levels, cost)
        for p in range(k):
            for q in range(k):
                expected[p][q] += path_prob * r[p][q]
    return sum(max(expected[p][q] for q in range(k)) for p in range(k))


def brute_force_realized_average(distributions, truth: GroundTruth, cost: Numeric) -> Fraction:
    """Probability-weighted average of the fully assembled estimate per path.

    Averaging after the max is at least brute_force_estimator_expectation
    (convexity of the max), strictly so on generic instances.
    """
    k = len(truth.levels)
    levels = [Fraction(v) for v in truth.levels]
    cost = Fraction(cost)
    total = Fraction(0)
    for path_prob, tables in _enumerate_paths(distributions, truth):
        r = _pairwise_terms(distributions, tables, levels, cost)
        total += path_prob * sum(max(r[p][q] for q in range(k)) for p in range(k))
    return total


# ---------------------------------------------------------------------------
# Indistinguishable ground truths and transcript sampling
# ---------------------------------------------------------------------------


def indistinguishable_ground_truths(
    levels: Sequence[Numeric] = (1, 2, 3),
    a: Numeric = 1,
    rounds: int = 8,
    mode: str = "uniform",
) -> tuple[list[np.ndarray], GroundTruth, GroundTruth]:
    """Two ground truths that no transcript can tell apart.

    Every round's distribution avoids the top price. Both truths allocate
    `a` at every lower price; they disagree only at the top price (0 versus
    a), which is never posted, so sampled transcripts coincide while the
    calibrated regrets differ by a * (top level - second level).

    mode "uniform" spreads each round's distribution over all lower prices;
    mode "point" posts the second-highest price deterministically.
    """
    k = len(levels)
    if k < 2:
        raise ValueError("need at least two price levels")
    row = np.zeros(k)
    if mode == "uniform":
        row[: k - 1] = 1.0 / (k - 1)
    elif mode == "point":
        row[k - 2] = 1.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    distributions = [row] * rounds
    a = Fraction(a)
    low = tuple(tuple([a] * (k - 1) + [Fraction(0)]) for _ in range(rounds))
    high = tuple(tuple([a] * (k - 1) + [a]) for _ in range(rounds))
    lv = tuple(Fraction(v) for v in levels)
    return distributions, GroundTruth(lv, low), GroundTruth(lv, high)


def sample_transcript(
    grid: PriceGrid,
    distributions: Sequence[np.ndarray],
    truth: GroundTruth,
    seed: int,
) -> Transcript:
    """Draw posted prices from the given schedule of dense rows and read
    allocations off the ground truth; the audit-side view of a fixed
    environment."""
    rng = np.random.default_rng(seed)
    posted = [draw(running_sums(row), rng.random()) for row in distributions]
    alloc = [float(truth.row(t)[p]) for t, p in enumerate(posted)]
    return Transcript.from_rounds(grid, posted, alloc, distributions)
