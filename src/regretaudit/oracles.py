"""Ground-truth quantities the auditor never sees.

These back the simulator and the test suites: exact calibrated regret and
best-in-hindsight regret.

Exact paths run on fractions.Fraction; floats are converted exactly (every
float is a dyadic rational), so equality assertions are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .market import demand_table

Numeric = Union[int, float, Fraction]


@dataclass(frozen=True)
class GroundTruth:
    """Allocation vectors over the price grid, held as a transcript holds its
    distributions: round t's vector is table[index[t]].

    An object table holds exact values (Fractions, or floats converted
    exactly) and makes work on the truth exact; a float table makes it float.
    """

    levels: tuple[Numeric, ...]
    table: np.ndarray  # (m, k), object or float64
    index: np.ndarray  # (T,) int64 row ids

    @property
    def rounds(self) -> int:
        return len(self.index)

    @property
    def exact(self) -> bool:
        return self.table.dtype == object

    def as_array(self) -> np.ndarray:
        """The per-round vectors as floats, (T, k)."""
        return np.asarray(self.table, dtype=float)[self.index]


def materialize_truth(oracle, levels: Sequence[Numeric], opponent_indices: Sequence[int], seller: int) -> GroundTruth:
    """The seller's allocation vectors against the opponent's realized price
    trace (as grid indices): k rows, one per opponent price, indexed by the
    trace. Exact when the oracle is."""
    x1, x2 = demand_table(oracle, levels)
    # by_opp[j][p]: the seller's demand at own price p against opponent price j.
    by_opp = tuple(zip(*x1)) if seller == 0 else x2
    exact = any(isinstance(v, Fraction) for row in by_opp for v in row)
    table = np.array(by_opp, dtype=object if exact else float)
    return GroundTruth(tuple(levels), table, np.asarray(opponent_indices, dtype=np.int64))


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


def _exact_sum(values) -> Fraction:
    """Exact sum, as integers over the least common denominator (a power of
    two when every value is a float)."""
    ratios = [(v if type(v) is float else Fraction(v)).as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


def _wants_exact(truth: GroundTruth, costs: Sequence[Numeric] = ()) -> bool:
    """Exact work for an exact truth, or for a Fraction cost."""
    return truth.exact or any(isinstance(c, Fraction) for c in costs)


# ---------------------------------------------------------------------------
# Calibrated regret
# ---------------------------------------------------------------------------


def _exact_pair_sums(distributions, truth: GroundTruth) -> list[list[Fraction]]:
    """M[p][q] = sum_t pi_t(p) x_t(q), exact.

    Rounds that share a truth row share x_t, so pi_t(p) is summed once per
    row and the sum multiplies that row: T*s exact additions plus
    rows*k^2 products, where s is the support size. Raises ValueError
    unless there is one distribution per round of the truth.
    """
    k = len(truth.levels)
    groups: dict[int, list[list]] = {}
    for row, i in zip(_sparse_rows(distributions), truth.index.tolist(), strict=True):
        if i not in groups:
            groups[i] = [[] for _ in range(k)]
        for p, prob in row:
            groups[i][p].append(prob)
    m = [[Fraction(0)] * k for _ in range(k)]
    for i, probs in groups.items():
        x = [Fraction(v) for v in truth.table[i].tolist()]
        for p, values in enumerate(probs):
            if values:
                total = _exact_sum(values)
                m[p] = [acc + total * v for acc, v in zip(m[p], x)]
    return m


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
        m = np.array(_exact_pair_sums(distributions, truth), dtype=object)
        levels = np.array([Fraction(v) for v in truth.levels], dtype=object)
        cs = np.array([Fraction(c) for c in costs], dtype=object)
    else:
        m = np.asarray(distributions, dtype=float).T @ truth.as_array()  # m[p, q] = sum_t pi_t(p) x_t(q)
        levels = np.asarray(truth.levels, dtype=float)
        cs = np.asarray(costs, dtype=float)
    # best[i, p] = max_q of (l_q - c_i) M[p, q] - (l_p - c_i) M[p, p], one p
    # at a time, so a long sweep holds (n, k) values, not (n, k, k).
    margins = levels[None, :] - cs[:, None]
    own = margins * np.diag(m)
    best = np.empty(own.shape, dtype=m.dtype)
    for p in range(len(levels)):
        best[:, p] = (margins * m[p] - own[:, p, None]).max(axis=1)
    regrets = (best.sum(axis=1) / truth.rounds).tolist()
    return regrets[0] if np.ndim(cost) == 0 else regrets


def best_in_hindsight_regret(counterfactual_utilities, realized_utilities) -> float:
    """Per-round gap to the best single fixed price in hindsight.

    counterfactual_utilities[t][p] is the utility price p would have earned in
    round t; realized_utilities[t] is what the seller actually earned.
    """
    u = np.asarray(counterfactual_utilities, dtype=float)
    realized = np.asarray(realized_utilities, dtype=float)
    T = u.shape[0]
    return float((u.sum(axis=0).max() - realized.sum()) / T)

