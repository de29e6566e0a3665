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

    @property
    def exact(self) -> bool:
        """Whether work on this truth is exact: its values are not a float array."""
        values = self.values
        return not (isinstance(values, np.ndarray) and values.dtype != object)


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


def best_in_hindsight_regret(counterfactual_utilities, realized_utilities) -> float:
    """Per-round gap to the best single fixed price in hindsight.

    counterfactual_utilities[t][p] is the utility price p would have earned in
    round t; realized_utilities[t] is what the seller actually earned.
    """
    u = np.asarray(counterfactual_utilities, dtype=float)
    realized = np.asarray(realized_utilities, dtype=float)
    T = u.shape[0]
    return float((u.sum(axis=0).max() - realized.sum()) / T)

