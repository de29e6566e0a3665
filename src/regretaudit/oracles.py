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

from .core import pair_counts
from .market import Market

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


def materialize_truth(market: Market, opponent_indices: Sequence[int], seller: int) -> GroundTruth:
    """The seller's allocation vectors on the market against the opponent's
    realized price trace (as grid indices): k rows, one per opponent price,
    indexed by the trace. Exact when the market's oracle is."""
    demand = market.demand[seller]
    exact = any(isinstance(v, Fraction) for row in demand for v in row)
    table = np.array(demand, dtype=object if exact else float)
    return GroundTruth(market.grid.levels, table, np.asarray(opponent_indices, dtype=np.int64))


# ---------------------------------------------------------------------------
# Calibrated regret
# ---------------------------------------------------------------------------


def _exact_sum(values, weights) -> Fraction:
    """Exact sum of w * v over values v and integer weights w, as integers over
    the least common denominator (a power of two when every value is a float)."""
    ratios = [(v if type(v) is float else Fraction(v)).as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return Fraction(sum(w * n * (den // d) for (n, d), w in zip(ratios, weights)), den)


def _pair_sums(dist_table, dist_index, truth: GroundTruth, exact: bool) -> np.ndarray:
    """M[p, q] = sum_t pi_t(p) x_t(q), (k, k), exact or float.

    The rounds are grouped into their distinct (distribution n, truth row i)
    pairs with their counts, so M = P^T X with X the truth's table and
    P[i] = sum of count * pi_n over the pairs of row i. Only P's sums differ
    between the paths: exact integer-weighted sums, or np.bincount's float
    ones. Raises ValueError unless there is one distribution id per round
    of the truth.
    """
    if len(dist_index) != truth.rounds:
        raise ValueError(f"{len(dist_index)} distribution ids for the truth's {truth.rounds} rounds")
    m, k = truth.table.shape
    dists, rows, counts = pair_counts(dist_index, truth.index, m)
    if exact:
        groups: dict[int, list[tuple[int, int]]] = {}
        for n, i, c in zip(dists.tolist(), rows.tolist(), counts.tolist()):
            groups.setdefault(i, []).append((n, c))
        p = np.full((m, k), Fraction(0), dtype=object)
        for i, pairs in groups.items():
            ns, cs = zip(*pairs)
            p[i] = [_exact_sum(column, cs) for column in zip(*dist_table[list(ns)].tolist())]
        x = np.frompyfunc(Fraction, 1, 1)(truth.table)
    else:
        table = np.asarray(dist_table, dtype=float)
        p = np.empty((m, k))
        for j in range(k):
            p[:, j] = np.bincount(rows, weights=counts * table[dists, j], minlength=m)
        x = np.asarray(truth.table, dtype=float)
    return p.T @ x


def true_calibrated_regret(dist_table, dist_index, truth: GroundTruth, cost: Union[Numeric, Sequence[Numeric]]):
    """Maximum average gain over all swap maps, via per-price decomposition.

    Round t drew its price from the dense row dist_table[dist_index[t]]: a
    float table, or an object table of exact values such as Fractions.
    Decomposing (best replacement separately for each posted price) equals
    maximizing over all k^k swap maps because the objective is additive over
    the posted price. The pair sums M do not depend on the cost, so a
    sequence of costs is evaluated from one M and returns a list in order;
    a single cost returns a Fraction on the exact path, else a float.
    """
    costs = [cost] if np.ndim(cost) == 0 else list(cost)
    exact = truth.exact or any(isinstance(c, Fraction) for c in costs)
    m = _pair_sums(dist_table, dist_index, truth, exact)
    if exact:
        levels = np.array([Fraction(v) for v in truth.levels], dtype=object)
        cs = np.array([Fraction(c) for c in costs], dtype=object)
    else:
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


def best_in_hindsight_regret(truth: GroundTruth, cost: float, realized_utilities) -> float:
    """Per-round gap to the best single fixed price in hindsight: price p
    earns (l_p - cost) x_t(p) in round t, summed from the counts of the
    truth's row ids; realized_utilities[t] is what the seller earned."""
    counts = np.bincount(truth.index, minlength=len(truth.table))
    allocations = np.asarray(counts @ truth.table, dtype=float)  # exact on an exact truth
    utilities = (np.asarray(truth.levels, dtype=float) - cost) * allocations
    return float((utilities.max() - np.asarray(realized_utilities, dtype=float).sum()) / truth.rounds)
