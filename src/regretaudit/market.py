"""Ground-truth demand oracles, the market a command runs on, and exact
expected-payoff computation.

Two environments are provided: a discrete two-good market driven by a joint
valuation table (exact rational arithmetic), and a duopoly with valuations
i.i.d. uniform on [0,1]^2 (closed-form piecewise-polynomial demand); each
also draws one buyer's choice, for realized feedback. Demand oracles are for
the simulator and for oracle tests only; the audit never sees them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Sequence, Union

import numpy as np

from .core import PriceGrid, check_keys, load_json

Numeric = Union[int, float, Fraction]

_EXACT = 'a list of finite numbers or "a/b" strings'
_TABLE_KEYS = {
    "v1_levels": _EXACT,
    "v2_levels": _EXACT,
    "probs": 'a list of lists of finite numbers or "a/b" strings',
    "epsilon": 'a finite number or an "a/b" string',
    "comment": "a string",
}


@dataclass(frozen=True)
class DiscreteValuationTable:
    """Joint distribution of buyer valuations (v1, v2) over discrete levels.

    Probability entries may depend affinely on the free parameter `epsilon`;
    the table holds the entries already evaluated at that epsilon, exactly,
    and `epsilon` is only checked to be non-negative, not kept.
    """

    v1_levels: tuple[Fraction, ...]
    v2_levels: tuple[Fraction, ...]
    joint_probs: tuple[tuple[Fraction, ...], ...]
    epsilon: InitVar[Fraction]

    def __post_init__(self, epsilon: Fraction):
        rows = len(self.v1_levels)
        if len(self.joint_probs) != rows or any(
            len(r) != len(self.v2_levels) for r in self.joint_probs
        ):
            raise ValueError("joint_probs shape does not match valuation levels")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if any(p < 0 for row in self.joint_probs for p in row):
            raise ValueError("negative probability entry at this epsilon")
        total = sum(p for row in self.joint_probs for p in row)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected exactly 1")

    @property
    def price_levels(self) -> tuple[Fraction, ...]:
        """Admissible prices: the (shared) valuation levels."""
        return self.v1_levels

    def diff_distribution(self) -> dict[Fraction, Fraction]:
        """Distribution of v1 - v2."""
        return dict(self._diff_cells)

    @cached_property
    def _diff_cells(self) -> tuple[tuple[Fraction, Fraction], ...]:
        # Built once, and not a field: equality and hashing compare the fields alone.
        out: dict[Fraction, Fraction] = {}
        for i, v1 in enumerate(self.v1_levels):
            for j, v2 in enumerate(self.v2_levels):
                p = self.joint_probs[i][j]
                if p:
                    out[v1 - v2] = out.get(v1 - v2, Fraction(0)) + p
        return tuple(out.items())

    @cached_property
    def _float_cells(self) -> tuple[list[float], list[float]]:
        # The values of v1 - v2 in increasing order, as floats, and their
        # cumulative probabilities, which a uniform draw picks a value by.
        items = sorted(self.diff_distribution().items())
        return [float(d) for d, _ in items], np.cumsum([float(p) for _, p in items]).tolist()

    def demand(self, p1: Numeric, p2: Numeric) -> tuple[Fraction, Fraction]:
        """Exact demand split for one round of the discrete market.

        The buyer takes good 1 when v1 - v2 exceeds p1 - p2, good 2 when it
        falls short, and flips a fair coin on ties, so
        x1 = Pr[v1 - v2 > p1 - p2] + (1/2) Pr[v1 - v2 = p1 - p2] and x2 = 1 - x1.
        """
        p1 = Fraction(p1)
        p2 = Fraction(p2)
        admissible = set(self.price_levels)
        if p1 not in admissible or p2 not in admissible:
            raise ValueError(f"prices must lie on the construction grid {sorted(admissible)}")
        gap = p1 - p2
        x1 = Fraction(0)
        for d, prob in self._diff_cells:
            if d > gap:
                x1 += prob
            elif d == gap:
                x1 += prob / 2
        return x1, 1 - x1

    def realized_choice(self, levels: Sequence[float], actions, draws) -> tuple[list[float], list[float]]:
        """One buyer's choice, as each seller's indicator allocations over its
        own prices against the other's levels[actions[1 - s]], by
        demand's rule: draws[0] picks the value of v1 - v2 and
        draws[2] < 1/2 is the coin that gives good 1 a tie."""
        diffs, cum = self._float_cells
        d = diffs[min(bisect_right(cum, draws[0]), len(diffs) - 1)]
        tie = 1.0 if draws[2] < 0.5 else 0.0
        opponent1, opponent2 = levels[actions[1]], levels[actions[0]]
        vec1 = [1.0 if d > gap else tie if d == gap else 0.0 for gap in [lv - opponent1 for lv in levels]]
        vec2 = [1.0 if d < gap else 1.0 - tie if d == gap else 0.0 for gap in [opponent2 - lv for lv in levels]]
        return vec1, vec2

    @staticmethod
    def from_json(source: Union[str, IO[str], dict]) -> "DiscreteValuationTable":
        """Load from {"v1_levels": [...], "v2_levels": [...], "probs": [[...]], "epsilon": e}.

        Numeric entries may be finite JSON numbers or exact "a/b" fraction
        strings; epsilon defaults to 0 and a "comment" string is ignored.
        Any other key or kind of value raises ValueError naming the key.
        """
        if isinstance(source, dict):
            obj = source
        elif hasattr(source, "read"):
            obj = load_json(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                obj = load_json(fh)
        if type(obj) is not dict:
            raise ValueError("valuation table must be a JSON object")
        check_keys(obj, _TABLE_KEYS, "valuation table", required=("v1_levels", "v2_levels", "probs"))
        return DiscreteValuationTable(
            v1_levels=tuple(Fraction(v) for v in obj["v1_levels"]),
            v2_levels=tuple(Fraction(v) for v in obj["v2_levels"]),
            joint_probs=tuple(tuple(Fraction(p) for p in row) for row in obj["probs"]),
            epsilon=Fraction(obj.get("epsilon", 0)),
        )


def manipulation_valuation_table(epsilon: Numeric = 0) -> DiscreteValuationTable:
    """The stationary two-good market used by the manipulation demo.

    Valuations live on {0,1,2,3}^2; either good is always worth 3, so the
    buyer never abstains. The epsilon parameter tilts mass between the
    (v1, 3) rows; it must stay at most 1/40 for all entries to be
    non-negative.
    """
    if isinstance(epsilon, float) and not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    e = Fraction(epsilon)
    z = Fraction(0)
    probs = (
        (z, z, z, Fraction(67, 600) + e / 3),
        (z, z, z, Fraction(1, 30) - 4 * e / 3),
        (z, z, z, Fraction(1, 100) + e),
        (Fraction(1, 40), Fraction(9, 25), z, Fraction(23, 50)),
    )
    levels = tuple(Fraction(v) for v in range(4))
    return DiscreteValuationTable(levels, levels, probs, e)


@dataclass(frozen=True)
class UniformDuopoly:
    """A buyer with valuations i.i.d. uniform on [0,1]^2 for two goods."""

    def demand(self, p1: float, p2: float) -> tuple[float, float]:
        """Closed-form demand: the buyer picks the good maximizing v_i - p_i
        when that maximum is non-negative, otherwise abstains.

        x1(p1, p2) integrates Pr[v2 <= v1 - p1 + p2] over v1 in [p1, 1], i.e.
        the chance good 1 is affordable and weakly preferred (ties have
        measure zero); symmetrically for x2.
        """
        if not (0 <= p1 <= 1 and 0 <= p2 <= 1):
            raise ValueError("prices must lie in [0, 1]")
        x1 = _clamped_linear_integral(p1, 1.0, p2 - p1)
        x2 = _clamped_linear_integral(p2, 1.0, p1 - p2)
        return x1, x2

    def realized_choice(self, levels: Sequence[float], actions, draws) -> tuple[list[float], list[float]]:
        """One buyer's choice, as in DiscreteValuationTable, by demand's
        rule: valuations v1 = draws[0] and v2 = draws[1], and good 1 on a
        (measure-zero) tie."""
        v1, v2 = draws[0], draws[1]
        surplus1, surplus2 = v1 - levels[actions[0]], v2 - levels[actions[1]]
        vec1 = [1.0 if own >= 0 and own >= surplus2 else 0.0 for own in [v1 - lv for lv in levels]]
        vec2 = [1.0 if own >= 0 and own > surplus1 else 0.0 for own in [v2 - lv for lv in levels]]
        return vec1, vec2


def _clamped_linear_integral(lo: float, hi: float, shift: float) -> float:
    """Integral of clamp(v + shift, 0, 1) dv over [lo, hi] (hi >= lo)."""
    if hi <= lo:
        return 0.0
    # Knots where the integrand switches between 0, linear, and 1.
    a = min(max(-shift, lo), hi)  # below a: integrand 0
    b = min(max(1.0 - shift, lo), hi)  # above b: integrand 1
    linear = (b * b - a * a) / 2.0 + shift * (b - a)
    return linear + (hi - b)


def demand_table(oracle, levels: Sequence[Numeric]):
    """Both sellers' demands, (x1, x2), in the one layout of the market's
    tables: x_s[j][p] is seller s's demand at own price levels[p] when the
    opponent posts levels[j]. Exact where the oracle is exact."""
    # pairs[i][j]: seller 1 posts levels[i] and seller 2 levels[j].
    pairs = [[oracle.demand(p1, p2) for p2 in levels] for p1 in levels]
    x1 = tuple(tuple(row[j][0] for row in pairs) for j in range(len(levels)))
    x2 = tuple(tuple(x for _, x in row) for row in pairs)
    return x1, x2


@dataclass(frozen=True)
class Market:
    """The environment a command runs on: the price grid, the demand oracle
    (the buyer alone) and the two sellers' unit costs, which only it holds.
    Its tables are built on first use and shared by everything that reads
    them: the simulator, the learners' reward bounds and the ground truth."""

    grid: PriceGrid
    oracle: object
    costs: tuple[float, float]

    @cached_property
    def demand(self):
        """demand_table(oracle, grid.levels), exact where the oracle is."""
        return demand_table(self.oracle, self.grid.levels)

    @cached_property
    def tables(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each seller's float (allocation, utility) tables, in demand's
        layout: utility[j][p] = (levels[p] - cost) * allocation[j][p]."""
        lv = np.asarray(self.grid.levels)
        allocs = [np.array(x, dtype=float) for x in self.demand]
        return tuple((alloc, (lv - cost) * alloc) for alloc, cost in zip(allocs, self.costs))


def expected_payoff_matrix(demand, levels: Sequence[Numeric], costs: Sequence[Numeric]):
    """Both sellers' expected payoffs from demand_table's (x1, x2), in its
    layout, (u1, u2): u_s[j][p] = (levels[p] - c_s) * x_s[j][p]. Exact where both are."""
    return tuple(
        tuple(tuple((p - cost) * x for p, x in zip(levels, row)) for row in table)
        for table, cost in zip(demand, costs)
    )


def best_pure_equilibrium(levels: Sequence[Numeric], payoffs):
    """Highest-total-payoff pure Nash equilibrium of the stage game, or None.

    `payoffs` is expected_payoff_matrix's (u1, u2). Prices (levels[i],
    levels[j]) are an equilibrium when neither seller gains from a
    unilateral deviation: u1[j][i] is the best of u1[j], u2[i][j] of u2[i].
    Ties on total payoff break toward the lexicographically smallest index
    pair. Returns the prices, their payoffs and (i, j).
    """
    u1, u2 = payoffs
    k = len(levels)
    best = None
    for i in range(k):
        for j in range(k):
            v1, v2 = u1[j][i], u2[i][j]
            if v1 == max(u1[j]) and v2 == max(u2[i]):
                total = v1 + v2
                if best is None or total > best[0]:
                    best = (total, (i, j), (v1, v2))
    if best is None:
        return None
    _, (i, j), values = best
    return (levels[i], levels[j]), values, (i, j)
