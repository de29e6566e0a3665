"""Ground-truth demand oracles and exact expected-payoff computation.

Two environments are provided: a discrete two-good market driven by a joint
valuation table (exact rational arithmetic), and a duopoly with valuations
i.i.d. uniform on [0,1]^2 (closed-form piecewise-polynomial demand). Demand
oracles are for the simulator and for oracle tests only; the audit never
sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import IO, Sequence, Union

from .core import check_keys, load_json

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
    the table stores the entries already evaluated at that epsilon, exactly.
    """

    v1_levels: tuple[Fraction, ...]
    v2_levels: tuple[Fraction, ...]
    joint_probs: tuple[tuple[Fraction, ...], ...]
    epsilon: Fraction

    def __post_init__(self):
        rows = len(self.v1_levels)
        if len(self.joint_probs) != rows or any(
            len(r) != len(self.v2_levels) for r in self.joint_probs
        ):
            raise ValueError("joint_probs shape does not match valuation levels")
        if self.epsilon < 0:
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

    def demand(self, p1: Numeric, p2: Numeric) -> tuple[Fraction, Fraction]:
        return discrete_demand(self, p1, p2)

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


def discrete_demand(
    table: DiscreteValuationTable, p1: Numeric, p2: Numeric
) -> tuple[Fraction, Fraction]:
    """Exact demand split for one round of the discrete market.

    The buyer takes good 1 when v1 - v2 exceeds p1 - p2, good 2 when it falls
    short, and flips a fair coin on ties, so
    x1 = Pr[v1 - v2 > p1 - p2] + (1/2) Pr[v1 - v2 = p1 - p2] and x2 = 1 - x1.
    """
    p1 = Fraction(p1)
    p2 = Fraction(p2)
    admissible = set(table.price_levels)
    if p1 not in admissible or p2 not in admissible:
        raise ValueError(f"prices must lie on the construction grid {sorted(admissible)}")
    gap = p1 - p2
    x1 = Fraction(0)
    for d, prob in table._diff_cells:
        if d > gap:
            x1 += prob
        elif d == gap:
            x1 += prob / 2
    return x1, 1 - x1


@dataclass(frozen=True)
class UniformDuopoly:
    """Two sellers with unit costs, buyer valuations i.i.d. uniform on [0,1]^2."""

    cost1: float
    cost2: float

    def __post_init__(self):
        for c in (self.cost1, self.cost2):
            if not (0 <= c < 1):
                raise ValueError("costs must lie in [0, 1)")

    def demand(self, p1: float, p2: float) -> tuple[float, float]:
        return uniform_demand(self, p1, p2)


def _clamped_linear_integral(lo: float, hi: float, shift: float) -> float:
    """Integral of clamp(v + shift, 0, 1) dv over [lo, hi] (hi >= lo)."""
    if hi <= lo:
        return 0.0
    # Knots where the integrand switches between 0, linear, and 1.
    a = min(max(-shift, lo), hi)  # below a: integrand 0
    b = min(max(1.0 - shift, lo), hi)  # above b: integrand 1
    linear = (b * b - a * a) / 2.0 + shift * (b - a)
    return linear + (hi - b)


def uniform_demand(env: UniformDuopoly, p1: float, p2: float) -> tuple[float, float]:
    """Closed-form demand: the buyer picks the good maximizing v_i - p_i when
    that maximum is non-negative, otherwise abstains.

    x1(p1, p2) integrates Pr[v2 <= v1 - p1 + p2] over v1 in [p1, 1], i.e.
    the chance good 1 is affordable and weakly preferred (ties have measure
    zero); symmetrically for x2.
    """
    if not (0 <= p1 <= 1 and 0 <= p2 <= 1):
        raise ValueError("prices must lie in [0, 1]")
    x1 = _clamped_linear_integral(p1, 1.0, p2 - p1)
    x2 = _clamped_linear_integral(p2, 1.0, p1 - p2)
    return x1, x2


def demand_table(oracle, levels: Sequence[Numeric]):
    """Both sellers' demands, (x1, x2), in the one layout of the market's
    tables: x_s[j][p] is seller s's demand at own price levels[p] when the
    opponent posts levels[j]. Exact where the oracle is exact."""
    # pairs[i][j]: seller 1 posts levels[i] and seller 2 levels[j].
    pairs = [[oracle.demand(p1, p2) for p2 in levels] for p1 in levels]
    x1 = tuple(tuple(row[j][0] for row in pairs) for j in range(len(levels)))
    x2 = tuple(tuple(x for _, x in row) for row in pairs)
    return x1, x2


def expected_payoff_matrix(oracle, levels: Sequence[Numeric], costs: Sequence[Numeric]):
    """Both sellers' expected payoffs in demand_table's layout, (u1, u2):
    u_s[j][p] = (levels[p] - c_s) * x_s[j][p]. Exact where the oracle is exact."""
    return tuple(
        tuple(tuple((p - cost) * x for p, x in zip(levels, row)) for row in table)
        for table, cost in zip(demand_table(oracle, levels), costs)
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
