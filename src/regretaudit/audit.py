"""The auditing pipeline.

Counterfactual allocations are estimated by propensity weighting at the
posted price, with a pessimistic fill at prices outside the round's support:
copy the estimate of the nearest supported lower price, or 1 when none
exists. The benefit of substituting price p with q is then affine in the
unknown cost c, so the estimated regret (sum over p of the best substitution
for p) is a convex piecewise-linear function of c. Minimizing it over the
plausible cost range, adding a concentration margin, and comparing against
twice the threshold gives the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import AuditConfig, CostRange, PriceGrid, Transcript


def estimate_allocations(transcript: Transcript) -> np.ndarray:
    """Propensity-score allocation table x-hat, (T, k), with the pessimistic
    off-support fill; entries may exceed 1."""
    if len(transcript) < 1:
        raise ValueError("empty transcript")
    table, index, posted = transcript.dist_table, transcript.dist_index, transcript.posted
    k = table.shape[1]
    # lead[t, q]: round t's nearest supported price at or below q, else -1,
    # gathered from the distinct rows. A price led by the posted one takes
    # its propensity value, by another supported one 0, by none 1.
    lead = np.maximum.accumulate(np.where(table > 0, np.arange(k), -1), axis=1)
    lead = lead.astype(np.min_scalar_type(-k))[index]
    xhat = (lead < 0).astype(float)
    weight = transcript.alloc / table[index, posted]
    np.copyto(xhat, weight[:, None], where=lead == posted[:, None])
    return xhat


def _envelope_breakpoints(slopes: np.ndarray, intercepts: np.ndarray) -> list[float]:
    """Costs where the upper envelope of the lines q -> slopes[q] * c + intercepts[q]
    changes leader, in increasing order."""
    # One candidate per distinct slope: the max intercept.
    best: dict[float, float] = {}
    for s, b in zip(slopes.tolist(), intercepts.tolist()):
        best[s] = max(best.get(s, -math.inf), b)
    hull: list[tuple[float, float, float]] = []  # (slope, intercept, c_from)
    for s, b in sorted(best.items()):
        while hull:
            s0, b0, c0 = hull[-1]
            x = (b0 - b) / (s - s0)  # new line overtakes hull top from x on
            if x <= c0:
                hull.pop()
                continue
            hull.append((s, b, x))
            break
        else:
            hull.append((s, b, -math.inf))
    return [c for _, _, c in hull[1:]]


@dataclass(frozen=True)
class PWLInCost:
    """The estimated regret as a convex piecewise-linear function of cost."""

    slopes: np.ndarray  # (k, k) substitution-benefit slopes
    intercepts: np.ndarray  # (k, k)
    breakpoints: tuple[float, ...]  # sorted costs where some per-p envelope changes leader

    def value(self, c: float) -> float:
        return float(self.values([c])[0])

    def values(self, cs: np.ndarray) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        lines = self.slopes[None, :, :] * cs[:, None, None] + self.intercepts[None, :, :]
        return lines.max(axis=2).sum(axis=1)

    def argmax_swap(self, c: float) -> tuple[int, ...]:
        """Best substitution target per price at cost c, lowest q on ties."""
        vals = self.slopes * c + self.intercepts
        best = vals.max(axis=1, keepdims=True)
        return tuple(int(np.argmax(row >= b)) for row, b in zip(vals, best))


def regret_curve(transcript: Transcript) -> PWLInCost:
    """Estimated regret of the transcript as an explicit function of cost."""
    xhat = estimate_allocations(transcript)
    levels = np.asarray(transcript.grid.levels, dtype=float)
    T = len(transcript)
    m = transcript.dists().T @ xhat  # m[p, q] = sum_t pi_t(p) xhat_t(q)
    own = np.diag(m)
    slopes = (own[:, None] - m) / T
    intercepts = (levels[None, :] * m - (levels * own)[:, None]) / T
    bps: set[float] = set()
    for p in range(len(levels)):
        bps.update(_envelope_breakpoints(slopes[p], intercepts[p]))
    return PWLInCost(slopes, intercepts, tuple(sorted(bps)))


def minimize_over_cost(curve: PWLInCost, cost_range: CostRange) -> tuple[float, float]:
    """Exact minimizer of the convex curve over [lo, hi].

    The minimum of a convex piecewise-linear function over a closed interval
    is attained at an endpoint or at a breakpoint, so candidate enumeration
    is exact. Ties break toward the smallest cost.
    """
    lo, hi = float(cost_range.lo), float(cost_range.hi)
    candidates = sorted({lo, hi} | {b for b in curve.breakpoints if lo < b < hi})
    values = curve.values(candidates)
    best = int(np.argmin(values))  # the first minimum: the smallest cost
    return candidates[best], float(values[best])


def error_margin(transcript: Transcript, alpha: float) -> float:
    """Concentration allowance added to the estimated regret before the verdict.

    Uses each round's minimum probability over the support only; empty
    supports are a validation error upstream.
    """
    if not (0 < alpha < 1):
        raise ValueError("alpha must be in (0, 1)")
    if len(transcript) < 1:
        raise ValueError("empty transcript")
    table = transcript.dist_table
    T, k = len(transcript), table.shape[1]
    support_min = np.where(table > 0, table, np.inf).min(axis=1)
    per_round = ((1.0 / support_min + 1.0) ** 2)[transcript.dist_index]
    p_bar = transcript.grid.max_level
    return (k * p_bar / T) * math.sqrt(2.0 * math.log(2.0 * k * k / alpha) * float(per_round.sum()))


def discretization_loss(grid: PriceGrid) -> float:
    """Largest gap of the grid inside [0, h], counting both boundary gaps."""
    if grid.continuum_upper is None:
        raise ValueError("endogenous audit requires the grid's continuum upper bound")
    points = [0.0, *grid.levels, grid.continuum_upper]
    return max(b - a for a, b in zip(points, points[1:]))


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit with all intermediate quantities."""

    estimated_plausible_cost: float
    estimated_regret: float
    error_margin: float
    discretization_loss: float
    verdict: str  # "PASS" | "FAIL"
    curve_samples: tuple[tuple[float, float], ...]
    threshold_r: float
    confidence_alpha: float
    rounds: int
    swap_at_optimum: tuple[int, ...] = ()
    provenance: str = "exact"

    def to_dict(self) -> dict:
        return {
            "c_tilde": self.estimated_plausible_cost,
            "regret": self.estimated_regret,
            "delta": self.error_margin,
            "d": self.discretization_loss,
            "verdict": self.verdict,
            "curve": [[c, v] for c, v in self.curve_samples],
            "threshold_r": self.threshold_r,
            "alpha": self.confidence_alpha,
            "rounds": self.rounds,
            "swap_at_optimum": list(self.swap_at_optimum),
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def _verdict(regret: float, delta: float, d: float, r: float) -> str:
    # Exact comparison on the computed values: r is the policy knob, not a
    # tolerance band.
    return "PASS" if regret + delta + d <= 2.0 * r else "FAIL"


def audit_with_margin(
    transcript: Transcript, config: AuditConfig, delta: float, provenance: str
) -> AuditReport:
    """The verdict on the transcript's estimated regret curve with the given
    error margin: the exact audit's concentration margin, or the aggregated
    audit's, whose distributions are estimates."""
    curve = regret_curve(transcript)
    c_tilde, regret = minimize_over_cost(curve, config.cost_range)
    lo, hi = config.cost_range.lo, config.cost_range.hi
    sample_cs = sorted({lo, hi, c_tilde} | {b for b in curve.breakpoints if lo < b < hi})
    samples = tuple(zip(sample_cs, curve.values(sample_cs).tolist()))
    d = discretization_loss(transcript.grid) if config.endogenous else 0.0
    return AuditReport(
        estimated_plausible_cost=c_tilde,
        estimated_regret=regret,
        error_margin=delta,
        discretization_loss=d,
        verdict=_verdict(regret, delta, d, config.threshold_r),
        curve_samples=samples,
        threshold_r=config.threshold_r,
        confidence_alpha=config.confidence_alpha,
        rounds=len(transcript),
        swap_at_optimum=curve.argmax_swap(c_tilde),
        provenance=provenance,
    )


def audit(transcript: Transcript, config: AuditConfig) -> AuditReport:
    """Run the full pipeline and return the verdict with diagnostics.

    PASS means estimated plausible regret + error margin (+ discretization
    loss when the grid is endogenous) is at most twice the threshold.
    """
    delta = error_margin(transcript, config.confidence_alpha)
    return audit_with_margin(transcript, config, delta, "exact")
