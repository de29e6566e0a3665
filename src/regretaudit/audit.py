"""The auditing pipeline.

Counterfactual allocations are estimated by propensity weighting at the
posted price, with a pessimistic fill at prices outside the round's support:
copy the estimate of the nearest supported lower price, or 1 when none
exists. The benefit of substituting price p with q is then affine in the
unknown cost c, with coefficients that depend on the transcript only through
the k x k pair sums M[p, q] = sum_t pi_t(p) xhat_t(q), which `CellStats`
builds from per-row sums. So the estimated regret (sum over p of the best
substitution for p) is a convex piecewise-linear function of c, built from M
alone: `core.PWLInCost`, which evaluates the oracles' true regret too.
Minimizing it over the plausible cost range, adding a concentration margin,
and comparing against twice the threshold gives the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import AuditConfig, CostRange, PriceGrid, PWLInCost, Transcript, block_rows


def _lead_prices(rows: np.ndarray) -> np.ndarray:
    """lead[n, q]: the nearest price at or below q that row n supports, else -1."""
    lead = np.where(rows > 0, np.arange(rows.shape[1]), -1)
    return np.maximum.accumulate(lead, axis=1, out=lead)


def estimate_allocations(transcript: Transcript) -> np.ndarray:
    """Propensity-score allocation table x-hat, (T, k), with the pessimistic
    off-support fill; entries may exceed 1. The audit never builds it (it
    reads CellStats); it stays as the dense reference, which the benchmark's
    traced stages measure."""
    if len(transcript) < 1:
        raise ValueError("empty transcript")
    table, index, posted = transcript.dist_table, transcript.dist_index, transcript.posted
    k = table.shape[1]
    # lead[t, q]: round t's lead price, gathered from the distinct rows. A
    # price led by the posted one takes its propensity value, by another
    # supported one 0, by none 1.
    lead = _lead_prices(table).astype(np.min_scalar_type(-k))[index]
    xhat = (lead < 0).astype(float)
    weight = transcript.alloc / table[index, posted]
    np.copyto(xhat, weight[:, None], where=lead == posted[:, None])
    return xhat


@dataclass(frozen=True)
class CellStats:
    """The audit's one statistic: per distinct row n of a transcript, its
    round count C[n] and its allocations summed over its rounds that
    posted price j, S[n, j]. M, the curve and the margin read it alone."""

    grid: PriceGrid
    table: np.ndarray  # (n, k) the distinct distribution rows
    counts: np.ndarray  # (n,) int64 C[n]
    sums: np.ndarray  # (n, k) S[n, j]

    @classmethod
    def of(cls, transcript: Transcript) -> "CellStats":
        if len(transcript) < 1:
            raise ValueError("empty transcript")
        n, k = transcript.dist_table.shape
        cells = transcript.dist_index * k
        cells += transcript.posted
        sums = np.bincount(cells, weights=transcript.alloc, minlength=n * k).reshape(n, k)
        del cells  # not held next to the counts
        counts = np.bincount(transcript.dist_index, minlength=n)
        return cls(transcript.grid, transcript.dist_table, counts, sums)

    def pair_sums(self) -> np.ndarray:
        """M[p, q] = sum_t pi_t(p) xhat_t(q), (k, k), without a (T, k) array.

        The sum of x-hat over row n's rounds at price q is S[n, lead] /
        pi_n(lead), with lead the row's nearest supported price at or below
        q; it is C[n] when no price is. M sums pi_n(p) times that over the
        rows, a block of rows at a time. Against the dense product of the
        per-round rows with estimate_allocations(), only the order of the
        additions changes.
        """
        n, k = self.table.shape
        m = np.zeros((k, k))
        step = block_rows(k)
        for a in range(0, n, step):
            rows = self.table[a : a + step]
            lead = _lead_prices(rows)
            r = np.arange(len(rows))[:, None]
            x = self.sums[a + r, lead]
            np.divide(x, rows[r, lead], out=x, where=lead >= 0)
            np.copyto(x, self.counts[a : a + step, None], where=lead < 0)
            m += rows.T @ x
        return m

    def curve(self) -> PWLInCost:
        return PWLInCost.from_pair_sums(self.pair_sums(), self.grid.levels, int(self.counts.sum()))

    def margin(self, alpha: float) -> float:
        """Concentration allowance added to the estimated regret before the
        verdict: (k p_bar / T) sqrt(2 ln(2k^2 / alpha) sum_n C[n] (1 / min
        pi_n + 1)^2), with the minimum over row n's support, summed a block
        of rows at a time so that nothing of the table's size sits next to S."""
        if not (0 < alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        n, k = self.table.shape
        total = 0.0
        step = block_rows(k)
        for a in range(0, n, step):
            rows = self.table[a : a + step]
            support_min = np.where(rows > 0, rows, np.inf).min(axis=1)
            total += float((self.counts[a : a + step] * (1.0 / support_min + 1.0) ** 2).sum())
        scale = k * self.grid.max_level / int(self.counts.sum())
        return scale * math.sqrt(2.0 * math.log(2.0 * k * k / alpha) * total)


def regret_curve(transcript: Transcript) -> PWLInCost:
    """Estimated regret of the transcript as an explicit function of cost."""
    return CellStats.of(transcript).curve()


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
    """Concentration allowance added to the estimated regret before the verdict."""
    return CellStats.of(transcript).margin(alpha)


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
    curve: PWLInCost | None = field(default=None, compare=False, repr=False)  # for sweeps; not in to_dict

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


def audit_with_margin(
    curve: PWLInCost, grid: PriceGrid, rounds: int, config: AuditConfig, delta: float, provenance: str
) -> AuditReport:
    """The verdict on an estimated regret curve over `rounds` rounds on the
    grid, with the given error margin: the exact audit's concentration
    margin, or the aggregated audit's, whose distributions are estimates."""
    c_tilde, regret = minimize_over_cost(curve, config.cost_range)
    lo, hi = config.cost_range.lo, config.cost_range.hi
    sample_cs = sorted({lo, hi, c_tilde} | {b for b in curve.breakpoints if lo < b < hi})
    samples = tuple(zip(sample_cs, curve.values(sample_cs).tolist()))
    d = discretization_loss(grid) if config.endogenous else 0.0
    # Exact comparison on the computed values: r is the policy knob, not a
    # tolerance band.
    verdict = "PASS" if regret + delta + d <= 2.0 * config.threshold_r else "FAIL"
    return AuditReport(
        estimated_plausible_cost=c_tilde,
        estimated_regret=regret,
        error_margin=delta,
        discretization_loss=d,
        verdict=verdict,
        curve_samples=samples,
        threshold_r=config.threshold_r,
        confidence_alpha=config.confidence_alpha,
        rounds=rounds,
        swap_at_optimum=curve.argmax_swap(c_tilde),
        provenance=provenance,
        curve=curve,
    )


def audit(transcript: Transcript, config: AuditConfig) -> AuditReport:
    """Run the full pipeline and return the verdict with diagnostics.

    PASS means estimated plausible regret + error margin (+ discretization
    loss when the grid is endogenous) is at most twice the threshold.
    """
    stats = CellStats.of(transcript)
    delta = stats.margin(config.confidence_alpha)
    return audit_with_margin(stats.curve(), transcript.grid, len(transcript), config, delta, "exact")
