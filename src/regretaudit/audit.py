"""The auditing pipeline.

Counterfactual allocations are estimated by propensity weighting at the
posted price, with a pessimistic fill at prices outside the round's support:
copy the estimate of the nearest supported lower price, or 1 when none
exists. The benefit of substituting price p with q is then affine in the
unknown cost c, with coefficients that depend on the transcript only through
the k x k pair sums M[p, q] = sum_t pi_t(p) xhat_t(q) (`pair_sums`). So the
estimated regret (sum over p of the best substitution for p) is a convex
piecewise-linear function of c, built from M alone. Minimizing it over the
plausible cost range, adding a concentration margin, and comparing against
twice the threshold gives the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import AuditConfig, CostRange, PriceGrid, Transcript

# Entries per block of rows in pair_sums, in the aggregated audit's walk
# over rounds and in the manipulation demo's mean-based check: bounds their
# temporaries, whatever T is. A float block is 64 KiB; eight times that
# raised the aggregated audit's peak RSS by about 4 MB at k = 19 and made
# it no faster.
BLOCK_ENTRIES = 1 << 13


def _lead_prices(rows: np.ndarray) -> np.ndarray:
    """lead[n, q]: the nearest price at or below q that row n supports, else -1."""
    lead = np.where(rows > 0, np.arange(rows.shape[1]), -1)
    return np.maximum.accumulate(lead, axis=1, out=lead)


def estimate_allocations(transcript: Transcript) -> np.ndarray:
    """Propensity-score allocation table x-hat, (T, k), with the pessimistic
    off-support fill; entries may exceed 1."""
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

    def values(self, cs: np.ndarray) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        # best[i, p] = max_q of the line at cost cs[i], one p at a time, so a
        # long sweep holds (n, k) floats, not (n, k, k).
        best = np.empty((len(cs), len(self.slopes)))
        for p, (s, b) in enumerate(zip(self.slopes, self.intercepts)):
            best[:, p] = (s[None, :] * cs[:, None] + b[None, :]).max(axis=1)
        return best.sum(axis=1)

    @classmethod
    def from_pair_sums(cls, m: np.ndarray, levels, rounds: int) -> "PWLInCost":
        """The curve of the pair sums M over `rounds` rounds: substituting p
        with q gains ((l_q - c) M[p, q] - (l_p - c) M[p, p]) / T."""
        levels = np.asarray(levels, dtype=float)
        own = np.diag(m)
        slopes = (own[:, None] - m) / rounds
        intercepts = (levels[None, :] * m - (levels * own)[:, None]) / rounds
        bps: set[float] = set()
        for p in range(len(levels)):
            bps.update(_envelope_breakpoints(slopes[p], intercepts[p]))
        return cls(slopes, intercepts, tuple(sorted(bps)))

    def argmax_swap(self, c: float) -> tuple[int, ...]:
        """Best substitution target per price at cost c, lowest q on ties."""
        vals = self.slopes * c + self.intercepts
        best = vals.max(axis=1, keepdims=True)
        return tuple(int(np.argmax(row >= b)) for row, b in zip(vals, best))


def block_rows(k: int) -> int:
    """Rows per block when walking an (m, k) table: about BLOCK_ENTRIES
    entries, so a block's temporaries take the same memory whatever m is."""
    return max(1, BLOCK_ENTRIES // k)


def _cell_sums(transcript: Transcript) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct row n: its round count C[n], and S[n, j], its
    allocations summed over its rounds that posted j, (n, k)."""
    n, k = transcript.dist_table.shape
    cells = transcript.dist_index * k
    cells += transcript.posted
    counts = np.bincount(transcript.dist_index, minlength=n)
    return counts, np.bincount(cells, weights=transcript.alloc, minlength=n * k).reshape(n, k)


def pair_sums(transcript: Transcript) -> np.ndarray:
    """M[p, q] = sum_t pi_t(p) xhat_t(q), (k, k), without a (T, k) array.

    Rounds that share a distinct row n differ in x-hat only through the
    posted price, so the sum of x-hat over row n's rounds at price q is
    S[n, lead] / pi_n(lead), with S[n, j] the row's allocations summed over
    its rounds posting j and lead its nearest supported price at or below q;
    it is the row's round count C[n] when no price is. M sums pi_n(p) times
    that over the rows, a block of rows at a time. Against the dense product
    of the per-round rows with estimate_allocations(), only the order of the
    additions changes.
    """
    if len(transcript) < 1:
        raise ValueError("empty transcript")
    counts, sums = _cell_sums(transcript)
    table = transcript.dist_table
    n, k = table.shape
    m = np.zeros((k, k))
    step = block_rows(k)
    for a in range(0, n, step):
        rows = table[a : a + step]
        lead = _lead_prices(rows)
        r = np.arange(len(rows))[:, None]
        x = sums[a + r, lead]
        np.divide(x, rows[r, lead], out=x, where=lead >= 0)
        np.copyto(x, counts[a : a + step, None], where=lead < 0)
        m += rows.T @ x
    return m


def regret_curve(transcript: Transcript) -> PWLInCost:
    """Estimated regret of the transcript as an explicit function of cost."""
    return PWLInCost.from_pair_sums(pair_sums(transcript), transcript.grid.levels, len(transcript))


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
    curve: PWLInCost,
    grid: PriceGrid,
    rounds: int,
    config: AuditConfig,
    delta: float,
    provenance: str,
) -> AuditReport:
    """The verdict on an estimated regret curve over `rounds` rounds on the
    grid, with the given error margin: the exact audit's concentration
    margin, or the aggregated audit's, whose distributions are estimates."""
    c_tilde, regret = minimize_over_cost(curve, config.cost_range)
    lo, hi = config.cost_range.lo, config.cost_range.hi
    sample_cs = sorted({lo, hi, c_tilde} | {b for b in curve.breakpoints if lo < b < hi})
    samples = tuple(zip(sample_cs, curve.values(sample_cs).tolist()))
    d = discretization_loss(grid) if config.endogenous else 0.0
    return AuditReport(
        estimated_plausible_cost=c_tilde,
        estimated_regret=regret,
        error_margin=delta,
        discretization_loss=d,
        verdict=_verdict(regret, delta, d, config.threshold_r),
        curve_samples=samples,
        threshold_r=config.threshold_r,
        confidence_alpha=config.confidence_alpha,
        rounds=rounds,
        swap_at_optimum=curve.argmax_swap(c_tilde),
        provenance=provenance,
    )


def audit(transcript: Transcript, config: AuditConfig) -> AuditReport:
    """Run the full pipeline and return the verdict with diagnostics.

    PASS means estimated plausible regret + error margin (+ discretization
    loss when the grid is endogenous) is at most twice the threshold.
    """
    delta = error_margin(transcript, config.confidence_alpha)
    curve = regret_curve(transcript)
    return audit_with_margin(curve, transcript.grid, len(transcript), config, delta, "exact")
