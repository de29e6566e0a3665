"""Auditing without recorded price distributions.

When a seller's algorithm drifts slowly (per-step sup-norm drift at most
epsilon, or at most T ** -gamma), the empirical distribution of posted
prices over a window centered at each round approximates the true price
distribution. The audit then runs unchanged on the estimated distributions,
with a modified error margin that also pays for the estimation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from .audit import AuditReport, CellStats, audit_with_margin
from .core import (
    AuditConfig,
    PriceGrid,
    PWLInCost,
    TranscriptValidationError,
    block_rows,
    raise_violations,
    read_records,
    validate_series,
)


@dataclass(frozen=True)
class DriftAssumption:
    """How fast the seller's distributions may move, plus the claimed support floor.

    Exactly one bound is set: `epsilon`, a per-step sup-norm drift of at
    most epsilon, or `gamma`, a drift of at most T ** -gamma for the audited
    horizon T. support_floor is the claimed minimum probability on true
    supports.
    """

    epsilon: float | None = None
    gamma: float | None = None
    support_floor: float = 1.0

    def __post_init__(self):
        if (self.epsilon is None) == (self.gamma is None):
            raise ValueError("a drift assumption needs exactly one of epsilon and gamma")
        if self.gamma is None:
            if not 0 < self.epsilon < math.inf:
                raise ValueError("explicit mode needs a finite epsilon > 0")
        elif not 0 < self.gamma < math.inf:
            raise ValueError("rate mode needs a finite gamma > 0")
        if not (0 < self.support_floor <= 1):
            raise ValueError("support_floor must be in (0, 1]")

    def step_drift(self, rounds: int) -> float:
        return self.epsilon if self.gamma is None else float(rounds) ** -self.gamma


@dataclass(frozen=True)
class DistributionEstimate:
    """Windowed empirical distributions.

    Round t's estimate is the frequency of each price among the `window`
    posted prices from start(t) on. It is computed a block of rounds at a
    time (`blocks`), so no (T, k) array is needed.
    """

    posted: np.ndarray  # (T,) int64 grid indices
    k: int
    window: int

    def start(self, rounds: np.ndarray) -> np.ndarray:
        """First round of each round's window: centred, shifted inward at
        the ends so that every window holds exactly `window` rounds."""
        return np.clip(rounds - (self.window - 1) // 2, 0, len(self.posted) - self.window)

    def blocks(self, lo: int = 0, hi: int | None = None):
        """Yield (a, freqs of rounds a, a+1, ...) for consecutive blocks of
        block_rows(k) rounds covering rounds lo..hi-1.

        Window starts move by 0 or 1 per round, so a block's windows open
        and close inside two ranges of positions, each at most a block long.
        The counts of the prices posted before each range carry from block
        to block, and a block's frequencies are differences of whole counts,
        held exactly, divided by the window: the values a (T, k) prefix sum
        would give.
        """
        T, k, L = len(self.posted), self.k, self.window
        hi = T if hi is None else hi
        s = int(self.start(lo))
        opened = np.bincount(self.posted[:s], minlength=k)
        closed = np.bincount(self.posted[: s + L], minlength=k)
        size = block_rows(k)
        for a in range(lo, hi, size):
            b = min(a + size, hi)
            starts = self.start(np.arange(a, b + 1))  # with the next block's first
            s_next = int(starts[-1])
            opening = _running_counts(opened, self.posted[s:s_next], k)
            closing = _running_counts(closed, self.posted[s + L : s_next + L], k)
            offsets = starts[:-1] - s
            freqs = (closing[offsets] - opening[offsets]) / L
            opened, closed, s = opening[-1].copy(), closing[-1].copy(), s_next
            del opening, closing  # not held while the caller works on the block
            yield a, freqs


def _running_counts(before: np.ndarray, prices: np.ndarray, k: int) -> np.ndarray:
    """Counts per price of the positions before each of len(prices) + 1
    positions: `before` at the first, then adding one price at a time."""
    counts = np.zeros((len(prices) + 1, k), dtype=np.int64)
    counts[np.arange(1, len(prices) + 1), prices] = 1
    np.cumsum(counts, axis=0, out=counts)
    counts += before
    return counts


class InsufficientData(ValueError):
    """Aggregated auditing cannot proceed: estimation error reaches the
    claimed support floor, so estimated and true supports need not match."""

    def __init__(self, rho_prime: float, support_floor: float):
        super().__init__(
            "insufficient data for aggregated audit: distribution error bound "
            f"{rho_prime:.6g} is not below the support floor {support_floor:.6g}"
        )
        self.rho_prime = rho_prime
        self.support_floor = support_floor


def estimate_distributions(
    prices: Sequence[int], grid: PriceGrid, drift: DriftAssumption, delta: float
) -> DistributionEstimate:
    """Length-L windowed empirical distributions around every round.

    The window length balances sampling noise against drift accumulated over
    the window; boundary windows shift inward instead of shrinking so every
    estimate averages exactly L rounds. The estimate is returned
    unevaluated: its `blocks` yield the frequencies a block of rounds at a
    time.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    posted = np.asarray(prices, dtype=np.int64)
    T = len(posted)
    k = len(grid)
    if T < 1:
        raise ValueError("empty price sequence")
    return DistributionEstimate(posted, k, _balancing_window(T, k, drift, delta))


def _balancing_window(rounds: int, k: int, drift: DriftAssumption, delta: float) -> int:
    """The window length; ValueError if it exceeds the horizon."""
    eps = drift.step_drift(rounds)
    log_term = math.log(2.0 * rounds * k / delta)
    t_opt = (eps * log_term / 2.0) ** (1.0 / 3.0)
    # The window grows as the drift bound shrinks; a bound that underflows
    # to 0 (T ** -gamma for a large gamma) balances at no finite window.
    window = math.ceil(log_term / (2.0 * t_opt * t_opt)) if t_opt > 0 else math.inf
    if window > rounds:
        raise ValueError(
            f"the balancing window ({window} rounds at drift bound {eps:.3g} per step) "
            f"exceeds the {rounds}-round horizon"
        )
    return window


def aggregated_error_margin(
    rounds: int, k: int, p_bar: float, rho_prime: float, support_floor: float, delta: float
) -> float:
    """Verdict margin for audits on estimated distributions: an estimation
    term scaling with rho_prime plus the usual concentration term at the
    claimed floor."""
    estimation = k * (p_bar * rho_prime / support_floor) * (
        1.0 / (support_floor - rho_prime) + 1.0
    )
    concentration = math.sqrt(
        math.log(8.0 * k * k / delta)
        * 2.0
        * (1.0 / support_floor + 1.0) ** 2
        * p_bar
        * p_bar
        / rounds
    )
    return estimation + concentration


def check_horizon(rounds: int, k: int, drift: DriftAssumption, delta: float) -> float:
    """rho_prime, the error bound of the estimated distributions over
    `rounds` rounds (at least 1) on k prices. Raises InsufficientData when
    it reaches the support floor, then ValueError when the balancing window
    exceeds the horizon: both depend on the number of rounds, not on the
    rounds themselves, so a file can be checked before it is read."""
    if drift.gamma is not None:
        rho_prime = (rounds ** -drift.gamma * math.log(8.0 * rounds * k**3 / delta)) ** (1.0 / 3.0)
    else:
        rho_prime = (4.0 * drift.epsilon * math.log(2.0 * rounds * k / delta)) ** (1.0 / 3.0)
    if rho_prime >= drift.support_floor:
        raise InsufficientData(rho_prime, drift.support_floor)
    _balancing_window(rounds, k, drift, delta)
    return rho_prime


def audit_aggregated(
    prices: Sequence[int], allocations: Sequence[float], grid: PriceGrid, drift: DriftAssumption, config: AuditConfig
) -> AuditReport:
    """Run the audit pipeline on windowed empirical distributions.

    A price enters a round's estimated support when its windowed frequency
    reaches rho_prime (frequencies below the estimation error are
    indistinguishable from zero); the posted price always stays in. The
    estimated rows are built and reduced to their pair sums a block of
    rounds at a time, so no (T, k) array is held. Raises
    InsufficientData, a ValueError, when rho_prime reaches the claimed
    support floor.
    """
    posted = np.asarray(prices, dtype=np.int64)
    alloc = np.asarray(allocations, dtype=float)
    T = len(posted)
    if T < 1:
        raise ValueError("empty transcript")
    if len(alloc) != T:
        raise ValueError("prices and allocations must have equal length")
    violations = validate_series(grid, posted, alloc)
    if violations:
        raise TranscriptValidationError(violations)
    k = len(grid)
    delta = config.confidence_alpha
    rho_prime = check_horizon(T, k, drift, delta)
    est = estimate_distributions(posted, grid, drift, delta)
    m = np.zeros((k, k))
    for a, freqs in est.blocks():
        b = a + len(freqs)
        m += _block_stats(grid, freqs, posted[a:b], alloc[a:b], rho_prime).pair_sums()
    curve = PWLInCost.from_pair_sums(m, grid.levels, T)
    delta_margin = aggregated_error_margin(T, k, grid.max_level, rho_prime, drift.support_floor, delta)
    return audit_with_margin(curve, grid, T, config, delta_margin, "aggregated")


def _block_stats(grid: PriceGrid, freqs, posted, alloc, rho_prime: float) -> CellStats:
    """A block of rounds, each its own row: its windowed frequencies
    renormalized over its estimated support, its allocation at its price."""
    T = len(posted)
    rounds = np.arange(T)
    keep = freqs >= rho_prime
    keep[rounds, posted] = True
    # Each row's total sums its kept entries alone, as a (m,) vector would:
    # zeros in between would regroup numpy's unrolled summation.
    sizes = keep.sum(axis=1)
    totals = np.empty(T)
    for m in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
        rows = np.flatnonzero(sizes == m)
        totals[rows] = freqs[rows][keep[rows]].reshape(-1, m).sum(axis=1)
    sums = np.zeros_like(freqs)
    sums[rounds, posted] = alloc
    table = np.where(keep, freqs, 0.0) / totals[:, None]
    return CellStats(grid, table, np.ones(T, dtype=np.int64), sums)


def read_price_series(source: Union[str, IO[str]]):
    """Read a reduced transcript (records may lack support/probs fields).

    Returns (grid, posted indices, allocations), the last two as int64 and
    float64 columns, validated like a full transcript's. Full transcript
    files are accepted; their distribution fields are ignored.
    """
    grid, lines, (posted, alloc) = read_records(
        source, {"posted": "an integer", "alloc": "a number"}
    )
    raise_violations(validate_series(grid, posted, alloc), lines)
    return grid, posted, alloc
