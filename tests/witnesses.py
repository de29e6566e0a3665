"""Reference instruments of the paper's proofs, which the auditor never runs.

The audit reads only the transcript. Its guarantees are stated against
quantities it cannot compute, and the tests compute them here:

- calibrated regret under one swap map, against which the per-price
  decomposition of `oracles.true_calibrated_regret` is checked;
- the regret-maximizing completion of partially observed demand and ground
  truths that no transcript can tell apart, which define the highest
  calibrated regret compatible with the observed data;
- the reduction from threshold audits to a regret estimator;
- brute-force expectations of the audit estimator on instances small enough
  to enumerate every realization path;
- the horizons the aggregated audit's guarantee needs;
- transcripts as text, for round trips through the one reader and writer,
  and the writers' per-value reference, which formats one number per call;
- a Q-learner's update as a pure function;
- dense per-round views of the package's distinct-row tables (transcript
  distributions, ground truths and windowed estimates), and the way back:
  dense or Fraction rows as a table of distinct rows plus per-round ids,
  and a transcript built from per-round rows;
- the dictionary-keyed row encoder, the reference for DistinctRows' ids.

Tests import this module as they import `conftest` helpers; its name does
not match pytest's `test_*.py` pattern, so nothing here is collected. It
imports only public names of regretaudit.

Exact paths run on fractions.Fraction; floats are converted exactly (every
float is a dyadic rational), so equality assertions are meaningful.
"""

from __future__ import annotations

import io
import itertools
import math
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from regretaudit.aggregate import DistributionEstimate
from regretaudit.core import (
    DistinctRows,
    PriceGrid,
    Transcript,
    draw,
    format_float,
    read_transcript,
    running_sums,
    write_records,
    write_transcript,
)
from regretaudit.oracles import GroundTruth, Numeric, true_calibrated_regret
from regretaudit.sellers import QLearnerStrategy


def q_step(
    q_values: Sequence[float], observed_utility: float, posted: int, learning_rate: float, discount: float
) -> list[float]:
    """One bandit update, returned as a new table: only the posted price's
    entry moves, bootstrapping from the prior-step table. A learner's
    observe on a copy of the table, which updates it in place."""
    learner = QLearnerStrategy(q_values, learning_rate, discount)
    learner.observe(posted, observed_utility, None)
    return learner.q_values


def per_round_truth(levels: Sequence[Numeric], rows, exact: bool = False) -> GroundTruth:
    """A ground truth with its own table row in each round: an object table,
    for exact work, or a float one."""
    table = np.array(rows, dtype=object if exact else float)
    return GroundTruth(levels, table, np.arange(len(table)))


def per_round_dists(transcript: Transcript) -> np.ndarray:
    """The transcript's distributions as dense rows, (T, k)."""
    return transcript.dist_table[transcript.dist_index]


def per_round_allocations(truth: GroundTruth) -> np.ndarray:
    """The truth's allocation vectors as floats, (T, k)."""
    return np.asarray(truth.table, dtype=float)[truth.index]


def per_round_freqs(estimate: DistributionEstimate) -> np.ndarray:
    """Every round's windowed estimate, (T, k), gathered from its blocks."""
    return np.concatenate([freqs for _, freqs in estimate.blocks()])


def encode_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-round dense rows as (table, ids): each distinct row once, in
    order of first appearance, and each round's row id, as the oracles take
    distributions. Rows that compare equal share an id. The table has
    object dtype, holding the values as given, when any is a Fraction, so
    that exact work stays exact; otherwise it is float64."""
    ids: dict[tuple, int] = {}
    index = [ids.setdefault(tuple(row), len(ids)) for row in rows]
    exact = any(isinstance(v, Fraction) for row in ids for v in row)
    return np.array(list(ids), dtype=object if exact else float), np.array(index, dtype=np.int64)


class ReferenceRows:
    """DistinctRows' ids and table, from a dict keyed by each distinct
    row's packed bytes with -0.0 as 0.0."""

    def __init__(self, k: int):
        self.k, self._row, self._ids, self._packed = k, struct.Struct(f"{k}d"), {}, array("d")

    def add(self, values) -> int:
        try:
            raw = self._row.pack(*values)
        except struct.error:
            raise ValueError(f"a distribution row must be {self.k} numbers, one per grid price") from None
        d = self._ids.get(raw)
        if d is None:
            key = raw
            if struct.pack("d", -0.0) in raw:
                key = self._row.pack(*[v + 0.0 for v in self._row.unpack(raw)])
                d = self._ids.get(key)
            if d is None:
                d = self._ids[key] = len(self._ids)
                self._packed.frombytes(raw)
        return d

    def table(self) -> np.ndarray:
        return np.frombuffer(self._packed).reshape(-1, self.k)


def transcript_from_rounds(grid: PriceGrid, posted, alloc, rows) -> Transcript:
    """Columns from per-round values. `rows` holds each round's
    distribution as a dense row over the grid: a (T, k) array or a
    sequence of length-k rows, encoded as read_records encodes them;
    validate checks their values."""
    table = DistinctRows(len(grid))
    index = np.array(array("q", map(table.add, rows)), dtype=np.int64)
    return Transcript(grid, posted, alloc, index, table.table())


def dumps_transcript(transcript: Transcript) -> str:
    buf = io.StringIO()
    write_transcript(transcript, buf)
    return buf.getvalue()


def loads_transcript(text: str) -> Transcript:
    return read_transcript(io.StringIO(text))


def reference_transcript_text(transcript: Transcript) -> str:
    """write_transcript's text, a round and a number at a time: each value
    through format_float, each round's row from the dense table."""
    lines = []
    rows = transcript.dist_table[transcript.dist_index].tolist()
    for t, (p, a, row) in enumerate(zip(transcript.posted.tolist(), transcript.alloc.tolist(), rows), 1):
        support = [i for i, q in enumerate(row) if q]
        sup = ", ".join(map(str, support))
        probs = ", ".join(format_float(row[i]) for i in support)
        lines.append(f'{{"t": {t}, "posted": {p}, "alloc": {format_float(a)}, "support": [{sup}], "probs": [{probs}]}}\n')
    buf = io.StringIO()
    write_records(buf, transcript.grid, lines)
    return buf.getvalue()


def reference_truth_text(truth: GroundTruth) -> str:
    """figures.write_truth's text, a round and a number at a time: each
    value, a Fraction included, through format_float."""
    rows = truth.table[truth.index].tolist()
    lines = [f'{{"t": {t}, "x": [{", ".join(map(format_float, row))}]}}\n' for t, row in enumerate(rows, 1)]
    buf = io.StringIO()
    write_records(buf, PriceGrid(truth.levels), lines)
    return buf.getvalue()


def _sparse_dists(distributions) -> list[list[tuple[int, Fraction]]]:
    """Per round, the (index, exact probability) pairs of positive probability."""
    return [
        [(i, Fraction(p)) for i, p in enumerate(row) if p > 0]
        for row in np.asarray(distributions).tolist()
    ]


# ---------------------------------------------------------------------------
# Swap maps and the pessimistic completion
# ---------------------------------------------------------------------------


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


def calibrated_regret_of_swap(distributions, truth: GroundTruth, cost: Numeric, swap: SwapMap) -> Numeric:
    """Average benefit of rerouting every posted price p to swap(p)."""
    sparse = _sparse_dists(distributions)
    c = Fraction(cost)
    levels = [Fraction(v) for v in truth.levels]
    total = Fraction(0)
    for t, row in enumerate(sparse):
        x = truth.table[truth.index[t]]
        for p, prob in row:
            q = swap(p)
            total += prob * ((levels[q] - c) * Fraction(x[q]) - (levels[p] - c) * Fraction(x[p]))
    return total / len(sparse)


def pessimistic_allocation(truth: GroundTruth, distributions) -> GroundTruth:
    """The regret-maximizing completion of the ground truth off the supports.

    Supported prices keep their true allocation; an unsupported price copies
    the nearest supported lower price, or 1 when every supported price lies
    above it.
    """
    k = len(truth.levels)
    sparse = _sparse_dists(distributions)
    exact = truth.exact
    rows = []
    for t, row in enumerate(sparse):
        supported = {i for i, _ in row}
        x = truth.table[truth.index[t]]
        out = []
        carry = 1 if exact else 1.0
        for p in range(k):
            if p in supported:
                carry = x[p]
            out.append(carry)
        rows.append(out)
    return per_round_truth(truth.levels, rows, exact)


def true_pessimistic_regret(truth: GroundTruth, distributions, cost: Numeric) -> Numeric:
    """Calibrated regret of the pessimistic completion: the supremum over all
    ground truths indistinguishable from the observed data."""
    return true_calibrated_regret(*encode_rows(distributions), pessimistic_allocation(truth, distributions), cost)


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
        x = [Fraction(v) for v in truth.table[truth.index[t]]]
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
    low = np.array([[a] * (k - 1) + [Fraction(0)]], dtype=object)
    high = np.array([[a] * (k - 1) + [a]], dtype=object)
    lv = tuple(Fraction(v) for v in levels)
    every_round = np.zeros(rounds, dtype=np.int64)
    return distributions, GroundTruth(lv, low, every_round), GroundTruth(lv, high, every_round)


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
    alloc = [float(truth.table[truth.index[t], p]) for t, p in enumerate(posted)]
    return transcript_from_rounds(grid, posted, alloc, distributions)


# ---------------------------------------------------------------------------
# Horizons of the aggregated audit
# ---------------------------------------------------------------------------


def drift_horizon_floor(gamma: float, k: int, delta: float) -> float:
    """Numerical solution of the horizon below which the drift-rate argument
    cannot even separate estimation error from the logarithmic slack: the
    supremum of t with t ** (gamma / 2) <= log(8 t k^3 / delta)."""

    def g(t: float) -> float:
        return t ** (gamma / 2.0) - math.log(8.0 * t * k**3 / delta)

    hi = 2.0
    while g(hi) <= 0:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    lo = hi / 2.0
    if g(lo) > 0 and lo <= 2.0:
        return 0.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return hi


def minimum_rounds_for_aggregated_audit(
    gamma: float,
    support_floor: float,
    k: int,
    p_bar: float,
    r: float,
    delta: float,
) -> float:
    """Horizon sufficient for the aggregated audit's two-sided guarantee.

    Deliberately conservative; intended as a diagnostic, not a gate.
    """
    t0 = drift_horizon_floor(gamma, k, delta)
    term2 = (4.0 * (8.0 * p_bar * k + r * support_floor) ** 3 / (r**3 * support_floor**6)) ** (
        2.0 / gamma
    )
    term3 = (
        (16.0 * k * k / (r * r))
        * math.log(8.0 * k * k / delta)
        * (1.0 / support_floor + 1.0) ** 2
        * p_bar
        * p_bar
    )
    term4 = (4.0 / support_floor**3) ** (2.0 / gamma)
    return max(t0, term2, term3, term4) + 1.0
