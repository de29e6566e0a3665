"""Shared domain types, transcript validation, transcript persistence, and
the one evaluator of calibrated regret from pair sums, `PWLInCost`, which
serves both the audits' estimate and the oracles' truth.

A transcript is the sole input an auditor gets: per round, the posted price
(as a grid index), the allocation observed at that price, and the price
distribution the price was drawn from. It is held as columns, with the
distributions dictionary-encoded: a table of the distinct ones plus one id
per round.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np

# Support probabilities below this are rejected outright: support membership
# is load-bearing for the pessimistic estimator, so it must never be inferred
# from float noise.
MIN_SUPPORT_PROB = 1e-15

PROB_SUM_TOL = 1e-12
_NEGATIVE_ZERO = struct.pack("d", -0.0)
_BLOCK = 1024  # rows validated, rounds written or ids moved by a growing index, at once
_CHUNK = 1 << 14  # about this many characters of lines go into one `%` call of a writer
# Entries per block of rows in the audits' walks and the mean-based check: a
# float block is 64 KiB; eight times that raised the aggregated audit's peak
# RSS by about 4 MB at k = 19 and made it no faster.
BLOCK_ENTRIES = 1 << 13


class TranscriptParseError(ValueError):
    """Raised when a transcript file cannot be parsed; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TranscriptValidationError(ValueError):
    """Raised when a parsed transcript breaches a type invariant."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid transcript: {lines}{more}")


class RoundOrderError(TranscriptParseError, TranscriptValidationError):
    """A record's "t" is not the next round number: both a parse error of its
    line and a "round" violation, so callers catching either see it."""

    def __init__(self, line_no: int, t: int, expected: int):
        message = f"expected round {expected}, rounds must be contiguous"
        TranscriptValidationError.__init__(self, [Violation(t, "round", message, line_no)])
        self.line_no = line_no


@dataclass(frozen=True)
class Violation:
    """One invariant breach, naming the round (None for grid-level issues),
    the field and, for a file, the line."""

    round: int | None
    field: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = "grid" if self.round is None else f"round {self.round}"
        at = "" if self.line is None else f"line {self.line}: "
        return f"{at}{where}: {self.field}: {self.message}"


@dataclass(frozen=True)
class PriceGrid:
    """Ordered discrete price levels, optionally embedded in a continuum [0, h]."""

    levels: tuple[float, ...]
    continuum_upper: float | None = None

    def __init__(self, levels: Iterable[float], continuum_upper: float | None = None):
        object.__setattr__(self, "levels", tuple(float(v) for v in levels))
        object.__setattr__(
            self, "continuum_upper", None if continuum_upper is None else float(continuum_upper)
        )

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> float:
        return self.levels[-1]

    def violations(self) -> list[Violation]:
        out: list[Violation] = []
        if not self.levels:
            out.append(Violation(None, "levels", "grid is empty"))
            return out
        if not all(math.isfinite(v) for v in self.levels):
            out.append(Violation(None, "levels", "non-finite price level"))
        if any(v < 0 for v in self.levels):
            out.append(Violation(None, "levels", "negative price level"))
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            out.append(Violation(None, "levels", "levels not strictly increasing"))
        h = self.continuum_upper
        if h is not None and not math.isfinite(h):
            out.append(Violation(None, "continuum_upper", "non-finite continuum upper bound"))
        elif h is not None and self.levels[-1] > h:
            out.append(
                Violation(None, "continuum_upper", "max level exceeds continuum upper bound")
            )
        return out


def block_rows(k: int) -> int:
    """Rows per block when walking an (m, k) table: about BLOCK_ENTRIES
    entries, so a block's temporaries take the same memory whatever m is."""
    return max(1, BLOCK_ENTRIES // k)


def running_sums(row: Sequence[float]) -> list[float]:
    """What draw reads of a dense distribution row: its running sums, added
    in order, with every entry from the row's last nonzero one on raised to
    infinity. Zeros add exactly to the running sum, so the sums stay sorted."""
    last = len(row) - 1
    while not row[last]:
        last -= 1
    sums = list(accumulate(row))
    sums[last:] = [math.inf] * (len(sums) - last)
    return sums


# draw(sums, u): the grid index that a uniform u in [0, 1) picks from a
# dense distribution row, given its running_sums: the first whose running
# sum exceeds u. The infinite tail makes that the last nonzero entry when
# rounding leaves u at or above the finite running sums.
draw = bisect_right


def _sparse_problem(support: tuple, probs: tuple, k: int) -> tuple[str, str] | None:
    """The first breach that a dense row cannot hold: unsorted or repeated
    indices, an index off the grid, or a probability that is not positive."""
    if list(support) != sorted(set(support)):
        duplicate = len(set(support)) != len(support)
        return "support", "duplicate indices" if duplicate else "indices not sorted"
    if support and (support[0] < 0 or support[-1] >= k):
        return "support", f"index outside grid of size {k}"
    if probs and min(probs) <= 0:
        return "probs", "non-positive probability"
    return None


def _distribution_row(values: list, k: int, t: int, line_no: int) -> list:
    """Round t's dense row over the grid from its "support" and "probs"
    (read_records' `row` for transcripts). Lists of different lengths raise
    TranscriptParseError; support or probs that no dense row can hold raise
    TranscriptValidationError, both naming line `line_no`."""
    support, probs = values
    if len(support) != len(probs):
        raise TranscriptParseError(line_no, "support and probs have different lengths")
    problem = _sparse_problem(support, probs, k)
    if problem is not None:
        raise TranscriptValidationError([Violation(t, *problem, line_no)])
    row = [0.0] * k
    for i, p in zip(support, probs):
        row[i] = p
    return row


def check_ids(ids: np.ndarray, rows: int, name: str) -> None:
    """Raise ValueError unless each of the ids is a row of a table of `rows` rows."""
    if len(ids) and not (ids.min() >= 0 and ids.max() < rows):
        raise ValueError(f"{name} must hold row ids in [0, {rows})")


@dataclass(frozen=True, eq=False)
class Transcript:
    """A grid plus per-round columns for rounds 1..T.

    Round t posted grid index posted[t-1], observed alloc[t-1] there, and
    drew the price from dist_table[dist_index[t-1]], a dense row over the
    grid that is 0 off the support. The table holds each distinct
    distribution once, in order of first appearance: a handful for a
    Q-learner, one per round for a multiplicative-weights learner.
    """

    grid: PriceGrid
    posted: np.ndarray  # (T,) int64
    alloc: np.ndarray  # (T,) float64
    dist_index: np.ndarray  # (T,) int64
    dist_table: np.ndarray  # (n, k) float64

    def __post_init__(self):
        columns = {"posted": np.int64, "alloc": float, "dist_index": np.int64, "dist_table": float}
        for name, dtype in columns.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if not len(self.posted) == len(self.alloc) == len(self.dist_index):
            raise ValueError("posted, alloc and dist_index need one entry per round")
        check_ids(self.dist_index, len(self.dist_table), "dist_index")

    def __len__(self) -> int:
        return len(self.posted)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        pairs = zip((self.posted, self.alloc), (other.posted, other.alloc))
        if self.grid != other.grid or not all(np.array_equal(a, b) for a, b in pairs):
            return False
        # Each distinct (id, id) pair of the rounds compares its two rows once.
        mine, theirs, _ = pair_counts(self.dist_index, other.dist_index, len(other.dist_table))
        return np.array_equal(self.dist_table[mine], other.dist_table[theirs])


class DistinctRows:
    """Dense rows of k floats, dictionary-encoded: `add` returns a row's id.
    Each distinct row is packed once as float64, in order of first
    appearance; rows that compare equal (1 and 1.0, 0.0 and -0.0) share an
    id, and the first one added is kept: rows compare by their packed
    bytes, each -0.0 read as 0.0.

    Nothing else is kept per row but its hash: an open-addressing index of
    ids, at most half full, finds a row by the hash of its bytes and
    confirms it by comparing them with the packed copy. A row costs its
    8k bytes, 8 for its hash and 16 to 32 for its slots, and no Python
    object. A new row raises BufferError while a table() is alive."""

    def __init__(self, k: int):
        self.k = k
        self._row = struct.Struct(f"{k}d")
        self._packed = bytearray()
        self._hashes = array("q")  # row d's hash, to move it when the index grows
        self._slots = array("q", [-1]) * 8  # a row's id, or -1 for none

    def __len__(self) -> int:
        return len(self._hashes)

    def add(self, values) -> int:
        """The id of k numbers, any iterable of them (a list, or a 1-d array,
        whose entries pack as the floats they convert to); ValueError else."""
        try:
            raw = self._row.pack(*values)
        except struct.error:
            raise ValueError(f"a distribution row must be {self.k} numbers, one per grid price") from None
        slots, hashes, packed, size = self._slots, self._hashes, self._packed, len(raw)
        mask = len(slots) - 1
        key = raw
        while True:  # for raw, then, if raw may hold -0.0, for its key
            h = hash(key)
            i = h & mask
            while (d := slots[i]) >= 0:
                if hashes[d] == h and (
                    packed.startswith(key, d * size) or self._key(packed[d * size : (d + 1) * size]) == key
                ):
                    return d
                i = (i + 1) & mask
            if key is not raw or raw.find(_NEGATIVE_ZERO) < 0:
                break
            key = self._key(raw)
        d = len(hashes)
        packed += raw
        hashes.append(h)
        slots[i] = d
        if 2 * d >= mask:
            self._grow()
        return d

    def table(self) -> np.ndarray:
        """The distinct rows, (n, k) float64, row d holding id d."""
        return np.frombuffer(self._packed).reshape(-1, self.k)

    def _key(self, raw) -> bytes:
        """A packed row's bytes with each -0.0 as 0.0: what rows compare by."""
        if raw.find(_NEGATIVE_ZERO) < 0:  # a match may be a false one, which only costs time
            return raw
        return self._row.pack(*[v + 0.0 for v in self._row.unpack(raw)])

    def _grow(self) -> None:
        """Double the index and put every id back on the probe path of its
        hash, a block of ids at a time: each round, each id of the block not
        yet placed takes its slot if free (one per slot), and the others move
        on one slot."""
        self._slots = array("q", [-1]) * (2 * len(self._slots))
        slots = np.frombuffer(self._slots, dtype=np.int64)
        mask = len(slots) - 1
        hashes = np.frombuffer(self._hashes, dtype=np.int64)
        for start in range(0, len(hashes), _BLOCK):
            at = hashes[start : start + _BLOCK] & mask
            ids = np.arange(start, start + len(at))
            while len(ids):
                free = slots[at] < 0
                slots[at[free]] = ids[free]
                lost = slots[at] != ids
                ids, at = ids[lost], (at[lost] + 1) & mask


def pair_counts(first, second, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (first[t], second[t]), ids in increasing order, and
    how many t give each; second's ids lie in [0, size). One sort of a key
    per t, not np.unique, which imports numpy.ma."""
    keys = np.asarray(first, dtype=np.int64) * size
    keys += second
    keys.sort()
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    distinct = keys[starts]
    return distinct // size, distinct % size, np.diff(starts, append=len(keys))


@dataclass(frozen=True)
class CostRange:
    """Closed interval of plausible per-unit costs."""

    lo: float
    hi: float

    def __post_init__(self):
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"cost range {name} must be finite, got {getattr(self, name)}")
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"cost range requires 0 <= lo <= hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the audit: cost range, regret threshold r, confidence, grid mode."""

    cost_range: CostRange
    threshold_r: float
    confidence_alpha: float
    endogenous: bool = False

    def __post_init__(self):
        if not 0 < self.threshold_r < math.inf:
            raise ValueError(f"threshold_r must be positive and finite, got {self.threshold_r}")
        if not (0 < self.confidence_alpha < 1):
            raise ValueError("confidence_alpha must be in (0, 1)")


def validate(transcript: Transcript) -> list[Violation]:
    """Check every invariant; returns violations as data, never raises.

    An empty list means the transcript is well-formed. T=0 transcripts are
    valid here (the audit rejects them separately). Each distinct
    distribution is checked once and its breaches are reported at every
    round that drew from it.
    """
    t = transcript
    return _violations(t.grid, t.posted, t.alloc, t.dist_index, t.dist_table)


def validate_series(grid: PriceGrid, posted, alloc) -> list[Violation]:
    """validate for price series without distributions: the posted prices
    must lie on the grid and the allocations in [0, 1]."""
    return _violations(grid, np.asarray(posted, dtype=np.int64), np.asarray(alloc, dtype=float))


def _violations(grid, posted, alloc, dist_index=None, dist_table=None) -> list[Violation]:
    out = grid.violations()
    on_grid = (posted >= 0) & (posted < len(grid))
    problems: dict[int, list[tuple[str, str]]] = {}
    if dist_table is None:
        posted_ok, outside = on_grid, f"grid of size {len(grid)}"
    else:
        problems = _row_problems(dist_table)
        supported, outside = dist_table != 0, "support"
        if on_grid.all():  # gathers without copying the columns
            posted_ok = supported[dist_index, posted]
        else:
            posted_ok = np.zeros(len(posted), dtype=bool)
            posted_ok[on_grid] = supported[dist_index[on_grid], posted[on_grid]]
    alloc_ok = (alloc >= 0.0) & (alloc <= 1.0)
    bad = ~(posted_ok & alloc_ok)
    if problems:
        bad |= np.isin(dist_index, list(problems))
    for r in np.flatnonzero(bad).tolist():
        t = r + 1
        if problems:
            out.extend(Violation(t, f, m) for f, m in problems.get(int(dist_index[r]), ()))
        if not posted_ok[r]:
            out.append(Violation(t, "posted_index", f"posted price outside {outside}"))
        if not alloc_ok[r]:
            out.append(Violation(t, "allocation", "allocation out of [0,1]"))
    return out


def _row_problems(table: np.ndarray) -> dict[int, list[tuple[str, str]]]:
    """(field, message) breaches of each distinct distribution that has any."""
    finite = np.isfinite(table).all(axis=1)
    empty = ~table.any(axis=1)
    negative = (table < 0).any(axis=1)
    tiny = ((table > 0) & (table < MIN_SUPPORT_PROB)).any(axis=1)
    summed = finite & ~empty
    off_sum = np.zeros(len(table), dtype=bool)
    # A block of rows at a time, so that no Python list holds every row.
    for lo in range(0, len(table), _BLOCK):
        rows = zip(table[lo : lo + _BLOCK].tolist(), summed[lo : lo + _BLOCK])
        off_sum[lo : lo + _BLOCK] = [ok and abs(math.fsum(row) - 1.0) > PROB_SUM_TOL for row, ok in rows]
    out = {}
    for d in np.flatnonzero(empty | ~finite | negative | tiny | off_sum).tolist():
        row = out[d] = []
        if empty[d]:
            row.append(("support", "empty support"))
        elif not finite[d]:
            row.append(("probs", "non-finite probability"))
        elif negative[d]:
            row.append(("probs", "non-positive probability"))
        elif tiny[d]:
            row.append(("probs", f"probability below {MIN_SUPPORT_PROB:g} rejected"))
        if off_sum[d]:
            row.append(("probs", "probabilities do not sum to 1"))
    return out


def _envelope_breakpoints(slopes: np.ndarray, intercepts: np.ndarray) -> list:
    """Costs where the upper envelope of the lines q -> slopes[q] * c + intercepts[q]
    changes leader, in increasing order: floats, or Fractions on Fractions."""
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
    """Calibrated regret of pair sums as a convex piecewise-linear function of
    cost: the audits' estimate from M-hat and the oracles' truth from M. Float
    on a float M; exact on an object M of Fractions, levels and costs."""

    slopes: np.ndarray  # (k, k) substitution-benefit slopes, M's dtype
    intercepts: np.ndarray  # (k, k)
    breakpoints: tuple  # sorted costs where some per-p envelope changes leader

    def values(self, cs: np.ndarray) -> np.ndarray:
        dtype = np.result_type(self.slopes, float)  # float64, or object for Fractions
        cs = np.asarray(cs, dtype=dtype)
        # best[i, p] = max_q of the line at cost cs[i], one p at a time, so a
        # long sweep holds (n, k) values, not (n, k, k).
        best = np.empty((len(cs), len(self.slopes)), dtype=dtype)
        for p, (s, b) in enumerate(zip(self.slopes, self.intercepts)):
            best[:, p] = (s[None, :] * cs[:, None] + b[None, :]).max(axis=1)
        return best.sum(axis=1)

    @classmethod
    def from_pair_sums(cls, m: np.ndarray, levels, rounds: int) -> "PWLInCost":
        """The curve of the pair sums M over `rounds` rounds: substituting p
        with q gains ((l_q - c) M[p, q] - (l_p - c) M[p, p]) / T."""
        levels = np.asarray(levels, dtype=np.result_type(m, float))
        own = np.diag(m)
        slopes = (own[:, None] - m) / rounds
        intercepts = (levels[None, :] * m - (levels * own)[:, None]) / rounds
        bps: set = set()
        for p in range(len(levels)):
            bps.update(_envelope_breakpoints(slopes[p], intercepts[p]))
        return cls(slopes, intercepts, tuple(sorted(bps)))

    def argmax_swap(self, c: float) -> tuple[int, ...]:
        """Best substitution target per price at cost c, lowest q on ties."""
        vals = self.slopes * c + self.intercepts
        best = vals.max(axis=1, keepdims=True)
        return tuple(int(np.argmax(row >= b)) for row, b in zip(vals, best))


# ---------------------------------------------------------------------------
# Persistence: line-oriented JSON, a grid header and then one record per
# round, floats with 17 significant digits so that read(write(x)) == x
# bit-exactly. Transcripts, reduced transcripts (t/posted/alloc) and
# ground-truth sidecars (t/x) share the header and the reader.
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in transcript")
    return format(float(x), ".17g")


def write_records(sink: Union[str, IO[str]], grid: PriceGrid, lines: Iterable[str]) -> None:
    """Write the grid header and then `lines`, each ending in a newline."""
    if isinstance(sink, (str, bytes, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_records(fh, grid, lines)
        return
    levels = ", ".join(format_float(v) for v in grid.levels)
    h = "null" if grid.continuum_upper is None else format_float(grid.continuum_upper)
    sink.write(f'{{"grid": [{levels}], "continuum_upper": {h}}}\n')
    sink.writelines(lines)


def block_lines(
    head: str, columns: Sequence[np.ndarray], table: np.ndarray, index: np.ndarray, body, sparse: bool
) -> Iterator[str]:
    """JSONL lines, a block of rounds at a time. Round t's line is `head`
    filled with t and the columns' entries at round t, then the text of its
    row table[index[t - 1]], then "}\n". A row's text is `body(support)`
    filled with the row's entries on `support`: the indices of its nonzero
    entries if `sparse`, else all of them. Each support's template is built
    once per call.

    A block lists its distinct ids in order of first appearance and formats
    those that the block before it did not have in one `%` call, rows in a
    run of one support sharing a template; the result splits into one text
    per row. Only the block's own texts are kept for the next block, so
    nothing is kept per round, and a row that recurs after a block without
    it is formatted again. Lines go as strings of about _CHUNK characters,
    as many lines as fit at the length of the block's first line, each
    from one `%` call that takes the rows' texts as %s arguments, so that a
    block of long rows is never one block-sized string.
    Rows are converted to float as float() converts them (an exact Fraction
    table included), and a non-finite entry or column value raises
    ValueError."""
    bodies: dict[bytes, str] = {}  # a support, as its mask's bytes -> its body template

    def template(mask: np.ndarray) -> str:
        key = mask.tobytes()
        if key not in bodies:
            bodies[key] = body(np.flatnonzero(mask).tolist())
        return bodies[key]

    line = head + "%s}\n"
    texts: dict[int, str | None] = {}  # the block's ids -> their rows' texts
    for lo in range(0, len(index), _BLOCK):
        ids = index[lo : lo + _BLOCK].tolist()
        cols = [col[lo : lo + _BLOCK] for col in columns]
        texts = {d: texts.get(d) for d in dict.fromkeys(ids)}  # None: no text yet
        new = [d for d, text in texts.items() if text is None]
        rows = np.asarray(table[new], dtype=float)
        if not (np.isfinite(rows).all() and all(np.isfinite(col).all() for col in cols)):
            raise ValueError("non-finite float in transcript")
        masks = rows != 0 if sparse else np.ones(rows.shape, dtype=bool)
        starts = np.ones(len(new), dtype=bool)
        np.not_equal(masks[1:], masks[:-1]).any(axis=1, out=starts[1:])
        starts = np.flatnonzero(starts).tolist()
        runs = zip(starts, starts[1:] + [len(new)])
        fmt = "".join((template(masks[s]) + "\n") * (e - s) for s, e in runs)
        texts.update(zip(new, (fmt % tuple(rows[masks].tolist())).splitlines()))
        t = range(lo + 1, lo + len(ids) + 1)
        step = max(1, _CHUNK // (len(line) + len(texts[ids[0]])))  # lines of about _CHUNK characters
        # Lists per chunk, so that only `texts` is left of this block while
        # the next one formats its rows.
        for a in range(0, len(ids), step):
            part = slice(a, a + step)
            rounds = zip(t[part], *[col[part].tolist() for col in cols], [texts[d] for d in ids[part]])
            yield (line * len(t[part])) % tuple(chain.from_iterable(rounds))


def _distribution_text(support: list[int]) -> str:
    sup = ", ".join(map(str, support))
    probs = ", ".join(["%.17g"] * len(support))
    return f'"support": [{sup}], "probs": [{probs}]'


def write_transcript(transcript: Transcript, sink: Union[str, IO[str]]) -> None:
    """Serialize to the line-oriented JSON format, a block of rounds at a
    time. Caller guarantees validity."""
    tr = transcript
    head = '{"t": %d, "posted": %d, "alloc": %.17g, '
    lines = block_lines(head, (tr.posted, tr.alloc), tr.dist_table, tr.dist_index, _distribution_text, sparse=True)
    write_records(sink, tr.grid, lines)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number")


# One decoder for every reader: the NaN and Infinity tokens are not JSON.
# JSON nested too deeply for a decoder raises RecursionError, not ValueError.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def load_json(fh: IO[str]):
    """json.load, raising ValueError for input nested too deeply to decode."""
    try:
        return json.load(fh)
    except RecursionError as e:
        raise ValueError(f"bad JSON: {e}") from None


_INT = frozenset({int})
_NUMBER = frozenset({int, float})
_I64 = 2**63


def _numbers(v) -> bool:
    """A list of floats and of integers that fit in 64 bits."""
    if type(v) is not list:
        return False
    types = set(map(type, v))
    return types <= _NUMBER and (int not in types or all(-_I64 <= x < _I64 for x in v if type(x) is int))


def _finite(v) -> bool:
    return (type(v) is float and math.isfinite(v)) or (type(v) is int and -_I64 <= v < _I64)


# Exact fraction strings: "a" or "a/b". Fraction would also read decimal
# exponents, and "1e3000000" alone takes over a second to expand.
_FRACTION = re.compile(r"[+-]?\d+(/\d+)?")


def _exact(v) -> bool:
    """A finite number, or an exact fraction string such as "1/3"."""
    if type(v) is not str:
        return _finite(v)
    if not _FRACTION.fullmatch(v):
        return False
    try:  # a zero denominator, or more digits than int() reads
        Fraction(v)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _exact_list(v) -> bool:
    return type(v) is list and all(map(_exact, v))


# Value kinds of JSON values, named as the errors state them: record fields
# for read_records, config and table keys for check_keys. JSON true and
# false are not numbers here, and integers must fit in 64 bits.
KINDS = {
    "an integer": lambda v: type(v) is int and -_I64 <= v < _I64,
    "a number": lambda v: type(v) is float or (type(v) is int and -_I64 <= v < _I64),
    "a finite number": _finite,
    "a string": lambda v: type(v) is str,
    "an object": lambda v: type(v) is dict,
    "a list": lambda v: type(v) is list,
    "a list of integers": lambda v: type(v) is list and _INT.issuperset(map(type, v)),
    "a list of numbers": _numbers,
    "a list of finite numbers": lambda v: type(v) is list and all(map(_finite, v)),
    'a finite number or an "a/b" string': _exact,
    'a list of finite numbers or "a/b" strings': _exact_list,
    'a list of lists of finite numbers or "a/b" strings': lambda v: type(v) is list and all(map(_exact_list, v)),
}


def check_keys(obj: dict, allowed: dict[str, str], what: str, required: Iterable[str] = ()) -> None:
    """Raise ValueError unless the JSON object `obj` holds every `required`
    key and only `allowed` ones (name -> kind, see KINDS), each of its kind."""
    for key in required:
        if key not in obj:
            raise ValueError(f"{what}: missing key {key!r}")
    for key, value in obj.items():
        if key not in allowed:
            raise ValueError(f"unknown {what} key {key!r}")
        if not KINDS[allowed[key]](value):
            raise ValueError(f"{what} key {key!r} must be {allowed[key]}")


# A path is read with errors="surrogateescape": each byte that is not UTF-8
# becomes one of these lone surrogates, which no UTF-8 text decodes to.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")

# The array typecode of each scalar kind that read_records reads.
_TYPECODES = {"an integer": "q", "a number": "d"}

def _open(path: str) -> IO[str]:
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _decode(line: str, line_no: int):
    """A whole line's JSON value; a byte that is not UTF-8, bad JSON and
    JSON nested too deeply raise TranscriptParseError naming the line."""
    if not line.isascii() and (byte := _NOT_UTF8.search(line)):
        raise TranscriptParseError(line_no, f"invalid UTF-8 byte 0x{ord(byte.group()) - 0xDC00:02x}")
    try:
        return _DECODER.decode(line)
    except (ValueError, RecursionError) as e:
        raise TranscriptParseError(line_no, f"bad JSON: {getattr(e, 'msg', e)}") from e


def _header(numbered: Iterator[tuple[int, str]]) -> tuple[PriceGrid, int]:
    """The grid of the first non-blank line of `numbered`, (line number,
    line) pairs, and that line's number; no such line raises
    TranscriptParseError, and an invalid grid TranscriptValidationError."""
    for line_no, line in numbered:
        if not line.isspace():
            break
    else:
        raise TranscriptParseError(1, "missing header line")
    header = _decode(line, line_no)
    if not isinstance(header, dict) or "grid" not in header:
        raise TranscriptParseError(line_no, 'header must be an object with a "grid" key')
    levels, h = header["grid"], header.get("continuum_upper")
    if not KINDS["a list of numbers"](levels):
        raise TranscriptParseError(line_no, '"grid" must be a list of numbers')
    if h is not None and not KINDS["a number"](h):
        raise TranscriptParseError(line_no, '"continuum_upper" must be a number or null')
    grid = PriceGrid(levels, h)
    raise_violations(grid.violations(), [line_no])
    return grid, line_no


def _holds_lists(tail: str, listed: list[tuple]) -> bool:
    """Whether a record tail (see read_records) decodes to an object holding
    exactly the list fields, each of its kind.

    A line that carries such a tail and decodes whole splits at a top-level
    member, so its list fields hold the tail's values.
    """
    try:
        obj = _DECODER.decode(f'{{"{listed[0][0]}": {tail}')
    except (ValueError, RecursionError):
        return False
    if type(obj) is not dict or obj.keys() != {name for name, _, _ in listed}:
        return False
    return all(ok(obj[name]) for name, ok, _ in listed)


def read_records(
    source: Union[str, IO[str]], fields: dict[str, str], row=None
) -> tuple[PriceGrid, array, list]:
    """Read a line-oriented JSON file: a grid header, then one record per round.

    `source` is a path, read as UTF-8, or an open text handle; blank lines
    are skipped. Each record must be an object whose "t" counts 1, 2, ... and
    whose `fields` (name -> kind, see KINDS) hold values of their kind; other
    keys are ignored. Scalar fields are checked before list-valued ones.

    Returns the grid, the line numbers as an array("q") (the header's first,
    then round t's at index t) and a numpy column per scalar field, int64
    for "an integer" and float64 for "a number"; "t" is checked, not kept.
    If `fields` has list fields, `row(values, k, t, line_no)` makes a
    record's dense row of k numbers from its list values, in `fields` order,
    and one more entry follows the columns: (ids, table), a (T,) int64
    column of indices into the (n, k) float64 table of the distinct rows,
    encoded by DistinctRows (so 0.5 and 5e-1 share an id too). So a round
    costs a few typed bytes and no Python object: a distinct row is kept
    once, packed as float64 in one buffer that becomes the table, and is
    found again through its hash in a typed index of ids.

    Malformed input raises TranscriptParseError naming its line, in line
    order; an invalid grid or a "t" out of order raises
    TranscriptValidationError, also naming the line. `row` raises either
    for a row it cannot make, naming the line too; the first such error is
    raised once the file is read, unless the file is malformed further on.

    A line may decode only its head. A record's tail is the text after the
    first `, "<f>": `, where f is the first list field, to the end of the
    line. When a line decoded whole carries a tail and a row that earlier
    lines already had, `{"<f>": ` + tail is decoded on its own; if that gives
    an object holding exactly the list fields, each of its kind, the tail is
    cached with that row. Each ASCII line that carries a cached tail then
    decodes only its head, the text before the marker, + "}". If that text
    is one non-empty object, with nothing around it, the head ends at a
    top-level member, so the whole line would decode to the head's members
    followed by the tail's, and the tail's list fields win over any in the
    head, as the last duplicate key does in JSON. So the head's object is
    checked as the record, over the scalar fields only, and raises what the
    whole line would. Other lines are decoded whole. A Q-learner's row is
    read whole at its first two lines and by head alone from its third; a
    multiplicative-weights learner's rows, which never repeat, cache
    nothing.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with _open(source) as fh:
            return read_records(fh, fields, row)
    scalars = [("t", KINDS["an integer"], "an integer")]
    listed = []
    for name, kind in fields.items():
        (listed if kind.startswith("a list") else scalars).append((name, KINDS[kind], kind))
    checks = scalars + listed
    columns = [array(_TYPECODES[kind]) for _, _, kind in scalars[1:]]
    record: list = []  # a record's "t", then its list values
    targets = [record, *columns, *[record] * len(listed)]
    numbered = enumerate(source, 1)
    grid, line_no = _header(numbered)
    rows = DistinctRows(len(grid))
    lines = array("q", [line_no])
    ids = array("q")  # each round's row id
    marker = f', "{listed[0][0]}": ' if listed else None
    tails: dict[str, int] = {}  # tail -> its row id, or -1: decode whole
    held = None  # the first error that `row` raised
    for line_no, line in numbered:
        if line.isspace():
            continue
        t = len(lines)
        obj = None
        if marker:
            head, split, tail = line.partition(marker)
            d = tails.get(tail, -1) if split else -1
            if d >= 0 and line.isascii():
                # raw_decode skips decode's whitespace matches; a head that
                # is empty or does not end at the closing brace takes the
                # whole-line path.
                text = head + "}"
                try:
                    obj, end = _DECODER.raw_decode(text)
                except (ValueError, RecursionError):
                    pass
                if not (type(obj) is dict and obj and end == len(text)):
                    obj = None
        cached = obj is not None
        if not cached:
            obj = _decode(line, line_no)
            if type(obj) is not dict:
                raise TranscriptParseError(line_no, "record must be a JSON object")
        record.clear()
        for (name, ok, kind), target in zip(scalars if cached else checks, targets):
            value = obj.get(name)
            if not ok(value):
                raise TranscriptParseError(line_no, _field_problem(obj, name, kind))
            target.append(value)
        if record[0] != t:
            raise RoundOrderError(line_no, record[0], t)
        # Reduced files have no list field; they skip the row.
        if listed and not cached:
            try:
                values = row(record[1:], rows.k, t, line_no)
            except (TranscriptParseError, TranscriptValidationError) as e:
                held, d = held or e, -1
            else:
                seen = len(rows)
                d = rows.add(values)
                if split and d < seen and tail not in tails:
                    tails[tail] = d if _holds_lists(tail, listed) else -1
        if listed:
            ids.append(d)
        lines.append(line_no)
    if held is not None:
        raise held
    out = [np.frombuffer(column, dtype=column.typecode) for column in columns]
    if listed:
        out.append((np.frombuffer(ids, dtype=np.int64), rows.table()))
    return grid, lines, out


def count_records(path: str) -> tuple[PriceGrid, int]:
    """The grid of a line-oriented JSON file and its number of records, the
    non-blank lines after the header, counted without decoding them. The
    header raises what read_records raises for it."""
    with _open(path) as fh:
        numbered = enumerate(fh, 1)
        grid, _ = _header(numbered)
        return grid, sum(not line.isspace() for _, line in numbered)


def _field_problem(obj: dict, name: str, kind: str) -> str:
    return f'"{name}" must be {kind}' if name in obj else f"missing key {name!r}"


def raise_violations(violations: Sequence[Violation], lines: Sequence[int]) -> None:
    """Raise TranscriptValidationError for any violations, each naming its
    line: round t's is lines[t], the grid's the header's, lines[0]."""
    if violations:
        raise TranscriptValidationError([replace(v, line=lines[v.round or 0]) for v in violations])


def read_transcript(source: Union[str, IO[str]]) -> Transcript:
    """Parse and validate a transcript file.

    Raises TranscriptParseError (with line number) on malformed input and
    TranscriptValidationError on invariant breaches. An empty record section
    yields a valid T=0 transcript.
    """
    kinds = ("an integer", "a number", "a list of integers", "a list of numbers")
    grid, lines, (posted, alloc, dists) = read_records(
        source, dict(zip(("posted", "alloc", "support", "probs"), kinds)), _distribution_row
    )
    transcript = Transcript(grid, posted, alloc, *dists)
    raise_violations(validate(transcript), lines)
    return transcript

