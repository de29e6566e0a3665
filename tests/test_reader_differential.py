"""The tail-cached reader against a plain reference that decodes every line whole.

`core.read_records` decodes each distinct record tail once and then only
the heads of the lines that carry it. The reference here decodes each whole
line and applies the documented checks in the documented order. On files
built to hit the cache (tails repeated three or more times) and to miss it
(reordered keys, duplicate keys across head and tail, the marker inside a
string or a nested object, other whitespace, CRLF, a last line without a
newline, truncated lines, equal values from different text), both must give
the same columns bit for bit, or the same exception class, message and line.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretaudit.core import (
    KINDS,
    PriceGrid,
    RoundOrderError,
    Transcript,
    TranscriptParseError,
    TranscriptValidationError,
    Violation,
    raise_violations,
    validate,
)
from regretaudit.figures import read_truth
from regretaudit.oracles import GroundTruth

from witnesses import loads_transcript, per_round_allocations, transcript_from_rounds

HEADER = '{"grid": [0.4, 0.8, 1.2], "continuum_upper": 1.5}'
TRANSCRIPT_FIELDS = {"posted": "an integer", "alloc": "a number", "support": "a list of integers", "probs": "a list of numbers"}


def reject_constant(name):
    raise ValueError(f"{name} is not a number")


DECODER = json.JSONDecoder(parse_constant=reject_constant)


def reference_records(text, fields):
    """The grid, the line numbers and one list of values per field, with one
    entry per round, from decoding each non-blank line whole. Scalar fields
    are checked before list fields, then "t" against the round number."""
    checks = sorted({"t": "an integer", **fields}.items(), key=lambda item: item[1].startswith("a list"))
    columns = {name: [] for name, _ in checks}
    grid, lines = None, []
    for line_no, line in enumerate(io.StringIO(text), 1):
        if line.isspace():
            continue
        try:
            obj = DECODER.decode(line)
        except ValueError as e:
            raise TranscriptParseError(line_no, f"bad JSON: {getattr(e, 'msg', e)}") from e
        if not lines:  # the generated headers are valid
            grid = PriceGrid(obj["grid"], obj["continuum_upper"])
        elif type(obj) is not dict:
            raise TranscriptParseError(line_no, "record must be a JSON object")
        else:
            for name, kind in checks:
                if not KINDS[kind](obj.get(name)):
                    problem = f'"{name}" must be {kind}' if name in obj else f"missing key {name!r}"
                    raise TranscriptParseError(line_no, problem)
                columns[name].append(obj[name])
            if obj["t"] != len(lines):
                raise RoundOrderError(line_no, obj["t"], len(lines))
        lines.append(line_no)
    return grid, lines, columns


def sparse_problem(support, probs, k):
    if list(support) != sorted(set(support)):
        return "support", "duplicate indices" if len(set(support)) != len(support) else "indices not sorted"
    if support and (support[0] < 0 or support[-1] >= k):
        return "support", f"index outside grid of size {k}"
    if probs and min(probs) <= 0:
        return "probs", "non-positive probability"
    return None


def reference_transcript(text):
    grid, lines, c = reference_records(text, TRANSCRIPT_FIELDS)
    k = len(grid)
    pairs = list(zip(map(tuple, c["support"]), map(tuple, c["probs"])))
    seen = set()
    for t, (support, probs) in enumerate(pairs, 1):
        if (support, probs) in seen:
            continue
        seen.add((support, probs))
        if len(support) != len(probs):
            raise TranscriptParseError(lines[t], "support and probs have different lengths")
        problem = sparse_problem(support, probs, k)
        if problem is not None:
            raise TranscriptValidationError([Violation(t, *problem, lines[t])])
    rows = np.zeros((len(pairs), k))
    for row, (support, probs) in zip(rows, pairs):
        row[list(support)] = probs
    transcript = transcript_from_rounds(grid, c["posted"], c["alloc"], rows)
    raise_violations(validate(transcript), lines)
    return transcript


def reference_truth(text):
    grid, lines, c = reference_records(text, {"x": "a list of numbers"})
    k = len(grid)
    for t, row in enumerate(c["x"], 1):
        if len(row) != k:
            raise TranscriptParseError(lines[t], f'"x" must have {k} entries, one per price')
    # Rows that compare equal share an id, so they take the first one's floats.
    first = {}
    rows = [first.setdefault(tuple(row), row) for row in c["x"]]
    values = np.array(rows, dtype=float).reshape(len(rows), k)
    in_range = ((values >= 0.0) & (values <= 1.0)).all(axis=1)
    raise_violations([Violation(t, "x", "allocation out of [0,1]") for t in (np.flatnonzero(~in_range) + 1).tolist()], lines)
    return GroundTruth(grid.levels, values, np.arange(len(values)))


def read_truth_text(text):
    return read_truth(io.StringIO(text))


def outcome(read, text):
    """What a reader gives: its columns as bytes, or its error."""
    try:
        result = read(text)
    except (TranscriptParseError, TranscriptValidationError) as e:
        return type(e), str(e), getattr(e, "line_no", None), getattr(e, "violations", None)
    if isinstance(result, Transcript):
        columns = (result.posted, result.alloc, result.dist_index, result.dist_table)
        return result.grid, [(a.dtype, a.shape, a.tobytes()) for a in columns]
    values = per_round_allocations(result)
    return result.levels, values.dtype, values.shape, values.tobytes()


# Record heads, formatted with the round, the posted index and the allocation.
STANDARD_HEAD = '{{"t": {t}, "posted": {p}, "alloc": {a}'
TRANSCRIPT_HEADS = [
    '{{"posted": {p}, "alloc": {a}, "t": {t}',  # keys reordered
    '{{"t":{t},"posted":{p},"alloc":{a}',  # no whitespace
    ' {{ "t" : {t} , "posted": {p}, "alloc": {a} ',  # other whitespace
    '{{"t": {t}, "posted": {p}, "alloc": {a}, "probs": [1.0]',  # duplicate key across head and tail
    '{{"t": {t}, "posted": {p}, "alloc": {a}, "meta": {{"k": 0, "support": [1]}}',  # marker in a nested object
    '{{"t": {t}, "posted": {p}, "alloc": {a}, "note": "x, \\"support\\": [2]"',  # escaped marker in a string
    '{{"t": {t}, "posted": {p}, "note": "x, "support": [2]", "alloc": {a}',  # marker inside a broken string
    '{{"t": {t}, "posted": {p}, "alloc": {a}, "note": "café"',  # not ASCII
    '{{"t": {t}, "posted": {p}',  # missing key
    '{{"t": {t}, "posted": "{p}", "alloc": {a}',  # wrong kind
    "{{",  # empty head
    "[{t}",  # not an object
]
# Tails that read back with posted index 1, cached or not, then bad ones.
TRANSCRIPT_TAILS = [
    '"support": [0, 1], "probs": [0.25, 0.75]}',
    '"support": [0, 1], "probs": [2.5e-1, 0.75]}',  # equal values, other text
    '"support":[0,1],"probs":[0.25,0.75]}',
    '"support": [1], "probs": [1]}',
    '"support": [1], "probs": [1.0]}',
    '"support": [0, 1, 2], "probs": [0.5, 0.25, 0.25]} ',
    '"support": [0, 1, 2], "probs": [0.5, 0.25, 0.25], "zz": 1}',  # another key
    '"probs": [1.0], "support": [1]}',  # list keys reordered
    '"support": [0], "probs": [1.0], "support": [1]}',  # duplicate key in the tail
], [
    '"support": [2, 0], "probs": [0.5, 0.5]}',  # unsorted
    '"support": [0, 1], "probs": [0.5]}',  # lengths differ
    '"support": [1, 3], "probs": [0.5, 0.5]}',  # off the grid
    '"support": [0, 1], "probs": [0.5, 0.25]}',  # does not sum to 1
    '"support": [0, 1], "probs": [0.5, NaN]}',
    '"support": [true], "probs": [1.0]}',
    '"support": [0, 1], "probs": [0.5, 0.5]}}',  # extra data
    '"support": [0, 1], "probs": [0.5, 0.5]',  # unterminated
]
TRUTH_HEADS = [
    '{{"alloc": {a}, "t": {t}',
    '{{"t":{t}',
    '{{"t": {t}, "x": [1, 1, 1]',  # duplicate key across head and tail
    '{{"t": {t}, "note": "x, "x": [2]"',  # marker inside a broken string
    '{{"t": {t}, "note": "x, \\"x\\": [1, 1, 1]"',  # escaped marker in a string
    '{{"t": "{t}"',  # wrong kind
    "{{",  # empty head
]
TRUTH_TAILS = [
    '"x": [1.0, 0.5, 0]}',
    '"x": [1, 5e-1, 0.0]}',  # equal values, other text
    '"x":[1.0,0.5,0]}',
    '"x": [0.0, 0.25, 1]}',
    '"x": [-0.0, 0.25, 1]}',  # equal to the line above
    '"x": [1, 1, 1], "zz": []}',
    '"x": [0, 0, 0], "x": [1, 1, 1]}',  # duplicate key in the tail
], [
    '"x": [0.75, 0.5]}',  # too short
    '"x": [1.5, 0, 0]}',  # out of [0, 1]
    '"x": [1, 1, 1e400]}',  # 1e400 reads as inf
    '"x": [1, 1, 1]',  # unterminated
]


def rarely(draw, common, odd, one_in=8):
    """A draw from `odd` one time in `one_in`, else from `common`."""
    return draw(st.sampled_from(odd if draw(st.integers(1, one_in)) == one_in else common))


@st.composite
def record_files(draw, heads, tails):
    """A header and 3 to 24 records drawing on a pool of 1 to 3 tails, with
    blank lines, mixed endings, at times a truncated line and at times no
    final newline. Odd heads, tails, rounds and values are rare, so that
    most files read several lines from the cache."""
    pool = [rarely(draw, *tails, one_in=4) for _ in range(draw(st.integers(1, 3)))]
    out = [HEADER + "\n"]
    for t in range(1, draw(st.integers(3, 24)) + 1):
        head = rarely(draw, [STANDARD_HEAD], heads)
        values = {
            "t": t + rarely(draw, [0], [1, -1], one_in=40),
            "p": rarely(draw, [1], [0, 2], one_in=16),
            "a": rarely(draw, ["0.5", "1", "0.0", "5e-1"], ["1.5", "true"], one_in=20),
        }
        line = head.format(**values) + rarely(draw, [", "], [",", " , "]) + draw(st.sampled_from(pool))
        out.append(line + rarely(draw, ["\n"], ["\r\n", "  \n"]))
        if not draw(st.integers(0, 9)):
            out.append(draw(st.sampled_from(["\n", " \n", "\r\n"])))
    if draw(st.integers(1, 6)) == 6:
        i = draw(st.integers(1, len(out) - 1))
        out[i] = out[i][: draw(st.integers(0, len(out[i])))]
    if draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n")
    return "".join(out)


@pytest.mark.slow
@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(text=record_files(TRANSCRIPT_HEADS, TRANSCRIPT_TAILS))
def test_transcript_reader_matches_whole_line_reference(text):
    assert outcome(loads_transcript, text) == outcome(reference_transcript, text)


@pytest.mark.slow
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(text=record_files(TRUTH_HEADS, TRUTH_TAILS))
def test_truth_reader_matches_whole_line_reference(text):
    assert outcome(read_truth_text, text) == outcome(reference_truth, text)


def test_repeated_tails_read_back():
    # Equal values from different text share one table row.
    lines = [HEADER]
    tails = ['"support": [0, 1], "probs": [0.25, 0.75]}', '"support": [0, 1], "probs": [2.5e-1, 7.5e-1]}']
    for t in range(1, 9):
        lines.append(f'{{"t": {t}, "posted": {t % 2}, "alloc": 0.5, {tails[t // 5]}')
    text = "\n".join(lines) + "\n"
    transcript = loads_transcript(text)
    assert transcript.dist_index.tolist() == [0] * 8
    assert transcript.dist_table.tolist() == [[0.25, 0.75, 0.0]]
    assert outcome(loads_transcript, text) == outcome(reference_transcript, text)
