"""Fuzz the three JSONL readers with mutated copies of valid files.

Every mutated file must either read back or be rejected with a
TranscriptParseError or a TranscriptValidationError that names a line;
no other exception may escape. Transcripts and reduced transcripts also go
through the CLI: a rejected file exits 1 with nothing on stdout, and any
file exits 0, 1 or 2 without an exception escaping. The examples are
derandomized, so the test is deterministic.
"""

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretaudit.aggregate import read_price_series
from regretaudit.cli import main
from regretaudit.core import TranscriptParseError, TranscriptValidationError
from regretaudit.figures import read_truth

from witnesses import loads_transcript

HEADER = '{"grid": [0.4, 0.8, 1.2], "continuum_upper": 1.5}'
# The transcript's first tail repeats three times, so that the reader's tail
# cache decodes it on its own and later lines hit it.
RECORDS = {
    "transcript": [
        '{"t": 1, "posted": 0, "alloc": 1, "support": [0, 1], "probs": [0.25, 0.75]}',
        '{"t": 2, "posted": 2, "alloc": 0.5, "support": [0, 1, 2], "probs": [0.5, 0.25, 0.25]}',
        '{"t": 3, "posted": 1, "alloc": 0.0, "support": [1], "probs": [1.0]}',
        '{"t": 4, "posted": 1, "alloc": 0.25, "support": [0, 1], "probs": [0.25, 0.75]}',
        '{"t": 5, "posted": 0, "alloc": 0.75, "support": [0, 1], "probs": [0.25, 0.75]}',
    ],
    "reduced": [
        '{"t": 1, "posted": 0, "alloc": 1}',
        '{"t": 2, "posted": 2, "alloc": 0.5}',
        '{"t": 3, "posted": 1, "alloc": 0.0}',
    ],
    "truth": [
        '{"t": 1, "x": [1.0, 0.5, 0]}',
        '{"t": 2, "x": [0.75, 0.5, 0.25]}',
        '{"t": 3, "x": [1, 1, 0.5]}',
    ],
}
READERS = {
    "transcript": loads_transcript,
    "reduced": lambda text: read_price_series(io.StringIO(text)),
    "truth": lambda text: read_truth(io.StringIO(text)),
}
AUDIT_FLAGS = ["--cost-lo", "0", "--cost-hi", "0.5"]
COMMANDS = {
    "transcript": ["audit", *AUDIT_FLAGS],
    "reduced": ["audit-aggregated", *AUDIT_FLAGS, "--drift-eps", "0.01", "--support-floor", "0.9"],
}

HUGE = "1" + "0" * 400
TOKENS = [
    HUGE, "-" + HUGE, "9223372036854775808", "-9223372036854775809", "1e400", "-1e400",
    "true", "false", "null", "NaN", "Infinity", "-Infinity", "-1", "0", "3", "7", "0.5",
    "1.0000001", "1e-300", "-0.0", '"0.5"', "[]", "[0]", "[0, 0]", "[2, 1]", "{}",
]
# A JSON scalar value: a number, a literal or a string that is not a key.
SCALAR = re.compile(r'-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|true|false|null|"[^"]*"(?!:)')

mutation = st.tuples(
    st.sampled_from(["token", "drop-key", "insert", "truncate", "drop-line", "copy-line"]),
    st.integers(min_value=0, max_value=59),
    st.integers(min_value=0, max_value=59),
    st.sampled_from(TOKENS),
)


def mutate(lines, kind, at, pos, token):
    """Apply one mutation to a copy of `lines`; `at` and `pos` wrap around."""
    lines = list(lines)
    i = at % len(lines)
    line = lines[i]
    spans = [m.span() for m in SCALAR.finditer(line)]
    if kind == "token" and spans:
        a, b = spans[pos % len(spans)]
        lines[i] = line[:a] + token + line[b:]
    elif kind == "drop-key":
        keys = [m.span() for m in re.finditer(r'"\w+": ', line)]
        if keys:
            a, b = keys[pos % len(keys)]
            lines[i] = line[:a] + '"zz": ' + line[b:]
    elif kind == "insert":
        brackets = [m.end() for m in re.finditer(r"\[", line)] or [len(line)]
        a = brackets[pos % len(brackets)]
        lines[i] = line[:a] + token + ", " + line[a:]
    elif kind == "truncate":
        lines[i] = line[: pos % (len(line) + 1)]
    elif kind == "drop-line":
        del lines[i]
    elif kind == "copy-line":
        lines.insert(pos % (len(lines) + 1), line)
    return lines or [""]


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
def test_mutated_file_reads_or_names_its_line(kind, mutations):
    lines = [HEADER, *RECORDS[kind]]
    for m in mutations:
        lines = mutate(lines, *m)
    text = "\n".join(lines) + "\n"
    rejected = True
    try:
        READERS[kind](text)
        rejected = False
    except TranscriptParseError as e:
        assert isinstance(e.line_no, int) and 1 <= e.line_no <= len(lines)
        assert f"line {e.line_no}" in str(e)
    except TranscriptValidationError as e:
        assert e.violations
        assert all(v.line is not None and 1 <= v.line <= len(lines) for v in e.violations)
    if kind in COMMANDS:
        code, out, err = run_cli(COMMANDS[kind], text)
        assert "Traceback" not in err
        if rejected:
            assert (code, out) == (1, "")
            assert err.startswith("error: ")
        else:
            assert code in (0, 1, 2)


def run_cli(command, text):
    """Exit code, stdout and stderr of the CLI on `text` as the input file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:]])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", sorted(READERS))
def test_unmutated_files_read(kind):
    READERS[kind]("\n".join([HEADER, *RECORDS[kind]]) + "\n")
