
import io
import json
import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretaudit.core import (
    AuditConfig,
    CostRange,
    DistinctRows,
    PriceGrid,
    Transcript,
    TranscriptParseError,
    TranscriptValidationError,
    Violation,
    draw,
    read_records,
    read_transcript,
    running_sums,
    validate,
    validate_series,
    write_records,
    write_transcript,
)
from regretaudit.aggregate import read_price_series
from regretaudit.figures import read_truth, write_truth
from regretaudit.market import Market, UniformDuopoly, manipulation_valuation_table
from regretaudit.oracles import GroundTruth
from regretaudit.sellers import MWUStrategy, QLearnerStrategy, reward_bounds, simulate

from conftest import dense_row, dyadic_distribution, sample_posted, transcript_from
from witnesses import (
    ReferenceRows,
    dumps_transcript,
    loads_transcript,
    reference_transcript_text,
    reference_truth_text,
    transcript_from_rounds,
)


HEADER = '{"grid": [1.0, 2.0], "continuum_upper": null}\n'


def record_line(t, posted=0, alloc=0.5, support="[0]", probs="[1.0]"):
    return (
        f'{{"t": {t}, "posted": {posted}, "alloc": {alloc}, '
        f'"support": {support}, "probs": {probs}}}\n'
    )


def make_simple_transcript():
    grid = PriceGrid([0.3, 0.5, 0.7])
    dist = dense_row(3, (0, 1), (0.5, 0.5))
    return transcript_from_rounds(grid, [0, 1, 1], [0.9, 0.4, 0.2], [dist] * 3)


class TestValidate:
    def test_well_formed_transcript_has_no_violations(self):
        assert validate(make_simple_transcript()) == []

    def test_posted_outside_support_names_round(self):
        grid = PriceGrid([0.3, 0.5])
        dist = dense_row(2, (0,), (1.0,))
        tr = transcript_from_rounds(grid, [1], [0.5], [dist])
        violations = validate(tr)
        assert len(violations) == 1
        assert violations[0].round == 1
        assert violations[0].field == "posted_index"

    def test_allocation_out_of_range_names_round_two(self):
        grid = PriceGrid([0.3, 0.5])
        dist = dense_row(2, (0,), (1.0,))
        tr = transcript_from_rounds(grid, [0, 0], [0.5, 1.2], [dist, dist])
        violations = validate(tr)
        assert [(v.round, v.field) for v in violations] == [(2, "allocation")]
        assert "allocation out of [0,1]" in violations[0].message

    def test_probability_below_support_threshold_rejected(self):
        dist = np.array([1e-16, 1.0 - 1e-16])
        tr = transcript_from_rounds(PriceGrid([1.0, 2.0]), [1], [0.5], [dist])
        assert any(v.field == "probs" for v in validate(tr))

    def test_probs_must_sum_to_one(self):
        dist = np.array([0.6, 0.6])
        tr = transcript_from_rounds(PriceGrid([1.0, 2.0]), [0], [0.5], [dist])
        assert any("sum" in v.message for v in validate(tr))

    def test_unsorted_or_duplicate_support(self):
        # A dense row cannot hold these, so only a file can state them.
        for support, message in (("[1, 0]", "not sorted"), ("[0, 0]", "duplicate")):
            with pytest.raises(TranscriptValidationError) as err:
                loads_transcript(HEADER + record_line(1, support=support, probs="[0.5, 0.5]"))
            [v] = err.value.violations
            assert (v.round, v.field, v.line) == (1, "support", 2)
            assert message in v.message

    def test_grid_violations(self):
        assert any(v.field == "levels" for v in PriceGrid([2.0, 1.0]).violations())
        assert any(v.field == "levels" for v in PriceGrid([-1.0, 1.0]).violations())
        assert any(
            v.field == "continuum_upper" for v in PriceGrid([0.5, 2.0], 1.0).violations()
        )
        assert PriceGrid([0.5, 2.0], 2.0).violations() == []

    def test_non_contiguous_rounds(self):
        # Columns number rounds by position, so the reader checks "t".
        with pytest.raises(TranscriptValidationError) as err:
            loads_transcript(HEADER + record_line(1) + record_line(3))
        assert any(v.field == "round" and v.round == 3 for v in err.value.violations)

    def test_violations_in_round_order_once_per_round(self):
        # Distribution A breaks the sum, B is fine; A's breach is reported at
        # every round that drew from it, before that round's own breaches.
        grid = PriceGrid([1.0, 2.0])
        a = np.array([0.6, 0.6])
        b = np.array([1.0, 0.0])
        tr = transcript_from_rounds(grid, [0, 1, 1, 0], [0.5, 1.5, 2.0, 0.5], [a, b, a, b])
        assert len(tr.dist_table) == 2
        assert validate(tr) == [
            Violation(1, "probs", "probabilities do not sum to 1"),
            Violation(2, "posted_index", "posted price outside support"),
            Violation(2, "allocation", "allocation out of [0,1]"),
            Violation(3, "probs", "probabilities do not sum to 1"),
            Violation(3, "allocation", "allocation out of [0,1]"),
        ]

    def test_matches_per_round_reference(self, rng):
        # The old per-round loop, for finite positive probabilities.
        grid = PriceGrid([0.5, 1.0, 1.5, 2.0])
        dists = [dyadic_distribution(rng, 4) for _ in range(6)]
        dists += [d * 1.25 for d in dists[:3]]
        dists.append(dense_row(4, (0, 1), (1e-16, 1.0 - 1e-16)))
        for _ in range(20):
            rounds = [dists[i] for i in rng.integers(0, len(dists), size=30)]
            posted = rng.integers(0, 4, size=30).tolist()
            alloc = rng.uniform(-0.2, 1.2, size=30).tolist()
            expected = []
            for t, (d, p, a) in enumerate(zip(rounds, posted, alloc), 1):
                if min(d[d > 0]) < 1e-15:
                    expected.append(Violation(t, "probs", "probability below 1e-15 rejected"))
                if abs(math.fsum(d) - 1.0) > 1e-12:
                    expected.append(Violation(t, "probs", "probabilities do not sum to 1"))
                if d[p] == 0:
                    expected.append(Violation(t, "posted_index", "posted price outside support"))
                if not 0.0 <= a <= 1.0:
                    expected.append(Violation(t, "allocation", "allocation out of [0,1]"))
            assert validate(transcript_from_rounds(grid, posted, alloc, rounds)) == expected

    def test_non_finite_values(self):
        grid = PriceGrid([1.0, 2.0])
        nan = float("nan")
        tr = transcript_from_rounds(grid, [0], [0.5], [np.array([nan, 1.0])])
        assert [(v.round, v.field) for v in validate(tr)] == [(1, "probs")]
        tr = transcript_from_rounds(grid, [0], [nan], [np.array([1.0, 0.0])])
        assert [(v.round, v.field) for v in validate(tr)] == [(1, "allocation")]
        assert [v.field for v in PriceGrid([nan, 1.0]).violations()] == ["levels"]
        inf = float("inf")
        assert [v.field for v in PriceGrid([1.0], inf).violations()] == ["continuum_upper"]

    def test_series_posted_must_lie_on_grid(self):
        grid = PriceGrid([1.0, 2.0, 3.0])
        violations = validate_series(grid, [0, -1, 3, 2], [0.5, 0.5, 0.5, 7.0])
        assert [(v.round, v.field) for v in violations] == [
            (2, "posted_index"),
            (3, "posted_index"),
            (4, "allocation"),
        ]


class TestPersistence:
    def test_one_round_round_trip(self):
        grid = PriceGrid([0.3, 0.5, 0.7])
        tr = transcript_from_rounds(grid, [1], [0.4], [dense_row(3, (1,), (1.0,))])
        text = dumps_transcript(tr)
        assert len(text.strip().split("\n")) == 2
        assert loads_transcript(text) == tr

    def test_round_trip_is_identity_on_random_transcripts(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 5))
            grid = PriceGrid(np.sort(rng.uniform(0, 3, size=k)).tolist())
            dists = [dyadic_distribution(rng, k) for _ in range(int(rng.integers(1, 6)))]
            posted = [int(rng.choice(np.flatnonzero(d))) for d in dists]
            allocs = rng.random(len(dists))
            tr = transcript_from(grid, dists, posted, allocs)
            assert loads_transcript(dumps_transcript(tr)) == tr

    def test_empty_record_section_gives_t0(self):
        tr = loads_transcript('{"grid": [1.0, 2.0], "continuum_upper": null}\n')
        assert len(tr) == 0
        assert validate(tr) == []

    def test_non_monotone_rounds_error_names_round(self):
        text = (
            '{"grid": [1.0], "continuum_upper": null}\n'
            '{"t": 1, "posted": 0, "alloc": 0.5, "support": [0], "probs": [1.0]}\n'
            '{"t": 5, "posted": 0, "alloc": 0.5, "support": [0], "probs": [1.0]}\n'
        )
        with pytest.raises(TranscriptValidationError) as err:
            loads_transcript(text)
        assert any(v.round == 5 for v in err.value.violations)

    def test_malformed_line_reports_line_number(self):
        text = '{"grid": [1.0], "continuum_upper": null}\n{not json\n'
        with pytest.raises(TranscriptParseError) as err:
            loads_transcript(text)
        assert err.value.line_no == 2

    def test_cached_head_is_read_only_when_it_is_one_object(self):
        # From its third sighting on, a line's tail is cached and only its
        # head is decoded. A head whose object closes before the tail is bad
        # JSON as a whole line; a head with space before its object is read
        # whole, and accepted.
        good = HEADER + record_line(1) + record_line(2)
        tail = ', "support": [0], "probs": [1.0]}\n'
        spaced = good + '  {"t": 3, "posted": 0, "alloc": 0.5 ' + tail
        assert loads_transcript(spaced) == loads_transcript(good + record_line(3))
        closed = good + '{"t": 3, "posted": 0, "alloc": 0.5} ' + tail
        with pytest.raises(TranscriptParseError) as err:
            loads_transcript(closed)
        assert err.value.line_no == 4
        # An empty head, "{", decodes to {} with the closing brace, but the
        # whole line, "{, ...", is bad JSON.
        with pytest.raises(TranscriptParseError, match="bad JSON") as err:
            loads_transcript(good + record_line(3) + "{" + tail)
        assert err.value.line_no == 5

    @staticmethod
    def decode_calls(monkeypatch, transcript):
        """The transcript read back from its text, and how many times the
        reader called json.JSONDecoder.decode."""
        text, calls = dumps_transcript(transcript), []
        decode = json.JSONDecoder.decode

        def counted(self, s, *args, **kwargs):
            calls.append(s)
            return decode(self, s, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(json.JSONDecoder, "decode", counted)
            read = loads_transcript(text)
        return read, len(calls)

    def test_repeated_rows_are_read_by_head_alone(self, monkeypatch):
        # The header, each distinct row's first two lines and its tail are
        # decoded whole; every later line decodes only its head.
        grid = PriceGrid(np.linspace(0.05, 0.95, 19).tolist())
        market = Market(grid, UniformDuopoly(), (0.1, 0.2))
        learners = tuple(QLearnerStrategy.standard(grid, cost) for cost in market.costs)
        transcript = simulate(market, learners, 8_000, seed=0).transcripts[0]
        read, calls = self.decode_calls(monkeypatch, transcript)
        assert read == transcript
        assert calls <= 1 + 3 * len(transcript.dist_table)

    def test_rows_that_never_repeat_cache_no_tail(self, monkeypatch):
        # One whole decode per line and none of a tail, which is decoded on
        # its own only when it is cached.
        market = Market(PriceGrid([0, 1, 2, 3]), manipulation_valuation_table(0.005), (0.0, 0.0))
        learners = tuple(MWUStrategy.fresh(4, 1e-3, *reward_bounds(market)) for _ in market.costs)
        transcript = simulate(market, learners, 2_000, seed=0).transcripts[0]
        read, calls = self.decode_calls(monkeypatch, transcript)
        assert read == transcript
        assert len(transcript.dist_table) == 2_000
        assert calls == 1 + 2_000

    def test_missing_header(self):
        with pytest.raises(TranscriptParseError):
            loads_transcript("")

    def test_bad_field_types_are_parse_errors(self):
        header = '{"grid": [1.0], "continuum_upper": null}\n'
        bad_lines = [
            '{"t": "x", "posted": 0, "alloc": 0.5, "support": [0], "probs": [1.0]}',
            '{"t": 1, "posted": 0, "alloc": 0.5, "support": [0]}',
            '{"t": 1, "posted": 0, "alloc": 0.5, "support": [0], "probs": [1.0, 0.5]}',
            "[1, 2, 3]",
        ]
        for line in bad_lines:
            with pytest.raises(TranscriptParseError):
                loads_transcript(header + line + "\n")

    def test_parse_layer_never_crashes_on_fuzz(self, rng):
        # Anything surviving the parse layer must validate without aborting.
        header = '{"grid": [1.0, 2.0], "continuum_upper": null}\n'
        fields = ['"t"', '"posted"', '"alloc"', '"support"', '"probs"', '"x"']
        values = ["1", "0", "-3", "0.5", "[0]", "[1.0]", "null", '"s"', "[0, 1]", "[0.5, 0.5]", "1e400"]
        for _ in range(200):
            n = int(rng.integers(0, 6))
            pairs = ", ".join(
                f"{rng.choice(fields)}: {rng.choice(values)}" for _ in range(n)
            )
            line = "{" + pairs + "}"
            try:
                tr = loads_transcript(header + line + "\n")
                validate(tr)
            except (TranscriptParseError, TranscriptValidationError):
                pass

    def test_nan_and_infinity_tokens_are_parse_errors(self):
        for token in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(TranscriptParseError) as err:
                loads_transcript(HEADER + record_line(1, probs=f"[{token}]"))
            assert err.value.line_no == 2
        # 1e400 is valid JSON that parses to inf; validation rejects it.
        with pytest.raises(TranscriptValidationError) as err:
            loads_transcript(HEADER + record_line(1, probs="[1e400]"))
        assert [(v.round, v.field, v.line) for v in err.value.violations] == [(1, "probs", 2)]

    def test_booleans_are_not_integers(self):
        for line in (record_line("true"), record_line(1, posted="false"), record_line(1, alloc="true")):
            with pytest.raises(TranscriptParseError) as err:
                loads_transcript(HEADER + line)
            assert err.value.line_no == 2

    def test_violations_name_physical_lines(self):
        text = HEADER + "\n" + record_line(1) + "  \n" + record_line(2, alloc=1.5)
        with pytest.raises(TranscriptValidationError) as err:
            loads_transcript(text)
        [v] = err.value.violations
        assert (v.round, v.field, v.line) == (2, "allocation", 5)
        assert "line 5" in str(err.value)

    def test_read_records_columns(self):
        text = HEADER + '{"t": 1, "posted": 1, "x": [0.5]}\n\n{"t": 2, "posted": 0, "x": []}\n'
        grid, lines, columns = read_records(io.StringIO(text), {"posted": "an integer"})
        assert grid == PriceGrid([1.0, 2.0])
        assert lines.tolist() == [1, 2, 4]
        assert [column.tolist() for column in columns] == [[1, 0]]

    def test_distinct_distributions_stored_once(self):
        grid = PriceGrid([1.0, 2.0])
        a = np.array([0.25, 0.75])
        b = np.array([0.0, 1.0])
        tr = transcript_from_rounds(grid, [0, 1, 1, 1], [0.1, 0.2, 0.3, 0.4], [a, b, a, a])
        assert tr.dist_index.tolist() == [0, 1, 0, 0]
        assert tr.dist_table.tolist() == [[0.25, 0.75], [0.0, 1.0]]
        assert loads_transcript(dumps_transcript(tr)) == tr

    def test_file_round_trip(self, tmp_path):
        tr = make_simple_transcript()
        path = tmp_path / "t.jsonl"
        write_transcript(tr, str(path))
        assert read_transcript(str(path)) == tr

    def test_pathlib_paths_are_paths(self, tmp_path):
        # Every reader and writer takes a pathlib.Path as it takes a str.
        tr = make_simple_transcript()
        write_transcript(tr, tmp_path / "t.jsonl")
        assert read_transcript(tmp_path / "t.jsonl") == tr
        truth = GroundTruth(tr.grid.levels, np.array([[0.5, 0.25, 0.0], [1.0, 0.5, 0.125]]), np.array([1, 0, 1]))
        write_truth(truth, tmp_path / "truth.jsonl")
        back = read_truth(tmp_path / "truth.jsonl")
        assert back.levels == truth.levels and np.array_equal(back.table[back.index], truth.table[truth.index])
        (tmp_path / "reduced.jsonl").write_text(
            '{"grid": [0.3, 0.5, 0.7], "continuum_upper": null}\n{"t": 1, "posted": 2, "alloc": 0.25}\n'
        )
        grid, posted, alloc = read_price_series(tmp_path / "reduced.jsonl")
        assert grid.levels == tr.grid.levels and posted.tolist() == [2] and alloc.tolist() == [0.25]

    def test_writers_give_each_round_its_rows_text_in_any_encoding(self, rng):
        # The same 2,500 rounds, several blocks of them, encoded three ways:
        # ids in no particular order, over rows that recur within a block,
        # across blocks or not at all (and rows that no round uses); one
        # row per round; ids in order of first appearance.
        k, rounds = 3, 2500
        grid = PriceGrid([1.0, 2.0, 3.0])
        table = np.array([dyadic_distribution(rng, k) for _ in range(900)])
        index = rng.integers(len(table) - 50, size=rounds)
        dists = table[index]
        posted, alloc = sample_posted(rng, dists), rng.random(rounds)
        shared = Transcript(grid, posted, alloc, index, table)
        assert (np.bincount(index) == 1).any() and (np.bincount(index) > 1).any()
        text = dumps_transcript(shared)
        assert text == dumps_transcript(Transcript(grid, posted, alloc, np.arange(rounds), dists))
        assert text == dumps_transcript(transcript_from_rounds(grid, posted, alloc, dists))
        assert loads_transcript(text) == shared
        values = rng.random((len(table), k))
        sidecars = [io.StringIO(), io.StringIO()]
        write_truth(GroundTruth(grid.levels, values, index), sidecars[0])
        write_truth(GroundTruth(grid.levels, values[index], np.arange(rounds)), sidecars[1])
        assert sidecars[0].getvalue() == sidecars[1].getvalue()
        truth = read_truth(io.StringIO(sidecars[0].getvalue()))
        assert np.array_equal(truth.table[truth.index], values[index])


def truth_text(truth: GroundTruth) -> str:
    buf = io.StringIO()
    write_truth(truth, buf)
    return buf.getvalue()


# Values whose text is easy to get wrong: signed zeros (off the support in a
# distribution, written in a truth), the least subnormal, 1e16 and numbers
# that 17 digits round.
EDGE_VALUES = (0.0, -0.0, 5e-324, 1.0, 1e16, 0.1, 1 / 3)
values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
exact_values = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**9)


@st.composite
def writer_cases(draw):
    """(levels, table, exact table, index, posted, alloc): rows of every
    support size, a few rounds drawn over them, after a lead of rounds that
    repeat one more row. A lead of 984 to 1024 rounds puts the drawn rounds
    across the writers' block boundary at round 1024, so that rows recur
    within a block, across it, or not at all."""
    k = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        support = draw(st.sets(st.integers(0, k - 1)))
        rows.append([draw(values) if i in support else draw(st.sampled_from((0.0, -0.0))) for i in range(k)])
    exact = [draw(st.lists(exact_values, min_size=k, max_size=k)) for _ in rows]
    drawn = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
    lead = draw(st.one_of(st.just(0), st.integers(1024 - 40, 1024)))
    index = [len(rows)] * lead + drawn
    posted = [0] * lead + draw(st.lists(st.integers(0, k - 1), min_size=len(drawn), max_size=len(drawn)))
    alloc = [0.5] * lead + draw(st.lists(values, min_size=len(drawn), max_size=len(drawn)))
    table = np.array([*rows, [0.25] * k])
    exact_table = np.array([*exact, [Fraction(1, 4)] * k], dtype=object)
    return tuple(range(1, k + 1)), table, exact_table, np.array(index), posted, alloc


class TestWriters:
    @settings(derandomize=True, deadline=None, max_examples=120, database=None)
    @given(case=writer_cases())
    def test_match_the_per_value_reference(self, case):
        levels, table, exact_table, index, posted, alloc = case
        transcript = Transcript(PriceGrid(levels), posted, alloc, index, table)
        assert dumps_transcript(transcript) == reference_transcript_text(transcript)
        for truth in (GroundTruth(levels, table, index), GroundTruth(levels, exact_table, index)):
            assert truth_text(truth) == reference_truth_text(truth)

    @pytest.mark.parametrize(
        "case",
        ["recurs blocks after its text was dropped", "first seen and repeated in one block", "only repeat is old"],
    )
    def test_id_orders_of_blocks_that_repeat_rows(self, case, rng):
        # Six 1,024-round blocks of new rows, numbered by first appearance as
        # DistinctRows numbers them, with labelled rows placed at the given
        # rounds to repeat. "a" is seen once in block 0, so its text is
        # dropped, and recurs in block 4 as that block's only repeat, then in
        # block 5; "b" and "c" are first seen and repeated within blocks 0
        # and 5.
        k, n = 4, 6 * 1024
        placed = {
            "recurs blocks after its text was dropped": {0: "a", 4 * 1024 + 50: "a", 5 * 1024 + 7: "a"},
            "first seen and repeated in one block": {100: "b", 200: "b", 5 * 1024 + 10: "c", 5 * 1024 + 900: "c"},
            "only repeat is old": {3: "a", 4 * 1024 + 1023: "a", 5 * 1024: "a", 5 * 1024 + 1: "a"},
        }[case]
        labels = [placed.get(t, t) for t in range(n)]
        ids = {label: d for d, label in enumerate(dict.fromkeys(labels))}
        index = np.array([ids[label] for label in labels])
        # Rows of several supports, zeros of either sign off them.
        table = rng.random((len(ids), k)) * (rng.random((len(ids), k)) < 0.7)
        table[rng.random(table.shape) < 0.1] = -0.0
        posted, alloc = rng.integers(0, k, n), rng.random(n)
        transcript = Transcript(PriceGrid([0.5, 1.0, 1.5, 2.0]), posted, alloc, index, table)
        assert dumps_transcript(transcript) == reference_transcript_text(transcript)
        truth = GroundTruth((0.5, 1.0, 1.5, 2.0), table, index)
        assert truth_text(truth) == reference_truth_text(truth)

    def test_rows_longer_than_a_chunk(self, rng):
        # k = 1,000: a dense row's text (about 22 KB) outgrows a chunk of
        # lines, so a block that starts with it writes one line per chunk.
        # A dense, a sparse and a one-entry row mix within block 0 and
        # across the boundary at round 1,024, after a lead of one-entry
        # rounds that keeps the per-value references quick.
        k, lead = 1000, 1000
        dense = rng.dirichlet(np.ones(k))
        sparse = np.zeros(k)
        sparse[rng.choice(k, 300, replace=False)] = rng.dirichlet(np.ones(300))
        point = np.zeros(k)
        point[k // 2] = 1.0
        table = np.array([point, dense, sparse])
        index = np.array([0] * lead + [1, 2, 0, 2, 1, 1, 0, 2] * 6)  # 24 rounds on each side
        n = len(index)
        grid = PriceGrid(np.linspace(0.001, 1.0, k).tolist())
        transcript = Transcript(grid, np.full(n, k // 2), rng.random(n), index, table)
        assert dumps_transcript(transcript) == reference_transcript_text(transcript)
        truth = GroundTruth(grid.levels, table, index)
        assert truth_text(truth) == reference_truth_text(truth)

    def test_exact_truth_writes_the_bytes_of_its_float_rounding(self):
        exact = np.array(
            [[Fraction(1, 3), Fraction(0), Fraction(2, 7)], [Fraction(1), Fraction(5, 9), Fraction(1, 10**20)]],
            dtype=object,
        )
        rounded = np.array([[float(v) for v in row] for row in exact])
        levels, index = (1.0, 2.0, 3.0), np.array([0, 1, 1, 0, 1])
        assert truth_text(GroundTruth(levels, exact, index)) == truth_text(GroundTruth(levels, rounded, index))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["alloc", "a row of one round", "a recurring row", "a truth row", "a grid level"])
    def test_non_finite_values_are_rejected(self, bad, where):
        grid = PriceGrid([1.0, 2.0])
        good, broken = np.array([0.5, 0.5]), np.array([bad, 1.0])
        writes = {
            "alloc": lambda: write_transcript(Transcript(grid, [0, 1], [0.5, bad], [0, 0], [good]), io.StringIO()),
            "a row of one round": lambda: write_transcript(
                Transcript(grid, [0, 1], [0.5, 0.5], [0, 1], [good, broken]), io.StringIO()
            ),
            "a recurring row": lambda: write_transcript(
                Transcript(grid, [0, 1], [0.5, 0.5], [0, 0], [broken]), io.StringIO()
            ),
            "a truth row": lambda: truth_text(GroundTruth(grid.levels, np.array([good, broken]), np.array([0, 1, 1]))),
            "a grid level": lambda: write_records(io.StringIO(), PriceGrid([1.0, bad]), []),
        }
        with pytest.raises(ValueError, match="^non-finite float in transcript$"):
            writes[where]()


def float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# A quiet NaN, one with a payload, a negative one and a signalling one.
NANS = [float_of_bits(b) for b in (0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001)]


@st.composite
def row_sequences(draw):
    """A row length k and rows to add: new rows of specials and floats, with
    repeats of earlier rows as given, with their zeros' signs swapped, with
    integral entries as ints, as float32 or big-endian arrays, and rows of
    the wrong length. Up to 150 rows: the index grows at 5, 9, 17, 33 and
    65 distinct rows."""
    k = draw(st.sampled_from([1, 2, 4, 19]))
    entry = st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0, *NANS]) | st.floats(width=64)
    rows: list = []
    for _ in range(draw(st.integers(0, 150))):
        earlier = draw(st.sampled_from(rows)) if rows else None
        kind = draw(st.sampled_from(["new"] * 4 + ["repeat", "zeros", "ints", "float32", ">f8", "length"]))
        if kind == "new" or earlier is None:
            rows.append(draw(st.lists(entry, min_size=k, max_size=k)))
        elif kind == "repeat":
            rows.append(earlier)
        elif kind == "zeros":
            rows.append([-v if v == 0 else v for v in map(float, earlier)])
        elif kind == "ints":
            rows.append([int(v) if float(v).is_integer() else v for v in earlier])
        elif kind == "float32":
            values = st.floats(width=32, allow_nan=False) | st.sampled_from([math.nan, -0.0])
            rows.append(np.array(draw(st.lists(values, min_size=k, max_size=k)), dtype=np.float32))
        elif kind == ">f8":
            rows.append(np.array(earlier, dtype=">f8"))
        else:
            size = draw(st.integers(0, 2 * k).filter(lambda n: n != k))
            rows.append(draw(st.lists(entry, min_size=size, max_size=size)))
    return k, rows


class TestDistinctRows:
    """DistinctRows gives the ids and table of the dictionary-keyed reference."""

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(case=row_sequences())
    def test_ids_and_table_match_the_dict_keyed_reference(self, case):
        k, rows = case
        encoded, reference = DistinctRows(k), ReferenceRows(k)
        for row in rows:
            try:
                expected = reference.add(row)
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                    encoded.add(row)
            else:
                assert encoded.add(row) == expected
        assert (encoded.k, len(encoded)) == (k, len(reference.table()))
        assert encoded.table().tobytes() == reference.table().tobytes()

    def test_ids_survive_growths_past_a_block(self):
        # At 2,049 rows the index grows to 8,192 slots and moves its ids in
        # three blocks.
        rows = np.random.default_rng(5).random((3000, 3)).tolist()
        encoded = DistinctRows(3)
        assert [encoded.add(row) for row in rows] == list(range(3000))
        assert [encoded.add(row) for row in reversed(rows)] == list(range(2999, -1, -1))

    def test_an_exported_table_takes_old_rows_only(self):
        encoded = DistinctRows(2)
        for n in range(20):
            encoded.add([n, -0.0])
        table = encoded.table()
        assert encoded.add([7, 0.0]) == 7
        with pytest.raises(BufferError):
            encoded.add([0.25, 0.75])
        assert len(encoded) == 20 and encoded.add([19.0, 0]) == 19
        del table
        assert encoded.add([0.25, 0.75]) == 20 and encoded.add([0.25, 0.75]) == 20
        assert encoded.table()[[7, 20]].tolist() == [[7.0, -0.0], [0.25, 0.75]]


class TestConfigTypes:
    def test_cost_range_invariants(self):
        with pytest.raises(ValueError):
            CostRange(0.5, 0.2)
        with pytest.raises(ValueError):
            CostRange(-0.1, 0.2)
        assert CostRange(0.1, 0.1).lo == 0.1
        for lo, hi, name in ((0.1, math.inf, "hi"), (math.nan, 0.5, "lo"), (-math.inf, 0.5, "lo")):
            with pytest.raises(ValueError, match=f"cost range {name} must be finite"):
                CostRange(lo, hi)

    def test_audit_config_invariants(self):
        cr = CostRange(0.0, 1.0)
        with pytest.raises(ValueError):
            AuditConfig(cr, threshold_r=0.0, confidence_alpha=0.05)
        with pytest.raises(ValueError):
            AuditConfig(cr, threshold_r=0.1, confidence_alpha=1.5)
        for r in (math.inf, math.nan):
            with pytest.raises(ValueError, match="threshold_r must be positive and finite"):
                AuditConfig(cr, threshold_r=r, confidence_alpha=0.05)
        with pytest.raises(ValueError):
            AuditConfig(cr, threshold_r=0.1, confidence_alpha=math.nan)

    def test_distribution_structural_check(self):
        # Every round's row must have one entry per grid price.
        grid = PriceGrid([1.0, 2.0])
        for rows in ([np.array([1.0])], [[0.5, 0.5], [1.0]], np.ones((2, 3)) / 3):
            with pytest.raises(ValueError):
                transcript_from_rounds(grid, [0, 0], [0.5, 0.5], rows)

    def test_rows_that_compare_equal_share_an_id(self):
        # 0.0 and -0.0, or 1 and 1.0, make one distribution; the first row
        # given is kept, as the reader keeps the first one read.
        grid = PriceGrid([1.0, 2.0])
        tr = transcript_from_rounds(grid, [0, 0, 1, 0], [0.5] * 4, [[1.0, -0.0], [1, 0.0], [0.5, 0.5], [1.0, 0.0]])
        assert tr.dist_index.tolist() == [0, 0, 1, 0]
        assert tr.dist_table.tobytes() == np.array([[1.0, -0.0], [0.5, 0.5]]).tobytes()

    def test_array_rows_of_any_dtype_share_the_id_of_their_values(self):
        # An array row of another dtype or byte order is keyed by its values
        # as float64, as a list row is; an array of another shape is no row.
        rows = DistinctRows(2)
        same = [[0.25, 0.75], np.array([0.25, 0.75]), np.array([0.25, 0.75], dtype=">f8"), np.array([0.25, 0.75], dtype=np.float32)]
        assert [rows.add(row) for row in same] == [0, 0, 0, 0]
        assert rows.add(np.array([1, 0])) == rows.add([1.0, 0.0]) == 1
        for bad in (np.array([[0.25, 0.75]]), np.array([0.5, 0.25, 0.25])):
            with pytest.raises(ValueError):
                rows.add(bad)
        assert rows.table().tolist() == [[0.25, 0.75], [1.0, 0.0]]

    def test_in_memory_encoding_matches_the_read_back_copy(self, rng):
        grid = PriceGrid([0.3, 0.5, 0.7, 0.9])
        rows = [dyadic_distribution(rng, 4) for _ in range(300)]
        tr = transcript_from(grid, rows, sample_posted(rng, rows), rng.random(300))
        back = loads_transcript(dumps_transcript(tr))
        assert back.dist_index.tobytes() == tr.dist_index.tobytes()
        assert back.dist_table.tobytes() == tr.dist_table.tobytes()

    @pytest.mark.parametrize("ids", [[0, -1], [0, 5]])
    def test_row_ids_must_index_the_table(self, ids):
        # Unchecked, -1 would read the table's last row from its end, so
        # validate would find nothing wrong and the writer would write that
        # row at round 2; 5 would make validate raise IndexError.
        grid = PriceGrid([1.0, 2.0])
        with pytest.raises(ValueError, match=r"^dist_index must hold row ids in \[0, 1\)$"):
            Transcript(grid, [0, 0], [0.5, 0.5], ids, [[1.0, 0.0]])
        assert validate(Transcript(grid, [0, 0], [0.5, 0.5], [0, 0], [[1.0, 0.0]])) == []
        assert len(Transcript(grid, [], [], [], np.empty((0, 2)))) == 0

    def test_equality_compares_each_rounds_row(self):
        grid = PriceGrid([1.0, 2.0])
        a, b = [0.5, 0.5], [1.0, 0.0]
        one = Transcript(grid, [0, 0, 0], [0.1, 0.2, 0.3], [0, 1, 0], [a, b])
        assert one == Transcript(grid, [0, 0, 0], [0.1, 0.2, 0.3], [1, 0, 1], [b, a])
        assert one != Transcript(grid, [0, 0, 0], [0.1, 0.2, 0.3], [0, 0, 0], [a, b])
        assert one != Transcript(grid, [0, 0, 0], [0.1, 0.2, 0.3], [0, 1, 1], [a, b])

    def test_draw_past_last_cumulative_probability(self):
        # The probabilities sum to 1 - 2**-52, so u = 1 - 2**-53 lies above
        # every cumulative probability; the draw is the last support index,
        # which here is not the top of the grid.
        dist = dense_row(4, (1, 2), (0.5, 0.5 - 2**-52))
        assert math.fsum(dist) == 1 - 2**-52
        assert draw(running_sums(dist), 0.25) == 1
        assert draw(running_sums(dist), 0.5) == 2
        assert draw(running_sums(dist), 1 - 2**-53) == 2
