
import io
import math
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
from regretaudit.figures import read_truth, write_truth
from regretaudit.oracles import GroundTruth

from conftest import dense_row, dyadic_distribution, sample_posted, transcript_from
from witnesses import (
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
        # From its second sighting on, a line's tail is cached and only its
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
