import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regretaudit import figures
from regretaudit.audit import CellStats, regret_curve
from regretaudit.cli import PRESETS, ExperimentConfig, main
from regretaudit.core import PriceGrid, read_transcript, write_transcript
from regretaudit.market import DiscreteValuationTable, Market, UniformDuopoly, demand_table, manipulation_valuation_table
from regretaudit.oracles import GroundTruth, materialize_truth
from regretaudit.sellers import greedy_distribution

from conftest import dyadic_distribution, sample_posted, transcript_from


def write_best_responder_transcript(path, rng, rounds=20_000):
    # Mass 0.9 on the better of two prices under a static demand; plausible
    # regret is tiny and the margin fits under 2r at this horizon.
    grid = PriceGrid([0.4, 0.8])
    x = (1.0, 0.55)
    dist = np.array([0.1, 0.9])
    posted = sample_posted(rng, [dist] * rounds)
    allocs = [x[p] for p in posted]
    tr = transcript_from(grid, [dist] * rounds, posted, allocs)
    write_transcript(tr, str(path))
    return tr


class TestSimulateCommand:
    def test_writes_files_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = [
            "simulate",
            "--preset",
            "manipulation",
            "--rounds",
            "210",
            "--seed",
            "5",
        ]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        for name in ("transcript_rep0_seller1.jsonl", "transcript_rep0_seller2.jsonl"):
            b1 = (out1 / name).read_bytes()
            assert b1 == (out2 / name).read_bytes()
        payoffs = (out1 / "payoffs.csv").read_text().splitlines()
        assert payoffs[0] == "replication,seller,rounds,total_payoff,mean_payoff"
        assert len(payoffs) == 3

    def test_manipulation_preset_phase_structure(self, tmp_path):
        out = tmp_path / "m"
        assert main(["simulate", "--preset", "manipulation", "--rounds", "420", "--out", str(out)]) == 0
        tr = read_transcript(str(out / "transcript_rep0_seller1.jsonl"))
        # --rounds is the total; phase 1 is ceil(420 / 2.1) = 200 rounds of
        # the low price, then the high price through round 421.
        assert len(tr) == 421
        levels = [tr.grid.levels[p] for p in tr.posted]
        assert set(levels[:200]) == {1.0}
        assert set(levels[200:]) == {3.0}

    def test_rounds_rescale_a_manipulator_in_the_second_seat(self, tmp_path):
        # The preset's seats swapped: seller 2 gets the same phases as the
        # preset's seller 1 under --rounds 420.
        config = {
            "environment": {"kind": "table"},
            "strategies": [
                {"kind": "mwu", "step_size": 2.0},
                {"kind": "manipulator", "phase1_rounds": 10_000},
            ],
            "rounds": 21_000,
        }
        path = tmp_path / "mirrored.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "m"
        assert main(["simulate", "--config", str(path), "--rounds", "420", "--out", str(out)]) == 0
        tr = read_transcript(str(out / "transcript_rep0_seller2.jsonl"))
        assert len(tr) == 421
        levels = [tr.grid.levels[p] for p in tr.posted]
        assert set(levels[:200]) == {1.0}
        assert set(levels[200:]) == {3.0}

    def test_emit_truth_sidecars(self, tmp_path):
        out = tmp_path / "t"
        code = main(
            [
                "simulate",
                "--preset",
                "manipulation",
                "--rounds",
                "42",
                "--out",
                str(out),
                "--emit-truth",
            ]
        )
        assert code == 0
        # The manipulation table's oracle is exact: its Fraction truths are
        # written as their float roundings.
        market = ExperimentConfig(**PRESETS["manipulation"]).market
        grid = market.grid
        for i in range(2):
            opponent = read_transcript(str(out / f"transcript_rep0_seller{2 - i}.jsonl")).posted
            expected = materialize_truth(market, opponent, i)
            assert expected.exact
            written = figures.read_truth(str(out / f"truth_rep0_seller{i + 1}.jsonl"))
            assert written.levels == grid.levels
            rounded = np.asarray(expected.table, dtype=float)[expected.index]
            assert np.array_equal(written.table[written.index], rounded)

    def test_config_file_round_trip(self, tmp_path):
        config = {
            "environment": {"kind": "uniform", "cost1": 0.1, "cost2": 0.2},
            "strategies": [{"kind": "fixed", "price": 0.5}, {"kind": "fixed", "price": 0.55}],
            "rounds": 10,
            "replications": 2,
            "seed": 3,
            "out": str(tmp_path / "cfg_out"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cfg_out" / "transcript_rep1_seller2.jsonl").exists()


class TestAuditCommand:
    def test_pass_exit_code_and_report(self, tmp_path, rng, capsys):
        path = tmp_path / "good.jsonl"
        write_best_responder_transcript(path, rng)
        code = main(
            [
                "audit",
                str(path),
                "--cost-lo",
                "0.1",
                "--cost-hi",
                "0.3",
                "--r",
                "0.25",
            ]
        )
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        assert code == 0

    def test_sweep_reads_the_audits_pair_sums(self, tmp_path, rng, monkeypatch):
        # The report and the sweep CSV come from one curve, so M is built once.
        path, sweep = tmp_path / "t.jsonl", tmp_path / "sweep.csv"
        write_best_responder_transcript(path, rng, rounds=500)
        calls = []
        original = CellStats.pair_sums
        monkeypatch.setattr(CellStats, "pair_sums", lambda stats: calls.append(stats) or original(stats))
        flags = ["--cost-lo", "0.1", "--cost-hi", "0.3", "--sweep-points", "9"]
        assert main(["audit", str(path), *flags, "--sweep", str(sweep)]) in (0, 2)
        assert len(calls) == 1
        curve = regret_curve(read_transcript(str(path)))
        rows = [[float(v) for v in line.split(",")] for line in sweep.read_text().splitlines()[1:]]
        assert rows == figures.cost_sweep_rows(curve, 0.1, 0.3, 9)

    def test_fail_exit_code(self, tmp_path, rng):
        path = tmp_path / "good.jsonl"
        write_best_responder_transcript(path, rng, rounds=2000)
        code = main(
            ["audit", str(path), "--cost-lo", "0.1", "--cost-hi", "0.3", "--r", "1e-6"]
        )
        assert code == 2

    def test_error_exit_code_on_invalid_transcript(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"grid": [1.0], "continuum_upper": null}\n'
            '{"t": 1, "posted": 0, "alloc": 2.5, "support": [0], "probs": [1.0]}\n'
        )
        code = main(["audit", str(path), "--cost-lo", "0", "--cost-hi", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "round 1" in err

    def test_missing_file_is_error(self):
        assert main(["audit", "/nonexistent.jsonl", "--cost-lo", "0", "--cost-hi", "1"]) == 1

    def test_sweep_with_truth_columns(self, tmp_path, rng):
        path = tmp_path / "t.jsonl"
        tr = write_best_responder_transcript(path, rng, rounds=500)
        truth_path = tmp_path / "truth.jsonl"
        from regretaudit.figures import write_truth
        from regretaudit.oracles import GroundTruth

        rounds = len(tr)
        values = np.tile(np.array([1.0, 0.55]), (rounds, 1))
        write_truth(GroundTruth(tr.grid.levels, values, np.arange(rounds)), str(truth_path))
        sweep_path = tmp_path / "sweep.csv"
        code = main(
            [
                "audit",
                str(path),
                "--cost-lo",
                "0.1",
                "--cost-hi",
                "0.3",
                "--sweep",
                str(sweep_path),
                "--sweep-points",
                "11",
                "--truth",
                str(truth_path),
            ]
        )
        assert code in (0, 2)
        lines = sweep_path.read_text().splitlines()
        assert lines[0] == "cost,estimated_regret,true_regret"
        assert len(lines) == 12

    def test_endogenous_discretization_loss(self, tmp_path, rng):
        grid = PriceGrid([0.2, 0.5, 0.6])
        dist, _ = greedy_distribution(3, 0.3, 1)
        posted = sample_posted(rng, [dist] * 20)
        tr = transcript_from(grid, [dist] * 20, posted, [0.5] * 20)
        path = tmp_path / "endo.jsonl"
        write_transcript(tr, str(path))
        code = main(
            [
                "audit",
                str(path),
                "--cost-lo",
                "0",
                "--cost-hi",
                "0.5",
                "--endogenous",
                "--h",
                "1.0",
            ]
        )
        assert code in (0, 2)

    def test_endogenous_report_gap(self, tmp_path, rng, capsys):
        grid = PriceGrid([0.2, 0.5, 0.6])
        dist, _ = greedy_distribution(3, 0.3, 1)
        posted = sample_posted(rng, [dist] * 20)
        tr = transcript_from(grid, [dist] * 20, posted, [0.5] * 20)
        path = tmp_path / "endo.jsonl"
        write_transcript(tr, str(path))
        main(
            [
                "audit",
                str(path),
                "--cost-lo",
                "0",
                "--cost-hi",
                "0.5",
                "--endogenous",
                "--h",
                "1.0",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == pytest.approx(0.4)


class TestAggregatedCommand:
    def test_runs_on_reduced_transcript(self, tmp_path, capsys):
        path = tmp_path / "reduced.jsonl"
        lines = ['{"grid": [0.5, 1.0], "continuum_upper": null}']
        for t in range(1, 2001):
            lines.append(f'{{"t": {t}, "posted": 1, "alloc": 0.5}}')
        path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "audit-aggregated",
                str(path),
                "--cost-lo",
                "0",
                "--cost-hi",
                "0.5",
                "--drift-gamma",
                "0.7",
                "--support-floor",
                "0.9",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["provenance"] == "aggregated"
        assert code in (0, 2)

    def test_insufficient_data_is_error_exit(self, tmp_path, capsys):
        path = tmp_path / "reduced.jsonl"
        lines = ['{"grid": [0.5, 1.0], "continuum_upper": null}']
        for t in range(1, 51):
            lines.append(f'{{"t": {t}, "posted": 1, "alloc": 0.5}}')
        path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "audit-aggregated",
                str(path),
                "--cost-lo",
                "0",
                "--cost-hi",
                "0.5",
                "--drift-gamma",
                "0.2",
                "--support-floor",
                "0.3",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "insufficient data" in err

    GRID = '{"grid": [0.5, 1.0], "continuum_upper": null}'
    RECORD = '{"t": %d, "posted": 1, "alloc": 0.5}'
    # At k = 2 and the default alpha, a drift of 0.01 per step balances at a
    # window of 35 rounds, so 34 rounds are too few.
    EPS_FLAGS = ["--cost-lo", "0", "--cost-hi", "0.5", "--drift-eps", "0.01", "--support-floor", "0.9"]
    WINDOW_ERROR = "error: the balancing window (35 rounds at drift bound 0.01 per step) exceeds the 34-round horizon\n"

    @pytest.mark.parametrize("rounds", [34, 35])
    def test_horizon_checked_on_the_exact_count_of_records(self, tmp_path, capsys, rounds):
        # Blank and whitespace-only lines are not records, whatever their number.
        path = tmp_path / "reduced.jsonl"
        lines = ["", self.GRID, " \t"] + [f"{self.RECORD % t}\n\r\n  " for t in range(1, rounds + 1)]
        path.write_text("\n".join(lines) + "\n")
        code = main(["audit-aggregated", str(path), *self.EPS_FLAGS])
        captured = capsys.readouterr()
        if rounds == 34:
            assert (code, captured.out, captured.err) == (1, "", self.WINDOW_ERROR)
        else:
            assert code in (0, 2) and json.loads(captured.out)["provenance"] == "aggregated"

    @pytest.mark.parametrize(
        "bad",
        [
            "not JSON",
            '{"t": 6, "posted": 1, "alloc": true}',
            '{"t": 7, "posted": 1, "alloc": 0.5}',
            '{"t": 6, "posted": 5, "alloc": 0.5}',
            '{"t": 6, "posted": 1, "alloc": 0.5, "support": [0, 1], "probs": [0.5, NaN]}',
        ],
        ids=["bad-json", "kind", "round-order", "off-grid", "full-record"],
    )
    def test_too_few_rounds_win_over_a_malformed_record(self, tmp_path, capsys, bad):
        # The count of records is checked before any record is decoded: a
        # file both too short and malformed reports its count, first the
        # insufficient data, then the window; a file long enough reports
        # the record's line.
        path = tmp_path / "reduced.jsonl"
        flags = {
            "insufficient": ["--cost-lo", "0", "--cost-hi", "0.5", "--drift-gamma", "0.2", "--support-floor", "0.3"],
            "window": self.EPS_FLAGS,
        }
        for rounds, case in ((34, "insufficient"), (34, "window"), (35, "window")):
            lines = [self.GRID] + [self.RECORD % t for t in range(1, rounds + 1)]
            lines[6] = bad
            path.write_text("\n".join(lines) + "\n")
            code = main(["audit-aggregated", str(path), *flags[case]])
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, "")
            if rounds == 35:
                assert captured.err.startswith("error: ") and "line 7: " in captured.err
            elif case == "window":
                assert captured.err == self.WINDOW_ERROR
            else:
                assert captured.err.startswith("error: insufficient data for aggregated audit: ")


class TestMalformedInputs:
    """Malformed input exits 1 naming its line, and is never audited."""

    AUDIT_FLAGS = ["--cost-lo", "0", "--cost-hi", "0.5"]

    @staticmethod
    def reduced_file(path, round_no, bad, rounds=2000):
        lines = ['{"grid": [0.5, 1.0, 1.5], "continuum_upper": null}']
        for t in range(1, rounds + 1):
            lines.append(bad if t == round_no else f'{{"t": {t}, "posted": {t % 3}, "alloc": 0.5}}')
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "round_no, bad",
        [
            (1000, '{"t": 1000, "posted": -1, "alloc": 0.5}'),
            (1000, '{"t": 1000, "posted": 7, "alloc": 0.5}'),
            (1000, '{"t": 1000, "posted": 1, "alloc": 7}'),
            (1, '{"t": true, "posted": 1, "alloc": 0.5}'),
            (1000, '{"t": 1000, "posted": false, "alloc": 0.5}'),
        ],
        ids=["posted-negative", "posted-off-grid", "alloc-above-one", "t-bool", "posted-bool"],
    )
    def test_reduced_file(self, tmp_path, capsys, round_no, bad):
        path = tmp_path / "reduced.jsonl"
        self.reduced_file(path, round_no, bad)
        flags = ["--drift-gamma", "0.7", "--support-floor", "0.9"]
        code = main(["audit-aggregated", str(path), *self.AUDIT_FLAGS, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"line {round_no + 1}" in captured.err

    def test_nan_probability(self, tmp_path, capsys):
        path = tmp_path / "nan.jsonl"
        record = '{{"t": {t}, "posted": 1, "alloc": 0.5, "support": [0, 1], "probs": {probs}}}'
        lines = ['{"grid": [0.4, 0.8], "continuum_upper": null}']
        lines += [record.format(t=t, probs="[0.5, 0.5]") for t in range(1, 6)]
        lines.append(record.format(t=6, probs="[NaN, 1.0]"))
        path.write_text("\n".join(lines) + "\n")
        code = main(["audit", str(path), *self.AUDIT_FLAGS])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "line 7" in captured.err

    @pytest.mark.parametrize(
        "bad",
        [
            '{"t": 3, "y": [1.0, 0.5]}',
            '{"t": 3, "x": ["a", 0.5]}',
            '{"t": 3, "x": [1.0]}',
            '{"t": 3, "x": [1e400, 0.5]}',
            '{"t": 3, "x": [7, 0.5]}',
            '{"t": 3, "x": [1.0, -0.5]}',
        ],
        ids=["missing-x", "non-numeric-x", "short-x", "x-1e400", "x-above-one", "x-negative"],
    )
    def test_truth_sidecar(self, tmp_path, rng, capsys, bad):
        path = tmp_path / "t.jsonl"
        write_best_responder_transcript(path, rng, rounds=5)
        truth = tmp_path / "truth.jsonl"
        lines = ['{"grid": [0.4, 0.8], "continuum_upper": null}']
        lines += [f'{{"t": {t}, "x": [1.0, 0.55]}}' for t in range(1, 6)]
        lines[3] = bad
        truth.write_text("\n".join(lines) + "\n")
        sweep = tmp_path / "sweep.csv"
        code = main(
            ["audit", str(path), *self.AUDIT_FLAGS, "--sweep", str(sweep), "--truth", str(truth)]
        )
        assert code == 1
        assert "line 4" in capsys.readouterr().err
        assert not sweep.exists()

    @pytest.mark.parametrize("reader", ["transcript", "reduced", "truth"])
    def test_invalid_utf8_names_its_line(self, tmp_path, rng, capsys, reader):
        # The bad byte sits on line 3001, far past the first 8 KB read chunk.
        rounds = 4000
        transcript, reduced, truth = (tmp_path / name for name in ("t.jsonl", "r.jsonl", "x.jsonl"))
        write_best_responder_transcript(transcript, rng, rounds=rounds)
        self.reduced_file(reduced, 0, None, rounds=rounds)
        lines = ['{"grid": [0.4, 0.8], "continuum_upper": null}']
        truth.write_text("\n".join(lines + [f'{{"t": {t}, "x": [1.0, 0.55]}}' for t in range(1, rounds + 1)]) + "\n")
        path = {"transcript": transcript, "reduced": reduced, "truth": truth}[reader]
        data = path.read_bytes().split(b"\n")
        data[3000] = data[3000].replace(b"{", b"{\xff", 1)
        path.write_bytes(b"\n".join(data))
        sweep = tmp_path / "sweep.csv"
        argv = {
            "transcript": ["audit", str(transcript), *self.AUDIT_FLAGS],
            # A floor that 4,000 rounds meet: a file with too few rounds fails
            # on its count of records before any is decoded.
            "reduced": ["audit-aggregated", str(reduced), *self.AUDIT_FLAGS, "--drift-gamma", "0.7", "--support-floor", "0.9"],
            "truth": ["audit", str(transcript), *self.AUDIT_FLAGS, "--sweep", str(sweep), "--truth", str(truth)],
        }[reader]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: line 3001: invalid UTF-8 byte 0xff\n"
        assert not sweep.exists()

    @pytest.mark.parametrize("points", ["0", "-3"])
    @pytest.mark.parametrize("command", ["audit", "figures"])
    def test_sweep_points_below_one(self, tmp_path, rng, capsys, command, points):
        out = tmp_path / "out"
        if command == "audit":
            path = tmp_path / "t.jsonl"
            write_best_responder_transcript(path, rng, rounds=5)
            argv = ["audit", str(path), *self.AUDIT_FLAGS, "--sweep", str(out)]
        else:
            argv = ["figures", "--rounds", "50", "--replications", "1", "--out", str(out)]
        code = main([*argv, "--sweep-points", points])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: --sweep-points must be at least 1" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sidecar, line_no, text",
        [
            (False, 3, '{"t": 2, "posted": 1, "alloc": 0.5, "support": [0, 1], "probs": [HUGE, 0.5]}'),
            (False, 1, '{"grid": [0.4, HUGE], "continuum_upper": null}'),
            (True, 4, '{"t": 3, "x": [1.0, HUGE]}'),
        ],
        ids=["probs", "grid", "truth-x"],
    )
    def test_huge_integer(self, tmp_path, rng, capsys, sidecar, line_no, text):
        # An integer too large for a float is malformed input, not a crash.
        path = tmp_path / "t.jsonl"
        write_best_responder_transcript(path, rng, rounds=5)
        target, lines, flags = path, path.read_text().splitlines(), []
        if sidecar:
            target = tmp_path / "truth.jsonl"
            lines = lines[:1] + [f'{{"t": {t}, "x": [1.0, 0.55]}}' for t in range(1, 6)]
            flags = ["--sweep", str(tmp_path / "sweep.csv"), "--truth", str(target)]
        lines[line_no - 1] = text.replace("HUGE", "1" + "0" * 400)
        target.write_text("\n".join(lines) + "\n")
        code = main(["audit", str(path), *self.AUDIT_FLAGS, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"line {line_no}:" in captured.err

    @pytest.mark.parametrize("endogenous", [False, True], ids=["plain", "endogenous"])
    @pytest.mark.parametrize("command", ["audit", "audit-aggregated"])
    def test_continuum_bound_below_top_price(self, tmp_path, capsys, command, endogenous):
        # --h must hold every grid level, here 1.0, before anything is audited.
        path = tmp_path / "t.jsonl"
        lines = ['{"grid": [0.5, 1.0], "continuum_upper": null}']
        record = '{{"t": {t}, "posted": {p}, "alloc": 0.5, "support": [0, 1], "probs": [0.5, 0.5]}}'
        lines += [record.format(t=t, p=t % 2) for t in range(1, 2001)]
        path.write_text("\n".join(lines) + "\n")
        flags = ["--endogenous"] if endogenous else []
        if command == "audit-aggregated":
            flags += ["--drift-gamma", "0.7", "--support-floor", "0.9"]
        code = main([command, str(path), *self.AUDIT_FLAGS, *flags, "--h", "0.2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--h 0.2: max level exceeds continuum upper bound" in captured.err
        code = main([command, str(path), *self.AUDIT_FLAGS, *flags, "--h", "1.0"])
        assert code in (0, 2)
        report = json.loads(capsys.readouterr().out)
        assert report["d"] == (0.5 if endogenous else 0.0)


    CONFIG = {
        "environment": {"kind": "table"},
        "strategies": [{"kind": "mwu", "step_size": 0.5}, {"kind": "q"}],
        "rounds": 50,
    }

    @pytest.mark.parametrize(
        "command, flags, config, message",
        [
            ("figures", ["--replications", "0"], None, "rounds and replications must be at least 1"),
            ("simulate", ["--rounds", "0"], None, "rounds and replications must be at least 1"),
            ("simulate", ["--rounds", "-5"], None, "rounds and replications must be at least 1"),
            ("simulate", [], {"horizon": 5}, "unknown config key 'horizon'"),
            ("simulate", [], {"rounds": None}, "missing config key 'rounds'"),
            ("simulate", [], {"rounds": "50"}, "config key 'rounds' must be an integer"),
            ("figures", [], {"strategies": [{"kind": "q"}]}, "exactly two strategy objects"),
            ("simulate", [], {"strategies": [{"kind": "mwu"}, {"kind": "q"}]}, "missing key 'step_size'"),
            ("simulate", [], {"strategies": [{"kind": "fixed"}, {"kind": "q"}]}, "missing key 'price' or 'index'"),
            ("simulate", [], {"strategies": [{"kind": "fixed", "index": 4}, {"kind": "q"}]}, "index 4 outside grid"),
            ("simulate", [], {"strategies": [{"kind": "fixed", "index": 0, "price": 3.0}, {"kind": "q"}]},
             "give key 'price' or 'index', not both"),
            ("simulate", [], {"environment": {"kind": "table_file"}}, "missing key 'path'"),
            ("simulate", [], {"environment": {"kind": "uniform", "cost1": "0.1"}},
             "uniform environment key 'cost1' must be a finite number"),
            ("simulate", [], {"strategies": [{"kind": "mwu", "step_size": 0.5}, {"kind": "q", "learning_rate": "x"}]},
             "q strategy key 'learning_rate' must be a finite number"),
            ("figures", [], {"audit": {"cost_lo": "0.1"}}, "audit key 'cost_lo' must be a finite number"),
            ("simulate", [], {"strategies": [{"kind": "q", "init": [1, 2]}, {"kind": "q"}]},
             "q strategy key 'init' must be a finite number"),
            ("simulate", [], {"strategies": [{"kind": "q", "explore_epsilon": 0.5}, {"kind": "q"}]},
             "unknown q strategy key 'explore_epsilon'"),
            ("figures", [], {"audit": {"cost_low": 0.5}}, "unknown audit key 'cost_low'"),
            ("simulate", [], {"strategies": [{"kind": "fixed", "index": 1.7}, {"kind": "q"}]},
             "fixed strategy key 'index' must be an integer"),
            ("simulate", [], {"strategies": [{"kind": "fixed", "index": True}, {"kind": "q"}]},
             "fixed strategy key 'index' must be an integer"),
            ("simulate", [], {"strategies": [{"kind": "mwu", "step_size": True}, {"kind": "q"}]},
             "mwu strategy key 'step_size' must be a finite number"),
            ("simulate", [], {"strategies": [{"kind": "manipulator", "phase1_rounds": 20.5}, {"kind": "q"}]},
             "manipulator strategy key 'phase1_rounds' must be an integer"),
            ("simulate", [], {"strategies": [{"kind": "manipulator", "phase2_rounds": "9"}, {"kind": "q"}]},
             "manipulator strategy key 'phase2_rounds' must be an integer"),
            ("simulate", [], {"environment": {"kind": "uniform"}, "strategies": [{"kind": "manipulator"}, {"kind": "q"}]},
             "manipulator price 1 is not on the grid"),
            ("simulate", [], {"strategies": [{"kind": "fixed", "price": 0.5}, {"kind": "q"}]},
             "fixed price 0.5 is not on the grid"),
            ("simulate", [], {"strategies": [{"kind": "sarsa"}, {"kind": "q"}]}, "unknown strategy kind 'sarsa'"),
            ("simulate", [], {"environment": {"kind": ["table"]}}, "unknown environment kind ['table']"),
            ("simulate", [], {"environment": {"kind": "table", "grid": [3, 2, 1, 0]}},
             "environment grid: levels not strictly increasing"),
            ("simulate", [], {"environment": {"kind": "table", "grid": []}}, "environment grid: grid is empty"),
            ("simulate", [], {"environment": {"kind": "uniform", "h": 10**400}},
             "uniform environment key 'h' must be a finite number"),
            ("simulate", [], {"environment": {"kind": "uniform", "grid": [0.5, 10**400]}},
             "uniform environment key 'grid' must be a list of finite numbers"),
            ("simulate", [], {"strategies": [{"kind": "q", "init": 10**400}, {"kind": "q"}]},
             "q strategy key 'init' must be a finite number"),
            ("figures", [], {"audit": {"cost_lo": 10**400}}, "audit key 'cost_lo' must be a finite number"),
            ("simulate", [], {"seed": 2**63}, "config key 'seed' must be an integer"),
            ("simulate", [], {"seed": -1}, "config key 'seed' must be at least 0"),
            ("simulate", ["--seed", "-1"], None, "config key 'seed' must be at least 0"),
            ("simulate", [], {"strategies": [{"kind": "manipulator", "phase1_rounds": 5, "phase2_rounds": 5},
                                             {"kind": "q"}], "rounds": 100},
             "manipulator strategy: phase1_rounds + phase2_rounds = 10 is less than the 100 rounds to simulate"),
            ("figures", [], {"strategies": [{"kind": "manipulator", "phase1_rounds": 5, "phase2_rounds": 5},
                                            {"kind": "q"}], "rounds": 100},
             "manipulator strategy: phase1_rounds + phase2_rounds = 10 is less than the 100 rounds to simulate"),
        ],
        ids=[
            "replications-0", "rounds-0", "rounds-negative", "unknown-key", "missing-key",
            "rounds-string", "one-strategy", "mwu-no-step-size", "fixed-no-price",
            "fixed-off-grid", "fixed-index-and-price", "table-file-no-path", "cost1-string", "learning-rate-string",
            "audit-cost-string", "init-list", "unknown-strategy-key", "unknown-audit-key",
            "index-fractional", "index-bool", "step-size-bool", "phase1-fractional",
            "phase2-string", "manipulator-off-grid", "fixed-price-off-grid",
            "unknown-strategy-kind", "environment-kind-list", "grid-decreasing", "grid-empty",
            "h-huge-integer", "grid-huge-integer", "init-huge-integer", "audit-cost-huge-integer",
            "seed-above-64-bits", "seed-negative", "seed-flag-negative",
            "manipulator-schedule-short", "manipulator-schedule-short-figures",
        ],
    )
    def test_experiment_config(self, tmp_path, capsys, command, flags, config, message):
        # A bad experiment exits 1 before any transcript is written.
        out = tmp_path / "out"
        argv = [command, "--out", str(out), *flags]
        if config is not None:
            path = tmp_path / "config.json"
            spec = {key: value for key, value in {**self.CONFIG, **config}.items() if value is not None}
            path.write_text(json.dumps(spec))
            argv += ["--config", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert not list(tmp_path.rglob("transcript_*"))

    @pytest.mark.parametrize(
        "table, message",
        [
            ({"v1_levels": [0, 1], "v2_levels": [0, 1]}, "valuation table: missing key 'probs'"),
            ({"v1_levels": [0, None], "v2_levels": [0, 1], "probs": [[0.5, 0], [0, 0.5]]},
             "valuation table key 'v1_levels' must be a list of finite numbers or \"a/b\" strings"),
            ({"v1_levels": [0, 1], "v2_levels": [0, 1], "probs": [[0.5, 0], [True, 0.5]]},
             "valuation table key 'probs' must be a list of lists"),
            ({"v1_levels": [0, 1], "v2_levels": [0, 1], "probs": [["1/0", 0], [0, 1]]},
             "valuation table key 'probs' must be a list of lists"),
            ({"v1_levels": [0, 1], "v2_levels": [0, 1], "probs": [["1e3000000", 0], [0, 1]]},
             "valuation table key 'probs' must be a list of lists"),
            ([[0, 1], [0, 1]], "valuation table must be a JSON object"),
            ({"v1_levels": [0, 1], "v2_levels": [0, 1], "probs": [[0.5, 0], [0, 0.5]], "eps": 0},
             "unknown valuation table key 'eps'"),
        ],
        ids=["missing-probs", "null-level", "bool-prob", "zero-denominator", "exponent-string", "top-level-list",
             "unknown-key"],
    )
    def test_valuation_table_file(self, tmp_path, capsys, table, message):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table))
        config = {**self.CONFIG, "environment": {"kind": "table_file", "path": str(table_path)}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert not list(tmp_path.rglob("transcript_*"))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eta", "nan"], "step_size must be positive and finite"),
            (["--eta", "inf"], "step_size must be positive and finite"),
            (["--epsilon", "inf"], "epsilon must be finite"),
            (["--epsilon", "1e400"], "epsilon must be finite"),
        ],
        ids=["eta-nan", "eta-inf", "epsilon-inf", "epsilon-overflow"],
    )
    def test_manipulate_demo_non_finite_parameter(self, tmp_path, capsys, flags, message):
        code = main(["manipulate-demo", "--rounds", "100", "--out", str(tmp_path / "demo"), *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_manipulate_demo_seed_out_of_range(self, tmp_path, capsys, seed):
        # A negative seed used to alias seed + 2^64 silently.
        code = main(["manipulate-demo", "--rounds", "100", "--out", str(tmp_path / "demo"), "--seed", seed])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --seed must be in [0, 2^63), got {seed}\n"
        assert not (tmp_path / "demo").exists()

    def test_both_drift_bounds(self, tmp_path, capsys):
        path = tmp_path / "reduced.jsonl"
        self.reduced_file(path, 0, None, rounds=3000)
        flags = ["--drift-eps", "0.001", "--drift-gamma", "0.7", "--support-floor", "0.9"]
        code = main(["audit-aggregated", str(path), *self.AUDIT_FLAGS, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "exactly one of epsilon and gamma" in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--r", "inf"], "threshold_r must be positive and finite"),
            (["--r", "nan"], "threshold_r must be positive and finite"),
            (["--cost-hi", "inf"], "cost range hi must be finite"),
        ],
        ids=["r-inf", "r-nan", "cost-hi-inf"],
    )
    @pytest.mark.parametrize("command", ["audit", "audit-aggregated"])
    def test_non_finite_audit_setting(self, tmp_path, capsys, command, flags, message):
        path = tmp_path / "reduced.jsonl"
        self.reduced_file(path, 0, None, rounds=3000)
        drift = ["--drift-gamma", "0.7", "--support-floor", "0.9"] if command == "audit-aggregated" else []
        code = main([command, str(path), *self.AUDIT_FLAGS, *drift, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize(
        "gamma, message",
        [
            ("1e6", "the balancing window (inf rounds at drift bound 0 per step) exceeds the 3000-round horizon"),
            ("inf", "rate mode needs a finite gamma > 0"),
            ("5", "drift bound 4.12e-18 per step) exceeds the 3000-round horizon"),
        ],
    )
    def test_vanishing_drift_bound(self, tmp_path, capsys, gamma, message):
        # T ** -gamma underflows to 0 at gamma 1e6; at gamma 5 it is 4e-18,
        # whose balancing window is far beyond the horizon.
        path = tmp_path / "reduced.jsonl"
        self.reduced_file(path, 0, None, rounds=3000)
        flags = ["--drift-gamma", gamma, "--support-floor", "0.9"]
        code = main(["audit-aggregated", str(path), *self.AUDIT_FLAGS, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"strategies": [{"kind": "manipulator", "phase1_rounds": 5, "phase2_rounds": 6}, {"kind": "q"}],
              "rounds": 100},
             "manipulator strategy: phase1_rounds + phase2_rounds = 11 is less than the 100 rounds to simulate"),
            ({"audit": {"cost_lo": 0.9, "cost_hi": 0.1}},
             "config key 'audit': cost range requires 0 <= lo <= hi, got [0.9, 0.1]"),
            ({"audit": {"cost_lo": -5}}, "config key 'audit': cost range requires 0 <= lo <= hi, got [-5, 0.9]"),
            # Checked where the market is built: the uniform buyer model holds no costs.
            ({"environment": {"kind": "uniform", "cost1": 1.5}}, "costs must lie in [0, 1)"),
        ],
        ids=["manipulator-schedule-short", "audit-cost-reversed", "audit-cost-negative", "uniform-cost-above-one"],
    )
    @pytest.mark.parametrize("command", ["simulate", "figures"])
    def test_rejected_config_leaves_no_output(self, tmp_path, capsys, command, config, message):
        out = tmp_path / "out"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, **config}))
        code = main([command, "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("inline", [True, False], ids=["table", "table-file"])
    def test_negative_table_epsilon(self, tmp_path, capsys, inline):
        table = {"v1_levels": [0, 1], "v2_levels": [0, 1], "probs": [["1/4", "1/4"], ["1/4", "1/4"]]}
        data = tmp_path / "table.json"
        data.write_text(json.dumps({**table, "epsilon": -1}))
        environment = {"kind": "table", "epsilon": -0.01} if inline else {"kind": "table_file", "path": str(data)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**self.CONFIG, "environment": environment}))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: epsilon must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "levels, rounds, sweep, message",
        [
            ("[0.4, 0.9]", 5, True, "--truth grid [0.4, 0.9] differs from the transcript's [0.4, 0.8]"),
            ("[0.4, 0.8]", 4, True, "--truth has 4 rounds, the transcript 5"),
            (None, 0, False, "needs --sweep"),
        ],
        ids=["other-grid", "fewer-rounds", "no-sweep-missing-file"],
    )
    def test_truth_sidecar_against_transcript(self, tmp_path, rng, capsys, levels, rounds, sweep, message):
        # Checked before the audit: no report is printed.
        path = tmp_path / "t.jsonl"
        write_best_responder_transcript(path, rng, rounds=5)
        truth = tmp_path / "truth.jsonl"
        if levels is not None:
            lines = [f'{{"grid": {levels}, "continuum_upper": null}}']
            lines += [f'{{"t": {t}, "x": [1.0, 0.55]}}' for t in range(1, rounds + 1)]
            truth.write_text("\n".join(lines) + "\n")
        sweep_path = tmp_path / "sweep.csv"
        flags = ["--sweep", str(sweep_path)] if sweep else []
        code = main(["audit", str(path), *self.AUDIT_FLAGS, *flags, "--truth", str(truth)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not sweep_path.exists()


    def test_unwritable_sweep_prints_no_report(self, tmp_path, rng, capsys):
        path = tmp_path / "t.jsonl"
        write_best_responder_transcript(path, rng, rounds=5)
        sweep_path = tmp_path / "missing" / "sweep.csv"
        code = main(["audit", str(path), *self.AUDIT_FLAGS, "--sweep", str(sweep_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(sweep_path) in captured.err
        assert captured.err.count("\n") == 1

    DEEP = "[" * 10_000 + "]" * 10_000
    GRID = '{"grid": [0.4, 0.8], "continuum_upper": null}'
    ROUND = '{"t": %d, %s"posted": 0, "alloc": 0.5, "support": [0, 1], "probs": [0.5, 0.5]}'

    @pytest.mark.parametrize(
        "reader, lines, message",
        [
            ("transcript", [GRID, DEEP], "line 2: bad JSON: "),
            ("transcript", [DEEP], "line 1: bad JSON: "),
            # Round 2 repeats round 1's row and caches the tail, so round 4 decodes only its head.
            ("transcript", [GRID, ROUND % (1, ""), ROUND % (2, ""), ROUND % (3, ""), ROUND % (4, f'"deep": {DEEP}, ')],
             "line 5: bad JSON: "),
            # Enough rounds for the count check, which precedes decoding.
            ("reduced", [GRID, '{"t": 1, "posted": 0, "alloc": 0.5}', DEEP, *['{"t": 3, "posted": 0, "alloc": 0.5}'] * 3998],
             "line 3: bad JSON: "),
            ("truth", [GRID, f'{{"t": 1, "x": {DEEP}}}'], "line 2: bad JSON: "),
            ("config", [DEEP], "bad JSON: "),
            ("table", [f'{{"v1_levels": {DEEP}}}'], "bad JSON: "),
        ],
        ids=["record", "header", "cached-head", "reduced", "truth", "config", "table"],
    )
    def test_deeply_nested_json(self, tmp_path, rng, capsys, reader, lines, message):
        # Nesting too deep for the decoder is bad JSON, not a traceback.
        data = tmp_path / "data.json"
        data.write_text("\n".join(lines) + "\n")
        transcript = tmp_path / "t.jsonl"
        write_best_responder_transcript(transcript, rng, rounds=5)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.CONFIG, "environment": {"kind": "table_file", "path": str(data)}}))
        out, sweep = str(tmp_path / "out"), str(tmp_path / "sweep.csv")
        argv = {
            "transcript": ["audit", str(data), *self.AUDIT_FLAGS],
            "reduced": ["audit-aggregated", str(data), *self.AUDIT_FLAGS, "--drift-gamma", "0.7", "--support-floor", "0.9"],
            "truth": ["audit", str(transcript), *self.AUDIT_FLAGS, "--sweep", sweep, "--truth", str(data)],
            "config": ["simulate", "--config", str(data), "--out", out],
            "table": ["simulate", "--config", str(config), "--out", out],
        }[reader]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


class TestFiguresCommand:
    def test_emits_csv_and_self_contained_svg(self, tmp_path):
        out = tmp_path / "figs"
        code = main(
            [
                "figures",
                "--preset",
                "duopoly",
                "--rounds",
                "2000",
                "--replications",
                "2",
                "--seed",
                "1",
                "--out",
                str(out),
                "--sweep-points",
                "9",
            ]
        )
        assert code == 0
        pair_lines = (out / "fig1_pairs.csv").read_text().splitlines()
        assert pair_lines[0] == "seller1_price,seller2_price,count"
        total = sum(int(row.split(",")[2]) for row in pair_lines[1:])
        assert total == 2 * 10  # replications times the last-10 window
        import xml.etree.ElementTree as ET

        for name in ("fig1_heatmap.svg", "fig2_regret_vs_cost.svg", "fig3_regret_vs_horizon.svg"):
            svg = (out / name).read_text()
            assert svg.startswith("<svg")
            assert svg.rstrip().endswith("</svg>")
            assert "href" not in svg and "url(" not in svg
            ET.fromstring(svg)  # well-formed XML
        fig2 = (out / "fig2_regret_vs_cost.csv").read_text().splitlines()
        assert fig2[0] == "cost,estimated_regret,true_regret"
        fig3 = (out / "fig3_regret_vs_horizon.csv").read_text().splitlines()
        assert fig3[0].startswith("horizon,true_regret_cost_0.1,true_regret_cost_")


class TestOracleCallsPerFigure:
    def test_one_call_per_sweep_and_per_horizon(self, rng, monkeypatch):
        # The oracle's pair sums do not depend on the cost, so a sweep asks
        # for every cost at once and each horizon for both of its costs.
        grid = PriceGrid([0.0, 1.0, 2.0, 3.0])
        dists = [dyadic_distribution(rng, 4) for _ in range(300)]
        tr = transcript_from(grid, dists, sample_posted(rng, dists), rng.random(300))
        truth = materialize_truth(Market(grid, manipulation_valuation_table(0.005), (0, 0)), rng.integers(0, 4, 300), 0)
        oracle = figures.true_calibrated_regret
        calls = []

        def counting(dist_table, dist_index, truth, cost):
            calls.append(cost)
            return oracle(dist_table, dist_index, truth, cost)

        monkeypatch.setattr(figures, "true_calibrated_regret", counting)
        rows = figures.cost_sweep_rows(regret_curve(tr), 0.0, 1.0, 81, truth, tr)
        assert len(calls) == 1 and len(rows) == 81
        columns = tr.dist_table, tr.dist_index
        assert [row[2] for row in rows] == [float(oracle(*columns, truth, c)) for c, *_ in rows]
        calls.clear()
        hrows = figures.horizon_rows(tr, truth, [0.0, 0.5], [10, 100, 300])
        assert calls == [[0.0, 0.5]] * 3
        assert [row[0] for row in hrows] == [10, 100, 300]

    def test_horizons_stay_on_floats_for_an_exact_truth(self, rng):
        # fig3 is float arithmetic even on the table market: a prefix of an
        # exact truth must not take the Fraction path, which rounds once.
        grid = PriceGrid([0.0, 1.0, 2.0, 3.0])
        dists = [dyadic_distribution(rng, 4) for _ in range(300)]
        tr = transcript_from(grid, dists, sample_posted(rng, dists), rng.random(300))
        truth = materialize_truth(Market(grid, manipulation_valuation_table(0.005), (0, 0)), rng.integers(0, 4, 300), 0)
        float_truth = GroundTruth(truth.levels, truth.table.astype(float), truth.index)
        costs, horizons = [0.0, 0.5], [10, 100, 300]
        assert truth.exact
        assert figures.horizon_rows(tr, truth, costs, horizons) == figures.horizon_rows(tr, float_truth, costs, horizons)


class TestFigureTrends:
    def test_regret_at_plausible_cost_declines_beyond_burn_in(self, tmp_path):
        # Needs the desk horizon: shorter runs sit inside the optimism
        # transient where the truncated-regret series is still climbing.
        out = tmp_path / "trend"
        code = main(
            [
                "figures",
                "--preset",
                "duopoly",
                "--rounds",
                "200000",
                "--replications",
                "1",
                "--seed",
                "0",
                "--out",
                str(out),
                "--sweep-points",
                "5",
            ]
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in (out / "fig3_regret_vs_horizon.csv").read_text().splitlines()[1:]
        ]
        horizons = [int(r[0]) for r in rows]
        at_plausible = [float(r[2]) for r in rows]
        burn_in = next(i for i, h in enumerate(horizons) if h >= 10_000)
        assert at_plausible[-1] < at_plausible[burn_in]


class TestManipulateDemoCommand:
    def test_summary_structure(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = main(
            ["manipulate-demo", "--rounds", "400", "--out", str(out), "--seed", "2"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        for key in (
            "top_price_frequency_in_window",
            "cumulative_payoffs",
            "equilibrium_benchmark",
            "best_in_hindsight_regret",
            "manipulator_calibrated_regret",
            "mean_based_violations",
        ):
            assert key in summary
        assert (out / "manipulation_seller1.jsonl").exists()
        assert (out / "manipulation_summary.json").exists()


class TestExperimentBuilders:
    """Presets and config files reach one builder, which builds the market once."""

    TABLE = Path(__file__).parent / "data" / "manipulation_game.json"

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_is_plain_json(self, name):
        assert json.loads(json.dumps(PRESETS[name])) == PRESETS[name]

    @pytest.mark.parametrize("name, rounds", [("duopoly", "200"), ("manipulation", "210")])
    def test_preset_equals_its_config_file(self, tmp_path, name, rounds):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(PRESETS[name]))
        flags = ["--rounds", rounds, "--replications", "2", "--seed", "3", "--emit-truth"]
        assert main(["simulate", "--preset", name, *flags, "--out", str(tmp_path / "preset")]) == 0
        assert main(["simulate", "--config", str(config), *flags, "--out", str(tmp_path / "config")]) == 0
        names = sorted(p.name for p in (tmp_path / "preset").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
        assert len(names) == 9  # payoffs.csv, 2 x 2 transcripts and 2 x 2 sidecars
        for n in names:
            assert (tmp_path / "preset" / n).read_bytes() == (tmp_path / "config" / n).read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "figures"])
    def test_table_file_is_read_once(self, tmp_path, monkeypatch, command):
        original = DiscreteValuationTable.from_json
        reads = []

        def counting(source):
            reads.append(source)
            return original(source)

        monkeypatch.setattr(DiscreteValuationTable, "from_json", staticmethod(counting))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "environment": {"kind": "table_file", "path": str(self.TABLE)},
            "strategies": [{"kind": "mwu", "step_size": 0.1}, {"kind": "mwu", "step_size": 0.2}],
            "rounds": 30,
        }))
        extra = ["--sweep-points", "3"] if command == "figures" else []
        counts = {}
        for replications in (1, 3):
            reads.clear()
            out = tmp_path / f"out{replications}"
            argv = [command, "--config", str(config), "--replications", str(replications), "--out", str(out)]
            assert main([*argv, *extra]) == 0
            counts[replications] = len(reads)
        assert counts == {1: 1, 3: 1}

    @pytest.mark.parametrize(
        "command, flags, most",
        [
            ("simulate", ["--replications", "2", "--emit-truth"], 1),
            ("figures", ["--replications", "2", "--sweep-points", "3"], 2),
            ("manipulate-demo", ["--rounds", "50"], 2),
        ],
    )
    def test_market_tables_are_built_once(self, tmp_path, monkeypatch, capsys, command, flags, most):
        # Two MWU learners on the table, as in the benchmark: the simulator,
        # both learners' reward bounds, the ground truth and the equilibrium
        # read one build of the demand table. `most` is an upper bound;
        # test_each_demand_table_is_built_once counts the oracle's calls exactly.
        builds = []

        def counting(oracle, levels):
            builds.append(levels)
            return demand_table(oracle, levels)

        # Wherever a module binds the builder, as the benchmark's tracer wraps a layer.
        for name, module in sorted(sys.modules.items()):
            if name.split(".")[0] == "regretaudit" and module.__dict__.get("demand_table") is demand_table:
                monkeypatch.setattr(module, "demand_table", counting)
        argv = [command, *flags, "--out", str(tmp_path / "out")]
        if command != "manipulate-demo":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "environment": {"kind": "table", "epsilon": 0.005},
                "strategies": [{"kind": "mwu", "step_size": 1e-3}, {"kind": "mwu", "step_size": 1e-3}],
                "rounds": 60,
            }))
            argv += ["--config", str(config)]
        assert main(argv) == 0
        capsys.readouterr()
        assert 1 <= len(builds) <= most

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["figures", "--preset", "duopoly", "--rounds", "200", "--replications", "2"], 19 * 19),
            (["figures", "--preset", "manipulation", "--rounds", "420"], 4 * 4),
            (["manipulate-demo", "--rounds", "100"], 4 * 4),
        ],
        ids=["figures-duopoly", "figures-manipulation", "manipulate-demo"],
    )
    def test_each_demand_table_is_built_once(self, tmp_path, monkeypatch, capsys, argv, calls):
        # k * k oracle calls per command: the equilibrium reads market.demand,
        # as the simulator, the learners and the ground truth do.
        demands = []
        for oracle in (UniformDuopoly, DiscreteValuationTable):
            def counting(self, p1, p2, demand=oracle.demand):
                demands.append((p1, p2))
                return demand(self, p1, p2)

            monkeypatch.setattr(oracle, "demand", counting)
        extra = ["--sweep-points", "3"] if argv[0] == "figures" else []
        assert main([*argv, *extra, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(demands) == calls

    def test_market_is_not_a_config_key(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**PRESETS["duopoly"], "market": None}))
        with pytest.raises(ValueError, match="unknown config key 'market'"):
            ExperimentConfig.from_json(str(path))


class TestOutputErrors:
    def test_unwritable_demo_out_prints_no_summary(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["manipulate-demo", "--rounds", "100", "--out", str(blocker / "demo")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    # 10**15 rounds ask numpy for petabytes, beyond a 47-bit address space,
    # so the allocation fails at once under any overcommit policy.
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["simulate", "--rounds", str(10**15)], None),
            (["figures"], {**PRESETS["duopoly"], "rounds": 10**15, "replications": 1}),
            (["manipulate-demo", "--rounds", str(10**15)], None),
        ],
        ids=["simulate", "figures-config", "manipulate-demo"],
    )
    def test_horizon_too_large_to_allocate(self, tmp_path, capsys, argv, config):
        out = tmp_path / "out"
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ") and captured.err.count("\n") == 1
        assert not out.exists()


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique without optional outputs imports numpy.ma: about 9 ms and
    # 1.2 MB of RSS for a command that never uses it.
    reduced = tmp_path / "reduced.jsonl"
    lines = ['{"grid": [0.5, 1.0, 1.5], "continuum_upper": null}']
    lines += [f'{{"t": {t}, "posted": {t % 3}, "alloc": 0.5}}' for t in range(1, 2001)]
    reduced.write_text("\n".join(lines) + "\n")
    audit = ["audit-aggregated", str(reduced), "--cost-lo", "0", "--cost-hi", "0.5", "--drift-gamma", "0.7", "--support-floor", "0.9"]
    # Past 1,000 rounds figures evaluates log-spaced horizons.
    figures = ["figures", "--preset", "duopoly", "--rounds", "1001", "--replications", "1", "--sweep-points", "3", "--out", str(tmp_path / "fig")]
    program = (
        "import contextlib, io, sys\n"
        "from regretaudit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main({audit!r}), main({figures!r})]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env, check=True)
    codes, imported = result.stdout.rsplit(" ", 1)
    assert json.loads(codes)[1] == 0 and json.loads(codes)[0] in (0, 2)
    assert imported.strip() == "False"


def test_simulating_commands_leave_numpy_random_unimported(tmp_path):
    # The simulator's Philox stream and the replication seed are computed
    # in-house: numpy.random costs about 10 ms and 6 MB of RSS at start-up.
    simulate = ["simulate", "--preset", "duopoly", "--rounds", "50", "--replications", "2", "--feedback", "realized", "--out", str(tmp_path / "sim")]
    figures = ["figures", "--preset", "duopoly", "--rounds", "50", "--replications", "2", "--sweep-points", "3", "--out", str(tmp_path / "fig")]
    demo = ["manipulate-demo", "--rounds", "100", "--out", str(tmp_path / "demo")]
    program = (
        "import contextlib, io, sys\n"
        "from regretaudit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main({simulate!r}), main({figures!r}), main({demo!r})]\n"
        "print(codes, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    result = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env, check=True)
    codes, imported = result.stdout.rsplit(" ", 1)
    assert json.loads(codes) == [0, 0, 0]
    assert imported.strip() == "False"
