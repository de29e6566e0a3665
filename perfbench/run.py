"""End-to-end and per-layer benchmark of the regretaudit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing needs installing. One client runs the CLI as subprocesses,
one at a time, in a closed loop: set-up builds the inputs from --seed,
then each iteration runs simulate, audit, audit-aggregated and figures
(see workloads.py) until --seconds have passed. Outputs are checked against
an independent reference (reference.py) outside the timed region: in full
once, then every iteration's outputs must hash to the same digests.

--trace 0 reports the end-to-end metrics: rounds per second and peak RSS of
each command (the RSS from that child's own rusage, see spawner.py), the
iteration's total time and the median fresh-interpreter `--help` time as
set-up. Each iteration also runs calibrate.py, a fixed task that does not
use regretaudit; times are scaled to a reference speed of the host by it
(see end_to_end). --trace 1 runs one untraced CLI iteration, then the same
commands in-process with a span around every layer call (tracing.py), and
reports the per-layer metrics.

The last line of stdout is the result, as JSON; the lines before it hold
the machine record, the output digests and a per-step table. A full record
goes to perfbench/results/, the spans of a traced run next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "work")
RESULTS_DIR = os.path.join(HERE, "results")

sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    ALPHA, STEPS, SUPPORT_FLOOR, THRESHOLD_R, WORKLOADS, Paths, Sizes, Workload,
    commands, drift_gamma, simulate_argv, write_config,
)

COMMAND_TIMEOUT_S = 170
# Median over 30 runs of the run's mean calibrate.py time, on the machine
# this benchmark was defined on (2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6); runs there ranged from 0.27 s to 0.36 s.
REFERENCE_CALIBRATION_S = 0.31


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def _source_digest() -> str:
    """Identifies the program's sources where there is no git commit."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "regretaudit", "**", "*.*"), recursive=True)):
        if "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode())
            h.update(sha256_file(path).encode())
    return h.hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class Completed:
    """One command run: exit code, wall time, the child's peak RSS and its output."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _allowed_exits(step: str) -> tuple[int, ...]:
    # An audit's FAIL verdict (exit 2) is a result, not an error.
    return (0, 2) if step.startswith("audit") else (0,)


def _exit_problems(c: Completed, allowed=(0,)) -> list[str]:
    if c.returncode in allowed:
        return []
    return [f"exit code {c.returncode}: {c.stderr.strip()[-300:]}"]


def _step_of(digest_name: str) -> str:
    if digest_name.endswith(".report.json"):
        return digest_name[: -len(".report.json")]
    return "simulate" if digest_name.startswith("sim" + os.sep) else "figures"


class Bench:
    """One run: the commands of a workload, their checks and the operation counts."""

    def __init__(self, w: Workload, s: Sizes, seed: int, paths: Paths):
        self.w, self.s, self.seed, self.paths = w, s, seed, paths
        self.cmds = commands(w, s, seed, paths)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference_digests: dict[str, str] | None = None
        self.spawner = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    # -- operations ---------------------------------------------------------

    def record(self, op: str, problems: list[str]) -> None:
        """Count one operation (an invocation plus its output check)."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)

    def _spawn(self, argv: list[str]) -> Completed:
        out_path = os.path.join(self.paths.root, "stdout.txt")
        err_path = os.path.join(self.paths.root, "stderr.txt")
        request = {"argv": argv, "env": self.env, "cwd": self.paths.root,
                   "stdout": out_path, "stderr": err_path, "timeout_s": COMMAND_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return Completed(reply["returncode"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
                             out.read(), err.read())

    def cli(self, argv: list[str]) -> Completed:
        return self._spawn([sys.executable, "-m", "regretaudit", *argv])

    def calibrate(self) -> Completed:
        """A run of calibrate.py: its wall time is the host's speed at this point of the run."""
        c = self._spawn([sys.executable, os.path.join(HERE, "calibrate.py")])
        if c.returncode != 0:
            raise SystemExit(f"calibration failed: {c.stderr}")
        return c

    # -- set-up -------------------------------------------------------------

    def help_sample(self) -> Completed:
        """A fresh interpreter's `regretaudit --help`: import plus parser, the program's set-up."""
        c = self.cli(["--help"])
        self.record("help", _exit_problems(c))
        return c

    def setup_inputs(self) -> None:
        """Simulate once (untimed), derive the reduced file and the figures reference transcript.

        The timed iterations' simulate outputs must hash the same as these,
        which are checked in full here.
        """
        write_config(self.w, self.paths)
        c = self.cli(self.cmds["simulate"][0])
        problems = _exit_problems(c) or self._check_simulate()
        self.record("setup simulate", problems)
        if problems:
            raise SystemExit(f"set-up failed: {problems}")
        self.setup_digests = self.digests({})
        reference.write_reduced(self.seller1, self.paths.reduced)
        self.distinct_ratio = distinct_distribution_ratio(self.paths.sim_dir)
        # Replication 0 of `figures` is `simulate` at the figures horizon and seed.
        if self.s.fig_rounds == self.s.sim_rounds:
            self.fig_rep0 = self.seller1
            return
        c = self.cli(simulate_argv(self.w, self.paths, self.seed, self.s.fig_rounds,
                                   self.paths.fig_rep0_dir))
        problems = _exit_problems(c)
        self.record("setup figures reference", problems)
        if problems:
            raise SystemExit(f"set-up failed: {problems}")
        self.fig_rep0 = reference.read_columns(
            os.path.join(self.paths.fig_rep0_dir, "transcript_rep0_seller1.jsonl"))

    def _check_simulate(self) -> list[str]:
        """Problems with the simulate outputs; keeps seller 1's columns for the audit checks."""
        out = []
        try:
            for seller in (2, 1):
                cols = reference.read_columns(
                    os.path.join(self.paths.sim_dir, f"transcript_rep0_seller{seller}.jsonl"))
                if cols.rounds != self.s.sim_rounds:
                    out.append(f"seller {seller} transcript has {cols.rounds} rounds")
            self.seller1 = cols
            with open(os.path.join(self.paths.sim_dir, "payoffs.csv"), encoding="utf-8") as fh:
                if len(fh.read().splitlines()) != 3:
                    out.append("payoffs.csv does not hold one row per seller")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            out.append(f"unreadable output: {e!r}")
        return out

    # -- outputs ------------------------------------------------------------

    def digests(self, reports: dict[str, str]) -> dict[str, str]:
        out = {}
        for d in (self.paths.sim_dir, self.paths.fig_dir):
            for path in sorted(glob.glob(os.path.join(d, "*"))):
                out[os.path.relpath(path, self.paths.root)] = sha256_file(path)
        for step, text in reports.items():
            out[f"{step}.report.json"] = hashlib.sha256(text.encode()).hexdigest()
        return out

    def check_outputs(self, runs: dict[str, Completed]) -> dict[str, list[str]]:
        """Full checks of one iteration's outputs, per step (simulate's are set-up's)."""
        w, s = self.w, self.s
        problems = {step: _exit_problems(runs[step], _allowed_exits(step)) for step in STEPS}
        problems["audit"] += reference.check_audit(
            runs["audit"].stdout, runs["audit"].returncode, self.seller1,
            w.cost_lo, w.cost_hi, THRESHOLD_R, ALPHA)
        problems["audit-aggregated"] += reference.check_aggregated(
            runs["audit-aggregated"].stdout, runs["audit-aggregated"].returncode, self.seller1,
            w.cost_lo, w.cost_hi, THRESHOLD_R, ALPHA, drift_gamma(w, s.sim_rounds), SUPPORT_FLOOR)
        problems["figures"] += reference.check_figures(
            self.paths.fig_dir, self.fig_rep0, s.fig_replications, s.fig_rounds,
            w.cost_lo, w.cost_hi, s.sweep_points)
        return problems

    def digest_problems(self, digests: dict[str, str], against: str) -> dict[str, list[str]]:
        """Per step, the outputs whose digest differs from the first iteration's."""
        problems = {step: [] for step in STEPS}
        for name in sorted(digests.keys() | self.reference_digests.keys()):
            if digests.get(name) != self.reference_digests.get(name):
                problems[_step_of(name)].append(f"{name} differs from {against}")
        return problems

    def record_iteration(self, runs: dict[str, Completed], reports: dict[str, str]) -> None:
        """Check one iteration: in full the first time, by digest afterwards."""
        digests = self.digests(reports)
        if self.reference_digests is None:
            try:
                problems = self.check_outputs(runs)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
                problems = {step: [f"output check raised {e!r}"] for step in STEPS}
            self.reference_digests = digests
            sim = {k: v for k, v in digests.items() if _step_of(k) == "simulate"}
            if sim != self.setup_digests:
                problems["simulate"].append("transcripts differ from the set-up run's")
        else:
            problems = self.digest_problems(digests, "the first iteration's")
            for step in STEPS:
                problems[step] += _exit_problems(runs[step], _allowed_exits(step))
        for step in STEPS:
            self.record(step, problems[step])

    # -- loops --------------------------------------------------------------

    def cli_iteration(self) -> dict[str, Completed]:
        runs = {step: self.cli(self.cmds[step][0]) for step in STEPS}
        self.record_iteration(runs, {s: runs[s].stdout for s in ("audit", "audit-aggregated")})
        return runs

    def closed_loop(self, seconds: float, body) -> list:
        """Run `body` until the next run would end after `seconds`; at least once."""
        start = time.perf_counter()
        samples = []
        while True:
            t = time.perf_counter()
            samples.append(body())
            last = time.perf_counter() - t
            if time.perf_counter() - start + last > seconds:
                return samples

    def traced_iteration(self, tracer: tracing.Tracer, cli, audit_mod, core) -> None:
        """The CLI commands in-process under the tracer; outputs must match the CLI's."""
        tracer.trace += 1
        reports = {}
        for step in STEPS:
            tracer.rounds = self.s.fig_rounds if step == "figures" else self.s.sim_rounds
            out = io.StringIO()
            try:
                span = tracer.open(f"cmd.{step}")
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(self.cmds[step][0])
                finally:
                    tracer.close(span)
                if step == "audit":
                    self.audit_stages(tracer, audit_mod, core)
            except Exception:  # noqa: BLE001 - reported as a failed operation
                self.record(f"traced {step}", [traceback.format_exc()])
                return
            if code not in _allowed_exits(step):
                self.record(f"traced {step}", [f"exit code {code}"])
                return
            reports[step] = out.getvalue()
        digests = self.digests({s: reports[s] for s in ("audit", "audit-aggregated")})
        for step, problems in self.digest_problems(digests, "the CLI's output").items():
            self.record(f"traced {step}", problems)

    def audit_stages(self, tracer: tracing.Tracer, audit_mod, core) -> None:
        """The audit layer's public stages, one by one, on the transcript `audit` just read."""
        transcript = tracer.last["core.read_transcript"]
        span = tracer.open("bench.audit-stages")
        try:
            audit_mod.estimate_allocations(transcript)
            curve = audit_mod.regret_curve(transcript)
            audit_mod.error_margin(transcript, ALPHA)
            audit_mod.minimize_over_cost(curve, core.CostRange(self.w.cost_lo, self.w.cost_hi))
        finally:
            tracer.close(span)


def distinct_distribution_ratio(sim_dir: str) -> float:
    """Distinct distributions over seller-rounds in the simulated transcripts."""
    distinct = rows = 0
    for path in sorted(glob.glob(os.path.join(sim_dir, "transcript_*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            next(fh)
            seen = set()
            for line in fh:
                seen.add(line[line.index('"support"'):])
                rows += 1
        distinct += len(seen)
    return distinct / rows


def end_to_end(bench: Bench, iterations: list[dict]) -> dict:
    """The end-to-end metrics, every time at the host's reference speed.

    This host's speed drifts by 10-25% over minutes, alike for every
    command, so each time is scaled by REFERENCE_CALIBRATION_S over the
    run's mean calibration time. Across runs, that halves the spread; the
    raw times are in the step table and the results record. Throughput and
    total are means over the run (time-weighted); set-up is the median
    `--help`.
    """
    speed = REFERENCE_CALIBRATION_S / statistics.fmean(it["calibration"].wall_s for it in iterations)
    m = {
        "setup_s": (statistics.median(it["help"].wall_s for it in iterations) * speed, "s"),
        "total_s": (statistics.fmean(sum(it[s].wall_s for s in STEPS) for it in iterations) * speed, "s"),
    }
    for step in STEPS:
        key = step.replace("-", "_")
        busy = sum(it[step].wall_s for it in iterations) * speed
        m[f"{key}_rounds_per_s"] = (bench.cmds[step][1] * len(iterations) / busy, "1/s")
        m[f"{key}_peak_rss_mb"] = (statistics.median(it[step].peak_rss_mb for it in iterations), "MB")
    return m


def step_table(bench: Bench, iterations: list[dict]) -> list[str]:
    """Raw wall times per step, unscaled."""
    lines = [f"{'step':18} {'n':>3} {'mean_s':>8} {'median_s':>9} {'min_s':>8} {'max_s':>8} "
             f"{'rounds':>7} {'peak_rss_mb':>11}"]
    for step in ("calibration", "help", *STEPS):
        walls = [it[step].wall_s for it in iterations]
        rss = statistics.median(it[step].peak_rss_mb for it in iterations)
        rounds = bench.cmds[step][1] if step in bench.cmds else 0
        lines.append(f"{step:18} {len(walls):3d} {statistics.fmean(walls):8.4f} "
                     f"{statistics.median(walls):9.4f} {min(walls):8.4f} {max(walls):8.4f} "
                     f"{rounds:7d} {rss:11.1f}")
    return lines


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    iterations = bench.closed_loop(seconds, lambda: {
        "calibration": bench.calibrate(),
        # One set-up sample per iteration spreads them over the whole run.
        "help": bench.help_sample(),
        **bench.cli_iteration(),
    })
    samples = {step: [[it[step].wall_s, it[step].peak_rss_mb] for it in iterations]
               for step in ("calibration", "help", *STEPS)}
    return end_to_end(bench, iterations), step_table(bench, iterations), {"samples": samples}


def run_traced(bench: Bench, seconds: float) -> tuple[dict, list[str], dict]:
    untraced_total = sum(c.wall_s for c in bench.cli_iteration().values())
    sys.path.insert(0, SRC)
    # import_module: the package re-exports a function named `audit`.
    audit_mod, cli, core = (importlib.import_module(f"regretaudit.{m}") for m in ("audit", "cli", "core"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench.closed_loop(seconds, lambda: bench.traced_iteration(tracer, cli, audit_mod, core))
    finally:
        tracer.uninstall()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_path = os.path.join(RESULTS_DIR, f"spans-{bench.w.name}-seed{bench.seed}.jsonl")
    tracer.write(spans_path)
    stats = tracing.layer_stats(tracer.spans)
    overhead = tracing.median_iteration_s(tracer.spans) - untraced_total
    uncovered = tracing.uncovered_share(tracer.spans)
    lines = tracing.layer_table(stats) + [
        f"tracing overhead {overhead:+.4f} s per iteration (in-process traced minus untraced "
        f"CLI {untraced_total:.4f} s); uncovered share {uncovered:.4f}; traced iterations {tracer.trace}"
    ]
    metrics = tracing.per_layer_metrics(stats, bench.distinct_ratio, overhead, uncovered)
    return metrics, lines, {"spans": os.path.relpath(spans_path, ROOT), "untraced_total_s": untraced_total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "regretaudit", "__init__.py")):
        print(f"error: no regretaudit sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    paths = Paths(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK_DIR))
    bench = Bench(w, w.sizes(args.size), args.seed, paths)
    try:
        bench.help_sample()  # fills the bytecode cache
        bench.setup_inputs()
        metrics, lines, details = (run_traced if args.trace else run_untraced)(bench, args.seconds)
    finally:
        bench.close()
        shutil.rmtree(paths.root, ignore_errors=True)

    machine = machine_record()
    digests = bench.reference_digests or {}
    run_digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "machine": machine, "digests": digests, "run_digest": run_digest,
              "problems": bench.problems, "result": result, **details}
    with open(os.path.join(RESULTS_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print("machine " + json.dumps(machine, sort_keys=True))
    for name, digest in sorted(digests.items()):
        print(f"digest {digest} {name}")
    print(f"run_digest {run_digest}")
    for line in lines:
        print(line)
    for problem in bench.problems:
        print(f"problem {problem}")
    print(f"failed_ops_ratio {bench.failed}/{bench.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
