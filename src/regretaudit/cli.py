"""Command-line entry point: simulate markets, audit transcripts, reproduce figures.

Exit codes: 0 for PASS (or successful non-audit commands), 2 for FAIL, 1 for
errors, so the tool is scriptable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import figures
from .aggregate import DriftAssumption, audit_aggregated, read_price_series
from .audit import audit, minimize_over_cost, regret_curve
from .core import (
    AuditConfig,
    CostRange,
    PriceGrid,
    check_keys,
    load_json,
    read_transcript,
    write_transcript,
)
from .market import (
    DiscreteValuationTable,
    UniformDuopoly,
    best_pure_equilibrium,
    expected_payoff_matrix,
    manipulation_valuation_table,
)
from .oracles import (
    GroundTruth,
    best_in_hindsight_regret,
    materialize_truth,
    true_calibrated_regret,
)
from .sellers import (
    ManipulatorSchedule,
    ManipulatorStrategy,
    MWUStrategy,
    is_mean_based_violation,
    mean_based_gamma,
    payoff_tables,
    reward_bounds,
    simulate,
    strategy_from_config,
)

DEFAULT_THRESHOLD = 6e-3  # the worked example's threshold
DUOPOLY_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
MANIPULATION_GRID = (0.0, 1.0, 2.0, 3.0)
MANIPULATION_ETA = 2.0
MANIPULATION_EPSILON = 0.005

_NUMBER, _INTEGER, _STRING = "a finite number", "an integer", "a string"
_CONFIG_KINDS = {"environment": "an object", "strategies": "a list", "rounds": _INTEGER,
                 "replications": _INTEGER, "seed": _INTEGER, "out": _STRING, "feedback": _STRING,
                 "audit": "an object"}
_AUDIT_KEYS = {"cost_lo": _NUMBER, "cost_hi": _NUMBER}
# The keys besides "kind" that each kind of environment and strategy may hold.
_GRID_KEYS = {"grid": "a list of finite numbers", "h": _NUMBER, "cost1": _NUMBER, "cost2": _NUMBER}
_SPEC_KEYS = {
    "environment": {
        "uniform": _GRID_KEYS,
        "table": {**_GRID_KEYS, "epsilon": _NUMBER},
        "table_file": {**_GRID_KEYS, "path": _STRING},
    },
    "strategy": {
        "q": dict.fromkeys(("init", "learning_rate", "discount", "explore_eps"), _NUMBER),
        "mwu": {"step_size": _NUMBER},
        "fixed": {"index": _INTEGER, "price": _NUMBER},
        "manipulator": {"phase1_rounds": _INTEGER, "phase1_price": _NUMBER,
                        "phase2_rounds": _INTEGER, "phase2_price": _NUMBER},
    },
}


def _check_spec(spec: dict, what: str) -> None:
    kinds = _SPEC_KEYS[what]
    kind = spec.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    check_keys(spec, {"kind": _STRING, **kinds[kind]}, f"{kind} {what}")


@dataclass
class ExperimentConfig:
    """One simulation experiment: environment, two strategies, horizon,
    replications. Checked at construction, so build changed copies with
    dataclasses.replace. The audit block's cost range, 0.1 to 0.9 unless
    set, is kept as cost_range."""

    environment: dict
    strategies: list[dict]
    rounds: int
    replications: int = 1
    seed: int = 0
    out: str = "out"
    feedback: str = "expected"
    audit: dict = field(default_factory=dict)

    def __post_init__(self):
        check_keys({name: getattr(self, name) for name in _CONFIG_KINDS}, _CONFIG_KINDS, "config")
        if self.seed < 0:
            raise ValueError(f"config key 'seed' must be at least 0, got {self.seed}")
        if self.replications < 1 or self.rounds < 1:
            raise ValueError("rounds and replications must be at least 1")
        if len(self.strategies) != 2 or not all(type(s) is dict for s in self.strategies):
            raise ValueError("config key 'strategies' must list exactly two strategy objects")
        _check_spec(self.environment, "environment")
        for spec in self.strategies:
            _check_spec(spec, "strategy")
        check_keys(self.audit, _AUDIT_KEYS, "audit")
        audit = {"cost_lo": 0.1, "cost_hi": 0.9, **self.audit}
        try:
            self.cost_range = CostRange(audit["cost_lo"], audit["cost_hi"])
        except ValueError as e:
            raise ValueError(f"config key 'audit': {e}") from None

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            obj = load_json(fh)
        if type(obj) is not dict:
            raise ValueError(f"{path}: config must be a JSON object")
        known = {f.name: f for f in fields(ExperimentConfig)}
        for key in obj:
            if key not in known:
                raise ValueError(f"{path}: unknown config key {key!r}")
        for name, f in known.items():
            if name not in obj and f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{path}: missing config key {name!r}")
        return ExperimentConfig(**obj)


def duopoly_config(rounds: int = 200_000, replications: int = 20, seed: int = 0, out: str = "out") -> ExperimentConfig:
    return ExperimentConfig(
        environment={"kind": "uniform", "cost1": 0.1, "cost2": 0.2},
        strategies=[{"kind": "q"}, {"kind": "q"}],
        rounds=rounds,
        replications=replications,
        seed=seed,
        out=out,
        audit={"cost_lo": 0.1, "cost_hi": 0.9},
    )


def manipulation_config(phase1_rounds: int = 10_000, seed: int = 0, out: str = "out") -> ExperimentConfig:
    schedule = ManipulatorSchedule.standard(phase1_rounds)
    return ExperimentConfig(
        environment={"kind": "table", "epsilon": MANIPULATION_EPSILON},
        strategies=[
            {"kind": "manipulator", "phase1_rounds": phase1_rounds},
            {"kind": "mwu", "step_size": MANIPULATION_ETA},
        ],
        rounds=schedule.total_rounds,
        replications=1,
        seed=seed,
        out=out,
    )


def build_environment(spec: dict):
    """Returns (grid, oracle, costs) for an environment spec."""
    kind = spec.get("kind")
    if kind == "uniform":
        env = UniformDuopoly(spec.get("cost1", 0.1), spec.get("cost2", 0.2))
        grid = _checked_grid(spec.get("grid", DUOPOLY_GRID), spec.get("h"), "environment grid")
        return grid, env, (env.cost1, env.cost2)
    if kind == "table":
        table = manipulation_valuation_table(spec.get("epsilon", MANIPULATION_EPSILON))
        grid = _checked_grid(spec.get("grid", MANIPULATION_GRID), spec.get("h"), "environment grid")
        return grid, table, (spec.get("cost1", 0.0), spec.get("cost2", 0.0))
    if kind == "table_file":
        if "path" not in spec:
            raise ValueError("table_file environment: missing key 'path'")
        table = DiscreteValuationTable.from_json(spec["path"])
        levels = spec.get("grid", [float(v) for v in table.price_levels])
        grid = _checked_grid(levels, spec.get("h"), "environment grid")
        return grid, table, (spec.get("cost1", 0.0), spec.get("cost2", 0.0))
    raise ValueError(f"unknown environment kind {kind!r}")


def replication_seed(base: int, replication: int) -> int:
    """Stable per-replication stream key, independent of execution order."""
    return int(np.random.SeedSequence(entropy=(int(base), int(replication))).generate_state(1, np.uint64)[0])


def run_replication(config: ExperimentConfig, replication: int):
    grid, oracle, costs = build_environment(config.environment)
    strategies = tuple(
        strategy_from_config(spec, grid, oracle, costs, i, config.rounds, config.feedback)
        for i, spec in enumerate(config.strategies)
    )
    seed = replication_seed(config.seed, replication)
    return grid, oracle, costs, simulate(
        grid, strategies, oracle, costs, config.rounds, config.feedback, seed
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    payoff_rows = []
    for rep in range(config.replications):
        grid, oracle, costs, result = run_replication(config, rep)
        # Only after the strategies are built: a rejected config leaves no directory.
        os.makedirs(config.out, exist_ok=True)
        for i, transcript in enumerate(result.transcripts):
            path = os.path.join(config.out, f"transcript_rep{rep}_seller{i + 1}.jsonl")
            write_transcript(transcript, path)
            payoff = result.payoffs[i]
            payoff_rows.append(
                [rep, i + 1, config.rounds, float(payoff.sum()), float(payoff.mean())]
            )
        if args.emit_truth:
            for i in range(2):
                opp = result.transcripts[1 - i].posted
                truth = materialize_truth(oracle, grid.levels, opp, i)
                figures.write_truth(
                    truth, os.path.join(config.out, f"truth_rep{rep}_seller{i + 1}.jsonl")
                )
        print(f"replication {rep}: wrote transcripts for {config.rounds} rounds")
    figures.write_csv(
        os.path.join(config.out, "payoffs.csv"),
        ["replication", "seller", "rounds", "total_payoff", "mean_payoff"],
        payoff_rows,
    )
    return 0


def _audit_config_from_args(args) -> AuditConfig:
    return AuditConfig(
        cost_range=CostRange(args.cost_lo, args.cost_hi),
        threshold_r=args.r,
        confidence_alpha=args.alpha,
        endogenous=args.endogenous,
    )


def _checked_grid(levels, h: float | None, what: str) -> PriceGrid:
    """The grid of the levels embedded in [0, h], which must hold every level."""
    grid = PriceGrid(levels, h)
    problems = grid.violations()
    if problems:
        raise ValueError(f"{what}: " + "; ".join(v.message for v in problems))
    return grid


def _check_sweep_points(points: int) -> None:
    # A ValueError exits 1 like other bad input; an argparse error would exit
    # 2, the FAIL verdict's code.
    if points < 1:
        raise ValueError("--sweep-points must be at least 1")


def cmd_audit(args) -> int:
    _check_sweep_points(args.sweep_points)
    if args.truth and not args.sweep:
        raise ValueError(f"--truth {args.truth} needs --sweep, whose CSV holds the true regret")
    config = _audit_config_from_args(args)
    transcript = read_transcript(args.transcript)
    if args.h is not None:
        grid = _checked_grid(transcript.grid.levels, args.h, f"--h {args.h:g}")
        transcript = replace(transcript, grid=grid)
    truth = None
    if args.truth:
        truth = figures.read_truth(args.truth)
        if truth.levels != transcript.grid.levels:
            raise ValueError(
                f"--truth grid {list(truth.levels)} differs from the transcript's {list(transcript.grid.levels)}"
            )
        if truth.rounds != len(transcript):
            raise ValueError(f"--truth has {truth.rounds} rounds, the transcript {len(transcript)}")
    report = audit(transcript, config)
    if args.sweep:  # before the report, so that a failed write prints nothing
        curve = regret_curve(transcript)
        header = ["cost", "estimated_regret"] + (["true_regret"] if truth is not None else [])
        dists = None if truth is None else transcript.dists()
        rows = figures.cost_sweep_rows(
            curve, args.cost_lo, args.cost_hi, args.sweep_points, truth, dists
        )
        figures.write_csv(args.sweep, header, rows)
    print(report.to_json(indent=2))
    return 0 if report.verdict == "PASS" else 2


def cmd_audit_aggregated(args) -> int:
    config = _audit_config_from_args(args)
    grid, posted, allocations = read_price_series(args.transcript)
    if args.h is not None:
        grid = _checked_grid(grid.levels, args.h, f"--h {args.h:g}")
    drift = DriftAssumption(args.drift_eps, args.drift_gamma, args.support_floor)
    report = audit_aggregated(posted, allocations, grid, drift, config)
    print(report.to_json(indent=2))
    return 0 if report.verdict == "PASS" else 2


def cmd_figures(args) -> int:
    _check_sweep_points(args.sweep_points)
    config = _config_from_args(args)
    grid, oracle, costs = build_environment(config.environment)
    results = [run_replication(config, rep)[3] for rep in range(config.replications)]
    os.makedirs(config.out, exist_ok=True)
    levels = grid.levels

    # Strategy-pair heatmap over the last 10 rounds of every replication.
    pairs = [r.transcripts for r in results]
    counts = figures.pair_heatmap_counts(pairs, last_rounds=10)
    eq = best_pure_equilibrium(expected_payoff_matrix(oracle, levels, costs))
    highlight = eq[2] if eq else None
    rows = [
        [levels[i], levels[j], int(counts[i, j])]
        for i in range(len(levels))
        for j in range(len(levels))
        if counts[i, j]
    ]
    figures.write_csv(
        os.path.join(config.out, "fig1_pairs.csv"),
        ["seller1_price", "seller2_price", "count"],
        rows,
    )
    _write(
        os.path.join(config.out, "fig1_heatmap.svg"),
        figures.svg_heatmap(
            counts, levels, "Strategy pairs over the last 10 rounds", highlight=highlight
        ),
    )

    # Estimated and true regret against the assumed cost, first replication.
    first = results[0]
    lo, hi = config.cost_range.lo, config.cost_range.hi
    curve = regret_curve(first.transcripts[0])
    truth = materialize_truth(oracle, levels, first.transcripts[1].posted, 0)
    dists = first.transcripts[0].dists()
    sweep = figures.cost_sweep_rows(curve, lo, hi, args.sweep_points, truth, dists)
    figures.write_csv(
        os.path.join(config.out, "fig2_regret_vs_cost.csv"),
        ["cost", "estimated_regret", "true_regret"],
        sweep,
    )
    cs = [row[0] for row in sweep]
    _write(
        os.path.join(config.out, "fig2_regret_vs_cost.svg"),
        figures.svg_line_chart(
            [
                ("estimated", cs, [row[1] for row in sweep]),
                ("true", cs, [row[2] for row in sweep]),
            ],
            "Regret against assumed cost",
            "assumed cost",
            "per-round regret",
        ),
    )

    # True regret at the true and plausible costs across horizons.
    c_true = costs[0]
    c_plausible, _ = minimize_over_cost(curve, config.cost_range)
    horizons = figures.log_spaced_horizons(config.rounds)
    hrows = figures.horizon_rows(first.transcripts[0], truth, [c_true, c_plausible], horizons)
    figures.write_csv(
        os.path.join(config.out, "fig3_regret_vs_horizon.csv"),
        ["horizon", f"true_regret_cost_{c_true:g}", f"true_regret_cost_{c_plausible:g}"],
        hrows,
    )
    _write(
        os.path.join(config.out, "fig3_regret_vs_horizon.svg"),
        figures.svg_line_chart(
            [
                (f"cost {c_true:g}", [r[0] for r in hrows], [r[1] for r in hrows]),
                (f"cost {c_plausible:g}", [r[0] for r in hrows], [r[2] for r in hrows]),
            ],
            "True regret against horizon",
            "rounds",
            "per-round regret",
            log_x=True,
        ),
    )
    print(f"figures written to {config.out}")
    return 0


def cmd_manipulate_demo(args) -> int:
    if not 0 <= args.seed < 2**63:  # the range of a config's seed
        raise ValueError(f"--seed must be in [0, 2^63), got {args.seed}")
    phase1 = args.rounds
    schedule = ManipulatorSchedule.standard(phase1)
    total = schedule.total_rounds
    epsilon = args.epsilon
    table = manipulation_valuation_table(epsilon)
    grid = PriceGrid(MANIPULATION_GRID)
    lo, hi = reward_bounds(table, grid, (0.0, 0.0))
    learner = MWUStrategy.fresh(len(grid), args.eta, lo, hi)
    manipulator = ManipulatorStrategy(schedule, grid)
    result = simulate(grid, (manipulator, learner), table, (0.0, 0.0), total, "expected", args.seed)

    posted1, posted2 = (tr.posted for tr in result.transcripts)
    top = grid.levels.index(schedule.phase2_price)
    window_start = phase1 + math.ceil(3 * epsilon * phase1)
    freq_top = float((posted2[window_start - 1 :] == top).mean())

    matrix = expected_payoff_matrix(table, grid.levels, (0.0, 0.0))
    eq = best_pure_equilibrium(matrix)
    bench = (total * float(eq[1][0]), total * float(eq[1][1]))
    totals = (float(result.payoffs[0].sum()), float(result.payoffs[1].sum()))

    lv = np.asarray(grid.levels)
    truths = [materialize_truth(table, grid.levels, result.transcripts[1 - i].posted, i) for i in range(2)]
    regrets = [
        best_in_hindsight_regret(lv[None, :] * truths[i].as_array(), result.payoffs[i]) for i in range(2)
    ]
    # Float truth: the table's exact demands would take the Fraction path.
    truth1 = GroundTruth(grid.levels, truths[0].table.astype(float), truths[0].index)
    cal1 = true_calibrated_regret(result.transcripts[0].dists(), truth1, 0.0)

    # The learner's cumulative rewards before each round: a running sum of
    # its normalized rewards, added in the order the simulator added them.
    gamma = mean_based_gamma(args.eta, total)
    _, _, _, util2 = payoff_tables(table, grid, (0.0, 0.0))
    rewards = learner.rewards(util2[:, posted1].T)
    before = np.vstack([np.zeros((1, len(grid))), np.cumsum(rewards, axis=0)[:-1]])
    flags = is_mean_based_violation(before, result.transcripts[1].dists(), posted2, gamma, total)
    violations = int(flags.sum())

    summary = {
        "phase1_rounds": phase1,
        "total_rounds": total,
        "epsilon": epsilon,
        "eta": args.eta,
        "top_price_frequency_in_window": freq_top,
        "window_start_round": window_start,
        "cumulative_payoffs": totals,
        "equilibrium_benchmark": bench,
        "best_in_hindsight_regret": regrets,
        "manipulator_calibrated_regret": cal1,
        "mean_based_gamma": gamma,
        "mean_based_violations": violations,
    }
    print(json.dumps(summary, indent=2))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, transcript in enumerate(result.transcripts):
            write_transcript(
                transcript, os.path.join(args.out, f"manipulation_seller{i + 1}.jsonl")
            )
        with open(os.path.join(args.out, "manipulation_summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config_from_args(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    elif args.preset == "manipulation":
        config = manipulation_config()
    else:
        config = duopoly_config()
    flags = {name: getattr(args, name, None) for name in ("rounds", "replications", "seed", "out", "feedback")}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if args.rounds is not None and config.strategies[0].get("kind") == "manipulator":
        # Keep the two-phase structure: interpret --rounds as the total.
        phase1 = math.ceil(args.rounds / 2.1)
        spec = {k: v for k, v in config.strategies[0].items() if k != "phase2_rounds"}
        overrides["strategies"] = [{**spec, "phase1_rounds": phase1}, *config.strategies[1:]]
        overrides["rounds"] = ManipulatorSchedule.standard(phase1).total_rounds
    # replace runs the construction checks again on the overridden values.
    return replace(config, **overrides)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["duopoly", "manipulation"], default="duopoly")
    p.add_argument("--config", help="experiment config JSON file")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


def _add_audit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost-lo", type=float, required=True)
    p.add_argument("--cost-hi", type=float, required=True)
    p.add_argument("--r", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--endogenous", action="store_true")
    p.add_argument("--h", type=float, default=None, help="continuum upper bound for endogenous grids")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regretaudit",
        description="Audit pricing transcripts for non-collusion; simulate markets that generate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a market simulation, write transcripts")
    _add_experiment_flags(p)
    p.add_argument("--feedback", choices=["expected", "realized"], default=None)
    p.add_argument("--emit-truth", action="store_true", help="write ground-truth sidecar files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="audit one transcript file")
    p.add_argument("transcript")
    _add_audit_flags(p)
    p.add_argument("--sweep", help="write a cost-sweep CSV to this path")
    p.add_argument("--sweep-points", type=int, default=81)
    p.add_argument("--truth", help="ground-truth sidecar for true-regret columns")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("audit-aggregated", help="audit without recorded price distributions")
    p.add_argument("transcript")
    _add_audit_flags(p)
    p.add_argument("--drift-eps", type=float, default=None)
    p.add_argument("--drift-gamma", type=float, default=None)
    p.add_argument("--support-floor", type=float, default=0.3)
    p.set_defaults(func=cmd_audit_aggregated)

    p = sub.add_parser("figures", help="simulate and emit figure CSV/SVG files")
    _add_experiment_flags(p)
    p.add_argument("--sweep-points", type=int, default=81)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("manipulate-demo", help="steer a mean-based learner to supra-competitive prices")
    p.add_argument("--rounds", type=int, default=10_000, help="phase-1 length; total is 2.1x")
    p.add_argument("--eta", type=float, default=MANIPULATION_ETA)
    p.add_argument("--epsilon", type=float, default=MANIPULATION_EPSILON)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_manipulate_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # parse and validation errors included
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
