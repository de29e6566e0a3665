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
from functools import cached_property
from typing import Sequence

import numpy as np

from . import figures
from .aggregate import DriftAssumption, audit_aggregated, check_horizon, read_price_series
from .audit import audit, minimize_over_cost, regret_curve
from .core import (
    AuditConfig,
    CostRange,
    PriceGrid,
    check_keys,
    count_records,
    load_json,
    read_transcript,
    write_transcript,
)
from .market import (
    DiscreteValuationTable,
    Market,
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
    mean_based_gamma,
    mean_based_violations,
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
_REQUIRED_KEYS = {"table_file": ("path",), "mwu": ("step_size",)}


def _check_spec(spec: dict, what: str) -> None:
    kinds = _SPEC_KEYS[what]
    kind = spec.get("kind")
    if type(kind) is not str or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    check_keys(spec, {"kind": _STRING, **kinds[kind]}, f"{kind} {what}", _REQUIRED_KEYS.get(kind, ()))


@dataclass
class ExperimentConfig:
    """One simulation experiment: environment, two strategies, horizon,
    replications. Checked at construction, so build changed copies with
    dataclasses.replace. The audit block's cost range, 0.1 to 0.9 unless
    set, is kept as cost_range; the environment, built once, as market."""

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

    @cached_property
    def market(self) -> Market:
        return build_environment(self.environment)


# The paper's two experiments, each holding only what differs from the defaults.
PRESETS = {
    "duopoly": {
        "environment": {"kind": "uniform"},
        "strategies": [{"kind": "q"}, {"kind": "q"}],
        "rounds": 200_000,
        "replications": 20,
    },
    "manipulation": {
        "environment": {"kind": "table"},
        "strategies": [
            {"kind": "manipulator", "phase1_rounds": 10_000},
            {"kind": "mwu", "step_size": MANIPULATION_ETA},
        ],
        "rounds": ManipulatorSchedule.standard(10_000).total_rounds,
    },
}


def build_environment(spec: dict) -> Market:
    """The market of an environment spec."""
    defaults = (0.1, 0.2) if spec["kind"] == "uniform" else (0.0, 0.0)
    costs = (spec.get("cost1", defaults[0]), spec.get("cost2", defaults[1]))
    if spec["kind"] == "uniform":
        if not all(0 <= c < 1 for c in costs):
            raise ValueError("costs must lie in [0, 1)")
        oracle, levels = UniformDuopoly(), DUOPOLY_GRID
    elif spec["kind"] == "table":
        oracle = manipulation_valuation_table(spec.get("epsilon", MANIPULATION_EPSILON))
        levels = MANIPULATION_GRID
    else:  # "table_file", the one kind that _check_spec leaves
        oracle = DiscreteValuationTable.from_json(spec["path"])
        levels = [float(v) for v in oracle.price_levels]
    return Market(_checked_grid(spec.get("grid", levels), spec.get("h"), "environment grid"), oracle, costs)


def replication_seed(base: int, replication: int) -> int:
    """Stable per-replication stream key, independent of execution order."""
    return int(np.random.SeedSequence(entropy=(int(base), int(replication))).generate_state(1, np.uint64)[0])


def run_replication(config: ExperimentConfig, replication: int):
    strategies = tuple(
        strategy_from_config(spec, config.market, i, config.rounds, config.feedback)
        for i, spec in enumerate(config.strategies)
    )
    seed = replication_seed(config.seed, replication)
    return simulate(config.market, strategies, config.rounds, config.feedback, seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    payoff_rows = []
    for rep in range(config.replications):
        result = run_replication(config, rep)
        # Only after the first simulation, which can still reject the config: no directory is left.
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
                truth = materialize_truth(config.market, opp, i)
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
        header = ["cost", "estimated_regret"] + (["true_regret"] if truth is not None else [])
        rows = figures.cost_sweep_rows(report.curve, args.cost_lo, args.cost_hi, args.sweep_points, truth, transcript)
        figures.write_csv(args.sweep, header, rows)
    print(report.to_json())
    return 0 if report.verdict == "PASS" else 2


def cmd_audit_aggregated(args) -> int:
    config = _audit_config_from_args(args)
    drift = DriftAssumption(args.drift_eps, args.drift_gamma, args.support_floor)
    # Too few rounds fail on the count of records, before any is decoded.
    grid, rounds = count_records(args.transcript)
    if rounds:
        check_horizon(rounds, len(grid), drift, config.confidence_alpha)
    grid, posted, allocations = read_price_series(args.transcript)
    if args.h is not None:
        grid = _checked_grid(grid.levels, args.h, f"--h {args.h:g}")
    report = audit_aggregated(posted, allocations, grid, drift, config)
    print(report.to_json())
    return 0 if report.verdict == "PASS" else 2


def cmd_figures(args) -> int:
    _check_sweep_points(args.sweep_points)
    config = _config_from_args(args)
    # Only the first replication is kept whole; of the others, fig1 needs
    # the last rounds' posted prices (copies, so each result can be freed).
    first, tails = None, []
    for rep in range(config.replications):
        result = run_replication(config, rep)
        if rep == 0:
            first = result
        tails.append(tuple(tr.posted[-figures.HEATMAP_ROUNDS :].copy() for tr in result.transcripts))
    del result
    os.makedirs(config.out, exist_ok=True)
    market = config.market
    levels = market.grid.levels

    # Strategy-pair heatmap over the last rounds of every replication.
    counts = figures.pair_heatmap_counts(tails, len(levels))
    eq = best_pure_equilibrium(levels, expected_payoff_matrix(market.demand, levels, market.costs))
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
    title = f"Strategy pairs over the last {figures.HEATMAP_ROUNDS} rounds"
    _write(
        os.path.join(config.out, "fig1_heatmap.svg"),
        figures.svg_heatmap(counts, levels, title, highlight=highlight),
    )

    # Estimated and true regret against the assumed cost, first replication.
    lo, hi = config.cost_range.lo, config.cost_range.hi
    curve = regret_curve(first.transcripts[0])
    truth = materialize_truth(market, first.transcripts[1].posted, 0)
    sweep = figures.cost_sweep_rows(curve, lo, hi, args.sweep_points, truth, first.transcripts[0])
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
    c_true = market.costs[0]
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
    market = build_environment({"kind": "table", "epsilon": epsilon})
    grid, costs = market.grid, market.costs
    specs = ({"kind": "manipulator", "phase1_rounds": phase1}, {"kind": "mwu", "step_size": args.eta})
    manipulator, learner = (strategy_from_config(spec, market, i, total) for i, spec in enumerate(specs))
    # The seed as given, not replication_seed: the demo is one run.
    result = simulate(market, (manipulator, learner), total, "expected", args.seed)

    seller1, seller2 = result.transcripts
    posted2 = seller2.posted
    top = grid.levels.index(schedule.phase2_price)
    window_start = phase1 + math.ceil(3 * epsilon * phase1)
    freq_top = float((posted2[window_start - 1 :] == top).mean())

    eq = best_pure_equilibrium(grid.levels, expected_payoff_matrix(market.demand, grid.levels, costs))
    bench = (total * float(eq[1][0]), total * float(eq[1][1]))
    totals = (float(result.payoffs[0].sum()), float(result.payoffs[1].sum()))

    truths = [materialize_truth(market, result.transcripts[1 - i].posted, i) for i in range(2)]
    regrets = [best_in_hindsight_regret(truths[i], costs[i], result.payoffs[i]) for i in range(2)]
    # Float truth: the table's exact demands would take the Fraction path.
    truth1 = GroundTruth(grid.levels, truths[0].table.astype(float), truths[0].index)
    cal1 = true_calibrated_regret(seller1.dist_table, seller1.dist_index, truth1, 0.0)

    gamma = mean_based_gamma(args.eta, total)
    _, util2 = market.tables[1]
    violations = mean_based_violations(learner, util2, seller1.posted, seller2, gamma, total)

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
    text = json.dumps(summary, indent=2)
    if args.out:  # before the summary, so that a failed write prints nothing
        os.makedirs(args.out, exist_ok=True)
        for i, transcript in enumerate(result.transcripts):
            write_transcript(
                transcript, os.path.join(args.out, f"manipulation_seller{i + 1}.jsonl")
            )
        _write(os.path.join(args.out, "manipulation_summary.json"), text)
    print(text)
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig(**PRESETS[args.preset])
    flags = {name: getattr(args, name, None) for name in ("rounds", "replications", "seed", "out", "feedback")}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if args.rounds is not None and any(spec.get("kind") == "manipulator" for spec in config.strategies):
        # Keep a manipulator's two-phase structure, in either seat: interpret --rounds as the total.
        schedule = ManipulatorSchedule.for_horizon(args.rounds)
        strategies = []
        for spec in config.strategies:
            if spec.get("kind") == "manipulator":
                spec = {**{k: v for k, v in spec.items() if k != "phase2_rounds"}, "phase1_rounds": schedule.phase1_rounds}
            strategies.append(spec)
        overrides["strategies"] = strategies
        overrides["rounds"] = schedule.total_rounds
    # replace runs the construction checks again on the overridden values.
    return replace(config, **overrides)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=list(PRESETS), default="duopoly")
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
    except (ValueError, OSError, MemoryError) as e:  # parse and validation errors included
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
