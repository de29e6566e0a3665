"""The benchmark's workloads: one market, its sizes, and the CLI commands it runs.

Every workload runs the same four commands in one closed-loop iteration, so
every end-to-end metric is measured on every workload; the sizes decide
which layer dominates:

* ``simulate`` writes both sellers' transcripts;
* ``audit`` audits seller 1's transcript;
* ``audit-aggregated`` audits a reduced (t/posted/alloc) copy of it, which the
  benchmark derives during set-up;
* ``figures`` runs its own replications in memory and writes CSV/SVG files.

Sizes keep one iteration near 3 s, so that a 35 s run holds about ten
iterations.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

SUPPORT_FLOOR = 0.3
ALPHA = 0.05
THRESHOLD_R = 6e-3  # the CLI's default --r


@dataclass(frozen=True)
class Sizes:
    sim_rounds: int
    fig_rounds: int
    fig_replications: int
    sweep_points: int


@dataclass(frozen=True)
class Workload:
    name: str
    # Experiment flags shared by simulate and figures; a config dict is
    # written to a file during set-up and passed with --config.
    preset: str | None
    config: dict | None
    cost_lo: float
    cost_hi: float
    # Claimed per-step drift of seller 1's distributions at the simulated
    # horizon T; the aggregated audit gets --drift-gamma log(1/drift)/log(T).
    drift: float
    full: Sizes
    tiny: Sizes

    def sizes(self, size: str) -> Sizes:
        return self.full if size == "full" else self.tiny


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="duopoly-figures",
            preset="duopoly",
            config=None,
            cost_lo=0.1,
            cost_hi=0.9,
            drift=5e-4,
            full=Sizes(sim_rounds=2_000, fig_rounds=2_000, fig_replications=4, sweep_points=81),
            tiny=Sizes(sim_rounds=600, fig_rounds=300, fig_replications=2, sweep_points=9),
        ),
        Workload(
            name="duopoly-q-audit",
            preset="duopoly",
            config=None,
            cost_lo=0.1,
            cost_hi=0.9,
            drift=5e-4,
            full=Sizes(sim_rounds=8_000, fig_rounds=1_000, fig_replications=1, sweep_points=81),
            tiny=Sizes(sim_rounds=600, fig_rounds=300, fig_replications=1, sweep_points=9),
        ),
        Workload(
            name="table-mwu-aggregated",
            preset=None,
            config={
                "environment": {"kind": "table", "epsilon": 0.005},
                "strategies": [
                    {"kind": "mwu", "step_size": 1e-3},
                    {"kind": "mwu", "step_size": 1e-3},
                ],
                "rounds": 1,  # --rounds, --replications and --seed override these
                "replications": 1,
                "audit": {"cost_lo": 0.0, "cost_hi": 1.0},
            },
            cost_lo=0.0,
            cost_hi=1.0,
            drift=1e-3,  # the learners' step size eta: T ** -gamma = eta
            # The figures oracles are exact (Fraction) on the table, hence the
            # short horizon and few sweep points.
            full=Sizes(sim_rounds=6_000, fig_rounds=300, fig_replications=2, sweep_points=5),
            tiny=Sizes(sim_rounds=600, fig_rounds=60, fig_replications=2, sweep_points=3),
        ),
    )
}

STEPS = ("simulate", "audit", "audit-aggregated", "figures")


@dataclass(frozen=True)
class Paths:
    """Where one run keeps its inputs and the commands' outputs."""

    root: str

    @property
    def config(self) -> str:
        return os.path.join(self.root, "experiment.json")

    @property
    def sim_dir(self) -> str:
        return os.path.join(self.root, "sim")

    @property
    def fig_dir(self) -> str:
        return os.path.join(self.root, "fig")

    @property
    def fig_rep0_dir(self) -> str:
        return os.path.join(self.root, "fig_rep0")

    @property
    def seller1(self) -> str:
        return os.path.join(self.sim_dir, "transcript_rep0_seller1.jsonl")

    @property
    def reduced(self) -> str:
        return os.path.join(self.root, "reduced_seller1.jsonl")


def write_config(w: Workload, paths: Paths) -> None:
    if w.config is not None:
        with open(paths.config, "w", encoding="utf-8") as fh:
            json.dump(w.config, fh)


def _experiment_flags(w: Workload, paths: Paths) -> list[str]:
    return ["--preset", w.preset] if w.preset else ["--config", paths.config]


def drift_gamma(w: Workload, rounds: int) -> float:
    return math.log(1.0 / w.drift) / math.log(rounds)


def simulate_argv(w: Workload, paths: Paths, seed: int, rounds: int, out: str) -> list[str]:
    return [
        "simulate", *_experiment_flags(w, paths),
        "--replications", "1", "--rounds", str(rounds), "--seed", str(seed), "--out", out,
    ]


def commands(w: Workload, s: Sizes, seed: int, paths: Paths) -> dict[str, tuple[list[str], int]]:
    """CLI argv per step, with the rounds that step processes (rounds x R for figures)."""
    audit_flags = ["--cost-lo", repr(w.cost_lo), "--cost-hi", repr(w.cost_hi)]
    return {
        "simulate": (simulate_argv(w, paths, seed, s.sim_rounds, paths.sim_dir), s.sim_rounds),
        "audit": (["audit", paths.seller1, *audit_flags], s.sim_rounds),
        "audit-aggregated": (
            [
                "audit-aggregated", paths.reduced, *audit_flags,
                "--drift-gamma", repr(drift_gamma(w, s.sim_rounds)),
                "--support-floor", repr(SUPPORT_FLOOR),
            ],
            s.sim_rounds,
        ),
        "figures": (
            [
                "figures", *_experiment_flags(w, paths),
                "--replications", str(s.fig_replications), "--rounds", str(s.fig_rounds),
                "--seed", str(seed), "--sweep-points", str(s.sweep_points), "--out", paths.fig_dir,
            ],
            s.fig_rounds * s.fig_replications,
        ),
    }
