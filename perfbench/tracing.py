"""The traced run: the workload's commands in-process, with a span per layer call.

The tracer replaces each traced public function with a wrapper, in every
regretaudit module that binds it (the defining module, the CLI, the package
namespace), and restores the originals afterwards. The program's code is
unchanged: spans are recorded here, around the calls into each layer, and
nested calls that go through a module attribute (``read_transcript`` calling
``validate``, ``audit_aggregated`` calling ``estimate_distributions``, the
figures helpers calling ``true_calibrated_regret``) become child spans.

A layer's self time is its span's duration minus its children's. The
pipeline is single-threaded, so no layer waits on another and self time is
busy time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

# Layer span name -> extra counts taken from (bound arguments, result).
LAYERS = {
    "sellers.simulate": None,
    "core.write_transcript": lambda a, r: (
        {"bytes": os.path.getsize(a["sink"])} if isinstance(a["sink"], str) else {}
    ),
    "core.read_transcript": None,
    "core.validate": None,
    "audit.estimate_allocations": None,
    "audit.regret_curve": lambda a, r: {"breakpoints": len(r.breakpoints)},
    "audit.error_margin": None,
    "audit.audit": None,
    "audit.minimize_over_cost": None,
    "aggregate.read_price_series": None,
    "aggregate.estimate_distributions": lambda a, r: {"window": r.window},
    "aggregate.audit_aggregated": None,
    "oracles.materialize_truth": None,
    "oracles.true_calibrated_regret": None,
    "figures.cost_sweep_rows": None,
    "figures.horizon_rows": None,
    "market.expected_payoff_matrix": None,
}

# Layers reported as self time per round processed.
PER_ROUND = (
    "sellers.simulate", "core.write_transcript", "core.read_transcript", "core.validate",
    "audit.estimate_allocations", "audit.regret_curve", "audit.error_margin", "audit.audit",
    "aggregate.read_price_series", "aggregate.estimate_distributions",
    "aggregate.audit_aggregated", "oracles.materialize_truth",
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    trace: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    rss_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; `rounds` is the per-call round count of the current step."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.trace = 0
        self.rounds = 0
        self.last: dict[str, object] = {}
        self._t0 = time.perf_counter()
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), self.trace, name, parent, time.perf_counter() - self._t0)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        span.rss_mb = _rss_mb()
        self.stack.pop()

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            # write_transcript(path) re-enters itself with the open handle.
            if self.stack and self.stack[-1].name == name:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.counts = {"calls": 1, "rounds": self.rounds}
            if count is not None:
                span.counts.update(count(signature.bind(*args, **kwargs).arguments, result))
            self.last[name] = result
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function across the loaded package."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "regretaudit"]
        for name, count in LAYERS.items():
            module, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"regretaudit.{module}"), attr)
            traced = self._wrap(name, original, count)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, traced)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "trace": s.trace, "name": s.name, "parent": s.parent,
                    "start_s": s.start, "end_s": s.end, "rss_mb": s.rss_mb, "counts": s.counts,
                }) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    first_rss_mb: float | None = None
    counts: dict = field(default_factory=dict)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, LayerStats] = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.total_s += s.duration
        st.self_s += s.duration - child_time[s.id]
        if st.first_rss_mb is None:
            st.first_rss_mb = s.rss_mb
        for key, value in s.counts.items():
            st.counts[key] = st.counts.get(key, 0) + value
    return out


def uncovered_share(spans: list[Span]) -> float:
    """Share of the root (command) spans' time that no layer span covers."""
    roots = {s.id for s in spans if s.parent is None}
    wall = sum(s.duration for s in spans if s.parent is None)
    covered = sum(s.duration for s in spans if s.parent in roots)
    return (wall - covered) / wall


def per_layer_metrics(stats: dict[str, LayerStats], distinct_ratio: float,
                      overhead_s: float, uncovered: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    for name in PER_ROUND:
        st = stats[name]
        m[f"{name}.us_per_round"] = (st.self_s / st.counts["rounds"] * 1e6, "us/round")
    m["sellers.simulate.distinct_dist_ratio"] = (distinct_ratio, "ratio")
    w = stats["core.write_transcript"]
    m["core.write_transcript.bytes_per_round"] = (w.counts["bytes"] / w.counts["rounds"], "B/round")
    m["core.read_transcript.rss_hwm_mb"] = (stats["core.read_transcript"].first_rss_mb, "MB")
    m["aggregate.audit_aggregated.rss_hwm_mb"] = (stats["aggregate.audit_aggregated"].first_rss_mb, "MB")
    curve = stats["audit.regret_curve"]
    m["audit.regret_curve.breakpoints"] = (curve.counts["breakpoints"] / curve.calls, "count")
    est = stats["aggregate.estimate_distributions"]
    m["aggregate.estimate_distributions.window"] = (est.counts["window"] / est.calls, "count")
    for name, scale, unit in (
        ("audit.minimize_over_cost", 1e6, "us/call"),
        ("oracles.true_calibrated_regret", 1e6, "us/call"),
        ("figures.cost_sweep_rows", 1.0, "s"),
        ("figures.horizon_rows", 1.0, "s"),
        ("market.expected_payoff_matrix", 1e3, "ms"),
    ):
        st = stats[name]
        suffix = {"us/call": "us_per_call", "s": "s", "ms": "ms"}[unit]
        m[f"{name}.{suffix}"] = (st.self_s / st.calls * scale, unit)
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.uncovered_share"] = (uncovered, "ratio")
    return m


def layer_table(stats: dict[str, LayerStats]) -> list[str]:
    lines = [f"{'layer':34} {'calls':>6} {'total_ms':>10} {'self_ms':>10} {'us/round':>9} {'rss_mb':>7}  counts"]
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        rounds = st.counts.get("rounds", 0)
        per_round = f"{st.self_s / rounds * 1e6:9.2f}" if rounds else f"{'-':>9}"
        extra = {k: v for k, v in st.counts.items() if k not in ("calls", "rounds")}
        lines.append(
            f"{name:34} {st.calls:6d} {st.total_s * 1e3:10.1f} {st.self_s * 1e3:10.1f} "
            f"{per_round} {st.first_rss_mb:7.1f}  rounds={rounds} {extra or ''}"
        )
    return lines


def median_iteration_s(spans: list[Span]) -> float:
    """Median over traces of the summed duration of the `cmd.*` root spans."""
    totals: dict[int, float] = {}
    for s in spans:
        if s.parent is None and s.name.startswith("cmd."):
            totals[s.trace] = totals.get(s.trace, 0.0) + s.duration
    return statistics.median(totals.values())
