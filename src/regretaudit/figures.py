"""CSV and self-contained SVG emission for the experiment figures.

Everything here is first-party string building: no plotting dependency, no
external references inside the SVG files.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Sequence, Union

import numpy as np

from .core import (
    PriceGrid,
    Transcript,
    TranscriptParseError,
    Violation,
    block_lines,
    raise_violations,
    read_records,
    write_records,
)
from .oracles import GroundTruth, true_calibrated_regret

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
HEATMAP_ROUNDS = 10  # the last rounds of each replication that fig1 counts


# ---------------------------------------------------------------------------
# Ground-truth sidecar files (line-oriented JSON, like transcripts)
# ---------------------------------------------------------------------------


def write_truth(truth: GroundTruth, sink: Union[str, IO[str]]) -> None:
    lines = block_lines('{"t": %d, ', (), truth.table, truth.index, _allocation_text, sparse=False)
    write_records(sink, PriceGrid(truth.levels), lines)


def _allocation_text(support: list[int]) -> str:
    return '"x": [' + ", ".join(["%.17g"] * len(support)) + "]"


def _allocation_row(values: list, k: int, t: int, line_no: int) -> list:
    """Round t's "x" as its row (read_records' `row` for sidecars)."""
    (x,) = values
    if len(x) != k:
        raise TranscriptParseError(line_no, f'"x" must have {k} entries, one per price')
    return x


def read_truth(source: Union[str, IO[str]]) -> GroundTruth:
    grid, lines, ((ids, table),) = read_records(source, {"x": "a list of numbers"}, _allocation_row)
    in_range = ((table >= 0.0) & (table <= 1.0)).all(axis=1)  # false for NaN and inf
    raise_violations(
        [Violation(r + 1, "x", "allocation out of [0,1]") for r in np.flatnonzero(~in_range[ids]).tolist()],
        lines,
    )
    return GroundTruth(grid.levels, table, ids)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out or [lo]


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]


def svg_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    log_x: bool = False,
) -> str:
    """Self-contained line chart; series are (label, xs, ys)."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    fx = (lambda v: math.log10(v)) if log_x else (lambda v: v)
    x_lo, x_hi = min(map(fx, xs_all)), max(map(fx, xs_all))
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (fx(x) - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    out = _svg_open(title)
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>'
    )
    if log_x:
        lo_exp, hi_exp = math.floor(x_lo), math.ceil(x_hi)
        xticks = [10.0**e for e in range(int(lo_exp), int(hi_exp) + 1) if x_lo <= e <= x_hi]
        xtick_labels = [f"1e{int(math.log10(v))}" for v in xticks]
    else:
        xticks = _ticks(x_lo, x_hi)
        xtick_labels = [f"{v:g}" for v in xticks]
    for v, lab in zip(xticks, xtick_labels):
        x = px(v)
        out.append(f'<line x1="{x:.1f}" y1="{_MT + ph}" x2="{x:.1f}" y2="{_MT + ph + 5}" stroke="#444"/>')
        out.append(f'<text x="{x:.1f}" y="{_MT + ph + 18}" text-anchor="middle">{lab}</text>')
    for v in _ticks(y_lo, y_hi):
        y = py(v)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#444"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{v:g}</text>')
    out.append(
        f'<text x="{_ML + pw / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_ML + pw - 150}" y1="{ly - 4}" x2="{_ML + pw - 125}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_ML + pw - 120}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)


def svg_heatmap(
    counts: np.ndarray,
    levels: Sequence[float],
    title: str,
    highlight: tuple[int, int] | None = None,
) -> str:
    """Self-contained heatmap of pair counts; rows index seller 1's price."""
    k = len(levels)
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    cw, ch = pw / k, ph / k
    top = float(counts.max()) or 1.0
    out = _svg_open(title)
    for i in range(k):
        for j in range(k):
            frac = counts[i, j] / top
            # White through blue, darker = more frequent.
            shade = int(255 - 200 * frac)
            y = _MT + (k - 1 - i) * ch
            x = _ML + j * cw
            out.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cw:.2f}" height="{ch:.2f}" '
                f'fill="rgb({shade},{shade},255)" stroke="#ddd" stroke-width="0.5"/>'
            )
    if highlight is not None:
        hi, hj = highlight
        out.append(
            f'<rect x="{_ML + hj * cw:.1f}" y="{_MT + (k - 1 - hi) * ch:.1f}" '
            f'width="{cw:.2f}" height="{ch:.2f}" fill="none" stroke="red" stroke-width="2"/>'
        )
    step = max(1, k // 10)
    for j in range(0, k, step):
        x = _ML + (j + 0.5) * cw
        out.append(f'<text x="{x:.1f}" y="{_MT + ph + 16}" text-anchor="middle">{levels[j]:g}</text>')
    for i in range(0, k, step):
        y = _MT + (k - 0.5 - i) * ch
        out.append(f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end">{levels[i]:g}</text>')
    out.append(f'<text x="{_ML + pw / 2}" y="{_H - 12}" text-anchor="middle">price of seller 2</text>')
    out.append(
        f'<text x="18" y="{_MT + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ph / 2})">price of seller 1</text>'
    )
    out.append("</svg>")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Figure builders
# ---------------------------------------------------------------------------


def pair_heatmap_counts(tails: Sequence[tuple[np.ndarray, np.ndarray]], k: int) -> np.ndarray:
    """Tally of the strategy pairs in the posted-price tails of the two
    sellers, one pair of tails per replication (its last HEATMAP_ROUNDS
    rounds); the total count is the number of pairs in the tails."""
    counts = np.zeros((k, k), dtype=np.int64)
    for posted1, posted2 in tails:
        np.add.at(counts, (posted1, posted2), 1)
    return counts


def cost_sweep_rows(curve, cost_lo: float, cost_hi: float, points: int, truth=None, transcript=None):
    """(cost, estimated regret[, true regret]) rows for a regret-vs-cost
    figure; the true regret, given a GroundTruth, is that of the
    Transcript's distributions."""
    cs = np.linspace(cost_lo, cost_hi, points).tolist()
    columns = [cs, curve.values(cs).tolist()]
    if truth is not None:
        regrets = true_calibrated_regret(transcript.dist_table, transcript.dist_index, truth, cs)
        columns.append([float(v) for v in regrets])
    return [list(row) for row in zip(*columns)]


def horizon_rows(transcript: Transcript, truth: GroundTruth, costs: Sequence[float], horizons: Sequence[int]):
    """True regret at the given costs for truncated prefixes of a transcript."""
    table = np.asarray(truth.table, dtype=float)  # float work, even on an exact truth
    costs = [float(c) for c in costs]
    rows = []
    for h in horizons:
        prefix = GroundTruth(truth.levels, table, truth.index[:h])
        regrets = true_calibrated_regret(transcript.dist_table, transcript.dist_index[:h], prefix, costs)
        rows.append([int(h), *map(float, regrets)])
    return rows


def log_spaced_horizons(total: int) -> list[int]:
    """Up to eight log-spaced horizons from 1,000 rounds to `total`."""
    if total <= 1000:
        return [total]
    # sorted(set()), not np.unique, which imports numpy.ma.
    return sorted(set(np.round(np.logspace(3.0, math.log10(total), 8)).astype(int).tolist()))
