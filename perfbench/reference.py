"""Output checks, built on an independent numpy reference of the estimator.

Nothing here imports regretaudit: transcripts are parsed from the file
format and the estimator is recomputed from its definition.

* Propensity weight at the posted price: x_t(posted) = alloc_t / pi_t(posted),
  0 at the other supported prices.
* Pessimistic fill: an unsupported price copies the nearest supported lower
  price, or 1 when there is none.
* M[p, q] = sum_t pi_t(p) x_t(q); substituting p by q gains, per round,
  slope[p, q] * c + intercept[p, q] with
  slope = (M[p, p] - M[p, q]) / T and
  intercept = (l_q M[p, q] - l_p M[p, p]) / T.
* regret(c) = sum_p max_q (slope[p, q] * c + intercept[p, q]).
* margin = (k * l_max / T) * sqrt(2 log(2 k^2 / alpha) * sum_t (1 / min_supp pi_t + 1)^2).
* Verdict: PASS iff regret + margin + d <= 2 r.

The aggregated audit sees only posted prices and allocations. It estimates
each round's distribution by the posted-price frequencies over a window of
L rounds around it (shifted inward at the ends), keeps the prices whose
frequency reaches rho' plus the posted one, renormalizes, and runs the same
estimator; its margin pays for the estimation error. With drift
eps = T ** -gamma, delta = alpha and floor f:

* log_term = log(2 T k / delta), L = ceil(log_term / (2 (eps log_term / 2) ** (2/3)));
* rho' = (eps * log(8 T k^3 / delta)) ** (1/3);
* margin = k (l_max rho' / f) (1 / (f - rho') + 1)
  + sqrt(2 log(8 k^2 / delta) (1 / f + 1)^2 l_max^2 / T).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Relative tolerance between a report and the reference; both sides use
# float64 with the same formulas, so only summation order can differ.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Costs sampled uniformly in [lo, hi] when checking that c_tilde is a minimum.
COST_SAMPLES = 2001


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


@dataclass(frozen=True)
class Columns:
    header: str  # the grid line, verbatim
    levels: np.ndarray  # (k,)
    probs: np.ndarray  # (T, k), 0 off the support
    posted: np.ndarray  # (T,)
    alloc: np.ndarray  # (T,)

    @property
    def rounds(self) -> int:
        return len(self.posted)


def read_columns(path: str) -> Columns:
    """Parse a full transcript file and check the invariants the audit relies on."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        levels = np.asarray(strict_json(header)["grid"], dtype=float)
        k = len(levels)
        probs, posted, alloc = [], [], []
        for t, line in enumerate(fh, start=1):
            rec = strict_json(line)
            if rec["t"] != t:
                raise ValueError(f"round {rec['t']} where {t} was expected")
            row = np.zeros(k)
            row[rec["support"]] = rec["probs"]
            if rec["posted"] not in rec["support"] or min(rec["probs"]) <= 0:
                raise ValueError(f"round {t}: posted price outside a positive support")
            if abs(math.fsum(rec["probs"]) - 1.0) > 1e-9 or not 0.0 <= rec["alloc"] <= 1.0:
                raise ValueError(f"round {t}: probabilities or allocation out of range")
            probs.append(row)
            posted.append(rec["posted"])
            alloc.append(rec["alloc"])
    if not posted:
        raise ValueError("transcript has no rounds")
    return Columns(header, levels, np.asarray(probs), np.asarray(posted), np.asarray(alloc, dtype=float))


def write_reduced(cols: Columns, path: str) -> None:
    """The t/posted/alloc file the aggregated audit reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cols.header)
        for t, (p, a) in enumerate(zip(cols.posted.tolist(), cols.alloc.tolist()), start=1):
            fh.write(json.dumps({"t": t, "posted": p, "alloc": a}) + "\n")


@dataclass(frozen=True)
class Curve:
    slopes: np.ndarray  # (k, k)
    intercepts: np.ndarray  # (k, k)

    def values(self, cs) -> np.ndarray:
        cs = np.asarray(cs, dtype=float)
        lines = self.slopes[None] * cs[:, None, None] + self.intercepts[None]
        return lines.max(axis=2).sum(axis=1)


def estimator_curve(cols: Columns) -> Curve:
    T, k = cols.probs.shape
    rows = np.arange(T)
    support = cols.probs > 0
    weight = cols.alloc / cols.probs[rows, cols.posted]
    at_support = np.zeros((T, k))
    at_support[rows, cols.posted] = weight
    # Index of the nearest supported price at or below each price, -1 if none.
    last = np.maximum.accumulate(np.where(support, np.arange(k), -1), axis=1)
    filled = np.take_along_axis(at_support, np.maximum(last, 0), axis=1)
    xhat = np.where(last >= 0, filled, 1.0)
    m = cols.probs.T @ xhat
    own = np.diag(m)
    lv = cols.levels
    return Curve((own[:, None] - m) / T, (lv[None, :] * m - (lv * own)[:, None]) / T)


def error_margin(cols: Columns, alpha: float) -> float:
    T, k = cols.probs.shape
    smallest = np.where(cols.probs > 0, cols.probs, np.inf).min(axis=1)
    data = float(((1.0 / smallest + 1.0) ** 2).sum())
    return (k * float(cols.levels[-1]) / T) * math.sqrt(2.0 * math.log(2.0 * k * k / alpha) * data)


def aggregated_columns(levels: np.ndarray, posted: np.ndarray, alloc: np.ndarray,
                       gamma: float, alpha: float) -> tuple[Columns, float]:
    """The windowed estimate of every round's distribution, and rho'."""
    T, k = len(posted), len(levels)
    eps = float(T) ** -gamma
    log_term = math.log(2.0 * T * k / alpha)
    window = math.ceil(log_term / (2.0 * (eps * log_term / 2.0) ** (2.0 / 3.0)))
    rho = (eps * math.log(8.0 * T * k**3 / alpha)) ** (1.0 / 3.0)
    starts = np.clip(np.arange(T) - (window - 1) // 2, 0, T - window)
    counts = np.zeros((T, k))
    for p in range(k):
        hits = np.concatenate([[0], np.cumsum(posted == p)])
        counts[:, p] = hits[starts + window] - hits[starts]
    freqs = counts / window
    keep = freqs >= rho
    keep[np.arange(T), posted] = True
    probs = np.where(keep, freqs, 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    return Columns("", levels, probs, posted, alloc), rho


def aggregated_margin(T: int, k: int, l_max: float, rho: float, floor: float, alpha: float) -> float:
    estimation = k * (l_max * rho / floor) * (1.0 / (floor - rho) + 1.0)
    concentration = math.sqrt(
        2.0 * math.log(8.0 * k * k / alpha) * (1.0 / floor + 1.0) ** 2 * l_max * l_max / T)
    return estimation + concentration


def _verdict_problems(report: dict, exit_code: int, r: float) -> list[str]:
    out = []
    want = "PASS" if report["regret"] + report["delta"] + report["d"] <= 2.0 * r else "FAIL"
    if report["verdict"] != want:
        out.append(f"verdict {report['verdict']} but regret + delta + d vs 2r says {want}")
    if exit_code != (0 if report["verdict"] == "PASS" else 2):
        out.append(f"exit code {exit_code} for verdict {report['verdict']}")
    return out


def _curve_problems(report: dict, cols: Columns, lo: float, hi: float) -> list[str]:
    """regret at c_tilde against the reference, and no sampled cost below it."""
    out = []
    c, regret = report["c_tilde"], report["regret"]
    if not lo <= c <= hi:
        out.append(f"c_tilde {c} outside [{lo}, {hi}]")
    curve = estimator_curve(cols)
    ref = float(curve.values([c])[0])
    if not close(regret, ref):
        out.append(f"regret {regret!r} at c_tilde, reference {ref!r}")
    sampled = np.concatenate([np.linspace(lo, hi, COST_SAMPLES), [s[0] for s in report["curve"]]])
    values = curve.values(sampled)
    below = values < regret - max(ABS_TOL, REL_TOL * abs(regret))
    if below.any():
        i = int(np.argmax(below))
        out.append(f"cost {sampled[i]!r} has regret {values[i]!r} below the minimum {regret!r}")
    if report["d"] != 0.0:
        out.append("discretization loss on a non-endogenous audit")
    return out


def _report(text: str) -> tuple[dict | None, list[str]]:
    try:
        return strict_json(text), []
    except ValueError as e:
        return None, [f"report is not strict JSON: {e}"]


def check_audit(text: str, exit_code: int, cols: Columns, lo: float, hi: float,
                r: float, alpha: float) -> list[str]:
    """Problems with an `audit` report against the reference; empty when correct."""
    report, out = _report(text)
    if report is None:
        return out
    if report["rounds"] != cols.rounds or report["threshold_r"] != r or report["alpha"] != alpha:
        out.append("rounds, threshold_r or alpha differ from the command's")
    out += _curve_problems(report, cols, lo, hi)
    ref_delta = error_margin(cols, alpha)
    if not close(report["delta"], ref_delta):
        out.append(f"delta {report['delta']!r}, reference {ref_delta!r}")
    return out + _verdict_problems(report, exit_code, r)


def check_aggregated(text: str, exit_code: int, cols: Columns, lo: float, hi: float,
                     r: float, alpha: float, gamma: float, floor: float) -> list[str]:
    """Problems with an `audit-aggregated` report of seller 1's reduced file."""
    report, out = _report(text)
    if report is None:
        return out
    if report["rounds"] != cols.rounds or report["provenance"] != "aggregated":
        out.append("rounds or provenance differ from the input's")
    samples = [v for _, v in report["curve"]]
    if not samples or report["regret"] != min(samples):
        out.append(f"regret {report['regret']!r} is not the minimum of its curve samples")
    estimated, rho = aggregated_columns(cols.levels, cols.posted, cols.alloc, gamma, alpha)
    out += _curve_problems(report, estimated, lo, hi)
    ref_delta = aggregated_margin(cols.rounds, len(cols.levels), float(cols.levels[-1]), rho, floor, alpha)
    if not close(report["delta"], ref_delta):
        out.append(f"delta {report['delta']!r}, reference {ref_delta!r}")
    return out + _verdict_problems(report, exit_code, r)


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_figures(fig_dir: str, rep0: Columns, replications: int, rounds: int,
                  lo: float, hi: float, points: int) -> list[str]:
    """Problems with the `figures` outputs; rep0 is replication 0's seller-1 transcript."""
    out = []
    pairs = _read_csv(os.path.join(fig_dir, "fig1_pairs.csv"))[1:]
    total = sum(int(row[2]) for row in pairs)
    if total != replications * min(10, rounds):
        out.append(f"fig1 counts total {total}, expected {replications * min(10, rounds)}")
    sweep = np.asarray(_read_csv(os.path.join(fig_dir, "fig2_regret_vs_cost.csv"))[1:], dtype=float)
    if sweep.shape != (points, 3) or not np.allclose(sweep[:, 0], np.linspace(lo, hi, points)):
        out.append(f"fig2 has shape {sweep.shape} or costs off the {points}-point sweep")
    else:
        ref = estimator_curve(rep0).values(sweep[:, 0])
        bad = [i for i in range(points) if not close(float(sweep[i, 1]), float(ref[i]))]
        if bad:
            i = bad[0]
            out.append(f"fig2 estimated regret {sweep[i, 1]!r} at cost {sweep[i, 0]!r}, reference {ref[i]!r}")
        if not np.isfinite(sweep[:, 2]).all():
            out.append("fig2 true regret is not finite")
    horizons = _read_csv(os.path.join(fig_dir, "fig3_regret_vs_horizon.csv"))[1:]
    if not horizons or int(horizons[-1][0]) != rounds:
        out.append("fig3 does not end at the simulated horizon")
    for name in ("fig1_heatmap.svg", "fig2_regret_vs_cost.svg", "fig3_regret_vs_horizon.svg"):
        with open(os.path.join(fig_dir, name), encoding="utf-8") as fh:
            if fh.read(5) != "<svg ":
                out.append(f"{name} is not an SVG document")
    return out
