"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's contract, runs every workload
once untraced and once traced, and requires each result line to be correct
and to print exactly the metrics BENCHMARK.json declares for its mode. Then
checks that, without the program's sources, the benchmark fails without
printing a result. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SmokeFailure(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def check_declaration(spec: dict) -> None:
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
            "BENCHMARK.json has other keys than the contract's")
    require(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int), "run_seconds")
    require(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
                f"workload {w['name']}")
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            require(set(m) == keys, f"{group} metric {m.get('name')} keys")
            require(UNIT.fullmatch(m["unit"]) is not None and m["better"] in ("higher", "lower"),
                    f"metric {m['name']} unit or direction")
            names.append(m["name"])
            if group == "end_to_end":
                require(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    require(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)),
            "names must be unique and well-formed")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    require(setup["unit"] == "s" and setup["better"] == "lower"
            and setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
            "setup_s must be lower-is-better seconds with the largest bound")


def run_once(command: list[str], workload: str, trace: int, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run_once(spec["command"], workload, trace, ROOT)
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
    problems = [ln for ln in proc.stdout.splitlines() if ln.startswith("problem ")]
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{where}: not correct: {problems}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    require(printed.keys() <= declared.keys(),
            f"{where}: undeclared metrics {sorted(printed.keys() - declared.keys())}")
    require(printed == declared, f"{where}: metrics or units differ from BENCHMARK.json")
    require(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
            f"{where}: non-numeric value")


def check_without_sources(spec: dict) -> None:
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        proc = run_once(spec["command"], spec["workloads"][0]["name"], 0, bare)
        require(proc.returncode != 0 and not proc.stdout.strip(),
                "without the sources the benchmark must fail without a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        check_declaration(spec)
        for w in spec["workloads"]:
            for trace in (0, 1):
                check_run(spec, w["name"], trace)
                print(f"ok {w['name']} --trace {trace}")
        check_without_sources(spec)
        print("ok without sources")
    except SmokeFailure as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
