"""Runs the benchmark's commands from a small process and reports each one's rusage.

Linux carries the parent's resident set into a child's ru_maxrss across
fork or vfork and exec, so a child of the benchmark process (numpy plus the
parsed reference transcripts) would report the benchmark's peak, not its
own. This process stays small, so the peak RSS it reports is the
command's.

Protocol: one JSON request per stdin line,
{"argv", "env", "cwd", "stdout", "stderr", "timeout_s"}; one JSON reply per
stdout line, {"returncode", "wall_s", "maxrss_kb"}. Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
