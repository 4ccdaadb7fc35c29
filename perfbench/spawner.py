"""Runs the benchmark's child processes from a process that stays small.

On Linux a child's ru_maxrss also counts the peak memory of the process it was
forked from, so children forked by run.py, which grows while it generates
inputs, would report run.py's peak instead of their own. run.py starts this
process first and sends it one JSON request per line on stdin:

    {"argv": [...], "cwd": "...", "env": {...}, "timeout": s, "stdout": path, "stderr": path}

and reads one JSON reply per line on stdout: {"wall_s", "code", "maxrss_kib"}.
A child still running after its timeout is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "w", encoding="utf-8") as out, \
            open(req["stderr"], "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
