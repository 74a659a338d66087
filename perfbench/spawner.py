"""Runs the benchmark's child processes, one at a time, from a small process.

On Linux, exec copies the high-water RSS of the spawning process into the
child's ``ru_maxrss``: a child spawned by the benchmark, after it has parsed a
large table, would report the benchmark's peak, not its own. This process
is started before the benchmark grows, so a child's ``ru_maxrss`` from
``os.wait4`` is its own.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env", "stdout",
"stderr", "timeout"}``; one JSON reply per stdout line, ``{"wall_s",
"maxrss_kb", "code"}``. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"]
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
