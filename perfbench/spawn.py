"""Run one command with its stdout in a file; print its exit code, wall time
and rusage as one JSON line.

The benchmark starts each CLI process through this small launcher rather
than directly.  On Linux, exec records the peak RSS of the memory image it
replaces in the new program's ru_maxrss, and a child started by Python's
subprocess module still shares its parent's image at that point.  Started
from run.py, which holds the corpus and the outputs it checks, the CLI
would report run.py's memory instead of its own.

Usage: python3 spawn.py STDOUT_FILE TIMEOUT_S COMMAND [ARG ...]
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    out_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        timer = threading.Timer(timeout, proc.kill)  # a hung command is killed
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,  # includes children the command waited for
        "maxrss_kib": ru.ru_maxrss,
    }))


if __name__ == "__main__":
    main()
