"""Machine-speed calibration for the benchmark's timings.

The shared machine the benchmark runs on changes speed by tens of percent
over seconds to minutes, and CPU time moves with wall time, so the drift is
in the machine and not in the program.  The benchmark times a fixed
pure-Python job (the calibration) just before and just after each timed
step, and reports the step's time multiplied by CAL_REF_S over the mean of
the two calibrations: seconds at the reference speed, at which the job takes
CAL_REF_S.  Wall times are scaled by the job's wall time, CPU times by its
CPU time.  The job calls nothing in cubegraph, so a change to the program
moves the scaled time as much as the raw one.

A workload whose CLI runs N worker processes is calibrated by N copies of
the job at once: this process runs one, and N - 1 helper processes, started
from this file and idle between calibrations, run the others.

Usage as a helper: python3 speed.py  (per stdin line, one calibration's wall and CPU time)
"""

import gc
import statistics
import subprocess
import sys
import time

CAL_REPS = 8        # runs of the job per calibration
CAL_REF_S = 0.020   # the job's time at the reference speed: 2 vCPUs of a shared x86-64 host


def _cal_job():
    """A fixed pure-Python job: big-int cubes, dict stores and string joins,
    the kinds of work the CLI does."""
    table, parts, acc = {}, [], 0
    for i in range(1, 25_001):
        c = (i * 1_000_003 + 12_345_678_901) ** 3
        table[c % 65_521] = c
        acc ^= c >> 40
        if i % 7 == 0:
            parts.append(f"{i},{c % 9}")
    return acc, len(table), len(",".join(parts))


def calibrate() -> tuple[float, float]:
    """Mean wall and CPU time of one run of the job, in seconds, over
    CAL_REPS runs, with the collector off so that the caller's own heap does
    not count.  A mean, like the step it scales, takes in every slow moment."""
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(CAL_REPS):
            _cal_job()
        return (time.perf_counter() - t0) / CAL_REPS, (time.process_time() - c0) / CAL_REPS
    finally:
        gc.enable()


class SpeedScale:
    """Scale factors for consecutive timed steps.  Call factors() right
    after each step; close() stops the helpers."""

    def __init__(self, procs: int = 1):
        self.helpers = [subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
                        for _ in range(procs - 1)]
        self.cals = [self._calibrate()]

    def _calibrate(self) -> tuple[float, float]:
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [calibrate()] + [tuple(map(float, helper.stdout.readline().split()))
                                 for helper in self.helpers]
        return statistics.mean(w for w, _ in times), statistics.mean(c for _, c in times)

    def factors(self) -> tuple[float, float]:
        """Scale factors for the wall and for the CPU time of the step that
        ended just now.  CPU time is scaled by the job's CPU time: time the
        host takes the CPU away counts in wall time but not in CPU time."""
        self.cals.append(self._calibrate())
        (w0, c0), (w1, c1) = self.cals[-2:]
        return 2 * CAL_REF_S / (w0 + w1), 2 * CAL_REF_S / (c0 + c1)

    def close(self):
        for helper in self.helpers:
            helper.stdin.close()  # the helper exits at end of input
            helper.wait()
            helper.stdout.close()


def main():
    for _ in sys.stdin:
        print(*calibrate(), flush=True)


if __name__ == "__main__":
    main()
