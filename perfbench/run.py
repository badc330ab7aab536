"""Benchmark runner for the cubegraph CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of search_deep, scan_window, debruijn_cycle, corpus_verify, or
`all` to run each in turn.  With --trace 0 the workload's CLI invocations
run as `python -m cubegraph.cli ...` subprocesses, one at a time (a closed
loop with one client), in passes over the workload until S seconds have
passed; every output is checked.  With --trace 1 the same passes run, then
one traced pass in this process gives the per-layer metrics.  End-to-end
timings are seconds at a fixed reference machine speed (speed.py).  The last
line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the package source is not in ./src.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from speed import CAL_REF_S, SpeedScale
from workloads import check_step, fill, load_oracle, sequence_of, workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
MIN_PASSES = 3
STEP_TIMEOUT_S = 60        # a hung invocation is killed and counts as failed
HARD_CAP_S = 100           # no pass starts later than this, even below MIN_PASSES
SETUP_SAMPLES = 25         # 5 before the first pass, then two after each pass up to 25
SETUP_CODE = "import cubegraph.cli as c; c.build_parser()"


class Invocation:
    """One finished CLI process, started through spawn.py."""

    def __init__(self, argv, env):
        out_path = OUT / "stdout.bin"
        proc = subprocess.run(
            [sys.executable, str(SPAWN), str(out_path), str(STEP_TIMEOUT_S),
             sys.executable, "-m", "cubegraph.cli", *argv],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=2 * STEP_TIMEOUT_S)
        info = json.loads(proc.stdout)
        self.argv = argv
        self.code = info["code"]
        self.wall = info["wall_s"]
        self.cpu = info["cpu_s"]
        self.rss_mb = info["maxrss_kib"] / 1024
        self.stdout = out_path.read_bytes()


def run_pass(wl, env, corpus_path, scale):
    """Run the workload's invocations once, in order, each followed by a
    calibration that gives its scale factors."""
    done, sequence = [], ""
    for argv in wl.steps:
        argv = fill(argv, corpus_path, sequence)
        inv = Invocation(argv, env)
        inv.wall_factor, inv.cpu_factor = scale.factors()
        done.append(inv)
        if argv[0] == "cycle":
            sequence = sequence_of(inv.stdout) or ""
    return done


def setup_sample(env) -> float:
    """Wall time of one fresh interpreter running SETUP_CODE.  The wait
    blocks in waitpid: a wait with a timeout polls in sleeps of up to 50 ms,
    which would round the sample up to the next poll."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT)
    timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)  # a hung start-up is killed
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, proc.args)
    return wall


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when that would not be above the median."""
    n = len(samples)
    if n < 20:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result dict, printable report lines)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    oracle = load_oracle()
    corpus = corpus_path = None
    if wl.corpus_rows:
        from corpus import generate
        corpus = generate(seed, wl.corpus_rows)
        corpus_path = OUT / "corpus.csv"
        corpus_path.write_text(corpus.text, encoding="utf-8")

    setup_sample(env)  # warms the file cache; not a sample
    scale = SpeedScale(wl.workers)
    try:
        return _measure(wl, seed, seconds, trace, env, oracle, corpus, corpus_path, scale)
    finally:
        scale.close()


def _measure(wl, seed, seconds, trace, env, oracle, corpus, corpus_path, scale):
    """The timed passes and, with trace, the traced pass of run_workload."""
    setups, raw_setups = [], []

    def take_setup():
        raw_setups.append(setup_sample(env))
        setups.append(raw_setups[-1] * scale.factors()[0])

    for _ in range(5):
        take_setup()
    walls, cpus, raw_walls, rss, failures = [], [], [], [], []
    attempted = 0
    first_stdout = {}
    t_start = t_pass = time.perf_counter()
    last = 0.0
    while True:
        # stop before a pass that would end after the deadline
        elapsed = time.perf_counter() - t_start
        if len(walls) >= MIN_PASSES and elapsed + last > seconds or elapsed >= HARD_CAP_S:
            break
        done = run_pass(wl, env, corpus_path, scale)
        raw_walls.append(sum(inv.wall for inv in done))
        walls.append(sum(inv.wall * inv.wall_factor for inv in done))
        cpus.append(sum(inv.cpu * inv.cpu_factor for inv in done))
        rss.append(max(inv.rss_mb for inv in done))
        for i, inv in enumerate(done):
            attempted += 1
            reason = check_step(inv.argv, inv.code, inv.stdout, oracle, corpus)
            if reason is None and first_stdout.setdefault(i, inv.stdout) != inv.stdout:
                reason = f"{inv.argv[0]}: stdout differs from the first pass"
            if reason:
                failures.append(reason)
        while len(setups) < min(SETUP_SAMPLES, 5 + 2 * len(walls)):
            take_setup()
        last, t_pass = time.perf_counter() - t_pass, time.perf_counter()

    wall_med = statistics.median(walls)
    metrics = {
        "wall_s": (wall_med, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (statistics.median(wl.items / w for w in walls), "1/s"),
    }
    report = [f"workload {wl.name} (seed {seed}): {len(walls)} passes in "
              f"{time.perf_counter() - t_start:.1f} s, {attempted} invocations, "
              f"{len(failures)} failed, ops_failed_frac {len(failures) / attempted:.4g}"]
    pct = tail(walls)
    report.append(f"  wall_s median of {len(walls)} passes" + (
        f"; p{pct[0]} = {pct[1]:.4f} s" if pct else
        "; no percentile above the median has 10 passes beyond it"))
    report.append("  pass wall_s: " + " ".join(f"{w:.3f}" for w in walls))
    report.append(f"  unscaled: pass wall median {statistics.median(raw_walls):.4f} s, "
                  f"setup median {statistics.median(raw_setups):.4f} s; calibration job "
                  f"median {statistics.median(w for w, _ in scale.cals):.5f} s over {len(scale.cals)} "
                  f"calibrations (reference {CAL_REF_S} s)")
    report.append(f"  setup_s median of {len(setups)} fresh interpreters; "
                  f"items_per_s counts {wl.item_unit} ({wl.items} per pass)")

    if trace:
        import tracing
        sys.path.insert(0, str(ROOT / "src"))
        layer, traced_wall, n, traced_failures, tracer = tracing.traced_run(
            wl, oracle, corpus_path, corpus)
        attempted += n
        failures += traced_failures
        layer.update(tracing.import_times(ROOT, env))
        raw_med = statistics.median(raw_walls)  # the traced pass is not scaled either
        layer["trace.overhead_s"] = (traced_wall - raw_med, "s")
        tracer.write(OUT / f"spans-{wl.name}.tsv")
        report.append(f"  traced pass in one process: {traced_wall:.4f} s against untraced "
                      f"unscaled wall {raw_med:.4f} s (overhead {traced_wall - raw_med:+.4f} s; "
                      f"the traced pass starts no interpreters); "
                      f"{len(tracer.end)} spans in {OUT / f'spans-{wl.name}.tsv'}")
        metrics = layer

    report += [f"  {name:40s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    report += [f"  FAILED: {reason}" for reason in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    names = list(workloads())
    parser = argparse.ArgumentParser(description="cubegraph CLI benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cubegraph" / "cli.py").is_file():
        print(f"error: no cubegraph source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    for name in names if args.workload == "all" else [args.workload]:
        result, report = run_workload(workloads()[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(report))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
