"""Traced in-process run of a workload, for the per-layer metrics.

The public functions of `residues`, `search` and `debruijn` are wrapped by
replacing module attributes at run time; names a module re-imported from
another (such as `search.label_solution`) are replaced too.  Each call
records a span (name, start, end, parent span, run id) in memory; counters
are read off return values at the same boundaries.  Self time is a span's
duration minus its children's.  No public function of the package recurses,
so a name's busy time is the plain sum of its spans.
"""

import contextlib
import inspect
import io
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from itertools import product

from workloads import check_step, fill, sequence_of

LAYERS = ("residues", "search", "debruijn", "cli")
SUB_RUN = 1000  # run ids of spans outside the traced CLI invocations
W2_RUN = 1001


class Tracer:
    """In-memory span store with one flat array per field."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = 0
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """fn with a span around every call; count(args, kwargs, result,
        counters) updates counters from a returned result."""
        nid = self._name_id(name)
        names, parents, runs, starts, ends = self.name, self.parent, self.run, self.start, self.end
        stack, clock, counters = self.stack, time.perf_counter, self.counters

        def traced(*args, **kwargs):
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result, counters)
            return result

        return traced

    def record(self, name: str, start: float, end: float, run: int):
        """A span timed by the caller, outside the wrapped calls."""
        self.name.append(self._name_id(name))
        self.parent.append(-1)
        self.run.append(run)
        self.start.append(start)
        self.end.append(end)

    def totals(self, runs) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, busy seconds, self seconds) over spans of the given runs."""
        start, end = self.start, self.end
        child = array("d", bytes(8 * len(end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, busy, own = Counter(), Counter(), Counter()
        runs = set(runs)
        for i, (nid, run) in enumerate(zip(self.name, self.run)):
            if run in runs:
                dur = end[i] - start[i]
                calls[nid] += 1
                busy[nid] += dur
                own[nid] += dur - child[i]
        return {self.names[nid]: (calls[nid], busy[nid], own[nid]) for nid in calls}

    def write(self, path):
        """All spans as tab-separated text, one per line, with times in
        nanoseconds from the start of the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{self.run[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
                for i in range(len(self.end)))


def _count_search_k(args, kwargs, result, counters):
    counters["search_k.pairs"] += result.stats.pairs_scanned
    counters["search_k.z_pruned"] += result.stats.z_pruned
    counters["search_k.hits"] += len(result.representations)
    if not result.skipped:
        bounds = args[1] if len(args) > 1 else kwargs["bounds"]
        bound = bounds if isinstance(bounds, int) else bounds.bound
        counters["search_k.z_total"] += 2 * bound + 1


def _count_scan_range(args, kwargs, result, counters):
    counters["scan_range.k"] += len(result)
    counters["scan_range.skipped"] += sum(r.skipped for r in result)


def _count_circuit(args, kwargs, result, counters):
    counters["eulerian_circuit.edges"] += len(result)


COUNTERS = {
    "search.search_k": _count_search_k,
    "search.scan_range": _count_scan_range,
    "debruijn.eulerian_circuit": _count_circuit,
}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every public function of residues, search and debruijn, wherever
    the package holds a reference to it, and cli.main; restore on exit."""
    import cubegraph
    from cubegraph import cli, debruijn, residues, search

    holders = (cubegraph, residues, search, debruijn, cli)
    wrapped = {}
    for mod in (residues, search, debruijn):
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{short}.{attr}"
                wrapped[fn] = tracer.wrap(name, fn, COUNTERS.get(name))
    wrapped[cli.main] = tracer.wrap("cli.main", cli.main)

    saved = []
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])
    try:
        yield
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


def _sub_graph(order: int):
    """The balanced, strongly connected subgraph of B(01, order) whose edges
    have at most (order - 1) // 2 ones: 2^(order-1) edges, not the full graph."""
    from cubegraph import debruijn

    alphabet = debruijn.Alphabet.from_string("01")
    limit = (order - 1) // 2
    edges = frozenset(e for e in ("".join(p) for p in product("01", repeat=order))
                      if e.count("1") <= limit)
    return debruijn.DeBruijnGraph(alphabet, order, edges)


def _one_worker(argv):
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return argv


def traced_run(wl, oracle, corpus_path=None, corpus=None):
    """Run the workload's invocations once through cli.main in this process,
    traced.  Returns (per-layer metrics without import times, traced wall
    time, invocations attempted, failure reasons, tracer)."""
    from cubegraph import cli, debruijn, search

    tracer = Tracer()
    failures, attempted = [], 0
    outputs = []
    with patched(tracer):
        main = cli.main  # the traced one
        t0 = time.perf_counter()
        sequence = None
        for run_id, argv in enumerate(wl.steps):
            tracer.run_id = run_id
            argv = fill(argv, corpus_path, sequence)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(_one_worker(argv))  # spans in pool processes would be lost
            out = buf.getvalue().encode("utf-8")
            outputs.append((argv, code, out))
            if argv[0] == "cycle":
                sequence = sequence_of(out) or ""
        wall = time.perf_counter() - t0

    for argv, code, out in outputs:
        attempted += 1
        reason = check_step(argv, code, out, oracle, corpus)
        if reason:
            failures.append(f"traced {reason}")

    n_steps = len(wl.steps)
    totals = tracer.totals(range(n_steps))
    c = tracer.counters

    if any(a[0] == "scan" for a in wl.steps):
        args = cli.build_parser().parse_args(next(a for a in wl.steps if a[0] == "scan"))
        bounds = search.SearchBounds(args.bound, (args.k_from, args.k_to))
        t = time.perf_counter()
        search.scan_range(bounds, workers=args.workers)
        tracer.record("search.scan_range.w2", t, time.perf_counter(), W2_RUN)

    if wl.sub_order:
        graph = _sub_graph(wl.sub_order)
        t = time.perf_counter()
        circuit = debruijn.eulerian_circuit(graph)
        tracer.record("debruijn.eulerian_circuit.sub", t, time.perf_counter(), SUB_RUN)
        attempted += 1
        if len(circuit) != len(graph.edges) or set(circuit) != graph.edges:
            failures.append("subgraph circuit does not use every edge exactly once")
        else:
            try:
                debruijn.circuit_to_sequence(circuit)  # checks the circuit chains and closes
            except ValueError as err:
                failures.append(f"subgraph circuit: {err}")

    def busy(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    extra = tracer.totals([W2_RUN, SUB_RUN])
    w1 = busy("search.scan_range")
    w2 = extra.get("search.scan_range.w2", (0, 0.0, 0.0))[1]
    sk_busy = busy("search.search_k")
    circ_busy = busy("debruijn.eulerian_circuit")
    stdout_bytes = sum(len(out) for _, _, out in outputs)
    module_self = Counter()
    for name, (_, _, own) in totals.items():
        module_self[name.split(".", 1)[0]] += own

    metrics = {
        "search.search_k.calls": (calls("search.search_k"), "count"),
        "search.search_k.busy_s": (sk_busy, "s"),
        "search.search_k.pairs": (c["search_k.pairs"], "count"),
        "search.search_k.pairs_per_s": (ratio(c["search_k.pairs"], sk_busy), "1/s"),
        "search.search_k.z_pruned_frac": (ratio(c["search_k.z_pruned"], c["search_k.z_total"]), "ratio"),
        "search.search_k.hits_per_mpair": (ratio(c["search_k.hits"], c["search_k.pairs"] / 1e6), "1/Mpair"),
        "search.scan_range.busy_s": (w2, "s"),
        "search.scan_range.w1_busy_s": (w1, "s"),
        "search.scan_range.parallel_eff": (ratio(w1, 2 * w2), "ratio"),
        "search.scan_range.skipped_frac": (ratio(c["scan_range.skipped"], c["scan_range.k"]), "ratio"),
        "search.verify.calls": (calls("search.verify"), "count"),
        "search.verify.busy_s": (busy("search.verify"), "s"),
        "search.self_s": (module_self["search"], "s"),
        "residues.label_solution.calls": (calls("residues.label_solution"), "count"),
        "residues.label_solution.busy_s": (busy("residues.label_solution"), "s"),
        "residues.signed_spelling_for.busy_s": (busy("residues.signed_spelling_for"), "s"),
        "residues.self_s": (module_self["residues"], "s"),
        "debruijn.build_graph.busy_s": (busy("debruijn.build_graph"), "s"),
        "debruijn.eulerian_status.busy_s": (busy("debruijn.eulerian_status"), "s"),
        "debruijn.eulerian_circuit.busy_s": (circ_busy, "s"),
        "debruijn.eulerian_circuit.edges_per_s": (ratio(c["eulerian_circuit.edges"], circ_busy), "1/s"),
        "debruijn.eulerian_circuit.sub_busy_s": (
            extra.get("debruijn.eulerian_circuit.sub", (0, 0.0, 0.0))[1], "s"),
        "debruijn.circuit_to_sequence.busy_s": (busy("debruijn.circuit_to_sequence"), "s"),
        "debruijn.validate_cycle.busy_s": (busy("debruijn.validate_cycle"), "s"),
        "debruijn.self_s": (module_self["debruijn"], "s"),
        "cli.main.busy_s": (busy("cli.main"), "s"),
        "cli.self_s": (module_self["cli"], "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(tracer.end), "count"),
    }
    return metrics, wall, attempted, failures, tracer


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+cubegraph\.(\w+)\s*$")


def import_times(root, env, samples: int = 5) -> dict[str, tuple[float, str]]:
    """Median self import time of each layer, and search's cumulative time,
    from `python -X importtime -c "import cubegraph.cli"` in fresh processes."""
    self_us = {layer: [] for layer in LAYERS}
    search_cum = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cubegraph.cli"],
                              env=env, cwd=root, capture_output=True, text=True, timeout=60,
                              check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3) in self_us:
                self_us[m.group(3)].append(int(m.group(1)))
                if m.group(3) == "search":
                    search_cum.append(int(m.group(2)))
    metrics = {f"{layer}.import_s": (statistics.median(v) / 1e6 if v else 0.0, "s")
               for layer, v in self_us.items()}
    metrics["search.import_cum_s"] = (statistics.median(search_cum) / 1e6 if search_cum else 0.0, "s")
    return metrics
