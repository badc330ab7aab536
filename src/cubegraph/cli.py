"""Command-line surface: residue tables, graphs, cycles, search, corpus checks.

Exit codes are stable across subcommands: 0 success/complete, 1 validation
failure, 2 usage or parse error, and 141 (128 + SIGPIPE), with nothing on
stderr, when stdout is closed before the output ends, as `| head` does.
Output goes to sys.stdout as it is produced, so memory does not grow with
its size; `scan` writes each row as it is verified, and steps by 9 only
to name the infeasible k; up to a corpus's first quote, `verify-corpus`
writes the lines of each block it reads at once.  Identical invocations
produce bytewise-identical results.  sys.stdout buffers it: entrypoint
turns write-through off once, so a run under PYTHONUNBUFFERED too passes
its text on in pieces of 8 KiB, not a system call per line.  stdout
carries results only.  Every error that
stops a run once its arguments parse, such as a bound over the cap, an
unreadable corpus or a record that is not CSV or not UTF-8, reaches main:
it flushes the lines already produced, then writes one `error: <reason>`
line on stderr and exits 2.  So an error found before any output leaves
stdout empty, and one found mid-run keeps every line before it, read from a
file or a pipe alike.  A run started with stdout closed gets that one
`error:` line and exit 2; a run started with stderr closed exits as it
would, with its `error:` line nowhere.  Each subcommand imports its own layer
(residues, search, debruijn, corpus) when it runs, so a process compiles and
loads only the modules its subcommand needs.  On its way out entrypoint
freezes the heap (gc.freeze), so that exit does not free, object by object,
what the process is about to give back whole.
"""

import argparse
import gc
import os
import sys

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_CLOSED_STDOUT = 128 + 13  # the shell's code for a process killed by SIGPIPE


CSV_HEADER = "k,x,y,z,class,path\n"


def _write_csv(out, path, reps) -> int:
    """CSV_HEADER and a row per Representation of the iterable reps, each
    written as it comes: into the file at path, with a one-line note on out,
    or else on out.  Returns the rows written.  No field needs quoting: each
    is an int or a label made of 0, 1, 8 and +."""
    def write(fh):
        fh.write(CSV_HEADER)
        rows = 0
        for rep in reps:
            fh.write(f"{rep.k},{rep.x},{rep.y},{rep.z},{rep.k % 9},{rep.path}\n")
            rows += 1
        return rows

    if not path:
        return write(out)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        rows = write(fh)
    out.write(f"wrote {rows} row(s) to {path}\n")
    return rows


def cmd_classes(args, out) -> int:
    from . import residues

    for z in range(9):
        triples = residues.decompose(z)
        if not triples:
            out.write(f"class {z}: infeasible (no residue triple sums to {z} mod 9)\n")
            continue
        for i, t in enumerate(triples):
            spellings = " | ".join(map(residues.spell, residues.signed_spellings(t)))
            prefix = f"class {z}:" if i == 0 else "        "
            out.write(f"{prefix} {residues.spell(t)}  [{spellings}]\n")
    return EXIT_OK


def _graph(alphabet: str, order: int, fixture: str | None):
    """The (alphabet, order, edges) of the graph a command names: a fixture's
    ternary edge subset, or with no fixture (None or "full") the full graph
    B(alphabet, order).  A fixture ignores --alphabet, which is not parsed."""
    from . import debruijn

    edges = debruijn.FIXTURE_EDGES.get(fixture)
    if edges is None:
        return debruijn.Alphabet.from_string(alphabet), order, None
    return debruijn.TERNARY_ALPHABET, 3, edges


def cmd_graph(args, out) -> int:
    from . import debruijn

    nodes, edges, lines = debruijn.dot_lines(
        *_graph(args.alphabet, args.order, args.subgraph),
        name=args.subgraph or f"debruijn_{args.alphabet}_{args.order}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        out.write(f"wrote DOT ({nodes} nodes, {edges} edges) to {args.dot}\n")
    else:
        out.writelines(lines)
    return EXIT_OK


def cmd_cycle(args, out) -> int:
    from . import debruijn

    try:  # an edge subset may not be Eulerian
        seq = debruijn.debruijn_sequence(*_graph(args.alphabet, args.order, args.subgraph))
    except debruijn.NotEulerianError as err:
        out.write(f"no Eulerian circuit: {err}\n")
        return EXIT_INVALID
    out.write(f"sequence: {seq}\nlength: {len(seq)}\n")
    return EXIT_OK


def cmd_validate(args, out) -> int:
    from . import debruijn

    if args.cycle == "-" and sys.stdin is None:  # fd 0 was closed at start-up
        raise ValueError("stdin is closed")
    # a long claim does not fit in one command-line argument (128 KiB on Linux)
    cycle = sys.stdin.read().removesuffix("\n") if args.cycle == "-" else args.cycle
    covered, total, missing, extra, duplicates = debruijn.coverage(
        cycle, *_graph(args.alphabet, args.order, args.against))
    exact = covered == total and not extra and not duplicates
    out.write(f"windows: {len(cycle)}\ncovered: {covered}/{total}\nmissing ({total - covered}):")
    out.writelines(" " + g for g in missing)  # up to k^n grams: named as they are written
    out.write(f"\nextra ({len(extra)}):{''.join(' ' + g for g in extra)}\n"
              f"duplicates: {', '.join(f'{g} x{c}' for g, c in duplicates) or 'none'}\n"
              f"complete: {'yes' if covered == total else 'no'}\n"
              f"exact: {'yes' if exact else 'no'}\n")
    return EXIT_OK if exact else EXIT_INVALID


def cmd_search(args, out) -> int:
    from . import residues, search

    result = search.search_k(args.k, args.bound)
    _write_csv(out, args.out, result.representations)
    if result.skipped:
        out.write(f"k={args.k}: infeasible (class {residues.class_of(args.k)})\n")
    else:
        out.write(f"k={args.k}: {len(result.representations)} representation(s) "
                  f"with |x|,|y|,|z| <= {args.bound}\n")
    return EXIT_OK


def cmd_scan(args, out) -> int:
    from . import search

    if args.k_from > args.k_to:
        raise ValueError(f"--from {args.k_from} is greater than --to {args.k_to}")
    bounds = search.SearchBounds(args.bound, (args.k_from, args.k_to))
    found = _write_csv(out, args.out, search.iter_scan(bounds))  # each row as it comes
    # which k are infeasible depends on the range alone: a second pass names
    # them, base + 4 and base + 5 (classes 4 and 5) for each multiple of 9, base
    ks = range(args.k_from, args.k_to + 1)
    skipped = 0
    for base in range(args.k_from - args.k_from % 9, args.k_to + 1, 9):
        for k in (base + 4, base + 5):
            if k in ks:
                skipped += 1
                out.write(f"k={k}: infeasible (class {k - base})\n")
    out.write(f"scanned {len(ks)} value(s) of k: {found} representation(s), "
              f"{skipped} infeasible\n")
    return EXIT_OK


def cmd_verify_corpus(args, out) -> int:
    from . import corpus

    valid, invalid, parse_errors = corpus.verify(args.corpus, out)
    out.write(f"{valid} valid, {invalid} invalid, {parse_errors} parse error(s)\n")
    if parse_errors:
        return EXIT_USAGE
    return EXIT_OK if invalid == 0 else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubegraph",
        description="Mod-9 residue analysis, De Bruijn cycles, and bounded "
                    "search for x^3 + y^3 + z^3 = k.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classes", help="residue classes 0..8 with their cubic "
                   "residue triples and signed spellings").set_defaults(func=cmd_classes)

    p = sub.add_parser("graph", help="emit a De Bruijn graph (or a named "
                       "subgraph fixture) as DOT")
    _graph_flags(p)
    p.add_argument("--dot", metavar="FILE", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cycle", help="print the deterministic De Bruijn / "
                       "Eulerian cycle of a graph")
    _graph_flags(p)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("validate", help="check a cyclic string's windows "
                       "against an edge set")
    p.add_argument("cycle", help="cyclic sequence, e.g. 00010111, or - to read it "
                                 "from stdin (one trailing newline is dropped)")
    p.add_argument("--alphabet", default="018")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--against", choices=["full", "E0", "E1", "E2"], default="full")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("search", help="find all representations of one k "
                       "within a bound")
    p.add_argument("k", type=int)
    p.add_argument("--bound", type=int, required=True, metavar="B")
    p.add_argument("--out", metavar="FILE.csv")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("scan", help="search every k in an inclusive range")
    p.add_argument("--from", dest="k_from", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="k_to", type=int, required=True, metavar="B")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", metavar="FILE.csv")
    p.add_argument("--workers", type=int, default=None,
                   help="kept for compatibility; has no effect (output is "
                        "identical for any value)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-corpus", help="verify a CSV of claimed "
                       "solutions with header k,x,y,z")
    p.add_argument("corpus", metavar="FILE.csv")
    p.set_defaults(func=cmd_verify_corpus)
    return parser


def _graph_flags(p):
    p.add_argument("--alphabet", default="018", help="distinct single-char symbols")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--subgraph", choices=["E0", "E1", "E2"],
                   help="named ternary fixture (overrides alphabet/order)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args, sys.stdout)
        finally:
            sys.stdout.flush()  # what was produced before an error comes first
    except BrokenPipeError:
        return EXIT_CLOSED_STDOUT  # the reader is gone: there is no one to tell
    except (ValueError, OSError) as err:
        _error(err)
        return EXIT_USAGE


def _error(reason):
    """The `error:` line on stderr.  With fd 2 closed at start-up sys.stderr
    is None, and print(file=None) would write to stdout: then it goes nowhere."""
    if sys.stderr is not None:
        print(f"error: {reason}", file=sys.stderr)


def entrypoint():
    if sys.stdout is None:  # fd 1 was closed at start-up: not a reader that went away
        _error("stdout is closed")
        sys.exit(EXIT_USAGE)
    sys.stdout.reconfigure(write_through=False)  # PYTHONUNBUFFERED sets it: a syscall a line
    code = main()
    if code == EXIT_CLOSED_STDOUT:
        # the interpreter flushes stdout once more on exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # Exit would walk and free the ~12,000 GC-tracked objects that site,
    # argparse and the layers made, only to hand the memory back to the OS.
    # Frozen objects are left out of the interpreter's last collection: that
    # saves 4-6 ms a process (`classes` 45.2 -> 40.6 ms, `python -c pass`
    # 37.1 -> 33.1 ms, medians of 40 alternating CLI runs, CPython 3.11 on a
    # 2-vCPU x86-64 machine).  atexit handlers, the last flush and the exit
    # code are as before, and a profiler such as cProfile still sees the run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
