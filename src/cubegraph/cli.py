"""Command-line surface: residue tables, graphs, cycles, search, corpus checks.

Exit codes are stable across subcommands: 0 success/complete, 1 validation
failure, 2 usage or parse error, and 141 (128 + SIGPIPE), with nothing on
stderr, when stdout is closed before the output ends, as `| head` does.
Output is written as it is produced, in pieces of about 64 KiB (see _Out),
so memory does not grow with its size; identical invocations still produce
bytewise-identical results.  A usage error found before any output leaves
stdout empty.  One found mid-run, such as a corpus record that is not CSV
or not UTF-8, keeps every line already produced on stdout, then adds its
message and exits 2.  verify-corpus decodes its input a line at a time, so
such an error keeps every row before the bad line, read from a file or a
pipe alike.
"""

import argparse
import csv
import os
import sys
from itertools import islice

from . import debruijn, residues, search

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_CLOSED_STDOUT = 128 + 13  # the shell's code for a process killed by SIGPIPE


class _Out:
    """Text bound for stdout, passed on in pieces of at least CHUNK
    characters, and the rest on flush().  With PYTHONUNBUFFERED set, each
    sys.stdout.write is one system call, so a write per line would cost
    more than the lines.  sys.stdout is looked up at each write: a caller
    may have swapped it, as contextlib.redirect_stdout does."""

    CHUNK = 1 << 16

    def __init__(self):
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str):
        self._parts.append(text)
        self._size += len(text)
        if self._size >= self.CHUNK:
            self.flush()

    def writelines(self, lines):
        """Write each string of an iterable, joined a batch at a time."""
        lines = iter(lines)
        while batch := "".join(islice(lines, 1024)):
            self.write(batch)

    def flush(self):
        if self._parts:
            text = "".join(self._parts)
            self._parts.clear()
            self._size = 0
            sys.stdout.write(text)


CSV_HEADER = ["k", "x", "y", "z", "class", "path"]


def _write_csv(out: _Out, path, results: list[search.SearchResult]):
    """CSV_HEADER and a row per representation: into the file at path, with
    a one-line note on out, or else on out."""
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([rep.k, rep.x, rep.y, rep.z, residues.class_of(rep.k), rep.path]
                         for res in results for rep in res.representations)

    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        out.write(f"wrote {sum(len(res.representations) for res in results)} row(s) to {path}\n")
    else:
        write(out)


def cmd_classes(args, out: _Out) -> int:
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
    edges = debruijn.FIXTURE_EDGES.get(fixture)
    if edges is None:
        return debruijn.Alphabet.from_string(alphabet), order, None
    return debruijn.TERNARY_ALPHABET, 3, edges


def cmd_graph(args, out: _Out) -> int:
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


def cmd_cycle(args, out: _Out) -> int:
    try:  # an edge subset may not be Eulerian
        seq = debruijn.debruijn_sequence(*_graph(args.alphabet, args.order, args.subgraph))
    except debruijn.NotEulerianError as err:
        out.write(f"no Eulerian circuit: {err}\n")
        return EXIT_INVALID
    out.write(f"sequence: {seq}\nlength: {len(seq)}\n")
    return EXIT_OK


def cmd_validate(args, out: _Out) -> int:
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


def cmd_search(args, out: _Out) -> int:
    result = search.search_k(args.k, search.SearchBounds(args.bound))
    _write_csv(out, args.out, [result])
    if result.skipped:
        out.write(f"k={args.k}: infeasible (class {residues.class_of(args.k)})\n")
    else:
        out.write(f"k={args.k}: {len(result.representations)} representation(s) "
                  f"with |x|,|y|,|z| <= {args.bound}\n")
    return EXIT_OK


def cmd_scan(args, out: _Out) -> int:
    if args.k_from > args.k_to:
        raise search.SearchBoundsError(
            f"--from {args.k_from} is greater than --to {args.k_to}")
    results = search.scan_range(search.SearchBounds(args.bound, (args.k_from, args.k_to)))
    _write_csv(out, args.out, results)
    skipped = found = 0
    for res in results:
        if res.skipped:
            skipped += 1
            out.write(f"k={res.k}: infeasible (class {residues.class_of(res.k)})\n")
        else:
            found += len(res.representations)
    out.write(f"scanned {len(results)} value(s) of k: {found} representation(s), "
              f"{skipped} infeasible\n")
    return EXIT_OK


def _row_dict(header: list[str], row: list[str]) -> dict:
    """The row as csv.DictReader shows it: a repeated name keeps its last
    cell, a short row's missing cells are None, a long row's extra cells are
    listed under the key None."""
    d = dict(zip(header, row))
    if len(header) < len(row):
        d[None] = row[len(header):]
    for name in header[len(row):]:
        d[name] = None
    return d


def _utf8_lines(fh):
    """The lines of the binary file fh as csv.reader counts them, ended by
    \n, \r\n or \r, each decoded from UTF-8 on its own.  So a line that is
    not UTF-8 raises only when csv.reader asks for it, after every record
    before it, and the error's position counts from the start of that line.
    A byte-order mark is not part of the first column's name: it is dropped
    from line 1, after decoding, so its 3 bytes count in a position there."""
    lines = (line.decode("utf-8")
             for chunk in fh  # ends at \n, and may hold lines ended by \r
             for line in chunk.splitlines(keepends=True))
    first = next(lines, None)
    if first is not None:
        yield first.removeprefix("\ufeff")
        yield from lines


def cmd_verify_corpus(args, out: _Out) -> int:
    parse_errors = invalid = valid = 0
    try:
        with open(args.corpus, "rb") as fh:
            reader = csv.reader(_utf8_lines(fh))
            header = next(reader, None)  # the first record, even a blank one
            if header is None or not {"k", "x", "y", "z"} <= set(header):
                out.write(f"{args.corpus}: header must contain columns k,x,y,z\n")
                return EXIT_USAGE
            column = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
            ik, ix, iy, iz = column["k"], column["x"], column["y"], column["z"]
            for row in reader:
                if not row:
                    continue  # a blank line
                # the file line the record ends on: a quoted field can span lines
                i = reader.line_num
                try:
                    # a short row raises IndexError.  int alone would strip
                    # too, but not the separators \x1c-\x1f
                    k, x, y, z = (int(row[ik].strip()), int(row[ix].strip()),
                                  int(row[iy].strip()), int(row[iz].strip()))
                except (IndexError, ValueError):
                    parse_errors += 1
                    out.write(f"line {i}: parse error in {_row_dict(header, row)!r}\n")
                    continue
                try:
                    path = residues.label_solution(x, y, z, k)  # same for any term order
                except residues.CubeSumMismatch as err:
                    invalid += 1
                    out.write(f"line {i}: k={k} ({x},{y},{z}) "
                              f"INVALID sum={residues.exact_str(err.actual_sum)}\n")
                    continue
                valid += 1
                signed = residues.signed_spelling_for(x, y, z)
                out.write(f"line {i}: k={k} ({x},{y},{z}) OK "
                          f"class={residues.class_of(k)} "
                          f"path={path} signed={signed}\n")
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        out.write(f"{args.corpus}: line {reader.line_num}: {err}\n")
        return EXIT_USAGE
    except UnicodeDecodeError as err:  # from the line after the last one read
        out.write(f"{args.corpus}: line {reader.line_num + 1}: {err}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        raise  # stdout is closed: nothing was wrong with the corpus
    except OSError as err:
        out.write(f"cannot read corpus: {err}\n")
        return EXIT_USAGE

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
                   help="kept for compatibility; has no effect (the scan is "
                        "one in-process sweep, output is identical for any value)")
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
    out = _Out()
    try:
        try:
            return args.func(args, out)
        finally:
            out.flush()  # what was produced before an error comes first
    except residues.CubeSumMismatch:
        raise  # a search hit that fails its exact recheck is a bug, not bad input
    except BrokenPipeError:
        return EXIT_CLOSED_STDOUT  # the reader is gone: there is no one to tell
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()  # output that fit the buffer meets a closed reader here
    except BrokenPipeError:
        code = EXIT_CLOSED_STDOUT
    if code == EXIT_CLOSED_STDOUT:
        # the interpreter flushes stdout once more on exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
