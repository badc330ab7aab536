"""Command-line surface: residue tables, graphs, cycles, search, corpus checks.

Exit codes are stable across subcommands: 0 success/complete, 1 validation
failure, 2 usage or parse error.  All output is assembled first and written
once, so identical invocations produce bytewise-identical results.
"""

import argparse
import csv
import io
import sys

from . import debruijn, residues, search

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


def _representation_rows(results: list[search.SearchResult]) -> list[list]:
    rows = []
    for res in results:
        for rep in res.representations:
            rows.append([rep.k, rep.x, rep.y, rep.z,
                         residues.class_of(rep.k), rep.path.spell()])
    return rows


def _emit_csv(out_path, header, rows, lines):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        lines.append(f"wrote {len(rows)} row(s) to {out_path}")
    else:
        lines.append(text.rstrip("\n"))


def cmd_classes(args) -> tuple[int, str]:
    lines = []
    for z in range(9):
        triples = sorted(residues.decompose(z))
        if not triples:
            lines.append(f"class {z}: infeasible (no residue triple sums to {z} mod 9)")
            continue
        for i, t in enumerate(triples):
            spellings = " | ".join(s.spell() for s in sorted(residues.signed_spellings(t)))
            prefix = f"class {z}:" if i == 0 else "        "
            lines.append(f"{prefix} {t.spell()}  [{spellings}]")
    return EXIT_OK, "\n".join(lines)


def cmd_graph(args) -> tuple[int, str]:
    if args.subgraph:
        graph = debruijn.fixture_subgraph(args.subgraph)
    else:
        graph = debruijn.build_graph(debruijn.Alphabet.from_string(args.alphabet), args.order)
    name = args.subgraph or f"debruijn_{args.alphabet}_{args.order}"
    text = debruijn.to_dot(graph, name=name)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
        return EXIT_OK, (f"wrote DOT ({len(graph.nodes)} nodes, "
                         f"{len(graph.edges)} edges) to {args.dot}")
    return EXIT_OK, text.rstrip("\n")


def cmd_cycle(args) -> tuple[int, str]:
    if args.subgraph:  # an edge subset may not be Eulerian: walk it with Hierholzer
        try:
            circuit = debruijn.eulerian_circuit(debruijn.fixture_subgraph(args.subgraph))
        except debruijn.NotEulerianError as err:
            return EXIT_INVALID, f"no Eulerian circuit: {err.status.describe()}"
        seq = debruijn.circuit_to_sequence(circuit)
    else:  # a full graph always is, and its sequence needs no graph
        seq = debruijn.debruijn_sequence(debruijn.Alphabet.from_string(args.alphabet), args.order)
    return EXIT_OK, f"sequence: {seq}\nlength: {len(seq)}"


def cmd_validate(args) -> tuple[int, str]:
    # a long claim does not fit in one command-line argument (128 KiB on Linux)
    cycle = sys.stdin.read().removesuffix("\n") if args.cycle == "-" else args.cycle
    if args.against == "full":
        alphabet = debruijn.Alphabet.from_string(args.alphabet)
        report = debruijn.validate_full(cycle, alphabet, args.order)
    else:
        alphabet = debruijn.TERNARY_ALPHABET
        report = debruijn.validate_cycle(cycle, debruijn.FIXTURE_EDGES[args.against])
    # a symbol outside the alphabet is a usage error, reported after a bad
    # order or an empty sequence
    alphabet.check_gram(cycle)

    key = alphabet.sort_key
    lines = [
        f"windows: {len(cycle)}",
        f"covered: {len(report.covered)}/{len(report.covered) + len(report.missing)}",
        f"missing ({len(report.missing)}): {' '.join(sorted(report.missing, key=key))}".rstrip(),
        f"extra ({len(report.extra)}): {' '.join(sorted(report.extra, key=key))}".rstrip(),
        "duplicates: " + (", ".join(f"{g} x{c}" for g, c in report.duplicates) or "none"),
        f"complete: {'yes' if report.complete else 'no'}",
        f"exact: {'yes' if report.exact else 'no'}",
    ]
    return (EXIT_OK if report.exact else EXIT_INVALID), "\n".join(lines)


CSV_HEADER = ["k", "x", "y", "z", "class", "path"]


def cmd_search(args) -> tuple[int, str]:
    result = search.search_k(args.k, search.SearchBounds(args.bound))
    lines = []
    _emit_csv(args.out, CSV_HEADER, _representation_rows([result]), lines)
    if result.skipped:
        lines.append(f"k={args.k}: infeasible (class {residues.class_of(args.k)})")
    else:
        lines.append(f"k={args.k}: {len(result.representations)} representation(s) "
                     f"with |x|,|y|,|z| <= {args.bound}")
    return EXIT_OK, "\n".join(lines)


def cmd_scan(args) -> tuple[int, str]:
    if args.k_from > args.k_to:
        raise search.SearchBoundsError(
            f"--from {args.k_from} is greater than --to {args.k_to}")
    results = search.scan_range(search.SearchBounds(args.bound, (args.k_from, args.k_to)))
    lines = []
    _emit_csv(args.out, CSV_HEADER, _representation_rows(results), lines)
    skipped = found = 0
    for res in results:
        if res.skipped:
            skipped += 1
            lines.append(f"k={res.k}: infeasible (class {residues.class_of(res.k)})")
        else:
            found += len(res.representations)
    lines.append(f"scanned {len(results)} value(s) of k: {found} representation(s), "
                 f"{skipped} infeasible")
    return EXIT_OK, "\n".join(lines)


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


def cmd_verify_corpus(args) -> tuple[int, str]:
    lines = []
    parse_errors = invalid = valid = 0
    try:
        # utf-8-sig: a byte-order mark is not part of the first column's name
        with open(args.corpus, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)  # the first record, even a blank one
            if header is None or not {"k", "x", "y", "z"} <= set(header):
                return EXIT_USAGE, f"{args.corpus}: header must contain columns k,x,y,z"
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
                    lines.append(f"line {i}: parse error in {_row_dict(header, row)!r}")
                    continue
                try:
                    path = residues.label_solution(x, y, z, k)  # same for any term order
                except residues.CubeSumMismatch as err:
                    invalid += 1
                    lines.append(f"line {i}: k={k} ({x},{y},{z}) "
                                 f"INVALID sum={residues.exact_str(err.actual_sum)}")
                    continue
                valid += 1
                signed = residues.signed_spelling_for(x, y, z)
                lines.append(f"line {i}: k={k} ({x},{y},{z}) OK "
                             f"class={residues.class_of(k)} "
                             f"path={path.spell()} signed={signed.spell()}")
    except csv.Error as err:  # e.g. a field over csv.field_size_limit()
        return EXIT_USAGE, f"{args.corpus}: line {reader.line_num}: {err}"
    except OSError as err:
        return EXIT_USAGE, f"cannot read corpus: {err}"

    lines.append(f"{valid} valid, {invalid} invalid, {parse_errors} parse error(s)")
    if parse_errors:
        return EXIT_USAGE, "\n".join(lines)
    return (EXIT_OK if invalid == 0 else EXIT_INVALID), "\n".join(lines)


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
    try:
        code, text = args.func(args)
    except residues.CubeSumMismatch:
        raise  # a search hit that fails its exact recheck is a bug, not bad input
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if text:
        print(text)
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
