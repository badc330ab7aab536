"""Reference builders shared by the test modules."""

import csv
import io
from collections import Counter, namedtuple
from itertools import product

from cubegraph.corpus import _NulLine
from cubegraph.debruijn import DeBruijnGraph, check_order
from cubegraph.residues import class_of


def build_graph(alphabet, order) -> DeBruijnGraph:
    """The full De Bruijn graph B(alphabet, order) as an explicit edge set:
    all k^(n-1) nodes and all k^n edges.  The program needs no full graph;
    the tests compare its graph-free paths with this one."""
    check_order(alphabet, order)
    return DeBruijnGraph(alphabet, order, frozenset(map("".join, product(alphabet.symbols, repeat=order))))


def alphabet_key(symbols):
    """Alphabet order on grams, written with plain rank lists."""
    rank = {s: i for i, s in enumerate(symbols)}
    return lambda gram: [rank[c] for c in gram]


def to_dot(graph: DeBruijnGraph, name: str = "debruijn") -> str:
    """DOT digraph text with gram-labelled nodes, then edges, each sorted in
    alphabet order.  The program writes it from product() walks with no
    sort (dot_lines); the tests compare the two."""
    key = alphabet_key(graph.alphabet.symbols)
    nodes = [f'  "{v}" [label="{v}"];\n' for v in sorted(graph.nodes, key=key)]
    edges = [f'  "{e[:-1]}" -> "{e[1:]}" [label="{e}"];\n' for e in sorted(graph.edges, key=key)]
    return "".join([f'digraph "{name}" {{\n', *nodes, *edges, "}\n"])


def cyclic_windows(seq: str, length: int) -> list[str]:
    """All len(seq) windows of the given length, read cyclically in order:
    window i starts at symbol i and wraps around the end."""
    doubled = seq * (2 if length <= len(seq) else length + 1)
    return [doubled[i:i + length] for i in range(len(seq))]


class CoverageReport(namedtuple("CoverageReport", "covered missing extra duplicates")):
    """How the cyclic windows of a string relate to a target edge set:
    `duplicates` holds (window, count > 1) pairs, sorted."""

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def exact(self) -> bool:
        """Windows hit every target edge exactly once and nothing else."""
        return self.complete and not self.extra and not self.duplicates


def validate_cycle(sequence: str, target) -> CoverageReport:
    """Partition a target edge set into covered/missing by the sequence's
    cyclic windows, as sets of strings; windows outside the target are
    extra, repeats counted.  The program's coverage() does this with no
    window strings; the tests compare the two."""
    target = frozenset(target)
    lengths = {len(g) for g in target}
    if len(lengths) > 1:
        raise ValueError(f"target grams have mixed lengths: {sorted(lengths)}")
    if not sequence:
        raise ValueError("cyclic sequence must be non-empty")
    # an empty target has no gram length, but the sequence is still checked
    windows = cyclic_windows(sequence, max(lengths, default=1))
    if not target:
        return CoverageReport(frozenset(), frozenset(), frozenset(), ())
    seen = frozenset(windows)
    duplicates = tuple(sorted((g, c) for g, c in Counter(windows).items() if c > 1))
    return CoverageReport(seen & target, target - seen, seen - target, duplicates)


def spelled_labels(x: int, y: int, z: int) -> tuple[str, str]:
    """The (path, signed) labels of the terms, spelled from n**3 % 9 and the
    sign of n: the arithmetic that residues' lookup tables replace."""
    path = sorted(n**3 % 9 for n in (x, y, z))
    signed = sorted(-1 if n < 0 and n**3 % 9 == 8 else n**3 % 9 for n in (x, y, z))

    def spell(terms):
        return str(terms[0]) + "".join(f"+{t}" if t >= 0 else str(t) for t in terms[1:])

    return spell(path), spell(signed)


def _nul_free(line):
    if "\0" in line:
        raise _NulLine("line contains NUL")
    return line


def utf8_lines(fh):
    """The lines of the binary file fh as csv.reader counts them, ended by
    \n, \r\n or \r, each decoded from UTF-8 on its own, with a byte-order
    mark dropped from line 1 after decoding; a line holding a NUL raises
    corpus._NulLine once decoded.  Given a text file, it reads the binary file
    under it, fh.buffer, so that it can stand in for the lines of
    corpus._blocks, which reads a text file a block of lines at a time; the
    tests compare the two."""
    lines = (_nul_free(line.decode("utf-8"))
             for chunk in getattr(fh, "buffer", fh)  # ends at \n, and may hold lines ended by \r
             for line in chunk.splitlines(keepends=True))
    first = next(lines, None)
    if first is not None:
        yield first.removeprefix("\ufeff")
        yield from lines


def per_line_blocks(fh):
    """A stand-in for corpus._blocks(fh): one block, all of utf8_lines(fh),
    with None for its bytes, as corpus._block marks a block that is not
    UTF-8.  corpus._split leaves such a block to csv.reader, so corpus.verify
    reads every record with csv.reader and prints every term from its int."""
    return iter([(utf8_lines(fh), None)])


def search_csv(reps) -> str:
    """The CSV of Representations as csv.writer writes it: the header, then a
    row k,x,y,z,class,path per representation."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "x", "y", "z", "class", "path"])
    writer.writerows([rep.k, rep.x, rep.y, rep.z, class_of(rep.k), rep.path]
                     for rep in reps)
    return buf.getvalue()
