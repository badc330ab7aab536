"""De Bruijn graphs over small alphabets, Eulerian circuits, cycle validation.

Nodes are (n-1)-grams, edges are n-grams: the edge 'abc' runs from node
'ab' to node 'bc'.  A full graph B(alphabet, n) has every n-gram as an
edge; subgraphs are just edge subsets with their induced nodes.  All
tie-breaking is lexicographic in alphabet order, so circuits and
sequences are reproducible byte-for-byte.  There is one gram order,
Alphabet.sort_key, and the Eulerian code sorts a graph's edges by it once:
every out-list then comes out in walk order, and the first tail node is
where Hierholzer starts.

A full De Bruijn sequence needs no graph: debruijn_sequence concatenates
Lyndon words (the Fredricksen-Kessler-Maiorana construction) in constant
amortised time per symbol.  Hierholzer's algorithm on an explicit graph is
kept for edge subsets, such as the E0/E1/E2 fixtures, which may not be
Eulerian at all.  In the same way a claim against the full graph is
validated with no graph and no target set (validate_full): the claim must
be over the alphabet, and the full target holds every n-gram over it, so
one pass over the claim's windows settles it.  And the full graph's DOT
text comes line by line from itertools.product (full_dot_lines).
DeBruijnGraph is left to the subgraphs.

A cyclic sequence is a plain non-empty str: its windows wrap around the
end (cyclic_windows), and every rotation names the same cycle.
"""

from collections import Counter, namedtuple
from itertools import product


class Alphabet(namedtuple("Alphabet", "symbols")):
    """Ordered distinct single-character symbols; order defines tie-breaking.

    Equality and hashing see the symbols only, and len() counts them.  The
    instance dict holds just the gram-order table derived from the symbols."""

    def __new__(cls, symbols: tuple[str, ...]):
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        if any(len(s) != 1 for s in symbols):
            raise ValueError(f"symbols must be single characters: {symbols!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols: {symbols!r}")
        self = super().__new__(cls, symbols)
        # symbol -> chr(rank): a translated gram sorts in alphabet order
        self._order = str.maketrans({s: chr(i) for i, s in enumerate(symbols)})
        return self

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.symbols)

    def sort_key(self, gram: str) -> str:
        """Key that orders grams lexicographically in alphabet order.  A symbol
        outside the alphabet passes through unchecked: see check_gram."""
        return gram.translate(self._order)

    def check_gram(self, gram: str, length: int | None = None):
        if length is not None and len(gram) != length:
            raise ValueError(f"expected a {length}-gram, got {gram!r}")
        # one bulk test; the per-symbol loop only runs to name the bad symbols
        if not set(gram).issubset(self.symbols):
            bad = [c for c in gram if c not in self.symbols]
            raise ValueError(f"symbols {bad!r} not in alphabet {''.join(self.symbols)!r}")


class DeBruijnGraph(namedtuple("DeBruijnGraph", "alphabet order edges")):
    """A De Bruijn graph or edge-subgraph: edges are n-grams, nodes induced."""

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, order: int, edges: frozenset[str]):
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        # one bulk pass; the per-edge loop only runs to name the bad edge
        if set(map(len, edges)) - {order} or not set("".join(edges)).issubset(alphabet.symbols):
            for e in edges:
                alphabet.check_gram(e, order)
        return super().__new__(cls, alphabet, order, edges)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(n for e in self.edges for n in (e[:-1], e[1:]))


# The cap on a full graph B(k, n): k^n edges, with k counted as at least 2,
# so a one-symbol alphabet's single edge is no longer than a binary edge.
# Binary is the worst case for a given edge count: the longest grams and
# the most nodes.  At the cap, B(01, 19), `graph` took 0.6-0.7 s at 15 MB
# peak RSS (55 MB of DOT, written as it is made), `validate 01` 1.3-1.5 s
# at 139 MB (524,286 missing edges listed) and `cycle` 0.2 s at 27 MB (one
# core of a 2-vCPU x86-64 machine, CPython 3.11).  `graph` alone would
# allow more, B(01, 22) took 4.9 s at 15 MB; `validate` holds the cap here.
MAX_DEBRUIJN_EDGES = 2 ** 19


def check_order(alphabet: Alphabet, order: int):
    """Raise ValueError unless B(alphabet, order) has order >= 2 and fits
    the cap: at most MAX_DEBRUIJN_EDGES edges, and no longer edges than a
    binary graph at the cap."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    max_order = MAX_DEBRUIJN_EDGES.bit_length() - 1
    # the order test first: at a huge order, k^n is itself a huge number
    if order > max_order or len(alphabet) ** order > MAX_DEBRUIJN_EDGES:
        raise ValueError(f"B({''.join(alphabet.symbols)}, {order}) is too large: the supported "
                         f"maximum is {MAX_DEBRUIJN_EDGES} edges and order {max_order}")


class EulerianStatus(namedtuple("EulerianStatus", "eulerian unbalanced connected empty")):
    """Outcome of the directed Eulerian-circuit test with diagnostics:
    `unbalanced` names the nodes with in-degree != out-degree, `connected`
    says the active nodes form one strongly connected piece, and `empty`
    that there are no edges at all (eulerian by convention)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.eulerian

    def describe(self) -> str:
        if self.eulerian:
            return "empty edge set (eulerian by convention)" if self.empty else "eulerian"
        parts = []
        if self.unbalanced:
            parts.append(f"unbalanced nodes: {', '.join(self.unbalanced)}")
        if not self.connected:
            parts.append("active nodes are not strongly connected")
        return "; ".join(parts)


_PREFIX, _SUFFIX = slice(None, -1), slice(1, None)  # an edge's tail and head node


def _incidence(graph: DeBruijnGraph) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Out-edges by tail node and in-edges by head node, both in alphabet
    order; the tail nodes, too, come out in alphabet order."""
    out: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    for e in sorted(graph.edges, key=graph.alphabet.sort_key):
        out.setdefault(e[:-1], []).append(e)
        into.setdefault(e[1:], []).append(e)
    return out, into


def eulerian_status(graph: DeBruijnGraph) -> EulerianStatus:
    """Directed Eulerian circuit test: balanced degrees plus one strongly
    connected component over the nodes that carry edges."""
    return _status(graph, *_incidence(graph))


def _status(graph: DeBruijnGraph, out: dict, into: dict) -> EulerianStatus:
    if not graph.edges:
        return EulerianStatus(True, (), True, True)
    active = out.keys() | into.keys()
    unbalanced = tuple(sorted((n for n in active if len(out.get(n, ())) != len(into.get(n, ()))),
                              key=graph.alphabet.sort_key))
    start = next(iter(out))  # strong connectivity holds from every active node or from none
    connected = _reachable(start, out, _SUFFIX) >= active and \
        _reachable(start, into, _PREFIX) >= active
    return EulerianStatus(not unbalanced and connected, unbalanced, connected, False)


def _reachable(start: str, incident: dict, step: slice) -> set[str]:
    """Nodes reached from start, moving along each incident edge to e[step]."""
    seen = {start}
    stack = [start]
    while stack:
        for e in incident.get(stack.pop(), ()):
            v = e[step]
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


class NotEulerianError(ValueError):
    def __init__(self, status: EulerianStatus, detail: str = ""):
        self.status = status
        super().__init__(detail or f"graph has no Eulerian circuit: {status.describe()}")


def eulerian_circuit(graph: DeBruijnGraph) -> list[str]:
    """Deterministic Hierholzer circuit: ordered edge list using every edge
    exactly once, chaining suffix to prefix and closing back on itself.

    Starts at the lexicographically smallest active node and always takes
    the smallest unused outgoing edge (both in alphabet order).
    """
    adj, into = _incidence(graph)
    status = _status(graph, adj, into)
    if not status:
        raise NotEulerianError(status)
    if not graph.edges:
        raise NotEulerianError(status, "graph has no edges to traverse")

    # one iterator of unused out-edges per node; the graph is balanced, so
    # every node the walk reaches has one
    unused = {node: iter(edges) for node, edges in adj.items()}
    # The walk first gets stuck back at the start node with all its out-edges
    # used, so the stack holds edges only, never the start node itself.
    stack = [next(unused[next(iter(adj))])]
    trail: list[str] = []
    while stack:
        edge = next(unused[stack[-1][1:]], None)
        if edge is None:
            trail.append(stack.pop())
        else:
            stack.append(edge)
    trail.reverse()
    return trail


def cyclic_windows(seq: str, length: int) -> list[str]:
    """All len(seq) windows of the given length, read cyclically in order:
    window i starts at symbol i and wraps around the end."""
    doubled = seq * (2 if length <= len(seq) else length + 1)
    return [doubled[i:i + length] for i in range(len(seq))]


def circuit_to_sequence(circuit: list[str]) -> str:
    """Collapse a closed edge circuit to the cyclic string of each edge's
    last symbol; the string's length-n windows walk the circuit again."""
    if not circuit:
        raise ValueError("empty circuit")
    for a, b in zip(circuit, circuit[1:] + circuit[:1]):
        if len(a) != len(circuit[0]):
            raise ValueError(f"mixed gram lengths in circuit: {a!r}")
        if a[1:] != b[:-1]:
            raise ValueError(f"circuit does not chain: {a!r} -> {b!r}")
    return "".join(e[-1] for e in circuit)


def debruijn_sequence(alphabet: Alphabet, order: int) -> str:
    """Deterministic De Bruijn sequence of length k^n: every n-gram appears
    exactly once among its cyclic windows.

    Built with no graph by the Fredricksen-Kessler-Maiorana construction:
    the Lyndon words over the alphabet whose length divides n, concatenated
    in lexicographic (alphabet) order, are a De Bruijn sequence.  Words are
    generated by Duval's successor rule in constant amortised time per
    symbol (Fredricksen & Maiorana, Discrete Math. 23, 1978; Ruskey, Savage
    & Wang, J. Algorithms 13, 1992).  The result is rotated left by n-1,
    which makes it byte-identical to the sequence of the Hierholzer circuit
    (eulerian_circuit) of the full graph B(alphabet, order).
    """
    check_order(alphabet, order)
    seq = _lyndon_concat(len(alphabet), order)
    r = (order - 1) % len(seq)
    return "".join(map(alphabet.symbols.__getitem__, seq[r:] + seq[:r]))


def _lyndon_concat(k: int, order: int) -> list[int]:
    """The Lyndon words over symbol indices 0..k-1 whose length divides
    order, concatenated in lexicographic order."""
    last = k - 1
    seq: list[int] = []
    word = [-1]  # symbol indices; each pass turns it into the next Lyndon word
    while word:
        word[-1] += 1
        m = len(word)
        if order % m == 0:
            seq.extend(word)
        while len(word) < order:  # extend periodically to the next prenecklace
            word.append(word[-m])
        while word and word[-1] == last:
            word.pop()
    return seq


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


def _windows(sequence: str, length: int) -> tuple[frozenset[str], tuple]:
    """The distinct cyclic windows of a non-empty sequence, and the repeated
    ones as (window, count) pairs in code-point order.  Windows are only
    counted when some window repeats."""
    if not sequence:
        raise ValueError("cyclic sequence must be non-empty")
    windows = cyclic_windows(sequence, length)
    seen = frozenset(windows)
    if len(seen) == len(windows):
        return seen, ()
    return seen, tuple(sorted((g, c) for g, c in Counter(windows).items() if c > 1))


def validate_cycle(sequence: str, target: frozenset[str] | set[str]) -> CoverageReport:
    """Partition a target edge set into covered/missing by the sequence's
    cyclic windows; windows outside the target are extra, repeats counted."""
    target = frozenset(target)
    lengths = {len(g) for g in target}
    if len(lengths) > 1:
        raise ValueError(f"target grams have mixed lengths: {sorted(lengths)}")
    # an empty target has no gram length, but the sequence is still checked
    seen, duplicates = _windows(sequence, max(lengths, default=1))
    if not target:
        return CoverageReport(frozenset(), frozenset(), frozenset(), ())
    return CoverageReport(seen & target, target - seen, seen - target, duplicates)


def validate_full(sequence: str, alphabet: Alphabet, order: int) -> CoverageReport:
    """validate_cycle against every edge of B(alphabet, order), with no graph
    and no target set.  The claim must be over the alphabet: a foreign symbol
    raises ValueError, after a bad order and an empty claim.  Then every
    window is a target edge, so none is extra, and the k^n edges are listed
    only when fewer than k^n windows are covered, to name the missing."""
    check_order(alphabet, order)
    alphabet.check_gram(sequence)  # an empty claim passes, and _windows refuses it
    seen, duplicates = _windows(sequence, order)
    missing = frozenset()
    if len(seen) < len(alphabet) ** order:
        missing = frozenset(map("".join, product(alphabet.symbols, repeat=order))) - seen
    return CoverageReport(seen, missing, frozenset(), duplicates)


def _dot_lines(name: str, nodes, edges):
    yield f'digraph "{name}" {{\n'
    for node in nodes:
        yield f'  "{node}" [label="{node}"];\n'
    for e in edges:
        yield f'  "{e[:-1]}" -> "{e[1:]}" [label="{e}"];\n'
    yield "}\n"


def to_dot(graph: DeBruijnGraph, name: str = "debruijn") -> str:
    """DOT digraph text with gram-labelled nodes/edges in stable order."""
    key = graph.alphabet.sort_key
    return "".join(_dot_lines(name, sorted(graph.nodes, key=key), sorted(graph.edges, key=key)))


def full_dot_lines(alphabet: Alphabet, order: int, name: str = "debruijn"):
    """The lines of to_dot for the full graph B(alphabet, order), one at a
    time and with no graph: product() yields the nodes and the edges in
    alphabet order, the order to_dot sorts them into.  The order is checked
    here, before the first line."""
    check_order(alphabet, order)
    nodes = map("".join, product(alphabet.symbols, repeat=order - 1))
    edges = map("".join, product(alphabet.symbols, repeat=order))
    return _dot_lines(name, nodes, edges)


# The ternary cube-residue alphabet and the three named edge-set fixtures
# splitting its full order-3 graph: E0 holds the six alternating loops
# (aba with a != b, three disjoint 2-cycles), E1 and E2 are complementary
# Eulerian halves with E2 the elementwise reversal of E1; the halves share
# only the constant self-loops 000/111/888.  Only E1 is listed: E0 and E2
# are built from those relations.
TERNARY_ALPHABET = Alphabet.from_string("018")

_E1 = frozenset({"000", "001", "011", "018", "111", "118",
                 "180", "188", "800", "801", "880", "888"})
FIXTURE_EDGES: dict[str, frozenset[str]] = {
    "E0": frozenset(a + b + a for a, b in product(TERNARY_ALPHABET.symbols, repeat=2) if a != b),
    "E1": _E1,
    "E2": frozenset(e[::-1] for e in _E1),
}


def fixture_subgraph(name: str) -> DeBruijnGraph:
    """One of the named ternary subgraphs E0, E1 or E2."""
    try:
        edges = FIXTURE_EDGES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(FIXTURE_EDGES)}") from None
    return DeBruijnGraph(TERNARY_ALPHABET, 3, edges)
