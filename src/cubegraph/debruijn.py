"""De Bruijn graphs over small alphabets, Eulerian circuits, cycle validation.

Nodes are (n-1)-grams, edges are n-grams: the edge 'abc' runs from node
'ab' to node 'bc'.  A graph is named by (alphabet, order, edges): edges=None
is the full graph B(alphabet, n), with every n-gram as an edge, and an edge
set is a subgraph with its induced nodes, such as the E0/E1/E2 fixtures.
All tie-breaking is lexicographic in alphabet order, so circuits and
sequences are reproducible byte-for-byte.  There is one gram order, that of
itertools.product over the symbols (grams): a subgraph's nodes and edges
are put in order by filtering that walk, never by a sort, so every out-list
of the Hierholzer walk comes out in walk order, and the first tail node is
where the walk starts.

A full De Bruijn sequence needs no graph: debruijn_sequence concatenates
Lyndon words (the Fredricksen-Kessler-Maiorana construction) in constant
amortised time per symbol.  Hierholzer's algorithm on an explicit graph
walks an edge subset, which may not be Eulerian at all: the walk itself
decides that, with no separate connectivity search.  A claim is
validated with no graph and no window strings (coverage): one pass marks
each window's base-k index in a k^n-byte table, and grams names only the
missing, extra and repeated ones.  The DOT text, too, comes line by line
from grams (dot_lines), with no graph for the full one.  DeBruijnGraph is
left to the subgraphs.

A cyclic sequence is a plain non-empty str: its windows wrap around the
end, and every rotation names the same cycle.
"""

from collections import Counter, namedtuple
from itertools import chain, compress, cycle, islice, product


class Alphabet(namedtuple("Alphabet", "symbols")):
    """Ordered distinct single-character symbols; order defines tie-breaking.
    Equality and hashing see the symbols only, and len() counts them.  A
    symbol is printable and is not whitespace, '"' or '\\', so grams can be
    written between DOT's double quotes and separated by spaces."""

    __slots__ = ()

    def __new__(cls, symbols: tuple[str, ...]):
        if not symbols:
            raise ValueError("alphabet must be non-empty")
        if any(len(s) != 1 for s in symbols):
            raise ValueError(f"symbols must be single characters: {symbols!r}")
        bad = [s for s in symbols if s.isspace() or not s.isprintable() or s in '"\\']
        if bad:
            raise ValueError("symbols may not be whitespace, unprintable, a double quote "
                             f"or a backslash: {bad!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate symbols: {symbols!r}")
        return super().__new__(cls, symbols)

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.symbols)

    def check_gram(self, gram: str, length: int | None = None):
        if length is not None and len(gram) != length:
            raise ValueError(f"expected a {length}-gram, got {gram!r}")
        # one bulk test; the per-symbol loop only runs to name the bad
        # symbols, each once, in the order they first appear
        if not set(gram).issubset(self.symbols):
            bad = [c for c in dict.fromkeys(gram) if c not in self.symbols]
            raise ValueError(f"symbols {bad!r} not in alphabet {''.join(self.symbols)!r}")


class DeBruijnGraph(namedtuple("DeBruijnGraph", "alphabet order edges")):
    """A De Bruijn graph or edge-subgraph: edges are n-grams, nodes induced."""

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, order: int, edges: frozenset[str]):
        check_order(alphabet, order)
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
# peak RSS (55 MB of DOT, written as it is made), `cycle` 0.15 s at 23 MB,
# and `validate -` 0.2-0.3 s at 16 MB for an exact claim, 0.3-0.4 s at 16 MB
# for its first 1,000 symbols (523,288 missing edges, named as they are
# written) and 0.8-1.0 s at 53 MB for 2^19 random symbols, whose 138,296
# repeated windows are sorted (one core of a 2-vCPU x86-64 machine, CPython
# 3.11).  Above the cap only `graph` is measured: B(01, 22), 4.9 s at 15 MB.
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


def grams(alphabet: Alphabet, n: int):
    """Every n-gram over the alphabet, lazily, in alphabet order: the i-th is
    i written in base k with the symbols as digits."""
    return map("".join, product(alphabet.symbols, repeat=n))


class NotEulerianError(ValueError):
    """An edge set with no Eulerian circuit."""


def eulerian_circuit(graph: DeBruijnGraph) -> list[str]:
    """Deterministic Hierholzer circuit: ordered edge list using every edge
    exactly once, chaining suffix to prefix and closing back on itself.

    Starts at the first active node and always takes the smallest unused
    outgoing edge (both in alphabet order).  Raises NotEulerianError for no
    edges, then for unbalanced nodes, named in alphabet order.  Once every
    node is balanced, the walk decides: it comes back with every edge
    exactly when the active nodes are strongly connected.
    """
    if not graph.edges:
        raise NotEulerianError("graph has no edges to traverse")
    adj: dict[str, list[str]] = {}  # out-edges by tail node, both in alphabet order
    for e in filter(graph.edges.__contains__, grams(graph.alphabet, graph.order)):
        adj.setdefault(e[:-1], []).append(e)
    in_degree = Counter(e[1:] for e in graph.edges)
    unbalanced = {n for n in adj.keys() | in_degree.keys() if len(adj.get(n, ())) != in_degree[n]}
    if unbalanced:  # put in alphabet order by a walk over every node
        nodes = filter(unbalanced.__contains__, grams(graph.alphabet, graph.order - 1))
        raise NotEulerianError(f"unbalanced nodes: {', '.join(nodes)}")

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
    if len(trail) < len(graph.edges):  # the start node's component is not all
        raise NotEulerianError("active nodes are not strongly connected")
    trail.reverse()
    return trail


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


def debruijn_sequence(alphabet: Alphabet, order: int, edges: frozenset[str] | None = None) -> str:
    """Deterministic cyclic sequence whose n-gram windows walk each edge of
    the graph (alphabet, order, edges) once.  An edge subset is walked by
    Hierholzer (eulerian_circuit), which raises NotEulerianError if it cannot.

    The full graph (edges=None) needs no graph: the Lyndon words over the
    alphabet whose length divides n, concatenated in lexicographic (alphabet)
    order, are a De Bruijn sequence of length k^n (Fredricksen-Kessler-
    Maiorana).  Words are generated by Duval's successor rule in constant
    amortised time per symbol (Fredricksen & Maiorana, Discrete Math. 23,
    1978; Ruskey, Savage & Wang, J. Algorithms 13, 1992).  The result is
    rotated left by n-1, which makes it byte-identical to the sequence of the
    Hierholzer circuit of the full graph B(alphabet, order).
    """
    if edges is not None:
        return circuit_to_sequence(eulerian_circuit(DeBruijnGraph(alphabet, order, edges)))
    check_order(alphabet, order)
    # the list of symbol indices is freed once joined: the str is rotated
    text = "".join(map(alphabet.symbols.__getitem__, _lyndon_concat(len(alphabet), order)))
    r = (order - 1) % len(text)
    return text[r:] + text[:r]


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


def coverage(sequence: str, alphabet: Alphabet, order: int, target: frozenset[str] | None = None):
    """How the cyclic windows of a claim cover a target set of n-grams over
    the alphabet, or every edge of B(alphabet, order) when target is None.

    Returns (covered, total, missing, extra, duplicates): the counts of
    target grams hit and of all target grams; the missing grams, named
    lazily, and the windows outside the target, both in alphabet order; and
    the repeated windows as (gram, count) pairs in code-point order.  A bad
    order, then a foreign symbol, then an empty claim raises ValueError."""
    check_order(alphabet, order)
    alphabet.check_gram(sequence)
    if not sequence:
        raise ValueError("cyclic sequence must be non-empty")
    k, size = len(alphabet), len(alphabet) ** order
    rank = {s: i for i, s in enumerate(alphabet.symbols)}
    seen = bytearray(size)  # by window index: the gram's symbol ranks read in base k
    repeats = {}  # index -> count, for the windows seen more than once
    symbols = chain(sequence, islice(cycle(sequence), order - 1))  # the claim read cyclically
    w = 0
    for c in islice(symbols, order - 1):
        w = w * k + rank[c]
    for c in symbols:  # one step per window
        w = (w * k + rank[c]) % size
        if seen[w]:
            repeats[w] = repeats.get(w, 1) + 1
        else:
            seen[w] = 1
    duplicates = tuple(sorted((g, repeats[i]) for i, g in enumerate(grams(alphabet, order))
                              if i in repeats)) if repeats else ()
    distinct = len(sequence) - sum(c - 1 for c in repeats.values())
    unseen = seen.translate(bytes.maketrans(b"\0\1", b"\1\0"))
    if target is None:  # every window is a target edge
        missing = compress(grams(alphabet, order), unseen) if distinct < size else ()
        return distinct, size, missing, (), duplicates
    extra = tuple(g for g in compress(grams(alphabet, order), seen) if g not in target)
    missing = (g for g in compress(grams(alphabet, order), unseen) if g in target)
    return distinct - len(extra), len(target), missing, extra, duplicates


def dot_lines(alphabet: Alphabet, order: int, edges: frozenset[str] | None = None,
              name: str = "debruijn"):
    """(node count, edge count, DOT lines) of the graph (alphabet, order,
    edges): a digraph with gram-labelled nodes, then edges, each in alphabet
    order.  The lines come one at a time from grams, with no graph for the
    full one; a subgraph's nodes are the (n-1)-grams its edges touch.  The
    graph is checked here, before the first line."""
    if edges is None:
        check_order(alphabet, order)
        counts = len(alphabet) ** (order - 1), len(alphabet) ** order
        nodes, edges = grams(alphabet, order - 1), grams(alphabet, order)
    else:
        touched = DeBruijnGraph(alphabet, order, edges).nodes
        counts = len(touched), len(edges)
        nodes = filter(touched.__contains__, grams(alphabet, order - 1))
        edges = filter(edges.__contains__, grams(alphabet, order))
    return (*counts, _dot_lines(name, nodes, edges))


def _dot_lines(name: str, nodes, edges):
    yield f'digraph "{name}" {{\n'
    for node in nodes:
        yield f'  "{node}" [label="{node}"];\n'
    for e in edges:
        yield f'  "{e[:-1]}" -> "{e[1:]}" [label="{e}"];\n'
    yield "}\n"


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

