"""De Bruijn graphs over small alphabets, Eulerian circuits, cycle validation.

Nodes are (n-1)-grams, edges are n-grams: the edge 'abc' runs from node
'ab' to node 'bc'.  A full graph B(alphabet, n) has every n-gram as an
edge; subgraphs are just edge subsets with their induced nodes.  All
tie-breaking is lexicographic in alphabet order so circuits and
sequences are reproducible byte-for-byte.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path


@dataclass(frozen=True)
class Alphabet:
    """Ordered distinct single-character symbols; order defines tie-breaking."""

    symbols: tuple[str, ...]
    _rank: dict = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if any(len(s) != 1 for s in self.symbols):
            raise ValueError(f"symbols must be single characters: {self.symbols!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols: {self.symbols!r}")
        object.__setattr__(self, "_rank", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._rank

    def sort_key(self, gram: str) -> tuple[int, ...]:
        return tuple(self._rank[c] for c in gram)

    def check_gram(self, gram: str, length: int | None = None):
        if length is not None and len(gram) != length:
            raise ValueError(f"expected a {length}-gram, got {gram!r}")
        bad = [c for c in gram if c not in self._rank]
        if bad:
            raise ValueError(f"symbols {bad!r} not in alphabet {''.join(self.symbols)!r}")


def edge_endpoints(edge: str) -> tuple[str, str]:
    """(prefix, suffix) node pair of an edge gram: 'abc' -> ('ab', 'bc')."""
    if len(edge) < 2:
        raise ValueError(f"edge gram needs length >= 2, got {edge!r}")
    return edge[:-1], edge[1:]


@dataclass(frozen=True)
class DeBruijnGraph:
    """A De Bruijn graph or edge-subgraph: edges are n-grams, nodes induced."""

    alphabet: Alphabet
    order: int
    edges: frozenset[str]

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        for e in self.edges:
            self.alphabet.check_gram(e, self.order)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(n for e in self.edges for n in edge_endpoints(e))

    @property
    def is_full(self) -> bool:
        return len(self.edges) == len(self.alphabet) ** self.order

    def subgraph(self, edges) -> "DeBruijnGraph":
        edges = frozenset(edges)
        if not edges <= self.edges:
            raise ValueError(f"edges not in graph: {sorted(edges - self.edges)}")
        return DeBruijnGraph(self.alphabet, self.order, edges)


def build_graph(alphabet: Alphabet, order: int) -> DeBruijnGraph:
    """Full De Bruijn graph: all k^(n-1) nodes and all k^n edges."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    edges = frozenset("".join(p) for p in product(alphabet.symbols, repeat=order))
    return DeBruijnGraph(alphabet, order, edges)


@dataclass(frozen=True)
class EulerianStatus:
    """Outcome of the directed Eulerian-circuit test with diagnostics."""

    eulerian: bool
    unbalanced: tuple[str, ...]  # nodes with in-degree != out-degree
    connected: bool              # active nodes form one strongly connected piece
    empty: bool                  # no edges at all (eulerian by convention)

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


def eulerian_status(graph: DeBruijnGraph) -> EulerianStatus:
    """Directed Eulerian circuit test: balanced degrees plus one strongly
    connected component over the nodes that carry edges."""
    if not graph.edges:
        return EulerianStatus(True, (), True, True)

    out_deg, in_deg, adj, radj = Counter(), Counter(), {}, {}
    for e in graph.edges:
        u, v = edge_endpoints(e)
        out_deg[u] += 1
        in_deg[v] += 1
        adj.setdefault(u, []).append(v)
        radj.setdefault(v, []).append(u)

    active = set(out_deg) | set(in_deg)
    unbalanced = tuple(sorted(n for n in active if out_deg[n] != in_deg[n]))
    start = min(active, key=graph.alphabet.sort_key)
    connected = (_reachable(start, adj) >= active) and (_reachable(start, radj) >= active)
    return EulerianStatus(not unbalanced and connected, unbalanced, connected, False)


def _reachable(start: str, adj: dict) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        for v in adj.get(stack.pop(), []):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_eulerian(graph: DeBruijnGraph) -> bool:
    return bool(eulerian_status(graph))


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
    status = eulerian_status(graph)
    if not status:
        raise NotEulerianError(status)
    if not graph.edges:
        raise NotEulerianError(status, "graph has no edges to traverse")

    key = graph.alphabet.sort_key
    adj: dict[str, list[str]] = {}
    for e in graph.edges:
        adj.setdefault(e[:-1], []).append(e)
    for lst in adj.values():
        lst.sort(key=key)
    cursor = dict.fromkeys(adj, 0)

    start = min(adj, key=key)
    stack: list[tuple[str, str | None]] = [(start, None)]
    trail: list[str] = []
    while stack:
        node, via = stack[-1]
        nxt = adj.get(node, ())
        i = cursor.get(node, 0)
        if i < len(nxt):
            cursor[node] = i + 1
            edge = nxt[i]
            stack.append((edge[1:], edge))
        else:
            stack.pop()
            if via is not None:
                trail.append(via)
    trail.reverse()
    return trail


@dataclass(frozen=True)
class CyclicSequence:
    """Non-empty cyclic string; indexing wraps around the end."""

    symbols: str

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("cyclic sequence must be non-empty")

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols

    def window(self, start: int, length: int) -> str:
        s, m = self.symbols, len(self.symbols)
        return "".join(s[(start + j) % m] for j in range(length))

    def windows(self, length: int) -> list[str]:
        """All len(self) windows of the given length, read cyclically in order."""
        doubled = self.symbols * (2 if length <= len(self.symbols) else length + 1)
        return [doubled[i:i + length] for i in range(len(self.symbols))]

    def canonical(self) -> "CyclicSequence":
        """Lexicographically least rotation; rotation-invariant normal form."""
        s = self.symbols
        best = min(s[i:] + s[:i] for i in range(len(s)))
        return CyclicSequence(best)


def circuit_to_sequence(circuit: list[str]) -> CyclicSequence:
    """Collapse a closed edge circuit to the cyclic string of each edge's
    last symbol; the string's length-n windows walk the circuit again."""
    if not circuit:
        raise ValueError("empty circuit")
    for a, b in zip(circuit, circuit[1:] + circuit[:1]):
        if len(a) != len(circuit[0]):
            raise ValueError(f"mixed gram lengths in circuit: {a!r}")
        if a[1:] != b[:-1]:
            raise ValueError(f"circuit does not chain: {a!r} -> {b!r}")
    return CyclicSequence("".join(e[-1] for e in circuit))


def debruijn_sequence(alphabet: Alphabet, order: int) -> CyclicSequence:
    """Deterministic De Bruijn sequence of length k^n: every n-gram appears
    exactly once among its cyclic windows."""
    return circuit_to_sequence(eulerian_circuit(build_graph(alphabet, order)))


@dataclass(frozen=True)
class CoverageReport:
    """How the cyclic windows of a string relate to a target edge set."""

    covered: frozenset[str]
    missing: frozenset[str]
    extra: frozenset[str]
    duplicates: tuple[tuple[str, int], ...]  # (window, count>1), sorted

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def exact(self) -> bool:
        """Windows hit every target edge exactly once and nothing else."""
        return self.complete and not self.extra and not self.duplicates

    def duplicate_map(self) -> dict[str, int]:
        return dict(self.duplicates)


def validate_cycle(sequence: CyclicSequence | str, target: frozenset[str] | set[str]) -> CoverageReport:
    """Partition a target edge set into covered/missing by the sequence's
    cyclic windows; windows outside the target are extra, repeats counted."""
    if isinstance(sequence, str):
        sequence = CyclicSequence(sequence)
    target = frozenset(target)
    if not target:
        return CoverageReport(frozenset(), frozenset(), frozenset(), ())
    lengths = {len(g) for g in target}
    if len(lengths) != 1:
        raise ValueError(f"target grams have mixed lengths: {sorted(lengths)}")
    counts = Counter(sequence.windows(lengths.pop()))
    return CoverageReport(
        covered=frozenset(counts) & target,
        missing=target - set(counts),
        extra=frozenset(counts) - target,
        duplicates=tuple(sorted((g, c) for g, c in counts.items() if c > 1)),
    )


def reverse_edges(edges) -> frozenset[str]:
    """Elementwise string reversal of an edge set."""
    return frozenset(e[::-1] for e in edges)


def edges_for_class(graph: DeBruijnGraph, residue_class: int) -> frozenset[str]:
    """Edges of a ternary {0,1,8} order-3 graph whose digit sum is the given
    class mod 9; the underlying multisets match residues.decompose."""
    if set(graph.alphabet.symbols) != {"0", "1", "8"} or graph.order != 3:
        raise ValueError("residue-class filtering needs alphabet {0,1,8} and order 3")
    if not 0 <= residue_class <= 8:
        raise ValueError(f"residue class must be in 0..8, got {residue_class}")
    return frozenset(e for e in graph.edges if sum(int(c) for c in e) % 9 == residue_class)


def to_dot(graph: DeBruijnGraph, highlight=(), dashed=(), name: str = "debruijn") -> str:
    """DOT digraph text with gram-labelled nodes/edges in stable order.

    Edges in `highlight` get a heavier pen, edges in `dashed` a dashed style
    (marking where a cycle starts repeating, for instance).
    """
    key = graph.alphabet.sort_key
    highlight, dashed = frozenset(highlight), frozenset(dashed)
    lines = [f'digraph "{name}" {{']
    for node in sorted(graph.nodes, key=key):
        lines.append(f'  "{node}" [label="{node}"];')
    for e in sorted(graph.edges, key=key):
        u, v = edge_endpoints(e)
        attrs = [f'label="{e}"']
        if e in highlight:
            attrs.append("penwidth=2.0")
        if e in dashed:
            attrs.append("style=dashed")
        lines.append(f'  "{u}" -> "{v}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_edge_file(path, edges, alphabet: Alphabet | None = None):
    """Persist an edge set as plain text, one gram per line, sorted."""
    key = alphabet.sort_key if alphabet is not None else None
    Path(path).write_text("".join(f"{e}\n" for e in sorted(edges, key=key)), encoding="utf-8")


def read_edge_file(path) -> frozenset[str]:
    """Read an edge set written by write_edge_file (blank lines ignored)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return frozenset(line.strip() for line in lines if line.strip())


# The ternary cube-residue alphabet and the three named edge-set fixtures
# splitting its full order-3 graph: E0 holds the six alternating loops
# (aba with a != b, three disjoint 2-cycles), E1 and E2 are complementary
# Eulerian halves with E2 the elementwise reversal of E1; the halves share
# only the constant self-loops 000/111/888.
TERNARY_ALPHABET = Alphabet.from_string("018")

FIXTURE_EDGES: dict[str, frozenset[str]] = {
    "E0": frozenset({"010", "080", "101", "181", "808", "818"}),
    "E1": frozenset({"000", "001", "011", "018", "111", "118",
                     "180", "188", "800", "801", "880", "888"}),
    "E2": frozenset({"000", "008", "081", "088", "100", "108",
                     "110", "111", "810", "811", "881", "888"}),
}


def fixture_subgraph(name: str) -> DeBruijnGraph:
    """One of the named ternary subgraphs E0, E1 or E2."""
    try:
        edges = FIXTURE_EDGES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(FIXTURE_EDGES)}") from None
    return DeBruijnGraph(TERNARY_ALPHABET, 3, edges)
