import re
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubegraph.debruijn import (
    Alphabet,
    DeBruijnGraph,
    FIXTURE_EDGES,
    MAX_DEBRUIJN_EDGES,
    NotEulerianError,
    TERNARY_ALPHABET,
    check_order,
    circuit_to_sequence,
    coverage,
    debruijn_sequence,
    dot_lines,
    eulerian_circuit,
)
from cubegraph.residues import decompose

from oracles import alphabet_key, build_graph, cyclic_windows, to_dot, validate_cycle

# hand-constructed ternary cycle claims; both are shorter than the 27
# windows a full cover needs, so the validator must quantify the gaps
TERNARY_CYCLE_23 = "00088808881118100010110"
HALF_CYCLE_CLAIMS = {"E1": "0111818880800018180801", "E2": "8111010008088818101081"}

BINARY = Alphabet.from_string("01")


def fixture(name):
    return DeBruijnGraph(TERNARY_ALPHABET, 3, FIXTURE_EDGES[name])


def oracle_windows(text, n):
    """Brute-force cyclic windowing, independent of cyclic_windows."""
    reps = n // len(text) + 2
    doubled = text * reps
    return [doubled[i:i + n] for i in range(len(text))]


def full_grams(symbols, n):
    return {"".join(p) for p in product(symbols, repeat=n)}


alphabets = st.sampled_from([
    Alphabet.from_string("01"),
    Alphabet.from_string("018"),
    Alphabet.from_string("0123"),
    Alphabet.from_string("ab"),
])


@st.composite
def shuffled_full_graphs(draw):
    """(alphabet, order): 1-6 symbols in a random order, order 2-7, k^n <= 5000."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(2, max(n for n in range(2, 8) if k ** n <= 5000)))
    symbols = draw(st.permutations("018ab9"))[:k]
    return Alphabet(tuple(symbols)), n


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet.from_string("001")
    with pytest.raises(ValueError):
        Alphabet(("ab",))


@pytest.mark.parametrize("bad", [" ", "\t", "\n", "\x00", "\x7f", "\u3000", "\u200b", '"', "\\"])
def test_alphabet_refuses_symbols_that_output_cannot_carry(bad):
    # DOT writes a gram between double quotes, validate separates grams by spaces
    with pytest.raises(ValueError, match=f"or a backslash: \\[{re.escape(repr(bad))}\\]$"):
        Alphabet(("0", bad, "1"))
    assert Alphabet.from_string("'-\u00e9").symbols == ("'", "-", "\u00e9")


def test_check_gram_names_every_bad_symbol():
    BINARY.check_gram("0110")
    with pytest.raises(ValueError, match=r"^symbols \['x', '2'\] not in alphabet '01'$"):
        BINARY.check_gram("0x2x1")
    with pytest.raises(ValueError, match="^expected a 3-gram, got '01'$"):
        BINARY.check_gram("01", 3)


def test_alphabet_equality_and_hash_see_the_symbols_only():
    a, b = Alphabet(("0", "1")), Alphabet.from_string("01")
    assert a == b and hash(a) == hash(b)
    assert a is not b
    assert {a: 1}[b] == 1
    assert Alphabet.from_string("10") != a
    assert len(Alphabet.from_string("018")) == 3


def test_graph_is_immutable():
    graph = build_graph(BINARY, 3)
    with pytest.raises(AttributeError):
        graph.edges = frozenset()
    with pytest.raises(AttributeError):
        graph.order = 4
    with pytest.raises(AttributeError):
        BINARY.symbols = ("1", "0")


def test_build_graph_binary():
    g = build_graph(BINARY, 3)
    assert g.nodes == {"00", "01", "10", "11"}
    assert g.edges == full_grams("01", 3)


def test_build_graph_ternary_counts():
    g = build_graph(TERNARY_ALPHABET, 3)
    assert len(g.nodes) == 9
    assert len(g.edges) == 27


def test_build_graph_unary_degenerate():
    g = build_graph(Alphabet.from_string("0"), 2)
    assert g.nodes == {"0"}
    assert g.edges == {"00"}


def test_build_graph_rejects_bad_order():
    with pytest.raises(ValueError):
        build_graph(BINARY, 1)


def test_graph_rejects_foreign_edges():
    with pytest.raises(ValueError):
        DeBruijnGraph(BINARY, 3, frozenset({"012"}))
    with pytest.raises(ValueError):
        DeBruijnGraph(BINARY, 3, frozenset({"01"}))


def test_graph_edge_errors_name_the_bad_edge():
    good = full_grams("01", 3)
    with pytest.raises(ValueError, match=r"^symbols \['2'\] not in alphabet '01'$"):
        DeBruijnGraph(BINARY, 3, frozenset(good | {"012"}))
    with pytest.raises(ValueError, match=r"^expected a 3-gram, got '0101'$"):
        DeBruijnGraph(BINARY, 3, frozenset(good | {"0101"}))
    # right total length and symbols, wrong individual lengths
    with pytest.raises(ValueError, match="expected a 3-gram"):
        DeBruijnGraph(BINARY, 3, frozenset({"01", "0101"}))


def test_full_graphs_are_eulerian():
    for g in (build_graph(TERNARY_ALPHABET, 3), build_graph(BINARY, 4)):
        circuit = eulerian_circuit(g)
        assert len(circuit) == len(g.edges) and set(circuit) == g.edges


def test_fixture_e1_is_eulerian_e0_is_not():
    assert Counter(eulerian_circuit(fixture("E1"))) == Counter(FIXTURE_EDGES["E1"])
    # three balanced but disconnected 2-cycles: the walk comes back with one
    with pytest.raises(NotEulerianError, match="^active nodes are not strongly connected$"):
        eulerian_circuit(fixture("E0"))


def test_unbalanced_diagnostic():
    g = build_graph(BINARY, 2)
    with pytest.raises(NotEulerianError, match="^unbalanced nodes: 0, 1$"):
        eulerian_circuit(DeBruijnGraph(g.alphabet, g.order, g.edges - {"01"}))


def test_unbalanced_nodes_listed_in_alphabet_order():
    g = build_graph(Alphabet.from_string("10"), 2)
    with pytest.raises(NotEulerianError, match="^unbalanced nodes: 1, 0$"):
        eulerian_circuit(DeBruijnGraph(g.alphabet, g.order, g.edges - {"01"}))


def test_eulerian_circuit_binary_covers_everything():
    g = build_graph(BINARY, 3)
    circuit = eulerian_circuit(g)
    assert len(circuit) == 8
    assert set(circuit) == g.edges
    for a, b in zip(circuit, circuit[1:] + circuit[:1]):
        assert a[1:] == b[:-1]


def test_eulerian_circuit_e1_covers_exactly():
    circuit = eulerian_circuit(fixture("E1"))
    assert Counter(circuit) == Counter(FIXTURE_EDGES["E1"])


def test_eulerian_circuit_single_self_loop():
    assert eulerian_circuit(DeBruijnGraph(TERNARY_ALPHABET, 3, frozenset({"000"}))) == ["000"]


def test_eulerian_circuit_rejects_non_eulerian():
    with pytest.raises(NotEulerianError, match="^active nodes are not strongly connected$"):
        eulerian_circuit(fixture("E0"))
    with pytest.raises(NotEulerianError, match="^graph has no edges to traverse$"):
        eulerian_circuit(DeBruijnGraph(BINARY, 2, frozenset()))


def test_eulerian_circuit_is_deterministic():
    g = fixture("E1")
    assert eulerian_circuit(g) == eulerian_circuit(g)
    full = build_graph(TERNARY_ALPHABET, 3)
    assert eulerian_circuit(full) == eulerian_circuit(full)


def test_circuit_to_sequence_windows_replay_the_circuit():
    circuit = eulerian_circuit(build_graph(BINARY, 3))
    seq = circuit_to_sequence(circuit)
    assert len(seq) == len(circuit)
    wins = cyclic_windows(seq, 3)
    # window i ends at symbol i+2, so the read starts n-1 edges into the circuit
    assert wins == circuit[2:] + circuit[:2]


def test_circuit_to_sequence_self_loop():
    seq = circuit_to_sequence(["000"])
    assert seq == "0"
    assert cyclic_windows(seq, 3) == ["000"]


def test_circuit_to_sequence_rejects_non_chaining():
    with pytest.raises(ValueError, match="chain"):
        circuit_to_sequence(["001", "110"])
    with pytest.raises(ValueError):
        circuit_to_sequence([])


def test_debruijn_sequence_binary_matches_classic_string():
    seq = debruijn_sequence(BINARY, 3)
    assert len(seq) == 8
    assert set(cyclic_windows(seq, 3)) == full_grams("01", 3)
    # the least rotation is the classic low-first string
    assert min(seq[i:] + seq[:i] for i in range(len(seq))) == "00010111"


def test_debruijn_sequence_ternary():
    seq = debruijn_sequence(TERNARY_ALPHABET, 3)
    assert len(seq) == 27
    assert len(set(cyclic_windows(seq, 3))) == 27


def test_debruijn_sequence_unary():
    seq = debruijn_sequence(Alphabet.from_string("0"), 2)
    assert seq == "0"
    assert cyclic_windows(seq, 2) == ["00"]


def test_debruijn_sequence_rejects_bad_order():
    with pytest.raises(ValueError, match="order must be >= 2, got 1"):
        debruijn_sequence(BINARY, 1)


def test_windows_of_classic_binary_string():
    wins = cyclic_windows("00010111", 3)
    assert len(wins) == 8
    assert set(wins) == full_grams("01", 3)


def test_windows_shorter_than_window_length():
    assert cyclic_windows("0", 3) == ["000"]
    assert cyclic_windows("01", 5) == ["01010", "10101"]


def test_windows_match_oracle_on_ternary_claim():
    wins = cyclic_windows(TERNARY_CYCLE_23, 3)
    assert wins == oracle_windows(TERNARY_CYCLE_23, 3)
    assert len(wins) == 23
    assert max(Counter(wins).values()) > 1


def test_validate_cycle_rejects_empty_sequence():
    with pytest.raises(ValueError, match="^cyclic sequence must be non-empty$"):
        validate_cycle("", full_grams("01", 3))
    with pytest.raises(ValueError, match="^cyclic sequence must be non-empty$"):
        validate_cycle("", frozenset())


def test_validate_cycle_complete_binary():
    report = validate_cycle("00010111", full_grams("01", 3))
    assert report.complete and report.exact
    assert report.missing == frozenset() and report.extra == frozenset()
    assert report.duplicates == ()


def test_validate_cycle_own_sequence_is_exact():
    target = build_graph(TERNARY_ALPHABET, 3).edges
    report = validate_cycle(debruijn_sequence(TERNARY_ALPHABET, 3), target)
    assert report.exact


def test_validate_cycle_ternary_claim_is_incomplete():
    target = full_grams("018", 3)
    report = validate_cycle(TERNARY_CYCLE_23, target)
    counts = Counter(oracle_windows(TERNARY_CYCLE_23, 3))
    assert report.covered == frozenset(counts) & target
    assert report.missing == target - set(counts)
    assert report.extra == frozenset()
    assert dict(report.duplicates) == {g: c for g, c in counts.items() if c > 1}
    assert not report.complete
    assert len(report.missing) == 9


def test_validate_cycle_half_claims_cover_but_are_not_exact():
    # the hand-made 22-symbol strings hit all 12 fixture edges, with spillover
    for name, claim in HALF_CYCLE_CLAIMS.items():
        report = validate_cycle(claim, FIXTURE_EDGES[name])
        counts = Counter(oracle_windows(claim, 3))
        assert report.complete
        assert not report.exact
        assert report.extra == frozenset(counts) - FIXTURE_EDGES[name]
        assert report.extra


def test_validate_cycle_single_symbol_class():
    report = validate_cycle("888", full_grams("018", 3))
    assert report.covered == {"888"}
    assert len(report.missing) == 26


def test_validate_cycle_empty_target():
    report = validate_cycle("000", frozenset())
    assert report.complete and report.exact


def test_validate_cycle_rejects_mixed_gram_lengths():
    with pytest.raises(ValueError, match="mixed"):
        validate_cycle("000", {"00", "000"})


@st.composite
def full_claims(draw):
    """(sequence, alphabet, n, None): 1-4 symbols in a random order, n in
    2..6, and a claim of 1 to k^n + 5 symbols: a De Bruijn sequence rotated,
    or random symbols, sometimes with one outside the alphabet."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 6))
    alphabet = Alphabet(tuple(draw(st.permutations("018a"))[:k]))
    if draw(st.booleans()):
        seq = debruijn_sequence(alphabet, n)
        r = draw(st.integers(0, len(seq) - 1))
        return seq[r:] + seq[:r], alphabet, n, None
    pool = alphabet.symbols + (("9",) if draw(st.booleans()) else ())
    seq = draw(st.text(st.sampled_from(pool), min_size=1, max_size=k ** n + 5))
    return seq, alphabet, n, None


@st.composite
def fixture_claims(draw):
    """(sequence, TERNARY_ALPHABET, 3, name): a claim of 1 to 40 symbols
    against the fixture E0, E1 or E2, sometimes with one outside 018."""
    pool = TERNARY_ALPHABET.symbols + (("9",) if draw(st.booleans()) else ())
    seq = draw(st.text(st.sampled_from(pool), min_size=1, max_size=40))
    return seq, TERNARY_ALPHABET, 3, draw(st.sampled_from(sorted(FIXTURE_EDGES)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(full_claims(), fixture_claims()))
@example(("0", BINARY, 3, None))             # shorter than n
@example(("110110", Alphabet.from_string("10"), 2, None))  # repeats
@example(("0190", BINARY, 2, None))          # a foreign symbol
@example(("x0x9x", BINARY, 2, None))         # foreign symbols, named once each
@example(("0000", Alphabet.from_string("0"), 4, None))     # exact over one symbol
@example((TERNARY_CYCLE_23, TERNARY_ALPHABET, 3, None))
@example((TERNARY_CYCLE_23, TERNARY_ALPHABET, 3, "E0"))
@example((HALF_CYCLE_CLAIMS["E1"], TERNARY_ALPHABET, 3, "E1"))  # complete, with extras
@example((HALF_CYCLE_CLAIMS["E2"], TERNARY_ALPHABET, 3, "E2"))
@example(("0x1", TERNARY_ALPHABET, 3, "E1"))
def test_coverage_matches_the_reference(case):
    # the window-index counts equal the string sets of the reference, against
    # the full graph's edge set or a fixture's, for a claim over the
    # alphabet; any other claim is refused
    seq, alphabet, n, name = case
    target = FIXTURE_EDGES[name] if name else None
    bad = list(dict.fromkeys(c for c in seq if c not in alphabet.symbols))
    if bad:
        with pytest.raises(ValueError) as exc:
            coverage(seq, alphabet, n, target)
        assert str(exc.value) == f"symbols {bad!r} not in alphabet {''.join(alphabet.symbols)!r}"
    else:
        report = validate_cycle(seq, target or build_graph(alphabet, n).edges)
        covered, total, missing, extra, duplicates = coverage(seq, alphabet, n, target)
        key = alphabet_key(alphabet.symbols)
        assert (covered, total) == (len(report.covered), len(report.covered) + len(report.missing))
        assert list(missing) == sorted(report.missing, key=key)
        assert extra == tuple(sorted(report.extra, key=key))
        assert duplicates == report.duplicates


def test_check_order_caps_the_edge_count():
    top = MAX_DEBRUIJN_EDGES.bit_length() - 1
    assert 2 ** top == MAX_DEBRUIJN_EDGES
    check_order(BINARY, top)
    check_order(Alphabet.from_string("0"), top)
    check_order(Alphabet.from_string("0123"), top // 2)
    message = f"the supported maximum is {MAX_DEBRUIJN_EDGES} edges and order {top}$"
    for alphabet, order in [(BINARY, top + 1), (Alphabet.from_string("0"), top + 1),
                            (Alphabet.from_string("0123"), top // 2 + 1),
                            (BINARY, 10 ** 12)]:  # refused before k^n is computed
        with pytest.raises(ValueError, match=message):
            check_order(alphabet, order)
    with pytest.raises(ValueError, match=message):  # a graph, too, is held to the cap
        DeBruijnGraph(BINARY, top + 1, frozenset())


def test_derived_fixtures_equal_their_literal_edge_sets():
    # E0 and E2 are derived from their relations; pin them to the literal sets
    assert FIXTURE_EDGES["E0"] == {"010", "080", "101", "181", "808", "818"}
    assert FIXTURE_EDGES["E2"] == {"000", "008", "081", "088", "100", "108",
                                   "110", "111", "810", "811", "881", "888"}
    assert FIXTURE_EDGES["E2"] == {e[::-1] for e in FIXTURE_EDGES["E1"]}


def test_fixture_partition_of_full_graph():
    e0, e1, e2 = (FIXTURE_EDGES[n] for n in ("E0", "E1", "E2"))
    assert len(e0) == 6 and len(e1) == 12 and len(e2) == 12
    assert e0 | e1 | e2 == full_grams("018", 3)
    assert e1 & e2 == {"000", "111", "888"}  # the palindromic self-loops
    assert not e0 & e1 and not e0 & e2


def test_edges_for_class_matches_decompose():
    # the edges of B(018, 3) whose digit sum is z mod 9 spell decompose(z)
    edges = build_graph(TERNARY_ALPHABET, 3).edges
    for z in range(9):
        multisets = {tuple(sorted(int(c) for c in e)) for e in edges
                     if sum(int(c) for c in e) % 9 == z}
        assert sorted(multisets) == decompose(z)


def test_to_dot_structure():
    g = build_graph(BINARY, 3)
    dot = to_dot(g, name="binary")
    assert dot.startswith('digraph "binary" {')
    assert dot.count("[label=") == 4 + 8
    assert '"00" -> "01" [label="001"];' in dot
    nodes, edges, lines = dot_lines(BINARY, 3, name="binary")
    assert (nodes, edges, "".join(lines)) == (4, 8, dot)


def test_to_dot_empty_graph():
    dot = to_dot(DeBruijnGraph(BINARY, 2, frozenset()))
    assert dot == 'digraph "debruijn" {\n}\n'
    nodes, edges, lines = dot_lines(BINARY, 2, frozenset())
    assert (nodes, edges, "".join(lines)) == (0, 0, dot)


def test_full_dot_lines_check_the_order_before_the_first_line():
    for edges in (None, frozenset()):
        with pytest.raises(ValueError, match="order must be >= 2"):
            dot_lines(BINARY, 1, edges)
        with pytest.raises(ValueError, match="is too large"):
            dot_lines(BINARY, MAX_DEBRUIJN_EDGES.bit_length(), edges)


@given(alphabets, st.integers(2, 4))
def test_full_graph_counts_and_degrees(alphabet, n):
    g = build_graph(alphabet, n)
    k = len(alphabet)
    assert len(g.nodes) == k ** (n - 1)
    assert len(g.edges) == k ** n
    out_deg = Counter(e[:-1] for e in g.edges)
    in_deg = Counter(e[1:] for e in g.edges)
    assert all(out_deg[v] == k and in_deg[v] == k for v in g.nodes)
    assert len(eulerian_circuit(g)) == len(g.edges)


@settings(max_examples=30, deadline=None)
@given(alphabets.filter(lambda a: len(a) <= 3), st.integers(2, 4))
def test_debruijn_sequence_windows_all_distinct(alphabet, n):
    seq = debruijn_sequence(alphabet, n)
    wins = cyclic_windows(seq, n)
    assert len(wins) == len(alphabet) ** n
    assert len(set(wins)) == len(wins)


@settings(max_examples=60, deadline=None)
@given(shuffled_full_graphs())
@example((Alphabet.from_string("10"), 4))
@example((Alphabet.from_string("ba"), 3))
@example((Alphabet.from_string("810"), 4))
def test_debruijn_sequence_equals_hierholzer_on_full_graph(case):
    # the generator needs no graph; its output is pinned byte-for-byte to the
    # circuit Hierholzer walks on the full graph
    alphabet, n = case
    assert debruijn_sequence(alphabet, n) == \
        circuit_to_sequence(eulerian_circuit(build_graph(alphabet, n)))


@settings(max_examples=30, deadline=None)
@given(alphabets, st.integers(2, 3))
def test_circuit_round_trip(alphabet, n):
    circuit = eulerian_circuit(build_graph(alphabet, n))
    wins = cyclic_windows(circuit_to_sequence(circuit), n)
    assert wins == circuit[n - 1:] + circuit[:n - 1]


def naive_status(symbols, edges):
    """(unbalanced nodes in alphabet order, strongly connected) from degree
    counts and a search forwards and backwards from the least active node."""
    key = alphabet_key(symbols)
    out_deg, in_deg = Counter(e[:-1] for e in edges), Counter(e[1:] for e in edges)
    active = set(out_deg) | set(in_deg)
    unbalanced = tuple(sorted((v for v in active if out_deg[v] != in_deg[v]), key=key))
    if not active:
        return unbalanced, True

    def reach(pairs):
        succ = {}
        for u, v in pairs:
            succ.setdefault(u, set()).add(v)
        seen, todo = set(), [min(active, key=key)]
        while todo:
            u = todo.pop()
            if u not in seen:
                seen.add(u)
                todo.extend(succ.get(u, ()))
        return seen

    forward = reach((e[:-1], e[1:]) for e in edges)
    backward = reach((e[1:], e[:-1]) for e in edges)
    return unbalanced, forward == backward == active


def naive_circuit(symbols, edges):
    """Smallest-first Hierholzer: start at the least node, always leave by the
    least unused edge, and emit edges as the walk backs out of dead ends."""
    key = alphabet_key(symbols)
    unused = {}
    for e in sorted(edges, key=key):
        unused.setdefault(e[:-1], []).append(e)
    path, circuit = [(min(unused, key=key), None)], []
    while path:
        node, via = path[-1]
        if unused.get(node):
            e = unused[node].pop(0)
            path.append((e[1:], e))
        else:
            path.pop()
            if via is not None:
                circuit.append(via)
    return circuit[::-1]


@st.composite
def rank_sum_subgraphs(draw):
    """(symbols, order, edges, dropped): a shuffled alphabet of 1-5 symbols,
    order 2-6 with k^n <= 4000, and the n-grams whose symbol ranks sum to at
    most L.  Each such subgraph is balanced and strongly connected; dropping
    one edge, which happens half the time, usually breaks that."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2, max(n for n in range(2, 7) if k ** n <= 4000)))
    symbols = tuple(draw(st.permutations("018ab"))[:k])
    limit = draw(st.integers(0, (k - 1) * n))
    edges = {"".join(p) for p in product(symbols, repeat=n)
             if sum(map(symbols.index, p)) <= limit}
    dropped = draw(st.booleans())
    if dropped:
        edges.discard(draw(st.sampled_from(sorted(edges))))
    return symbols, n, frozenset(edges), dropped


@settings(max_examples=150, deadline=None)
@given(rank_sum_subgraphs())
@example((tuple("018"), 3, FIXTURE_EDGES["E0"], True))  # balanced, three separate 2-cycles
@example((tuple("810"), 2, frozenset({"00", "01", "88"}), True))  # unbalanced and disconnected
def test_eulerian_layer_matches_naive_reference(case):
    # the walk raises exactly where the reference finds no circuit, naming
    # the unbalanced nodes first and the connectivity only when all balance
    symbols, n, edges, dropped = case
    graph = DeBruijnGraph(Alphabet(symbols), n, edges)
    unbalanced, connected = naive_status(symbols, edges)
    if not edges:
        message = "graph has no edges to traverse"
    elif unbalanced:
        message = f"unbalanced nodes: {', '.join(unbalanced)}"
    elif not connected:
        message = "active nodes are not strongly connected"
    else:
        circuit = naive_circuit(symbols, edges)
        assert eulerian_circuit(graph) == circuit
        assert debruijn_sequence(graph.alphabet, n, edges) == "".join(e[-1] for e in circuit)
        return
    assert dropped
    with pytest.raises(NotEulerianError) as raised:
        eulerian_circuit(graph)
    assert str(raised.value) == message
    with pytest.raises(NotEulerianError) as raised:
        debruijn_sequence(graph.alphabet, n, edges)
    assert str(raised.value) == message


@settings(max_examples=100, deadline=None)
@given(st.one_of(shuffled_full_graphs().map(lambda case: (*case, None)),
                 rank_sum_subgraphs().map(lambda case: (Alphabet(case[0]), case[1], case[2])),
                 st.sampled_from(sorted(FIXTURE_EDGES)).map(
                     lambda name: (TERNARY_ALPHABET, 3, FIXTURE_EDGES[name]))))
@example((Alphabet.from_string("10"), 5, None))
@example((Alphabet.from_string("0"), 2, None))
@example((TERNARY_ALPHABET, 3, FIXTURE_EDGES["E0"]))
@example((Alphabet.from_string("810"), 2, frozenset({"08", "80", "11"})))
def test_dot_lines_equal_the_reference(case):
    # one product() walk gives alphabet order for any order of the symbols,
    # for the full graph and for an edge subset alike
    alphabet, n, edges = case
    graph = build_graph(alphabet, n) if edges is None else DeBruijnGraph(alphabet, n, edges)
    nodes, edge_count, lines = dot_lines(alphabet, n, edges, name="g")
    lines = list(lines)
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    assert "".join(lines) == to_dot(graph, name="g")
    assert (nodes, edge_count) == (len(graph.nodes), len(graph.edges))


def test_debruijn_sequence_peak_memory_per_symbol():
    # the Lyndon words are strs, joined once and rotated: a list of symbol
    # indices took about 17 bytes per symbol, and a rotated list and its two
    # slices about 25; the strs take under 6
    tracemalloc.start()
    try:
        seq = debruijn_sequence(BINARY, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(seq)
