import ast
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubegraph.corpus
from cubegraph import cli, debruijn, residues, search

from oracles import build_graph, per_line_blocks, search_csv, spelled_labels, to_dot, utf8_lines

TERNARY_CYCLE_23 = "00088808881118100010110"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_table(capsys):
    code, out, _ = run(capsys, "classes")
    assert code == 0
    assert "class 4: infeasible" in out
    assert "class 5: infeasible" in out
    assert "8+8+8" in out
    assert "-1-1+8" in out
    line6 = next(line for line in out.splitlines() if line.startswith("class 6"))
    assert line6.count("|") == 3  # four spellings for 8+8+8


def test_classes_output_is_pinned(capsys):
    # spellings come in residue-tuple order (-1 < 0 < 1 < 8), which a sort of
    # the spelled strings would not keep: it puts '-1+8+8' before '-1-1+8'
    assert run(capsys, "classes") == (0, (
        "class 0: 0+0+0  [0+0+0]\n"
        "         0+1+8  [-1+0+1 | 0+1+8]\n"
        "class 1: 0+0+1  [0+0+1]\n"
        "         1+1+8  [-1+1+1 | 1+1+8]\n"
        "class 2: 0+1+1  [0+1+1]\n"
        "class 3: 1+1+1  [1+1+1]\n"
        "class 4: infeasible (no residue triple sums to 4 mod 9)\n"
        "class 5: infeasible (no residue triple sums to 5 mod 9)\n"
        "class 6: 8+8+8  [-1-1-1 | -1-1+8 | -1+8+8 | 8+8+8]\n"
        "class 7: 0+8+8  [-1-1+0 | -1+0+8 | 0+8+8]\n"
        "class 8: 0+0+8  [-1+0+0 | 0+0+8]\n"
        "         1+8+8  [-1-1+1 | -1+1+8 | 1+8+8]\n"), "")


def test_graph_to_stdout_binary(capsys):
    code, out, _ = run(capsys, "graph", "--alphabet", "01", "--order", "3")
    assert code == 0
    assert out.count("->") == 8
    assert out.count("[label=") == 4 + 8


def test_graph_to_file_ternary(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--alphabet", "018", "--order", "3",
                       "--dot", str(dot))
    assert code == 0
    assert "9 nodes, 27 edges" in out
    text = dot.read_text()
    assert text.count("->") == 27


@pytest.mark.parametrize("name,nodes,edges", [("E0", 6, 6), ("E1", 6, 12), ("E2", 6, 12)])
def test_graph_subgraph_fixture(capsys, tmp_path, name, nodes, edges):
    dot = tmp_path / "g1.dot"
    code, out, _ = run(capsys, "graph", "--subgraph", name, "--dot", str(dot))
    assert code == 0
    assert f"{nodes} nodes, {edges} edges" in out
    assert dot.read_text().count("->") == edges


def test_graph_bad_order_creates_no_dot_file(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    assert run(capsys, "graph", "--order", "1", "--dot", str(dot)) == \
        (2, "", "error: order must be >= 2, got 1\n")
    assert not dot.exists()


SYMBOL_RULE = "error: symbols may not be whitespace, unprintable, a double quote or a backslash: "


@pytest.mark.parametrize("argv,bad", [
    (("graph", "--alphabet", '"a', "--order", "2"), '"'),  # DOT quotes each gram with it
    (("validate", " ", "--alphabet", " 0", "--order", "2"), " "),  # it separates grams
    (("cycle", "--alphabet", "0\t1"), "\t"),
])
def test_symbols_that_output_cannot_carry_are_usage_errors(capsys, argv, bad):
    assert run(capsys, *argv) == (2, "", f"{SYMBOL_RULE}[{bad!r}]\n")


def test_graph_bad_symbol_creates_no_dot_file(capsys, tmp_path):
    dot = tmp_path / "F"
    assert run(capsys, "graph", "--alphabet", "\\0", "--dot", str(dot)) == \
        (2, "", SYMBOL_RULE + "['\\\\']\n")
    assert not dot.exists()


# SHA-256 of the DOT text each invocation prints; alphabet 10 checks that
# nodes and edges are listed in alphabet order, not code-point order
@pytest.mark.parametrize("argv,digest", [
    (("--subgraph", "E0"), "a34c84db66774475d27df859eaf1e229a61c18545429673f613112ce39005ec0"),
    (("--subgraph", "E1"), "1edda8fc790cfd4d76098f6f6f05bc74057cf23558482e98a2ad6e7791b0bdf3"),
    (("--subgraph", "E2"), "298ff89e55bca5e8a2a6e54795e96ff7fa382143c3ce25e44f6af785c2d92640"),
    (("--alphabet", "10", "--order", "3"),
     "4ad73882cec15f7225947e5e740f1360ecfc87e4ce2faed6a9383c3864062d83"),
])
def test_graph_stdout_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, "graph", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ORACLE = PERFBENCH / "oracle.json"


def test_benchmark_oracle_replays_in_process(capsys):
    # every fixed invocation of the benchmark, with the exit code and stdout
    # SHA-256 its correctness check expects
    oracle = json.loads(ORACLE.read_text(encoding="utf-8"))
    assert oracle
    for command, want in oracle.items():
        code, out, _ = run(capsys, *command.split())
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == \
            (want["code"], want["sha256"]), command


def test_benchmark_traced_pass_runs_at_smoke_size(monkeypatch, tmp_path):
    # the in-process pass of `perfbench/run.py --trace 1`, which wraps the
    # package's public functions and reads their results, on every workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus
    import tracing
    import workloads

    oracle = workloads.load_oracle()
    for wl in workloads.workloads(smoke=True).values():
        rows = path = None
        if wl.corpus_rows:
            rows = corpus.generate(3, wl.corpus_rows)
            path = tmp_path / "corpus.csv"
            path.write_text(rows.text, encoding="utf-8")
        _, _, attempted, failures, _ = tracing.traced_run(wl, oracle, path, rows)
        assert (attempted, failures) == (len(wl.steps) + bool(wl.sub_order), []), wl.name


@pytest.mark.parametrize("symbols,order", [("01", 8), ("10", 5), ("810", 3), ("ba", 4), ("0", 2)])
def test_full_graph_dot_builds_no_graph(capsys, monkeypatch, tmp_path, symbols, order):
    want = to_dot(build_graph(debruijn.Alphabet.from_string(symbols), order),
                  name=f"debruijn_{symbols}_{order}")

    def forbidden(*args):
        raise AssertionError("a full graph's DOT needs no graph")

    monkeypatch.setattr(debruijn, "DeBruijnGraph", forbidden)
    argv = ("graph", "--alphabet", symbols, "--order", str(order))
    assert run(capsys, *argv) == (0, want, "")
    dot = tmp_path / "g.dot"
    nodes, edges = len(symbols) ** (order - 1), len(symbols) ** order
    assert run(capsys, *argv, "--dot", str(dot)) == \
        (0, f"wrote DOT ({nodes} nodes, {edges} edges) to {dot}\n", "")
    assert dot.read_text(encoding="utf-8") == want


def test_graph_unknown_fixture_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["graph", "--subgraph", "E9"])
    assert exc.value.code == 2


def test_graph_unwritable_file(capsys, tmp_path):
    code, _, err = run(capsys, "graph", "--dot", str(tmp_path / "no" / "dir" / "g.dot"))
    assert code == 2
    assert "error" in err


def test_cycle_binary(capsys):
    code, out, _ = run(capsys, "cycle", "--alphabet", "01", "--order", "3")
    assert code == 0
    assert "length: 8" in out


def test_cycle_ternary(capsys):
    code, out, _ = run(capsys, "cycle")
    assert code == 0
    assert "length: 27" in out


def test_cycle_e0_is_diagnosed(capsys):
    code, out, _ = run(capsys, "cycle", "--subgraph", "E0")
    assert code == 1
    assert "strongly connected" in out


@pytest.mark.parametrize("symbols,order", [("810", 4), ("0", 3)])
def test_cycle_prints_the_hierholzer_sequence(capsys, symbols, order):
    alphabet = debruijn.Alphabet.from_string(symbols)
    seq = debruijn.circuit_to_sequence(
        debruijn.eulerian_circuit(build_graph(alphabet, order)))
    code, out, _ = run(capsys, "cycle", "--alphabet", symbols, "--order", str(order))
    assert code == 0
    assert out == f"sequence: {seq}\nlength: {len(seq)}\n"


def test_cycle_full_graph_builds_no_graph(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a full sequence needs no graph")

    monkeypatch.setattr(debruijn, "DeBruijnGraph", forbidden)
    monkeypatch.setattr(debruijn, "eulerian_circuit", forbidden)
    code, out, _ = run(capsys, "cycle", "--alphabet", "01", "--order", "3")
    assert code == 0
    assert "length: 8" in out


@pytest.mark.parametrize("argv,message", [
    (("--order", "1"), "error: order must be >= 2, got 1\n"),
    (("--alphabet", "001"), "error: duplicate symbols: ('0', '0', '1')\n"),
])
def test_cycle_bad_alphabet_or_order_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "cycle", *argv)
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize("name,want_code,want_out", [
    ("E0", 1, "no Eulerian circuit: active nodes are not strongly connected\n"),
    ("E1", 0, "sequence: 011180188800\nlength: 12\n"),
    ("E2", 0, "sequence: 081088811100\nlength: 12\n"),
])
def test_cycle_fixture_subgraph_output(capsys, name, want_code, want_out):
    code, out, _ = run(capsys, "cycle", "--subgraph", name)
    assert (code, out) == (want_code, want_out)


def test_validate_classic_binary_string(capsys):
    code, out, _ = run(capsys, "validate", "00010111", "--alphabet", "01", "--order", "3")
    assert code == 0
    assert "complete: yes" in out and "exact: yes" in out


def test_validate_ternary_claim_fails_with_missing_list(capsys):
    code, out, _ = run(capsys, "validate", TERNARY_CYCLE_23)
    assert code == 1
    assert "missing (9): 018 080 081 108 180 188 800 801 818" in out
    assert "duplicates: 000 x3, 088 x2, 100 x2, 888 x2" in out


def test_validate_single_symbol_string(capsys):
    code, out, _ = run(capsys, "validate", "888")
    assert code == 1
    assert "covered: 1/27" in out
    assert "missing (26):" in out


def test_validate_against_fixture(capsys):
    code, out, _ = run(capsys, "validate", "0111818880800018180801", "--against", "E1")
    assert code == 1
    assert "complete: yes" in out  # covers all 12 edges but spills extras
    assert "exact: no" in out


def test_validate_symbol_outside_alphabet(capsys):
    code, _, err = run(capsys, "validate", "0102", "--alphabet", "01")
    assert code == 2
    assert "alphabet" in err


BINARY_16 = debruijn.debruijn_sequence(debruijn.Alphabet.from_string("01"), 16)


# SHA-256 of stdout and the exit code: an exact B(01, 16) claim, an
# incomplete one with a missing list, and duplicates over the unsorted
# alphabet 10 (listed in code-point order)
@pytest.mark.parametrize("argv,want_code,digest", [
    ((BINARY_16, "--alphabet", "01", "--order", "16"), 0,
     "1cceda0c4d84b237498635a6afe802a09440a41afcd4ea6fbfa4667739044958"),
    (("01", "--alphabet", "01", "--order", "5"), 1,
     "727ad3ae4694c07e39d6b006a258689a490520357fc44a0cfb9b57833b62d51e"),
    (("110110", "--alphabet", "10", "--order", "2"), 1,
     "cd7ddcffab02620f823328952139d7fe58dc8d8f9663dabdd74e90be6bb716c7"),
])
def test_validate_stdout_is_pinned(capsys, argv, want_code, digest):
    code, out, err = run(capsys, "validate", *argv)
    assert (code, err) == (want_code, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_validate_reads_a_claim_too_long_for_argv_from_stdin(capsys, monkeypatch):
    # 131,072 symbols: one more byte than a single Linux argument may hold
    seq = debruijn.debruijn_sequence(debruijn.Alphabet.from_string("01"), 17)
    monkeypatch.setattr(sys, "stdin", io.StringIO(seq + "\n"))
    code, out, err = run(capsys, "validate", "-", "--alphabet", "01", "--order", "17")
    assert (code, err) == (0, "")
    assert out == ("windows: 131072\ncovered: 131072/131072\nmissing (0):\nextra (0):\n"
                   "duplicates: none\ncomplete: yes\nexact: yes\n")


@pytest.mark.parametrize("argv,message", [
    (("01", "--order", "1"), "error: order must be >= 2, got 1\n"),
    (("0102", "--alphabet", "01", "--order", "1"), "error: order must be >= 2, got 1\n"),
    (("", "--alphabet", "01"), "error: cyclic sequence must be non-empty\n"),
    (("", "--alphabet", "01", "--order", "1"), "error: order must be >= 2, got 1\n"),
    (("01", "--alphabet", "001"), "error: duplicate symbols: ('0', '0', '1')\n"),
    (("0x1", "--alphabet", "01"), "error: symbols ['x'] not in alphabet '01'\n"),
    (("", "--against", "E1"), "error: cyclic sequence must be non-empty\n"),
    (("0x1", "--against", "E1"), "error: symbols ['x'] not in alphabet '018'\n"),
])
def test_validate_bad_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "validate", *argv)
    assert (code, out, err) == (2, "", message)


def test_validate_full_builds_no_graph(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a full claim is validated without a graph, and an exact "
                             "one without naming a gram")

    monkeypatch.setattr(debruijn, "DeBruijnGraph", forbidden)
    monkeypatch.setattr(debruijn, "product", forbidden)
    code, out, err = run(capsys, "validate", "00010111", "--alphabet", "01", "--order", "3")
    assert (code, err) == (0, "")
    assert out.endswith("covered: 8/8\nmissing (0):\nextra (0):\nduplicates: none\n"
                        "complete: yes\nexact: yes\n")


def _forbidden(*args, **kwargs):
    raise AssertionError("nothing may be built above the cap")


CAP_ORDER = debruijn.MAX_DEBRUIJN_EDGES.bit_length() - 1  # B(01, CAP_ORDER) is at the cap


@pytest.mark.parametrize("argv", [
    ("graph", "--alphabet", "01"),
    ("cycle", "--alphabet", "01"),
    ("validate", "01", "--alphabet", "01"),
])
def test_debruijn_commands_refuse_orders_above_the_cap(capsys, monkeypatch, argv):
    assert 2 ** CAP_ORDER == debruijn.MAX_DEBRUIJN_EDGES
    for name in ("product", "_lyndon_concat"):
        monkeypatch.setattr(debruijn, name, _forbidden)
    # coverage's table of k^n window marks
    monkeypatch.setattr(debruijn, "bytearray", _forbidden, raising=False)
    code, out, err = run(capsys, *argv, "--order", str(CAP_ORDER + 1))
    assert (code, out) == (2, "")
    assert err == (f"error: B(01, {CAP_ORDER + 1}) is too large: the supported maximum is "
                   f"{debruijn.MAX_DEBRUIJN_EDGES} edges and order {CAP_ORDER}\n")


def test_debruijn_commands_accept_the_cap(capsys, monkeypatch):
    # stub the k^n-sized work: one edge for graph, one Lyndon word for cycle,
    # and for validate one gram to name, which the claim covers
    monkeypatch.setattr(debruijn, "product", lambda symbols, repeat: [("0",) * repeat])
    monkeypatch.setattr(debruijn, "_lyndon_concat", lambda symbols, order: "01")
    order = str(CAP_ORDER)
    code, out, err = run(capsys, "graph", "--alphabet", "01", "--order", order)
    assert (code, err) == (0, "")
    assert out.count("->") == 1
    assert run(capsys, "cycle", "--alphabet", "01", "--order", order) == \
        (0, "sequence: 01\nlength: 2\n", "")
    code, out, err = run(capsys, "validate", "0", "--alphabet", "01", "--order", order)
    assert (code, err) == (1, "")
    edges = debruijn.MAX_DEBRUIJN_EDGES
    assert out.startswith(f"windows: 1\ncovered: 1/{edges}\nmissing ({edges - 1}):\nextra (0):\n")


def test_search_writes_rows_and_summary(capsys, tmp_path):
    out_csv = tmp_path / "k29.csv"
    code, out, _ = run(capsys, "search", "29", "--bound", "4", "--out", str(out_csv))
    assert code == 0
    assert "2 representation(s)" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,x,y,z,class,path"
    assert lines[1] == "29,-3,-2,4,2,0+1+1"
    assert lines[2] == "29,1,1,3,2,0+1+1"


def test_search_infeasible_summary(capsys):
    code, out, _ = run(capsys, "search", "4", "--bound", "100")
    assert code == 0
    assert "infeasible (class 4)" in out
    assert "\n4," not in out  # no data rows


def test_search_stdout_csv(capsys):
    code, out, _ = run(capsys, "search", "29", "--bound", "4")
    assert code == 0
    assert "29,1,1,3,2,0+1+1" in out


def test_scan_excludes_infeasible_rows(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "scan", "--from", "1", "--to", "20", "--bound", "50",
                       "--out", str(out_csv), "--workers", "1")
    assert code == 0
    ks = {int(line.split(",")[0]) for line in out_csv.read_text().splitlines()[1:]}
    assert ks == set(range(1, 21)) - {4, 5, 13, 14}
    for k in (4, 5, 13, 14):
        assert f"k={k}: infeasible" in out


def test_scan_worker_count_does_not_change_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "scan", "--from", "-5", "--to", "12", "--bound", "30",
               "--out", str(a), "--workers", "1")[0] == 0
    assert run(capsys, "scan", "--from", "-5", "--to", "12", "--bound", "30",
               "--out", str(b), "--workers", "3")[0] == 0
    assert a.read_bytes() == b.read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 60), st.integers(1, 30))
@example(0, 0, 30)
@example(-3 * 30 ** 3, 0, 30)
def test_search_and_scan_csv_match_the_csv_writer(tmp_path_factory, k, width, bound):
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    for argv, reps in [
        (["search", str(k), "--bound", str(bound)], search.search_k(k, bound).representations),
        (["scan", "--from", str(k), "--to", str(k + width), "--bound", str(bound)],
         search.scan_range(search.SearchBounds(bound, (k, k + width)))),
    ]:
        want = search_csv(reps)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().startswith(want), argv
        if argv[0] == "scan":  # then each k of class 4 or 5, and the summary
            infeasible = [j for j in range(k, k + width + 1) if j % 9 in (4, 5)]
            assert out.getvalue()[len(want):] == "".join(
                f"k={j}: infeasible (class {j % 9})\n" for j in infeasible) + (
                f"scanned {width + 1} value(s) of k: {len(reps)} representation(s), "
                f"{len(infeasible)} infeasible\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == want.encode("utf-8"), argv
        assert out.getvalue().startswith(f"wrote {len(want.splitlines()) - 1} row(s) to {path}\n")


def test_scan_csv_is_rereadable_by_verify_corpus(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    run(capsys, "scan", "--from", "1", "--to", "12", "--bound", "20",
        "--out", str(out_csv), "--workers", "1")
    code, out, _ = run(capsys, "verify-corpus", str(out_csv))
    assert code == 0
    assert " 0 invalid, 0 parse error(s)" in out


def _scan_peak(*argv):
    """The traced peak of cmd_scan on parsed argv, its stdout going to
    /dev/null; every module it uses is imported before tracing starts."""
    args = cli.build_parser().parse_args(["scan", *argv])
    with open(os.devnull, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            assert cli.cmd_scan(args, out) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_width():
    # a k's rows are written as it comes and the infeasible k named in a
    # second pass, so no result per k is held: 10x the width, the same peak
    small = _scan_peak("--from", "1", "--to", "20000", "--bound", "1")
    assert _scan_peak("--from", "1", "--to", "200000", "--bound", "1") < small + 8 * 1024


def test_scan_memory_at_the_benchmark_window():
    # each k's hits are dropped once its rows are written
    assert _scan_peak("--from", "1", "--to", "300", "--bound", "300") < 300 * 1024


def test_verify_corpus_good_rows(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n15,-265,-262,332\n0,0,0,0\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 0
    assert "k=15 (-265,-262,332) OK class=6 path=8+8+8 signed=-1-1+8" in out
    assert "2 valid, 0 invalid" in out


def test_verify_corpus_flags_mismatch_and_continues(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n35,1,2,3\n29,1,1,3\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 1
    assert "INVALID sum=36" in out
    assert "k=29 (1,1,3) OK" in out


def test_verify_corpus_parse_error_reports_line(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n15,-265,-262,332\n1,one,2,3\n"
                      " 29 , 1,\t1, 3\n"      # padded: parses
                      "\x1f29,1,1,3\x1c\n"   # str.strip whitespace that int alone keeps
                      "1,2\n"                 # short: missing cells are None
                      "29,1,1,3,extra\n"      # long: the extra cell is ignored
                      ",,,\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 2
    assert out.splitlines()[1:] == [
        "line 3: parse error in {'k': '1', 'x': 'one', 'y': '2', 'z': '3'}",
        "line 4: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        "line 5: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        "line 6: parse error in {'k': '1', 'x': '2', 'y': None, 'z': None}",
        "line 7: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        "line 8: parse error in {'k': '', 'x': '', 'y': '', 'z': ''}",
        "4 valid, 0 invalid, 3 parse error(s)",
    ]


def test_verify_corpus_counts_blank_lines(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n29,1,1,3\n\n1,one,2,3\n\n\n35,1,2,3\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 2
    assert out.splitlines() == [
        "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        "line 4: parse error in {'k': '1', 'x': 'one', 'y': '2', 'z': '3'}",
        "line 7: k=35 (1,2,3) INVALID sum=36",
        "1 valid, 1 invalid, 1 parse error(s)",
    ]


def test_verify_corpus_numbers_a_multi_line_record_by_its_last_line(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text('k,x,y,z\n"29\n",1,1,"\n3"\n35,1,2,3\n')
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 1
    assert out.splitlines() == [
        "line 4: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        "line 5: k=35 (1,2,3) INVALID sum=36",
        "1 valid, 1 invalid, 0 parse error(s)",
    ]


def test_verify_corpus_reports_a_cube_sum_past_the_conversion_limit(capsys, tmp_path):
    # each term parses (1,501 digits), but the cube sum has 4,501: more than
    # the interpreter converts to str at once.  The row is still reported.
    big = "1" + "0" * 1500
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(f"k,x,y,z\n29,1,1,3\n1,{big},0,0\n35,1,2,3\n")
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "verify-corpus", str(corpus))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        f"line 3: k=1 ({big},0,0) INVALID sum=1{'0' * 4500}",
        "line 4: k=35 (1,2,3) INVALID sum=36",
        "1 valid, 2 invalid, 0 parse error(s)",
    ]
    assert sys.get_int_max_str_digits() == limit


def test_verify_corpus_term_past_the_conversion_limit_is_a_parse_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n1,1" + "0" * (sys.get_int_max_str_digits() + 1) + ",0,0\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 2
    assert out.startswith("line 2: parse error in ")
    assert out.endswith("0 valid, 0 invalid, 1 parse error(s)\n")


def test_verify_corpus_accepts_huge_integers(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "k,x,y,z\n42,-80538738812075974,80435758145817515,12602123297335631\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 0
    assert "k=42" in out and "OK" in out


def test_verify_corpus_missing_file(capsys, tmp_path):
    # a corpus that cannot be read is an OSError like any other: stderr, not stdout
    missing = tmp_path / "nope.csv"
    assert run(capsys, "verify-corpus", str(missing)) == \
        (2, "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    assert run(capsys, "verify-corpus", str(tmp_path)) == \
        (2, "", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


def test_verify_corpus_bad_header(capsys, tmp_path):
    # no output yet: stdout stays empty and the one message goes to stderr
    corpus = tmp_path / "corpus.csv"
    for data in (b"a,b\n1,2\n", b"", b"\nk,x,y,z\n29,1,1,3\n", b"\xef\xbb\xbfa,b\n1,2\n"):
        corpus.write_bytes(data)
        assert run(capsys, "verify-corpus", str(corpus)) == \
            (2, "", f"error: {corpus}: header must contain columns k,x,y,z\n"), data


def test_verify_corpus_accepts_a_byte_order_mark(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(b"\xef\xbb\xbfk,x,y,z\n29,1,1,3\n")
    code, out, err = run(capsys, "verify-corpus", str(corpus))
    assert (code, err) == (0, "")
    assert out == ("line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n"
                   "1 valid, 0 invalid, 0 parse error(s)\n")


def test_verify_corpus_field_over_the_csv_limit_is_a_usage_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n29,1,1,3\n\n1," + "1" * 200_000 + ",0,0\n")
    # the lines produced before the bad record stay on stdout; the message is on stderr
    assert run(capsys, "verify-corpus", str(corpus)) == \
        (2, "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n",
         f"error: {corpus}: line 4: field larger than field limit "
         f"({csv.field_size_limit()})\n")


def test_verify_corpus_builds_no_row_dict_or_representation(capsys, monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("verify-corpus labels a row without a dict or a Representation")

    monkeypatch.setattr(csv, "DictReader", forbidden)
    monkeypatch.setattr(search, "Representation", forbidden)
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("z,k,y,x\n332,15,-262,-265\n3,35,2,1\n\n2,1\n3,29,1,1,extra\n")
    code, out, err = run(capsys, "verify-corpus", str(corpus))
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "line 2: k=15 (-265,-262,332) OK class=6 path=8+8+8 signed=-1-1+8",
        "line 3: k=35 (1,2,3) INVALID sum=36",
        "line 5: parse error in {'z': '2', 'k': '1', 'y': None, 'x': None}",
        "line 6: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1",
        "2 valid, 1 invalid, 1 parse error(s)",
    ]


def _verify_corpus_with_dict_reader(path):
    """The row loop `verify-corpus` ran before it read rows as lists, with
    one csv.DictReader dict per row, checking the cube sum itself and
    spelling the labels from the arithmetic (oracles.spelled_labels), not
    from the tables in residues.  The reference for
    test_verify_corpus_matches_the_dict_reader_loop.  Returns the exit
    code, stdout and stderr."""
    lines = []
    parse_errors = invalid = valid = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"k", "x", "y", "z"} <= set(reader.fieldnames):
            return 2, "", f"error: {path}: header must contain columns k,x,y,z\n"
        for raw in reader:
            i = reader.line_num
            try:
                k, x, y, z = map(int, map(str.strip, (raw["k"], raw["x"], raw["y"], raw["z"])))
            except (TypeError, ValueError):
                parse_errors += 1
                lines.append(f"line {i}: parse error in {raw!r}")
                continue
            total = x**3 + y**3 + z**3
            if total != k:
                invalid += 1
                lines.append(f"line {i}: k={k} ({x},{y},{z}) "
                             f"INVALID sum={residues.exact_str(total)}")
                continue
            valid += 1
            path, signed = spelled_labels(x, y, z)
            lines.append(f"line {i}: k={k} ({x},{y},{z}) OK "
                         f"class={k % 9} path={path} signed={signed}")
    lines.append(f"{valid} valid, {invalid} invalid, {parse_errors} parse error(s)")
    code = 2 if parse_errors else 0 if invalid == 0 else 1
    return code, "".join(f"{line}\n" for line in lines), ""


# what str.strip removes and int alone keeps: \x1c-\x1f; a newline only inside quotes
_PAD = " \t\x1c\x1d\x1e\x1f"
_JUNK = st.sampled_from(["", "one", "1.5", "--1", "1_000", "+7", "\u0663", "1,2", "''"])
_HEADERS = st.sampled_from([
    ["k", "x", "y", "z"], ["z", "k", "y", "x"], ["k", "x", "y", "z", "note"],
    ["k", "x", "x", "y", "z"], ["x", "k", "y", "z", "k"], ["k", "x", "y", "z", "x"],
    ["k", "x", "y"], ["K", "x", "y", "z"]])
_TERMS = st.integers(-30, 30) | st.integers(-10**22, 10**22)


def _quote(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _corpus_record(draw, header):
    x, y, z = draw(_TERMS), draw(_TERMS), draw(_TERMS)
    value = {"k": x**3 + y**3 + z**3 + draw(st.sampled_from([0, 0, 0, 1, -9])),
             "x": x, "y": y, "z": z}
    cells = []
    for name in header:
        if name in value and draw(st.integers(0, 29)):
            cell = str(value[name])
        else:
            cell = draw(_JUNK)
        if draw(st.booleans()):
            pad = draw(st.text(_PAD + "\n", max_size=2)), draw(st.text(_PAD + "\n", max_size=2))
            cell = _quote(pad[0] + cell + pad[1])
        elif "," in cell or not draw(st.integers(0, 3)):
            cell = _quote(cell)
        else:
            cell = draw(st.text(_PAD, max_size=2)) + cell + draw(st.text(_PAD, max_size=2))
        cells.append(cell)
    shape = draw(st.sampled_from(["full"] * 20 + ["short", "long", "blank", "blank", "space"]))
    if shape == "short":
        cells = cells[:draw(st.integers(1, len(cells) - 1))]
    elif shape == "long":
        cells += draw(st.lists(_JUNK.map(_quote), min_size=1, max_size=2))
    elif shape == "blank":
        cells = []
    elif shape == "space":
        cells = [draw(st.text(_PAD, min_size=1, max_size=2))]
    return ",".join(cells)


@st.composite
def corpus_texts(draw):
    header = draw(_HEADERS)
    lines = [""] * draw(st.sampled_from([0] * 10 + [1, 2])) + [",".join(header)]
    lines += draw(st.lists(_corpus_record(header), max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


# terms that int() reads and str() spells otherwise, each in a row of its own
# between plain rows: with blocks of one line, the plain and the other alternate
_SPELLINGS = ("k,x,y,z\n" + "29,1,1,3\n".join([
    "", "345,007,1,1\n", "029,1,1,3\n", "9,1,2,-0\n", "9,1,2,0\n", "0,1,-1,0\n",
    "-10,-1,-1,-2\n", "-010,-1,-1,-2\n", "127,+5,1,1\n", "1000000002,1_000,1,1\n",
    "29,\u0663,1,1\n", "29,1,1,3 \n", ""]))
# a quote opens a field that runs on through blocks that hold only line ends
_UNTERMINATED = "k,x,y,z\n" + "29,1,1,3\n" * 400 + '29,1,1,"3' + "\n" * 40_000
# rows that are split at their commas, then the first quote, from which csv.reader
# reads on: with blocks of one line, plain and other blocks come before it
_QUOTE_AFTER_BLOCKS = ('k,x,y,z\n29,1,1,3\n29, 1,1,3\n-10,-1,-1,-2\n029,1,1,3\n1,2\n'
                       '29,1,1,3\n"29",1,1,3\n35,1,"2\n",3\n\n1,2\n29,1,1,3\n')
# the first quote in the middle of the second block
_QUOTE_MID_BLOCK = ("k,x,y,z\n" + "29,1,1,3\n" * 1000 + '35,1,2,3\n29,"1",1,3\n'
                    + '29,1,"1\n",3\n' + "29,1,1,3\n" * 1000)
# blank lines and lines ended by \r alone before the switch
_BLANK_BEFORE_QUOTE = 'k,x,y,z\r\n29,1,1,3\r\r\n\n35,1,2,3\r29, 1,1,3\r\n\r"29",1,1,3\n\r29,1,1,3\r'


@settings(max_examples=300, deadline=None)
@given(corpus_texts())
@example('\nk,x,y,z\n29,1,1,3\n')  # the header is the first record, even a blank one
@example('k,x,y,z\n\n"29\n",1,1,"\n3"\n1,2\n35,1,2,3,4\n1,one,2,3,4,5\n')
@example(_SPELLINGS)
@example(_SPELLINGS.replace("\n", "\r\n"))
@example(_UNTERMINATED)
@example(_QUOTE_AFTER_BLOCKS)
@example(_QUOTE_MID_BLOCK)
@example(_BLANK_BEFORE_QUOTE)
def test_verify_corpus_matches_the_dict_reader_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    want = _verify_corpus_with_dict_reader(str(path))
    for read_size in (cubegraph.corpus._READ_SIZE, 1):  # then a block a line
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(cubegraph.corpus, "_READ_SIZE", read_size):
            code = cli.main(["verify-corpus", str(path)])
        assert (code, out.getvalue(), err.getvalue()) == want


# quote-free CSV text: what csv.reader reads as data, empty fields, blank lines
# and its three line ends
_QUOTE_FREE = st.lists(st.tuples(st.lists(st.text("09- \t\x1c\x1d\x1e\x1f", max_size=6),
                                          max_size=4).map(",".join),
                                 st.sampled_from(["\n", "\r", "\r\n"])),
                       max_size=8).map(lambda lines: "".join(map("".join, lines)))


@settings(max_examples=400, deadline=None)
@given(_QUOTE_FREE, st.integers(0, 40))
@example("1,2\n\n\r3,4\r\n,\n", 40)  # blank lines between records
@example("1,2\n345,6\n", 4)  # a field over the limit: 2 < 4 < 10 bytes
@example("1,2\n345,6\n", 10)
def test_split_reads_quote_free_lines_as_csv_reader_does(text, limit):
    # the argument for skipping csv.reader: on the lines of a block that holds
    # no quote and is no longer than the field limit, each line is one record
    # split at its commas; a longer block, which could hold a field over the
    # limit, is left to csv.reader
    lines = io.StringIO(text, newline="").readlines()  # ended as a corpus's lines are
    data = text.encode("utf-8")
    old = csv.field_size_limit(limit)
    try:
        want = [row or [""] for row in csv.reader(lines)]
    except csv.Error as err:
        want = err
    finally:
        csv.field_size_limit(old)
    got = cubegraph.corpus._split(lines, data, limit)
    if len(data) > limit:
        assert got is None
    else:
        assert list(got) == want


# what int() and str.strip() treat as space, or as a digit, and what they do not
_TERM_CHARS = "0123456789+-_ \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u3000\u0663\uff11"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_TERM_CHARS, max_size=6), min_size=1, max_size=8))
@example(["\x1c5", " 5\x85", "\u3000-\u0663\uff11 ", "+_1", "1__0", "\n7\r"])
def test_verify_corpus_parses_a_term_as_int_of_the_stripped_field(tmp_path_factory, terms):
    # each term is read first as int(field), then as int(field.strip()) only
    # if that raises: the values and the errors must be those of the second
    rows = []
    for term in terms:
        try:
            k = int(term.strip()) ** 3
        except ValueError:
            k = 1
        rows.append(f"{k}," + _quote(term) + ",0,0")
    path = tmp_path_factory.getbasetemp() / "terms.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,x,y,z\n" + "\n".join(rows) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify-corpus", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == _verify_corpus_with_dict_reader(str(path))


def _good_rows(n):
    """n corpus records (k, x, y, z) that all check, with varied terms."""
    return [(x**3 + y**3 + z**3, x, y, z)
            for x, y, z in ((i, -2 * i - 7, 10**21 + i) for i in range(n))]


def _good_corpus(path, n):
    """A corpus of n rows that check, then one that does not: exit 1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "x", "y", "z"])
        writer.writerows(_good_rows(n))
        writer.writerow([1, 2, 3, 4])
    return path


class CountingRaw(io.RawIOBase):
    """A binary stdout that keeps what it is given and counts its writes."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


@pytest.fixture
def unfrozen():
    """For a test that calls cli.entrypoint in process: entrypoint freezes
    the heap on its way out, and pytest's own objects must not stay frozen."""
    yield
    gc.unfreeze()
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("case", ["graph", "verify-corpus"])
def test_entrypoint_buffers_stdout_even_when_unbuffered(monkeypatch, tmp_path, case, unfrozen):
    if case == "graph":
        argv, want_code = ["graph", "--alphabet", "01", "--order", "12"], 0
        want = to_dot(build_graph(debruijn.Alphabet.from_string("01"), 12),
                      name="debruijn_01_12")
    else:
        corpus = _good_corpus(tmp_path / "corpus.csv", 3000)
        argv = ["verify-corpus", str(corpus)]
        want_code, want, _ = _verify_corpus_with_dict_reader(str(corpus))
    raw = CountingRaw()
    # what PYTHONUNBUFFERED gives: each write reaches the raw file at once
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8",
                                                        write_through=True))
    monkeypatch.setattr(sys, "argv", ["cubegraph", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert (exc.value.code, raw.data.decode("utf-8")) == (want_code, want)
    # TextIOWrapper passes text on 8 KiB at a time, sending what it holds
    # before a line that would overflow that: each piece is short by under a
    # line, which at these sizes costs no more than the 2 writes allowed
    assert len(raw.data) > 3 * 8192
    assert raw.writes <= len(raw.data) // 8192 + 2


class PartialRaw(CountingRaw):
    """A binary stdout that takes at most `piece` bytes a write, as a pipe may."""

    def __init__(self, piece):
        super().__init__()
        self.piece = piece

    def write(self, b):
        return super().write(bytes(b[:self.piece]))


@pytest.mark.parametrize("piece", [1, 100, 1 << 30])
def test_verify_corpus_keeps_the_lines_before_a_csv_error(capsys, monkeypatch, tmp_path, piece,
                                                          unfrozen):
    # through entrypoint's own stdout, whatever share of a write the file takes
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n29,1,1,3\n35,1,2,3\n1," + "1" * 200_000 + ",0,0\n1,2,3,4\n")
    raw = PartialRaw(piece)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BufferedWriter(raw),
                                                        encoding="utf-8", write_through=True))
    monkeypatch.setattr(sys, "argv", ["cubegraph", "verify-corpus", str(corpus)])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert (exc.value.code, raw.data.decode("utf-8"), capsys.readouterr().err) == \
        (2, "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n"
            "line 3: k=35 (1,2,3) INVALID sum=36\n",
         f"error: {corpus}: line 4: field larger than field limit "
         f"({csv.field_size_limit()})\n")


def test_an_error_mid_run_comes_after_the_lines_already_produced(capsys, monkeypatch, tmp_path):
    real = cubegraph.corpus._split

    def fail_on_second(lines, data, limit):
        for n, record in enumerate(real(lines, data, limit)):
            if n == 2:  # after the header and the first row
                raise ValueError("second row")
            yield record

    monkeypatch.setattr(cubegraph.corpus, "_split", fail_on_second)
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n29,1,1,3\n29,1,1,3\n")
    assert run(capsys, "verify-corpus", str(corpus)) == \
        (2, "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n", "error: second row\n")


def test_verify_corpus_names_the_file_and_line_of_a_byte_that_is_not_utf8(capsys, tmp_path):
    # a file under 8 KiB, read whole at once: the rows before the bad line stay
    corpus = tmp_path / "corpus.csv"
    for end in (b"\n", b"\r\n", b"\r"):  # csv.reader's line ends
        corpus.write_bytes(end.join([b"k,x,y,z", b"29,1,1,3", b"35,1,2,3", b"1,\xff,2,3",
                                     b"29,1,1,3", b""]))
        assert run(capsys, "verify-corpus", str(corpus)) == \
            (2, "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n"
                "line 3: k=35 (1,2,3) INVALID sum=36\n",
             f"error: {corpus}: line 4: 'utf-8' codec can't decode byte 0xff in position 2: "
             "invalid start byte\n")

    # far past the first 8 KiB: every line before it stays, and the line is
    # counted in the file
    rows = _good_rows(500)
    text = "k,x,y,z\n" + "".join(f"{k},{x},{y},{z}\n" for k, x, y, z in rows)
    corpus.write_bytes(text.encode() + b'1,2,"3\xe2\x82",4\n')
    code, out, err = run(capsys, "verify-corpus", str(corpus))
    assert (code, err) == (2, f"error: {corpus}: line 502: 'utf-8' codec can't decode bytes "
                              "in position 6-7: invalid continuation byte\n")
    want = [f"line {i}: k={k} ({x},{y},{z}) OK" for i, (k, x, y, z) in enumerate(rows, 2)]
    assert [line.split(" class=")[0] for line in out.splitlines()] == want


def test_verify_corpus_stops_at_a_nul_on_every_python(capsys, tmp_path):
    # Python 3.10's csv.reader stops at a NUL and 3.11's reads it as data:
    # the reader stops at the line on each, after the rows before it
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(b"k,x,y,z\n29,1,1,3\0\n29,1,1,3\n")
    assert run(capsys, "verify-corpus", str(corpus)) == \
        (2, "", f"error: {corpus}: line 2: line contains NUL\n")

    # far past the first block, and inside a quoted field that began a line before
    rows = _good_rows(500)
    text = "k,x,y,z\n" + "".join(f"{k},{x},{y},{z}\n" for k, x, y, z in rows)
    corpus.write_bytes(text.encode() + b'1,2,"3\n\0",4\n29,1,1,3\n')
    code, out, err = run(capsys, "verify-corpus", str(corpus))
    assert (code, err) == (2, f"error: {corpus}: line 503: line contains NUL\n")
    want = [f"line {i}: k={k} ({x},{y},{z}) OK" for i, (k, x, y, z) in enumerate(rows, 2)]
    assert [line.split(" class=")[0] for line in out.splitlines()] == want


def _run_from_a_pipe(capsys, data: bytes):
    """cli.main's (code, stdout, stderr) for verify-corpus reading data
    through /dev/fd, and that path.  data must fit the 64 KiB pipe buffer."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        path = f"/dev/fd/{r}"
        return run(capsys, "verify-corpus", path), path
    finally:
        os.close(r)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_verify_corpus_from_a_pipe_bounds_the_line_of_a_byte_that_is_not_utf8(capsys):
    rows = _good_rows(500)
    text = "k,x,y,z\n" + "".join(f"{k},{x},{y},{z}\n" for k, x, y, z in rows)
    (code, out, err), path = _run_from_a_pipe(capsys, text.encode() + b"1,2,3,\xff\n")
    assert (code, err) == (2, f"error: {path}: line 502: 'utf-8' codec can't decode byte 0xff "
                              "in position 6: invalid start byte\n")
    want = [f"line {i}: k={k} ({x},{y},{z}) OK" for i, (k, x, y, z) in enumerate(rows, 2)]
    assert [line.split(" class=")[0] for line in out.splitlines()] == want


_ROW_2 = "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n"
_BAD = "'utf-8' codec can't decode byte"


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("lines, kept, message", [
    ([b"k,x,\xffy,z", b"29,1,1,3"], "",
     f"line 1: {_BAD} 0xff in position 4: invalid start byte"),
    ([b"\xef\xbb\xbfk,x,\xffy,z", b"29,1,1,3"], "",  # a BOM's bytes count
     f"line 1: {_BAD} 0xff in position 7: invalid start byte"),
    ([b"k,x,y,z", b"29,1,1,3", b'35,"1', b'\xff",2,3'], _ROW_2,
     f"line 4: {_BAD} 0xff in position 0: invalid start byte"),
    ([b"k,x,y,z", b"29,1,1,3", b"29,1,1,3\xe2"], _ROW_2,  # the line end is read too
     f"line 3: {_BAD} 0xe2 in position 8: invalid continuation byte"),
], ids=["header", "header-after-a-BOM", "quoted-field", "cut-short-before-the-line-end"])
def test_verify_corpus_reads_a_file_and_a_pipe_alike(capsys, tmp_path, end, lines, kept,
                                                      message):
    data = end.join(lines + [b""])
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(data)
    from_file = run(capsys, "verify-corpus", str(corpus))
    from_pipe, path = _run_from_a_pipe(capsys, data)
    assert from_file == (2, kept, f"error: {corpus}: {message}\n")
    assert from_pipe == (2, kept, f"error: {path}: {message}\n")


def _drain(lines):
    """The lines an iterator yields, and the type and message of the error
    that ends it, or None."""
    got = []
    try:
        got.extend(lines)
    except Exception as err:
        return got, (type(err), str(err))
    return got, None


_PIECES = [b",", b"1", b"\r", b"\n", b"\r\n", b"\xef\xbb\xbf", b"\xff", b"\xe2\x82",
           b"\xe2\x82\xac", b"\0"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map(b"".join), st.integers(1, 64),
       st.integers(1, 16))
@example(b"\xef\xbb\xbf", 1, 1)
@example(b"1\n\xef\xbb\xbf1\n", 1, 1)  # a BOM past line 1 is data
@example(b"\xef\xbb\xbf1\r1\xff", 64, 16)  # line 1 is good: its BOM goes
@example(b"1\r\n1\xff\r\n", 2, 2)  # the chunk ends at the \r, the line at the \n after it
@example(b"1\r1\r\xe2\x82\n1", 1, 5)  # the chunk ends inside the cut sequence
@example(b"1\xe2\x82\xac\n", 64, 2)  # ... and inside a whole one
@example(b"1\n1\0\xff\n", 64, 16)  # a bad byte and a NUL on one line: the byte first
@example(b"1\n\0\n1\xff\n", 64, 16)  # a NUL before a bad byte's line
def test_block_reader_yields_the_lines_of_the_per_line_reader(data, size, chunk):
    # the text layer decodes chunk bytes at a time, so its chunk's end is a
    # boundary of the program as much as the block reader's size is
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                          newline="")
    fh._CHUNK_SIZE = chunk

    def lines():
        for block, _ in cubegraph.corpus._blocks(fh):
            yield from block

    with mock.patch.object(cubegraph.corpus, "_READ_SIZE", size):
        got = _drain(lines())
    assert got == _drain(utf8_lines(io.BytesIO(data)))


_ROWS = b"k,x,y,z\n" + b"29,1,1,3\n" * 1800  # 16,208 bytes, lines 1 to 1801
_ROWS_8K = b"k,x,y,z\n" + b"29,1,1,3\n" * 900  # 8,108 bytes, lines 1 to 901


def _at(start, rest, rows=_ROWS):
    """rows, a good row padded to end just before byte `start` (line 1802
    after _ROWS), then rest from byte `start` on (from line 1803)."""
    pad = start - len(rows) - len(b"29,1,1,3\n")
    return rows + b"29,1,1," + b" " * pad + b"3\n" + rest


_BAD_LINE = "line 1803: 'utf-8' codec can't decode "
_BAD_LINE_8K = "line 903: 'utf-8' codec can't decode "
# a good extra cell of non-ASCII on every row: a € is bytes 8190-8192 and an
# é bytes 16383-16384, so a chunk of the text layer ends inside each
_NOTES = b"k,x,y,z\n" + "29,1,1,3,€€€€éé\n".encode("utf-8") * 1000


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("data, rows, error", [
    *[(_at(at - 4, b"1,2,\xff,3\n29,1,1,3\n"), 1801,
       _BAD_LINE + "byte 0xff in position 4: invalid start byte") for at in (16383, 16384, 16385)],
    (_at(16383 - 4, b"1,2,\xe2\x82,3\n"), 1801,  # a 3-byte sequence cut at the boundary
     _BAD_LINE + "bytes in position 4-5: invalid continuation byte"),
    (_at(16383 - 8, b"29,1,1,3\r\n29,1,1,3\n"), 1803, None),  # the \r is byte 16383
    (_at(16383 - 4, b"1,2,\0,3\n29,1,1,3\n"), 1801, "line 1803: line contains NUL"),
    (b"k,x,y,z\n29,1,\"1" + b" \n" * 20_000 + b'",3\n29,1,1,3\n', 2, None),  # a 40 KB field
    (b"\r".join([b"k,x,y,z", *[b"29,1,1,3"] * 3000, b"29,1,\xff,3", b"29,1,1,3"]), 3000,
     "line 3002: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"),
    (b"", 0, "header must contain columns k,x,y,z"),
    (b"\xef\xbb\xbf", 0, "header must contain columns k,x,y,z"),
    # the text layer decodes 8 KiB chunks
    *[(_at(at - 4, b"1,2,\xff,3\n29,1,1,3\n", _ROWS_8K), 901,
       _BAD_LINE_8K + "byte 0xff in position 4: invalid start byte") for at in (8191, 8192, 8193)],
    (_at(8191 - 4, b"1,2,\xe2\x82,3\n", _ROWS_8K), 901,  # cut at the chunk's end
     _BAD_LINE_8K + "bytes in position 4-5: invalid continuation byte"),
    (_at(8191 - 8, b"29,1,1,3\r\n29,1,1,3\n", _ROWS_8K), 903, None),  # the \r is byte 8191
    (_NOTES, 1000, None),
    # split blocks, plain and padded, then a quote, from which csv.reader reads on
    (b"k,x,y,z\n" + b"29,1,1,3\n" * 1000 + b"29, 1,1,3\n" * 1000 + b"29,1,1,3\n" * 1000
     + b'"29",1,1,3\n29,1,"1\n",3\n' + b"29,1,1,3\n" * 1000, 4002, None),
    (b"k,x,y,z\n" + b"29,1,1,3\n" * 1400 + b'29,"1",1,3\n' + b"29,1,1,3\n" * 400, 1801, None),
    (b"k,x,y,z\n" + (b"29,1,1,3\r" * 500 + b"\n\n" + b"29,1,1,3\r\n" * 500 + b"\r\r") * 2
     + b'29,1,1,"3"\n' + b"29,1,1,3\r" * 500, 2501, None),
], ids=["ff-at-16383", "ff-at-16384", "ff-at-16385", "cut-sequence", "crlf-across", "nul-at-16383",
        "long-field",
        "cr-only", "empty", "bom-only", "ff-at-8191", "ff-at-8192", "ff-at-8193",
        "cut-sequence-8k", "crlf-across-8k", "non-ascii-across", "quote-after-blocks",
        "quote-mid-block", "blank-and-cr-lines-before-the-quote"])
def test_verify_corpus_reads_across_block_boundaries(capsys, monkeypatch, tmp_path, source,
                                                      data, rows, error):
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes(data)
    with monkeypatch.context() as m:  # the run with each line decoded on its own
        m.setattr(cubegraph.corpus, "_blocks", per_line_blocks)
        want = run(capsys, "verify-corpus", str(corpus))
    if source == "file":
        path, got = str(corpus), run(capsys, "verify-corpus", str(corpus))
    elif not Path("/dev/fd").is_dir():
        pytest.skip("needs /dev/fd")
    else:
        got, path = _run_from_a_pipe(capsys, data)
    assert got == (want[0], want[1], want[2].replace(str(corpus), path))
    code, out, err = got
    assert out.count(" OK ") == rows
    if error is None:  # and each row's line number as csv.DictReader counts it
        assert (code, err) == (0, "")
        assert got == _verify_corpus_with_dict_reader(str(corpus))
    else:
        assert (code, err) == (2, f"error: {path}: {error}\n")


def test_verify_corpus_checks_the_benchmark_corpus(capsys, monkeypatch, tmp_path):
    # about 124 KB: 16 blocks of whole lines
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    cp = corpus.generate(7, 2000)
    path = tmp_path / "corpus.csv"
    path.write_text(cp.text, encoding="utf-8")
    code, out, err = run(capsys, "verify-corpus", str(path))
    *lines, summary = out.splitlines()
    assert (code, err, len(lines), summary) == (cp.expected_code, "", len(cp.rows),
                                                cp.expected_summary)
    for i, ((k, x, y, z, valid), line) in enumerate(zip(cp.rows, lines)):
        labels = "{} signed={}".format(*spelled_labels(x, y, z)) if valid else ""
        assert line == cp.expected_line(i) + labels


def test_verify_corpus_reads_the_benchmark_corpus_in_plain_blocks(capsys, monkeypatch, tmp_path):
    # the header makes the first block not plain; the rows that follow are
    # canonical, so every later block prints its terms as they were read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    real_block, real_plain, blocks, flags = cubegraph.corpus._block, cubegraph.corpus._plain, [], []

    def block(lines):
        blocks.append(len(lines))
        return real_block(lines)

    def plain(data):
        flags.append(real_plain(data))
        return flags[-1]

    monkeypatch.setattr(cubegraph.corpus, "_block", block)
    monkeypatch.setattr(cubegraph.corpus, "_plain", plain)
    cp = corpus.generate(7, 2000)
    path = tmp_path / "corpus.csv"
    path.write_text(cp.text, encoding="utf-8")
    code, out, err = run(capsys, "verify-corpus", str(path))
    assert (code, err, out.splitlines()[-1]) == (cp.expected_code, "", cp.expected_summary)
    assert (len(blocks), flags) == (16, [False] + [True] * 15)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
def test_verify_corpus_peak_memory_does_not_depend_on_the_line_end(monkeypatch, tmp_path, end):
    # a reader that ended blocks only at \n decoded a \r-only corpus whole:
    # 7,610 KiB traced at 20,000 rows, against 415 KiB with \n
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import corpus

    cp = corpus.generate(3, 20_000)
    path, out = tmp_path / "corpus.csv", tmp_path / "out.txt"
    path.write_bytes(cp.text.replace("\n", end).encode("utf-8"))
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = cli.main(["verify-corpus", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert (code, len(lines), lines[-1]) == (cp.expected_code, len(cp.rows) + 1,
                                             cp.expected_summary)
    assert peak < 1 << 20


def test_search_rejects_oversized_bound(capsys):
    code, _, err = run(capsys, "search", "1", "--bound", "99999999999")
    assert code == 2
    assert "maximum" in err


def test_search_bound_cap(capsys):
    code, out, err = run(capsys, "search", "4", "--bound", "0")  # checked before the class-4 skip
    assert (code, out, err) == (2, "", "error: bound must be >= 1, got 0\n")
    cap = search.MAX_SEARCH_BOUND
    code, out, err = run(capsys, "search", "4", "--bound", str(cap))  # class 4: no work
    assert (code, err) == (0, "")
    assert out.endswith("k=4: infeasible (class 4)\n")
    code, out, err = run(capsys, "search", "4", "--bound", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: bound {cap + 1} exceeds the supported maximum {cap}\n"


def test_scan_bound_cap(capsys, monkeypatch):
    monkeypatch.setattr(search, "_sweep", lambda k_lo, k_hi, B: ([], 0, 0))  # no hits, no work
    cap = search.MAX_SCAN_BOUND
    code, out, err = run(capsys, "scan", "--from", "4", "--to", "5", "--bound", str(cap))
    assert (code, err) == (0, "")
    assert out.endswith("scanned 2 value(s) of k: 0 representation(s), 2 infeasible\n")
    code, out, err = run(capsys, "scan", "--from", "4", "--to", "5", "--bound", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: bound {cap + 1} exceeds the supported maximum {cap}\n"


def test_scan_reversed_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "scan", "--from", "10", "--to", "1", "--bound", "10")
    assert code == 2
    assert out == ""
    assert "--from 10 is greater than --to 1" in err


def test_scan_wider_than_the_cap_is_a_usage_error(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a range over the cap must be refused before the sweep")

    monkeypatch.setattr(search, "_sweep", forbidden)
    to = str(search.MAX_SCAN_WIDTH + 1)
    code, out, err = run(capsys, "scan", "--from", "1", "--to", to, "--bound", "1")
    assert code == 2
    assert out == ""
    assert err == (f"error: k range 1..{to} holds {to} values, more than the "
                   f"supported maximum {search.MAX_SCAN_WIDTH}\n")


def test_internal_cube_sum_mismatch_is_not_a_usage_error(monkeypatch):
    def broken_label(x, y, z, k):
        raise residues.CubeSumMismatch(x, y, z, k + 1)

    monkeypatch.setattr(search, "label_solution", broken_label)
    with pytest.raises(residues.CubeSumMismatch):
        cli.main(["search", "29", "--bound", "4"])


def test_cli_imports_only_the_standard_library():
    # python -S leaves site-packages off the path, so a third-party import fails
    # or shows up in sys.modules under a name outside the standard library
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cubegraph.cli; "
            "print('\\n'.join(sorted({m.split('.')[0] for m in sys.modules})))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert "cubegraph" in modules
    assert modules - sys.stdlib_module_names <= {"cubegraph", "__main__"}
    assert "pathlib" not in modules  # nothing the CLI imports needs it
    assert "dataclasses" not in modules  # it pulls in inspect: tens of ms per start
    assert "inspect" not in modules


def test_each_subcommand_loads_only_its_own_layer(tmp_path):
    # each process compiles what it imports; a subcommand needs one layer
    corpus = _good_corpus(tmp_path / "c.csv", 10)
    code = ("import sys; from cubegraph import cli; cli.build_parser(); "
            "sys.argv[1:] and cli.main(sys.argv[1:]); "
            "print(' '.join(m for m in ('cubegraph.search', 'cubegraph.debruijn', "
            "'cubegraph.corpus', 'cubegraph.residues', 'csv') "
            "if m in sys.modules), file=sys.stderr)")
    searching = "cubegraph.search cubegraph.residues"
    for argv, loaded in [
        ((), ""),
        (("search", "33", "--bound", "20"), searching),
        (("scan", "--from", "1", "--to", "9", "--bound", "9"), searching),
        (("graph", "--order", "2"), "cubegraph.debruijn"),
        (("cycle", "--alphabet", "01"), "cubegraph.debruijn"),
        (("validate", "0110", "--alphabet", "01", "--order", "2"), "cubegraph.debruijn"),
        (("verify-corpus", str(corpus)), "cubegraph.corpus cubegraph.residues csv"),
    ]:
        proc = subprocess.run([sys.executable, "-c", code, *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, env=_cli_env(False), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, loaded + "\n"), argv


def test_the_package_imports_only_the_standard_library():
    # dependencies = []: every absolute import in src/cubegraph names a stdlib module
    package = Path(cli.__file__).resolve().parent
    imported = {}
    for path in sorted(package.glob("*.py")):
        # requires-python = ">=3.10": the grammar of 3.10 only, not its library
        tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            for name in names:
                imported.setdefault(name.split(".")[0], []).append(f"{path.name}:{node.lineno}")
    assert "argparse" in imported and "csv" in imported
    assert {m: where for m, where in imported.items() if m not in sys.stdlib_module_names} == {}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_full_graph_dot_peak_memory_does_not_grow_with_the_output():
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts from its parent's peak
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from cubegraph import cli; "
            "code = cli.main(sys.argv[2:]); "
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
            "print(code, hwm[0].split()[1], file=sys.stderr)")
    seq = debruijn.debruijn_sequence(debruijn.Alphabet.from_string("01"), 18)
    validate = ("validate", "-", "--alphabet", "01", "--order", "18")
    for argv, claim, want_code, max_mib in [
        # 18 MB of DOT; the whole text took about 147 MB
        (("graph", "--alphabet", "01", "--order", "18"), "", 0, 64),
        # a set of window strings took about 50 MB for an exact claim, and
        # with the missing edges listed in one string about 77 MB
        (validate, seq, 0, 32),
        (validate, seq[:1000], 1, 32),
    ]:
        proc = subprocess.run([sys.executable, "-c", code, str(src), *argv], input=claim,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        exit_code, hwm_kib = map(int, proc.stderr.split())
        assert exit_code == want_code
        assert hwm_kib < max_mib * 1024, argv


def _cli_env(unbuffered: bool) -> dict:
    """The environment of a `python -m cubegraph.cli` run, with
    PYTHONUNBUFFERED set or unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("argv", [
    ("graph", "--alphabet", "01", "--order", "12"),
    ("cycle",),
    ("scan", "--from", "1", "--to", "30", "--bound", "60"),
    ("verify-corpus", "{corpus}"),
])
def test_output_is_the_same_in_every_buffering_mode(capsys, tmp_path, argv):
    corpus = _good_corpus(tmp_path / "c.csv", 2000)
    argv = [a.format(corpus=corpus) for a in argv]
    want_code = cli.main(argv)
    want = capsys.readouterr().out.encode("utf-8")
    for unbuffered in (False, True):
        proc = subprocess.run([sys.executable, "-m", "cubegraph.cli", *argv],
                              capture_output=True, env=_cli_env(unbuffered), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (want_code, want, b""), unbuffered


@pytest.mark.parametrize("argv", [
    ("graph", "--alphabet", "01", "--order", "16"),
    ("verify-corpus", "{corpus}"),
])
def test_a_closed_stdout_ends_the_run_quietly(tmp_path, argv):
    # the reader goes away after one line, as `| head -1` does; each output is
    # megabytes, far more than a pipe holds, so the run is still writing then
    corpus = tmp_path / "c.csv"
    corpus.write_text("k,x,y,z\n" + "29,1,1,3\n" * 20_000)
    argv = [a.format(corpus=corpus) for a in argv]
    for unbuffered in (False, True):
        proc = subprocess.Popen([sys.executable, "-m", "cubegraph.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_cli_env(unbuffered))
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (cli.EXIT_CLOSED_STDOUT, b""), unbuffered


def test_a_mid_run_error_follows_its_rows_in_a_merged_stream(tmp_path):
    # only one stream shows the order of stdout and stderr: the rows come first
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("k,x,y,z\n29,1,1,3\n35,1,2,3\n1," + "1" * 200_000 + ",0,0\n1,2,3,4\n")
    for unbuffered in (False, True):
        proc = subprocess.run([sys.executable, "-m", "cubegraph.cli", "verify-corpus",
                               str(corpus)], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=_cli_env(unbuffered), timeout=60)
        assert (proc.returncode, proc.stdout.decode()) == \
            (2, "line 2: k=29 (1,1,3) OK class=2 path=0+1+1 signed=0+1+1\n"
                "line 3: k=35 (1,2,3) INVALID sum=36\n"
                f"error: {corpus}: line 4: field larger than field limit "
                f"({csv.field_size_limit()})\n"), unbuffered


def test_exit_still_runs_atexit_handlers_and_keeps_each_code(capsys):
    # entrypoint freezes the heap before sys.exit, so the interpreter does not
    # free at exit what it would only throw away; an atexit handler still
    # runs after that, once stdout is complete, and each code stands
    code = ("import atexit, gc, sys; from cubegraph import cli; "
            "atexit.register(lambda: print(f'atexit: frozen {gc.get_freeze_count() > 0}', "
            "file=sys.stderr)); cli.entrypoint()")
    for argv, want_code, want_err in [
        (("classes",), cli.EXIT_OK, ""),
        (("validate", "0110", "--alphabet", "01", "--order", "3"), cli.EXIT_INVALID, ""),
        (("search", "3", "--bound", "0"), cli.EXIT_USAGE, "error: bound must be >= 1, got 0\n"),
    ]:
        want_out = run(capsys, *argv)[1]
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=_cli_env(False), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (want_code, want_out, want_err + "atexit: frozen True\n"), argv


def test_a_run_started_with_stdout_closed_is_one_error_line():
    # the interpreter sets sys.stdout to None when fd 1 is closed at start-up
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m cubegraph.cli classes >&-', sys.executable],
                          stderr=subprocess.PIPE, env=_cli_env(False), timeout=60)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_USAGE, b"error: stdout is closed\n")


def test_validate_from_a_closed_stdin_is_one_error_line():
    # the interpreter sets sys.stdin to None when fd 0 is closed at start-up
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m cubegraph.cli validate - --alphabet 01 '
                           '--order 2 <&-', sys.executable],
                          capture_output=True, env=_cli_env(False), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (cli.EXIT_USAGE, b"", b"error: stdin is closed\n")


@pytest.mark.parametrize("redirects, argv", [
    ("2>&-", ("search", "1", "--bound", "99999999999")),
    ("2>&-", ("scan", "--from", "2", "--to", "1", "--bound", "5")),
    (">&- 2>&-", ("classes",)),
])
def test_a_run_started_with_stderr_closed_writes_no_error_line_on_stdout(tmp_path, redirects,
                                                                          argv):
    # the interpreter sets sys.stderr to None when fd 2 is closed at start-up,
    # and print(file=None) writes to stdout
    out = tmp_path / "out.txt"
    proc = subprocess.run(["sh", "-c", f'exec "$0" -m cubegraph.cli "$@" >"$OUT" {redirects}',
                           sys.executable, *argv],
                          env=dict(_cli_env(False), OUT=str(out)), timeout=60)
    assert (proc.returncode, out.read_bytes()) == (cli.EXIT_USAGE, b"")
