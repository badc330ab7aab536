import pytest

from cubegraph import cli, residues, search

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


def test_graph_subgraph_fixture(capsys, tmp_path):
    dot = tmp_path / "g1.dot"
    code, out, _ = run(capsys, "graph", "--subgraph", "E1", "--dot", str(dot))
    assert code == 0
    assert "6 nodes, 12 edges" in out
    assert dot.read_text().count("->") == 12


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


def test_scan_csv_is_rereadable_by_verify_corpus(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    run(capsys, "scan", "--from", "1", "--to", "12", "--bound", "20",
        "--out", str(out_csv), "--workers", "1")
    code, out, _ = run(capsys, "verify-corpus", str(out_csv))
    assert code == 0
    assert " 0 invalid, 0 parse error(s)" in out


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
    corpus.write_text("k,x,y,z\n15,-265,-262,332\n1,one,2,3\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 2
    assert "line 3: parse error" in out
    assert "1 parse error(s)" in out


def test_verify_corpus_accepts_huge_integers(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "k,x,y,z\n42,-80538738812075974,80435758145817515,12602123297335631\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 0
    assert "k=42" in out and "OK" in out


def test_verify_corpus_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "verify-corpus", str(tmp_path / "nope.csv"))
    assert code == 2


def test_verify_corpus_bad_header(capsys, tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("a,b\n1,2\n")
    code, out, _ = run(capsys, "verify-corpus", str(corpus))
    assert code == 2
    assert "header" in out


def test_search_rejects_oversized_bound(capsys):
    code, _, err = run(capsys, "search", "1", "--bound", "99999999999")
    assert code == 2
    assert "maximum" in err


def test_scan_reversed_range_is_a_usage_error(capsys):
    code, out, err = run(capsys, "scan", "--from", "10", "--to", "1", "--bound", "10")
    assert code == 2
    assert out == ""
    assert "--from 10 is greater than --to 1" in err


def test_internal_cube_sum_mismatch_is_not_a_usage_error(monkeypatch):
    def broken_verify(x, y, z, k):
        raise residues.CubeSumMismatch(x, y, z, k + 1)

    monkeypatch.setattr(search, "verify", broken_verify)
    with pytest.raises(residues.CubeSumMismatch):
        cli.main(["search", "29", "--bound", "4"])
