"""Tests of the benchmark itself, at smoke size.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
(The file is not named test_*.py, so the package's own test run does not
collect it.)
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run
import tracing
from workloads import check_step, load_oracle, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = workloads(smoke=True)

sys.path.insert(0, str(ROOT / "src"))


def test_same_seed_same_corpus_bytes(tmp_path):
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        corpus.main(["--seed", str(seed), "--rows", "500", "--out", str(path)])
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b
    assert a != c


def test_corpus_rows_are_checked_exactly():
    cp = corpus.generate(11, 1000)
    assert sum(not valid for *_, valid in cp.rows) == 10
    for k, x, y, z, valid in cp.rows:
        assert (x**3 + y**3 + z**3 == k) == valid


def test_metric_names():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(SMOKE)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_pass_has_no_failed_ops(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run_workload(SMOKE[name], seed=3, seconds=0, trace=trace)
        assert result["failed"] == 0 and result["correct"], result
        assert result["attempted"] >= run.MIN_PASSES * len(SMOKE[name].steps)
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for metric in SPEC[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_traced_pairs_equal_untraced_api():
    from cubegraph import search

    wl = SMOKE["search_deep"]
    metrics, _, _, failures, _ = tracing.traced_run(wl, load_oracle())
    assert not failures
    expected = sum(search.search_k(int(argv[1]), int(argv[3])).stats.pairs_scanned
                   for argv in wl.steps)
    assert metrics["search.search_k.pairs"][0] == expected
    assert metrics["search.search_k.calls"][0] == len(wl.steps)


def test_wrong_output_is_caught():
    oracle = load_oracle()
    argv = SMOKE["search_deep"].steps[0]
    assert check_step(argv, 0, b"k=2: 0 representation(s)\n", oracle) is not None
    cp = corpus.generate(2, 50)
    good = "\n".join(
        cp.expected_line(i) + ("0+0+8 signed=0+0+8" if valid else "")
        for i, (*_, valid) in enumerate(cp.rows)) + "\n" + cp.expected_summary + "\n"
    argv = ("verify-corpus", "c.csv")
    assert check_step(argv, 1, good.encode(), oracle, cp) is None
    assert check_step(argv, 0, good.encode(), oracle, cp) is not None
    flipped = good.replace(" OK ", " INVALID ", 1)
    assert check_step(argv, 1, flipped.encode(), oracle, cp) is not None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "search_deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
