"""The benchmark's workloads and the checks on their outputs.

A workload is a list of `cubegraph` CLI invocations run one after another.
Two placeholders in an argv are filled in at run time: CORPUS by the path of
the seeded corpus, SEQUENCE by the sequence the previous `cycle` printed.
Each workload has a full size, which the benchmark measures, and a smoke
size, which the benchmark's self-tests run.  README.md gives the reasons
for each workload.
"""

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

CORPUS = "{corpus}"
SEQUENCE = "{sequence}"

ORACLE_PATH = Path(__file__).with_name("oracle.json")


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[str, ...], ...]  # argv of each CLI invocation, in order
    items: int                          # work units per pass, for items_per_s
    item_unit: str
    corpus_rows: int = 0                # > 0: the workload verifies a seeded corpus
    sub_order: int = 0                  # > 0: traced run also times Hierholzer on a subgraph of B(01, sub_order)
    workers: int = 1                    # CLI processes that work at once; the calibration runs as many


def _search(bound):
    return tuple(("search", str(k), "--bound", str(bound)) for k in (2, 3, 33))


def _scan(k_to, bound):
    return (("scan", "--from", "1", "--to", str(k_to), "--bound", str(bound), "--workers", "2"),)


def _cycle(order):
    flags = ("--alphabet", "01", "--order", str(order))
    return (("cycle",) + flags, ("validate", SEQUENCE) + flags)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The four workloads by name, at full or at smoke size."""
    bound, k_to, scan_bound, order, rows = (200, 30, 60, 8, 2000) if smoke else \
        (2500, 300, 300, 16, 30_000)
    wls = (
        Workload("search_deep", _search(bound), 3, "k values"),
        Workload("scan_window", _scan(k_to, scan_bound), k_to, "k values", workers=2),
        Workload("debruijn_cycle", _cycle(order), 2**order, "sequence symbols",
                 sub_order=order + 1),
        Workload("corpus_verify", (("verify-corpus", CORPUS),), rows, "corpus rows",
                 corpus_rows=rows),
    )
    return {w.name: w for w in wls}


def load_oracle() -> dict[str, dict]:
    """Expected exit code and stdout SHA-256 of each fixed invocation,
    recorded by make_oracle.py."""
    return json.loads(ORACLE_PATH.read_text(encoding="utf-8"))


def fill(argv, corpus_path, sequence) -> list[str]:
    """argv with the CORPUS and SEQUENCE placeholders replaced."""
    return [str(corpus_path) if a == CORPUS else sequence if a == SEQUENCE else a for a in argv]


def sequence_of(cycle_stdout: bytes) -> str | None:
    """The sequence printed by `cycle`, or None if there is none."""
    for line in cycle_stdout.decode("utf-8", "replace").splitlines():
        if line.startswith("sequence: "):
            return line[len("sequence: "):]
    return None


def check_step(argv, code: int, stdout: bytes, oracle: dict, corpus=None) -> str | None:
    """None when the invocation's exit code and stdout are as expected,
    else a one-line reason."""
    if argv[0] == "validate":
        if code != 0 or b"\nexact: yes\n" not in stdout:
            return f"validate: exit {code}, 'exact: yes' missing"
        return None
    if argv[0] == "verify-corpus":
        return _check_corpus(code, stdout, corpus)
    expected = oracle.get(" ".join(argv))
    if expected is None:
        return f"no oracle entry for {' '.join(argv)!r}"
    digest = hashlib.sha256(stdout).hexdigest()
    if code != expected["code"] or digest != expected["sha256"]:
        return f"{argv[0]}: exit {code}, sha256 {digest[:12]} (expected exit " \
               f"{expected['code']}, sha256 {expected['sha256'][:12]})"
    return None


def _check_corpus(code: int, stdout: bytes, corpus) -> str | None:
    if code != corpus.expected_code:
        return f"verify-corpus: exit {code}, expected {corpus.expected_code}"
    lines = stdout.decode("utf-8", "replace").split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) != len(corpus.rows) + 1:
        return f"verify-corpus: {len(lines)} lines, expected {len(corpus.rows) + 1}"
    if lines[-1] != corpus.expected_summary:
        return f"verify-corpus: summary {lines[-1]!r}, expected {corpus.expected_summary!r}"
    for i, line in enumerate(lines[:-1]):
        want = corpus.expected_line(i)
        ok = line.startswith(want) if corpus.rows[i][4] else line == want
        if not ok:
            return f"verify-corpus: line {i + 2} is {line[:80]!r}, expected {want[:80]!r}"
    return None
