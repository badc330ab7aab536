"""Record oracle.json: exit code and stdout SHA-256 of every fixed CLI
invocation of the workloads, at full and at smoke size.

The committed oracle.json was recorded on the commit that added the
benchmark.  CLI stdout and exit codes are meant to stay byte-identical, so
re-record it only when a change alters them on purpose.

Usage, from the repository root: python3 perfbench/make_oracle.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import CORPUS, ORACLE_PATH, SEQUENCE, workloads

ROOT = Path(__file__).resolve().parent.parent


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    oracle = {}
    for smoke in (False, True):
        for wl in workloads(smoke).values():
            for argv in wl.steps:
                if CORPUS in argv or SEQUENCE in argv:
                    continue
                proc = subprocess.run([sys.executable, "-m", "cubegraph.cli", *argv],
                                      env=env, cwd=ROOT, capture_output=True, check=False)
                oracle[" ".join(argv)] = {"code": proc.returncode,
                                          "sha256": hashlib.sha256(proc.stdout).hexdigest()}
                print(f"{' '.join(argv)}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    ORACLE_PATH.write_text(json.dumps(oracle, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
