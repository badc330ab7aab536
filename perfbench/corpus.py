"""Seeded corpus of claimed solutions for the `corpus_verify` workload.

About 95% of the rows come from the family
(1 + 6t^3)^3 + (1 - 6t^3)^3 + (-6t^2)^3 = 2 with t in [10^4, 10^7), so the
terms have about 22 digits.  About 5% are record solutions for k = 3, 33
and 42.  About 1% are corrupted by adding 1 to the third column, so
`verify-corpus` also runs its INVALID path and exits 1.  Columns are
shuffled per row; `verify` sorts them anyway.

Every uncorrupted row is checked with exact Python ints before it is
written, and every corrupted row is checked to fail.

Usage: python3 perfbench/corpus.py --seed N --rows R --out FILE.csv
"""

import argparse
import random
from dataclasses import dataclass

# (k, x, y, z) with x^3 + y^3 + z^3 = k
RECORDS = (
    (3, 1, 1, 1),
    (3, 4, 4, -5),
    (3, 569936821221962380720, -569936821113563493509, -472715493453327032),
    (33, 8866128975287528, -8778405442862239, -2736111468807040),
    (42, -80538738812075974, 80435758145817515, 12602123297335631),
)

RECORD_SHARE = 0.05
CORRUPT_SHARE = 0.01


@dataclass(frozen=True)
class Corpus:
    text: str                 # CSV with header k,x,y,z
    rows: tuple               # (k, x, y, z, valid) in file order
    expected_summary: str     # last stdout line of verify-corpus
    expected_code: int        # exit code of verify-corpus

    def expected_line(self, i: int) -> str:
        """Exact stdout line for an INVALID row, or the exact prefix, up to
        and including `path=`, of the line for a valid row."""
        k, x, y, z, valid = self.rows[i]
        head = f"line {i + 2}: k={k} ({x},{y},{z}) "
        if valid:
            return head + f"OK class={k % 9} path="
        return head + f"INVALID sum={x**3 + y**3 + z**3}"


def _family_row(t: int) -> tuple[int, int, int, int]:
    c = 6 * t**3
    return 2, 1 + c, 1 - c, -6 * t * t


def generate(seed: int, n_rows: int) -> Corpus:
    """Deterministic corpus of n_rows rows for the seed."""
    if n_rows < 2:
        raise ValueError(f"need at least 2 rows, got {n_rows}")
    rng = random.Random(seed)
    n_records = max(1, round(n_rows * RECORD_SHARE))
    base = [RECORDS[rng.randrange(len(RECORDS))] for _ in range(n_records)]
    base += [_family_row(rng.randrange(10**4, 10**7)) for _ in range(n_rows - n_records)]
    rng.shuffle(base)
    corrupt = set(rng.sample(range(n_rows), max(1, round(n_rows * CORRUPT_SHARE))))

    rows, lines = [], ["k,x,y,z"]
    for i, (k, *terms) in enumerate(base):
        rng.shuffle(terms)
        x, y, z = terms
        if x**3 + y**3 + z**3 != k:
            raise AssertionError(f"generator bug: row {i} ({x},{y},{z}) does not sum to {k}")
        valid = i not in corrupt
        if not valid:
            z += 1
            if x**3 + y**3 + z**3 == k:
                raise AssertionError(f"corrupted row {i} still sums to {k}")
        rows.append((k, x, y, z, valid))
        lines.append(f"{k},{x},{y},{z}")

    n_invalid = len(corrupt)
    return Corpus(
        text="\n".join(lines) + "\n",
        rows=tuple(rows),
        expected_summary=f"{n_rows - n_invalid} valid, {n_invalid} invalid, 0 parse error(s)",
        expected_code=1,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    corpus = generate(args.seed, args.rows)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(corpus.text)
    print(corpus.expected_summary)


if __name__ == "__main__":
    main()
