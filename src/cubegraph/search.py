"""Bounded search and exact verification of x^3 + y^3 + z^3 = k.

Search strategy: one windowed sweep serves a single k and a whole k interval
[k_lo, k_hi].  The cube table is built once; for each candidate z in [-B, B]
a two-pointer pass over it collects every pair x <= y <= z whose x^3 + y^3
falls in the window [k_lo - z^3, k_hi - z^3], so every solution multiset is
found exactly once and the whole interval costs O(B^2 + hits).  A single k is
the window of width 1.  Two mod-9 sieves prune the work: targets in class 4
or 5 are skipped outright, and for a width-1 window, z values whose pair
target is unreachable by two cubic residues are dropped.  Verification is
plain Python integers throughout, so literature-scale solutions with
16+ digit terms check exactly.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from .residues import ResidueTriple, is_feasible, label_solution

# classes reachable by a sum of two cubic residues: {0,1,8} + {0,1,8} mod 9
TWO_CUBE_CLASSES = frozenset({0, 1, 2, 7, 8})

# The cap keeps one search_k within about half a minute.  Its worst case is
# a class no z is pruned from, such as k = 0: 2B^2 + 2B + 1 two-pointer steps
# (k = 2 takes about 1.33 B^2, k = 3 about 0.67 B^2).  At the cap that is
# 2.0e8 steps, measured at 31 s (6.4M steps/s, one core of a 2-vCPU x86-64
# machine, CPython 3.11); the cost grows as B^2, so B = 20,000 would take
# about 2 minutes.  The cube table (2B+1 Python ints) stays small.
MAX_SEARCH_BOUND = 10_000

# The widest k range one scan accepts.  A scan keeps one SearchResult per k
# and prints a line for each, so its time and memory grow with the width even
# at bound 1, by about 7.5 us and 350 B per k: at the cap,
# `scan --from 1 --to 1000000 --bound 1` took 7.5-8.2 s at 354 MB peak RSS
# (same machine as above).
MAX_SCAN_WIDTH = 1_000_000


class SearchBoundsError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    """Search box |x|,|y|,|z| <= bound, plus an optional inclusive k interval."""

    bound: int
    k_range: tuple[int, int] | None = None

    def __post_init__(self):
        if self.bound < 1:
            raise SearchBoundsError(f"bound must be >= 1, got {self.bound}")
        if self.bound > MAX_SEARCH_BOUND:
            raise SearchBoundsError(
                f"bound {self.bound} exceeds the supported maximum {MAX_SEARCH_BOUND}")
        if self.k_range is not None and self.k_range[1] - self.k_range[0] >= MAX_SCAN_WIDTH:
            lo, hi = self.k_range
            raise SearchBoundsError(f"k range {lo}..{hi} holds {hi - lo + 1} values, more than "
                                    f"the supported maximum {MAX_SCAN_WIDTH}")


@dataclass(frozen=True, order=True)
class Representation:
    """A verified solution x^3 + y^3 + z^3 = k in canonical order x <= y <= z.

    The residue path is computed from the terms when not given; a given
    path must match it."""

    x: int
    y: int
    z: int
    k: int
    path: ResidueTriple | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.x <= self.y <= self.z:
            raise ValueError(f"not in canonical order: ({self.x}, {self.y}, {self.z})")
        expected = label_solution(self.x, self.y, self.z, self.k)  # checks the cube identity
        if self.path is None:
            object.__setattr__(self, "path", expected)
        elif self.path != expected:
            raise ValueError(f"path {self.path} does not match {expected}")

    def triple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


def verify(x: int, y: int, z: int, k: int) -> Representation:
    """Check x^3 + y^3 + z^3 = k at arbitrary precision and attach the
    residue path.  Raises CubeSumMismatch (with the actual sum, and an
    infeasibility note when k is in class 4 or 5) on failure."""
    a, b, c = sorted((x, y, z))
    return Representation(a, b, c, k)


@dataclass(frozen=True)
class SearchStats:
    pairs_scanned: int = 0
    z_pruned: int = 0


@dataclass(frozen=True)
class SearchResult:
    k: int
    representations: tuple[Representation, ...]  # sorted lexicographically on (x, y, z)
    skipped: bool
    stats: SearchStats


def _sweep(k_lo: int, k_hi: int, B: int) -> tuple[dict[int, list[tuple[int, int, int]]], int, int]:
    """Every canonical (x, y, z) with |x|,|y|,|z| <= B and k_lo <= x^3+y^3+z^3 <= k_hi,
    bucketed by cube sum in no particular order, plus the pairs scanned and
    the z values pruned (only a width-1 window prunes)."""
    cubes = [i * i * i for i in range(-B, B + 1)]  # strictly increasing
    prune = k_lo == k_hi
    found = defaultdict(list)
    pairs = 0
    pruned = 0
    for zi in range(2 * B + 1):
        z3 = cubes[zi]
        bot, top = k_lo - z3, k_hi - z3
        if prune and bot % 9 not in TWO_CUBE_CLASSES:
            pruned += 1
            continue
        lo, hi = 0, zi  # x <= y <= z: pair values never exceed cubes[zi]
        while lo <= hi:
            pairs += 1
            s = cubes[lo] + cubes[hi]
            if s > top:
                hi -= 1
            elif s < bot:
                lo += 1
            else:  # every y in [lo, hi] whose pair sum stays in the window
                x3, j = cubes[lo], hi
                while j >= lo and x3 + cubes[j] >= bot:
                    found[x3 + cubes[j] + z3].append((lo - B, j - B, zi - B))
                    j -= 1
                if s == top:  # (lo', hi) overshoots the window for every lo' > lo
                    hi -= 1
                lo += 1
    return found, pairs, pruned


def _verified(k: int, triples: list[tuple[int, int, int]]) -> tuple[Representation, ...]:
    return tuple(verify(x, y, z, k) for x, y, z in sorted(triples))  # exact recheck of every hit


def search_k(k: int, bounds: SearchBounds | int) -> SearchResult:
    """All representations of k with |x|,|y|,|z| <= bound, deduplicated under
    x <= y <= z and sorted; skipped without work when k is in class 4 or 5."""
    if isinstance(bounds, int):
        bounds = SearchBounds(bounds)
    if not is_feasible(k):
        return SearchResult(k, (), True, SearchStats())
    found, pairs, pruned = _sweep(k, k, bounds.bound)
    return SearchResult(k, _verified(k, found[k]), False, SearchStats(pairs, pruned))


def scan_range(bounds: SearchBounds, workers: int | None = None) -> list[SearchResult]:
    """One SearchResult per k in bounds.k_range, in k order, from a single
    windowed sweep over the whole range.  Infeasible k (class 4 or 5) come
    back skipped; every result carries an empty SearchStats(), because the
    sweep's work is shared across k.  `workers` is accepted for
    compatibility and has no effect: output is the same for any value."""
    if bounds.k_range is None:
        raise SearchBoundsError("scan_range needs bounds.k_range")
    start, stop = bounds.k_range
    if start > stop:
        return []
    found, _, _ = _sweep(start, stop, bounds.bound)
    # no cube sum is 4 or 5 mod 9, so an infeasible k has no hits to verify
    return [SearchResult(k, _verified(k, found[k]), not is_feasible(k), SearchStats())
            for k in range(start, stop + 1)]
