"""Exact mod-9 arithmetic of cubes.

Every integer cube is congruent to 0, 1 or 8 mod 9, so a sum of three
cubes can only land in residue classes reachable by three values from
{0, 1, 8}.  Classes 4 and 5 are unreachable, which rules out
x^3 + y^3 + z^3 = k for any k in those classes.  Everything here is a
pure function on plain ints; negative inputs use mathematical modulus
(results always in 0..8).
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

CUBIC_RESIDUES = frozenset({0, 1, 8})

# classes of k with no admissible residue triple (k = +-4 mod 9)
INFEASIBLE_CLASSES = frozenset({4, 5})


class CubeSumMismatch(ValueError):
    """Raised when x^3 + y^3 + z^3 does not equal the claimed k."""

    def __init__(self, x: int, y: int, z: int, k: int):
        self.actual_sum = x**3 + y**3 + z**3
        self.claimed = k
        msg = f"{x}^3 + {y}^3 + {z}^3 = {self.actual_sum}, not {k}"
        if class_of(k) in INFEASIBLE_CLASSES:
            msg += f" (k is in class {class_of(k)}, which admits no solution at all)"
        super().__init__(msg)


def class_of(k: int) -> int:
    """Residue class of k mod 9, always in 0..8 (multiples of 9 are class 0)."""
    return k % 9


def cube_residue(n: int) -> int:
    """Residue of n^3 mod 9; always one of {0, 1, 8}."""
    return (n % 9) ** 3 % 9


def is_feasible(k: int) -> bool:
    """False exactly when k is in class 4 or 5 (no sum of three cubes exists)."""
    return class_of(k) not in INFEASIBLE_CLASSES


@dataclass(frozen=True, order=True)
class ResidueTriple:
    """Unordered multiset of three cubic residues, stored sorted ascending."""

    residues: tuple[int, int, int]

    def __post_init__(self):
        if len(self.residues) != 3 or any(r not in CUBIC_RESIDUES for r in self.residues):
            raise ValueError(f"need three values from {{0,1,8}}, got {self.residues!r}")
        if tuple(sorted(self.residues)) != self.residues:
            raise ValueError(f"residues must be sorted ascending: {self.residues!r}")

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "ResidueTriple":
        return cls(tuple(sorted((a, b, c))))

    @property
    def class_sum(self) -> int:
        return sum(self.residues) % 9

    def spell(self) -> str:
        """Render as a sum, e.g. '8+8+8' or '0+1+1'."""
        return _spell_terms(self.residues)


@dataclass(frozen=True, order=True)
class SignedSpelling:
    """A residue triple with each 8 optionally written as its symmetric
    representative -1.  Entries are sorted ascending (-1 < 0 < 1 < 8)."""

    entries: tuple[int, int, int]

    def __post_init__(self):
        if len(self.entries) != 3 or any(e not in (-1, 0, 1, 8) for e in self.entries):
            raise ValueError(f"entries must be from {{-1,0,1,8}}, got {self.entries!r}")
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError(f"entries must be sorted ascending: {self.entries!r}")

    @classmethod
    def of(cls, a: int, b: int, c: int) -> "SignedSpelling":
        return cls(tuple(sorted((a, b, c))))

    def spell(self) -> str:
        """Render as a signed sum, e.g. '-1-1+8'."""
        return _spell_terms(self.entries)


def _spell_terms(terms) -> str:
    out = str(terms[0])
    for t in terms[1:]:
        out += f"+{t}" if t >= 0 else str(t)
    return out


def decompose(residue_class: int) -> frozenset[ResidueTriple]:
    """All multisets of three cubic residues summing to residue_class mod 9.

    Exhaustive over the ten possible multisets; empty exactly for
    classes 4 and 5.  The result is an immutable frozenset: callers
    iterate it or sort it.
    """
    if not 0 <= residue_class <= 8:
        raise ValueError(f"residue class must be in 0..8, got {residue_class}")
    return frozenset(
        ResidueTriple(t)
        for t in combinations_with_replacement((0, 1, 8), 3)
        if sum(t) % 9 == residue_class
    )


def signed_spellings(triple: ResidueTriple) -> frozenset[SignedSpelling]:
    """Every distinct spelling of the triple with each 8 written as 8 or -1."""
    choices = [(r,) if r != 8 else (8, -1) for r in triple.residues]
    return frozenset(SignedSpelling.of(*c) for c in product(*choices))


def signed_spelling_for(x: int, y: int, z: int) -> SignedSpelling:
    """Spelling of a concrete solution: residue 8 is written -1 when the
    underlying integer is negative (presentation choice, not arithmetic)."""
    entries = []
    for n in (x, y, z):
        r = cube_residue(n)
        entries.append(-1 if r == 8 and n < 0 else r)
    return SignedSpelling.of(*entries)


def label_solution(x: int, y: int, z: int, k: int) -> ResidueTriple:
    """Residue triple of a claimed solution x^3 + y^3 + z^3 = k.

    Raises CubeSumMismatch when the cubes do not sum to k (corrupt row).
    The result is always a member of decompose(class_of(k)).
    """
    if x**3 + y**3 + z**3 != k:
        raise CubeSumMismatch(x, y, z, k)
    return ResidueTriple.of(cube_residue(x), cube_residue(y), cube_residue(z))
