"""Exact mod-9 arithmetic of cubes.

Every integer cube is congruent to 0, 1 or 8 mod 9, so a sum of three
cubes can only land in residue classes reachable by three values from
{0, 1, 8}.  Classes 4 and 5 are unreachable, which rules out
x^3 + y^3 + z^3 = k for any k in those classes.  Negative inputs use
mathematical modulus (results always in 0..8).  Residue triples are sorted
tuples of ints.  A solution's labels are the strings that are printed, such
as '8+8+8' for its residue triple and '-1-1+8' for its signed spelling: one
table built at import maps the terms' signed residues to every pair of labels
there is, so each term is reduced mod 9 once.
"""

from itertools import combinations_with_replacement, product

CUBIC_RESIDUES = frozenset({0, 1, 8})

# classes of k with no admissible residue triple (k = +-4 mod 9)
INFEASIBLE_CLASSES = frozenset({4, 5})

# classes reachable by a sum of two cubes: {0, 1, 2, 7, 8}
TWO_CUBE_CLASSES = frozenset((a + b) % 9 for a in CUBIC_RESIDUES for b in CUBIC_RESIDUES)


class CubeSumMismatch(Exception):
    """Raised when x^3 + y^3 + z^3 does not equal the claimed k.  Not a
    ValueError: a search hit that fails its exact recheck is a bug, not bad
    input, so the CLI's usage-error handler lets it through."""

    def __init__(self, x: int, y: int, z: int, k: int):
        self.actual_sum = x**3 + y**3 + z**3
        self.claimed = k
        msg = f"{x}^3 + {y}^3 + {z}^3 = {exact_str(self.actual_sum)}, not {k}"
        if class_of(k) in INFEASIBLE_CLASSES:
            msg += f" (k is in class {class_of(k)}, which admits no solution at all)"
        super().__init__(msg)


_BLOCK = 10**640  # 640 digits: the lowest limit sys.set_int_max_str_digits accepts


def exact_str(n: int) -> str:
    """str(n) for any int.  A cube sum of terms that parsed can have more
    digits than the interpreter converts at once (sys.get_int_max_str_digits),
    so a large n is written in blocks of 640 digits."""
    if -_BLOCK < n < _BLOCK:
        return str(n)
    high, low = divmod(abs(n), _BLOCK)
    return ("-" if n < 0 else "") + exact_str(high) + str(low).zfill(640)


def class_of(k: int) -> int:
    """Residue class of k mod 9, always in 0..8 (multiples of 9 are class 0)."""
    return k % 9


_CUBE_RESIDUE = tuple(r ** 3 % 9 for r in range(9))  # n^3 mod 9 depends on n mod 9 only


def is_feasible(k: int) -> bool:
    """False exactly when k is in class 4 or 5 (no sum of three cubes exists)."""
    return class_of(k) not in INFEASIBLE_CLASSES


def spell(terms) -> str:
    """A sum of residue terms as printed, e.g. '8+8+8', '0+1+1' or '-1-1+8'."""
    return "".join(f"{t:+d}" for t in terms).removeprefix("+")


def decompose(residue_class: int) -> list[tuple[int, int, int]]:
    """All multisets of three cubic residues summing to residue_class mod 9,
    each a sorted tuple, in ascending order.

    Exhaustive over the ten possible multisets; empty exactly for
    classes 4 and 5.
    """
    if not 0 <= residue_class <= 8:
        raise ValueError(f"residue class must be in 0..8, got {residue_class}")
    return [t for t in combinations_with_replacement(sorted(CUBIC_RESIDUES), 3)
            if sum(t) % 9 == residue_class]


def signed_spellings(triple: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Every distinct spelling of the triple with each 8 written as 8 or -1,
    each a sorted tuple (-1 < 0 < 1 < 8), in ascending order."""
    choices = [(r,) if r != 8 else (-1, 8) for r in triple]
    return sorted({tuple(sorted(c)) for c in product(*choices)})


# Every label pair a solution can get, built once and keyed by the terms'
# signed entries in term order.  A term's signed entry is _ENTRY[n < 0][n % 9]:
# its cube residue, with 8 written -1 when the term is negative.  The path
# label writes each -1 back as 8.
_ENTRY = (_CUBE_RESIDUE, tuple(-1 if r == 8 else r for r in _CUBE_RESIDUE))
_LABELS = {e: (spell(sorted(8 if t == -1 else t for t in e)), spell(sorted(e)))
           for e in product((-1, 0, 1, 8), repeat=3)}


def labels(x: int, y: int, z: int, k: int) -> tuple[str, str]:
    """The (path, signed) labels of a claimed solution x^3 + y^3 + z^3 = k,
    such as ('8+8+8', '-1-1+8'): the spelled residue triple, and its signed
    spelling, where residue 8 is written -1 when the term is negative (a
    presentation choice, not arithmetic).

    Raises CubeSumMismatch when the cubes do not sum to k (corrupt row).
    The path is always the spelling of a member of decompose(class_of(k)).
    """
    if x * x * x + y * y * y + z * z * z != k:
        raise CubeSumMismatch(x, y, z, k)
    return _LABELS[_ENTRY[x < 0][x % 9], _ENTRY[y < 0][y % 9], _ENTRY[z < 0][z % 9]]


def label_solution(x: int, y: int, z: int, k: int) -> str:
    """The path label of labels(x, y, z, k), such as '8+8+8'."""
    return labels(x, y, z, k)[0]
