from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubegraph.residues import (
    CUBIC_RESIDUES,
    CubeSumMismatch,
    INFEASIBLE_CLASSES,
    ResidueTriple,
    SignedSpelling,
    class_of,
    cube_residue,
    decompose,
    exact_str,
    is_feasible,
    label_solution,
    signed_spelling_for,
    signed_spellings,
)


def brute_force_triples(residue_class):
    """Independent oracle: all multisets from {0,1,8}^3 summing to the class."""
    return {tuple(sorted(t)) for t in product((0, 1, 8), repeat=3)
            if sum(t) % 9 == residue_class}


def test_cube_residue_examples():
    assert cube_residue(0) == 0
    assert cube_residue(-265) == 8
    assert cube_residue(332) == 8
    assert cube_residue(4) == 1


def test_cube_residue_range_sweep():
    for n in range(-10_000, 10_001, 7):
        r = cube_residue(n)
        assert r in CUBIC_RESIDUES
        assert r == class_of(n**3)


@given(st.integers())
def test_cube_residue_matches_cubing(n):
    assert cube_residue(n) == class_of(n**3)
    assert cube_residue(n) in CUBIC_RESIDUES


def test_class_of_examples():
    assert class_of(15) == 6
    assert class_of(-4) == 5
    assert class_of(42) == 6
    assert class_of(0) == 0
    assert class_of(9) == 0  # multiples of 9 are class 0, not "class 9"


@given(st.integers())
def test_class_of_always_canonical(k):
    assert 0 <= class_of(k) <= 8


def test_is_feasible():
    assert not is_feasible(4)
    assert is_feasible(33)
    assert is_feasible(0)
    assert not is_feasible(-4)  # class 5


def test_decompose_matches_brute_force_for_every_class():
    for z in range(9):
        assert {t.residues for t in decompose(z)} == brute_force_triples(z)


def test_decompose_examples():
    assert {t.residues for t in decompose(6)} == {(8, 8, 8)}
    assert decompose(4) == frozenset()
    assert {t.residues for t in decompose(0)} == {(0, 0, 0), (0, 1, 8)}


def test_decompose_empty_exactly_for_infeasible_classes():
    assert {z for z in range(9) if not decompose(z)} == set(INFEASIBLE_CLASSES)


def test_decompose_rejects_bad_class():
    with pytest.raises(ValueError):
        decompose(9)
    with pytest.raises(ValueError):
        decompose(-1)


def test_decompose_sums_are_consistent():
    for z in range(9):
        for t in decompose(z):
            assert sum(t.residues) % 9 == z


def test_signed_spellings_examples():
    t888 = ResidueTriple.of(8, 8, 8)
    assert {s.entries for s in signed_spellings(t888)} == {
        (8, 8, 8), (-1, 8, 8), (-1, -1, 8), (-1, -1, -1)}
    assert {s.entries for s in signed_spellings(ResidueTriple.of(0, 0, 0))} == {(0, 0, 0)}
    assert {s.entries for s in signed_spellings(ResidueTriple.of(1, 1, 8))} == {
        (1, 1, 8), (-1, 1, 1)}


def test_signed_spellings_round_trip_for_all_triples():
    for z in range(9):
        for t in decompose(z):
            spellings = signed_spellings(t)
            assert spellings
            # writing each -1 back as 8 recovers the class triple
            assert all(ResidueTriple.of(*(8 if e == -1 else e for e in s.entries)) == t
                       for s in spellings)


def test_spelling_strings():
    assert ResidueTriple.of(8, 8, 8).spell() == "8+8+8"
    assert ResidueTriple.of(1, 0, 1).spell() == "0+1+1"
    assert SignedSpelling.of(8, -1, -1).spell() == "-1-1+8"
    assert SignedSpelling.of(0, 1, 8).spell() == "0+1+8"


def test_signed_spelling_for_uses_integer_signs():
    assert signed_spelling_for(-265, -262, 332).entries == (-1, -1, 8)
    assert signed_spelling_for(2, 2, -1).entries == (-1, 8, 8)
    assert signed_spelling_for(1, 1, 3).entries == (0, 1, 1)


def test_label_solution_examples():
    assert label_solution(-265, -262, 332, 15).residues == (8, 8, 8)
    assert label_solution(0, 0, 0, 0).residues == (0, 0, 0)
    assert label_solution(3, 1, 1, 29).residues == (0, 1, 1)


def test_label_solution_rejects_mismatch():
    with pytest.raises(CubeSumMismatch) as exc:
        label_solution(1, 2, 3, 35)
    assert exc.value.actual_sum == 36


def test_label_solution_mentions_infeasible_class():
    with pytest.raises(CubeSumMismatch, match="class 4"):
        label_solution(1, 1, 1, 4)


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-500, 500))
def test_label_solution_membership(x, y, z):
    k = x**3 + y**3 + z**3
    assert label_solution(x, y, z, k) in decompose(class_of(k))


def test_residue_triple_validation():
    with pytest.raises(ValueError):
        ResidueTriple((0, 1, 2))
    with pytest.raises(ValueError):
        ResidueTriple((8, 1, 0))  # not sorted
    with pytest.raises(ValueError):
        SignedSpelling((0, 2, 8))


# small ints and 40-digit ints, of both signs
terms = st.one_of(st.integers(-100, 100), st.integers(-10**40, 10**40))


# Each example spells three terms: together they cover every
# (n mod 9, sign) pair, n = r + 9 for the positive and n = r - 9 for the
# negative terms with r in 0..8.
@example(9, 10, 11)
@example(12, 13, 14)
@example(15, 16, 17)
@example(-9, -8, -7)
@example(-6, -5, -4)
@example(-3, -2, -1)
@given(terms, terms, terms)
def test_signed_spelling_for_matches_arithmetic(x, y, z):
    # the arithmetic the lookup tables replaced
    oracle = SignedSpelling.of(
        *(-1 if cube_residue(n) == 8 and n < 0 else cube_residue(n) for n in (x, y, z)))
    assert signed_spelling_for(x, y, z) == oracle
    assert type(signed_spelling_for(x, y, z)) is SignedSpelling


@settings(max_examples=50)
@example(9, 10, 11)
@example(-9, -8, -7)
@given(terms, terms, terms)
def test_looked_up_labels_belong_to_their_class(x, y, z):
    k = x**3 + y**3 + z**3
    path = label_solution(x, y, z, k)
    assert path == ResidueTriple.of(cube_residue(x), cube_residue(y), cube_residue(z))
    assert path in decompose(class_of(k))
    assert signed_spelling_for(x, y, z) in signed_spellings(path)


@settings(max_examples=50)
@given(terms, terms, terms, st.integers(-10**40, 10**40).filter(bool))
def test_label_solution_mismatch_carries_the_exact_sum(x, y, z, off):
    k = x**3 + y**3 + z**3
    with pytest.raises(CubeSumMismatch) as exc:
        label_solution(x, y, z, k + off)
    assert exc.value.actual_sum == k
    assert exc.value.claimed == k + off


def test_exact_str_writes_ints_past_the_conversion_limit():
    assert exact_str(0) == "0"
    assert exact_str(-12345) == "-12345"
    assert exact_str(10**640) == "1" + "0" * 640
    assert exact_str(-(10**4500 + 7)) == "-1" + "0" * 4499 + "7"
    assert exact_str(int("9" * 4000) * 10**4000) == "9" * 4000 + "0" * 4000


def test_mismatch_message_survives_a_sum_past_the_conversion_limit():
    with pytest.raises(CubeSumMismatch) as exc:
        label_solution(10**1500, 0, 0, 1)
    assert exc.value.actual_sum == 10**4500
    assert str(exc.value).endswith(" = 1" + "0" * 4500 + ", not 1")


def test_residue_values_are_immutable():
    with pytest.raises(AttributeError):
        ResidueTriple.of(0, 1, 8).residues = (0, 0, 0)
    with pytest.raises(AttributeError):
        SignedSpelling.of(-1, 0, 1).entries = (0, 0, 0)
