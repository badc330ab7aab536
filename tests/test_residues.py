import re
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubegraph.residues import (
    CUBIC_RESIDUES,
    CubeSumMismatch,
    INFEASIBLE_CLASSES,
    TWO_CUBE_CLASSES,
    class_of,
    decompose,
    exact_str,
    is_feasible,
    label_solution,
    labels,
    signed_spellings,
    spell,
)

from oracles import spelled_labels


def brute_force_triples(residue_class):
    """Independent oracle: all multisets from {0,1,8}^3 summing to the class."""
    return {tuple(sorted(t)) for t in product((0, 1, 8), repeat=3)
            if sum(t) % 9 == residue_class}


def terms_of(label: str) -> tuple[int, ...]:
    """The terms a spelled label sums, e.g. (-1, -1, 8) for '-1-1+8'."""
    return tuple(map(int, re.findall(r"-?\d+", label)))


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
        assert decompose(z) == sorted(brute_force_triples(z))


def test_decompose_examples():
    assert decompose(6) == [(8, 8, 8)]
    assert decompose(4) == []
    assert decompose(0) == [(0, 0, 0), (0, 1, 8)]


def test_decompose_empty_exactly_for_infeasible_classes():
    assert {z for z in range(9) if not decompose(z)} == set(INFEASIBLE_CLASSES)


def test_two_cube_classes_are_the_classes_of_sums_of_two_cubes():
    # a class too many would switch off the search's pruning without a failure
    assert TWO_CUBE_CLASSES == {(x**3 + y**3) % 9 for x in range(9) for y in range(9)}


def test_decompose_rejects_bad_class():
    with pytest.raises(ValueError):
        decompose(9)
    with pytest.raises(ValueError):
        decompose(-1)


def test_decompose_sums_are_consistent():
    for z in range(9):
        for t in decompose(z):
            assert sum(t) % 9 == z
            assert all(r in CUBIC_RESIDUES for r in t)


def test_signed_spellings_examples():
    # in tuple order, which is not the order of the spelled strings
    assert signed_spellings((8, 8, 8)) == [(-1, -1, -1), (-1, -1, 8), (-1, 8, 8), (8, 8, 8)]
    assert signed_spellings((0, 0, 0)) == [(0, 0, 0)]
    assert signed_spellings((1, 1, 8)) == [(-1, 1, 1), (1, 1, 8)]


def test_signed_spellings_round_trip_for_all_triples():
    for z in range(9):
        for t in decompose(z):
            spellings = signed_spellings(t)
            assert spellings
            # writing each -1 back as 8 recovers the class triple
            assert all(tuple(sorted(8 if e == -1 else e for e in s)) == t for s in spellings)
            assert all(s == tuple(sorted(s)) for s in spellings)
            assert spellings == sorted(set(spellings))


def test_spelling_strings():
    assert spell((8, 8, 8)) == "8+8+8"
    assert spell((0, 1, 1)) == "0+1+1"
    assert spell((-1, -1, 8)) == "-1-1+8"
    assert spell((-1, 0, 1)) == "-1+0+1"
    assert spell((0, 1, 8)) == "0+1+8"
    assert spell((-1, -1, -1)) == "-1-1-1"


def test_labels_use_integer_signs():
    assert labels(-265, -262, 332, 15) == ("8+8+8", "-1-1+8")
    assert labels(2, 2, -1, 15) == ("8+8+8", "-1+8+8")
    assert labels(1, 1, 3, 29) == ("0+1+1", "0+1+1")


def test_label_solution_examples():
    assert label_solution(-265, -262, 332, 15) == "8+8+8"
    assert label_solution(0, 0, 0, 0) == "0+0+0"
    assert label_solution(3, 1, 1, 29) == "0+1+1"


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
    assert terms_of(label_solution(x, y, z, k)) in decompose(class_of(k))


# small ints and 40-digit ints, of both signs
terms = st.one_of(st.integers(-100, 100), st.integers(-10**40, 10**40))


# Each example spells three terms: together they cover every
# (n mod 9, sign) pair, n = r + 9 for the positive and n = r - 9 for the
# negative terms with r in 0..8.
@example(9, 10, 11, 0)
@example(12, 13, 14, 0)
@example(15, 16, 17, 0)
@example(-9, -8, -7, 0)
@example(-6, -5, -4, 0)
@example(-3, -2, -1, 0)
@example(10**21, -10**21, 1, 9)  # a sum off by a multiple of 9: same labels, still a mismatch
@given(st.integers(-10**22, 10**22), st.integers(-10**22, 10**22), st.integers(-10**22, 10**22),
       st.sampled_from([0, 0, 1, -1, 9]))
def test_labels_match_arithmetic(x, y, z, off):
    k = x**3 + y**3 + z**3 + off
    if off:
        with pytest.raises(CubeSumMismatch):
            labels(x, y, z, k)
    else:
        assert labels(x, y, z, k) == spelled_labels(x, y, z)


@settings(max_examples=50)
@example(9, 10, 11)
@example(-9, -8, -7)
@given(terms, terms, terms)
def test_looked_up_labels_belong_to_their_class(x, y, z):
    k = x**3 + y**3 + z**3
    path, signed = labels(x, y, z, k)
    assert (path, signed) == spelled_labels(x, y, z)
    assert terms_of(path) in decompose(class_of(k))
    assert terms_of(signed) in signed_spellings(terms_of(path))


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
