from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubegraph.residues import CubeSumMismatch, class_of, decompose
from cubegraph.search import (
    MAX_SEARCH_BOUND,
    Representation,
    SearchBounds,
    SearchBoundsError,
    SearchStats,
    scan_range,
    search_k,
    verify,
)


@lru_cache(maxsize=None)
def oracle_table(bound):
    """Naive triple-loop oracle: every canonical x <= y <= z in the box,
    bucketed by its cube sum.  No sieving, no pointers."""
    table = {}
    for x in range(-bound, bound + 1):
        for y in range(x, bound + 1):
            for z in range(y, bound + 1):
                table.setdefault(x**3 + y**3 + z**3, []).append((x, y, z))
    return table


def oracle_search(k, bound):
    return sorted(oracle_table(bound).get(k, []))


def found_triples(result):
    return [rep.triple() for rep in result.representations]


def test_search_matches_oracle_small_sweep():
    for k in range(-30, 61):
        for bound in (5, 20):
            assert found_triples(search_k(k, bound)) == oracle_search(k, bound), (k, bound)


def test_search_k29_frozen_from_oracle():
    # the naive oracle over |.| <= 4 finds two representations of 29
    assert oracle_search(29, 4) == [(-3, -2, 4), (1, 1, 3)]
    assert found_triples(search_k(29, 4)) == [(-3, -2, 4), (1, 1, 3)]


def test_search_k15_contains_known_triples():
    triples = found_triples(search_k(15, 400))
    assert (-1, 2, 2) in triples
    assert (-265, -262, 332) in triples


def test_search_infeasible_k_is_skipped_without_work():
    result = search_k(4, 1000)
    assert result.skipped
    assert result.representations == ()
    assert result.stats.pairs_scanned == 0 and result.stats.z_pruned == 0


def test_search_stats_record_sieve_pruning():
    result = search_k(29, 20)
    assert not result.skipped
    assert result.stats.z_pruned > 0
    assert result.stats.pairs_scanned > 0


def test_search_accepts_bounds_object():
    assert found_triples(search_k(29, SearchBounds(4))) == [(-3, -2, 4), (1, 1, 3)]


def test_search_results_are_deterministic():
    a = search_k(15, 100)
    b = search_k(15, 100)
    assert a == b


def test_every_emitted_representation_is_exact_and_canonical():
    for k in (0, 1, 15, 26, 29):
        for rep in search_k(k, 30).representations:
            assert rep.x**3 + rep.y**3 + rep.z**3 == rep.k == k
            assert rep.x <= rep.y <= rep.z
            assert rep.path in decompose(class_of(k))


def test_verify_paper_scale_solution():
    rep = verify(-265, -262, 332, 15)
    assert rep.triple() == (-265, -262, 332)
    assert rep.path.residues == (8, 8, 8)
    assert class_of(rep.k) == 6


def test_verify_canonicalizes_argument_order():
    assert verify(332, -265, -262, 15).triple() == (-265, -262, 332)


def test_verify_zero():
    assert verify(0, 0, 0, 0).path.residues == (0, 0, 0)


def test_verify_booker_scale_numbers():
    # 16+ digit terms must verify exactly with plain integers
    x, y, z = 8_866_128_975_287_528, -8_778_405_442_862_239, -2_736_111_468_807_040
    assert verify(x, y, z, 33).k == 33
    x, y, z = -80_538_738_812_075_974, 80_435_758_145_817_515, 12_602_123_297_335_631
    assert verify(x, y, z, 42).k == 42


def test_verify_rejects_mismatch_with_actual_sum():
    with pytest.raises(CubeSumMismatch) as exc:
        verify(1, 2, 3, 35)
    assert exc.value.actual_sum == 36


def test_verify_mismatch_notes_infeasible_class():
    with pytest.raises(CubeSumMismatch, match="class 5"):
        verify(1, 1, 1, 5)


def test_representation_rejects_non_canonical_order():
    path = next(iter(decompose(2)))  # the one path of class 2; 1 + 1 + 27 = 29
    Representation(1, 1, 3, 29, path)  # same terms and path, canonical order
    with pytest.raises(ValueError, match="not in canonical order"):
        Representation(3, 1, 1, 29, path)


def test_bounds_validation():
    with pytest.raises(SearchBoundsError):
        SearchBounds(0)
    with pytest.raises(SearchBoundsError):
        SearchBounds(MAX_SEARCH_BOUND + 1)
    SearchBounds(MAX_SEARCH_BOUND)  # boundary is allowed


def test_scan_range_marks_infeasible():
    results = scan_range(SearchBounds(50, (1, 20)))
    assert [r.k for r in results] == list(range(1, 21))
    assert {r.k for r in results if r.skipped} == {4, 5, 13, 14}
    assert all(r.representations == () for r in results if r.skipped)


def test_scan_range_zero():
    results = scan_range(SearchBounds(2, (0, 0)))
    assert found_triples(results[0]) == [(-2, 0, 2), (-1, 0, 1), (0, 0, 0)]


def test_scan_range_empty():
    assert scan_range(SearchBounds(5, (3, 2))) == []


def test_scan_range_requires_k_range():
    with pytest.raises(SearchBoundsError):
        scan_range(SearchBounds(5))


def test_scan_parallel_equals_sequential():
    bounds = SearchBounds(25, (-10, 25))
    sequential = scan_range(bounds, workers=1)
    parallel = scan_range(bounds, workers=3)
    assert parallel == sequential


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 100), st.integers(1, 12))
def test_search_matches_oracle_property(k, bound):
    assert found_triples(search_k(k, bound)) == oracle_search(k, bound)


def test_search_stats_count_the_same_work_for_any_hit_count():
    # pinned from the per-k two-pointer search the windowed sweep replaced;
    # k=0 has 31 hits, so each hit must cost one pair step, as it did there
    assert search_k(29, 20).stats == SearchStats(pairs_scanned=558, z_pruned=14)
    assert search_k(0, 30).stats == SearchStats(pairs_scanned=1861, z_pruned=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(-300, 300), st.integers(0, 400))
def test_scan_range_matches_oracle_property(bound, start, width):
    stop = start + width
    results = scan_range(SearchBounds(bound, (start, stop)))
    assert [r.k for r in results] == list(range(start, stop + 1))
    for r in results:
        assert r.skipped == (class_of(r.k) in (4, 5))
        assert found_triples(r) == oracle_search(r.k, bound), (r.k, bound)
        if not r.skipped:
            assert found_triples(r) == found_triples(search_k(r.k, bound))
