from functools import lru_cache
from math import isqrt
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubegraph import search as search_module
from cubegraph.residues import CubeSumMismatch, class_of, decompose, is_feasible, label_solution
from cubegraph.search import (
    MAX_SCAN_BOUND,
    MAX_SCAN_WIDTH,
    MAX_SEARCH_BOUND,
    TWO_CUBE_CLASSES,
    Representation,
    SearchBounds,
    SearchStats,
    iter_scan,
    scan_range,
    search_k,
)

from oracles import spelled_labels


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
    return [(rep.x, rep.y, rep.z) for rep in result.representations]


def swept_hits(k_lo, k_hi, b):
    """The sweep's hits over [k_lo, k_hi] at bound b as (k, x, y, z), in the
    order of their packed ints."""
    W = 2 * b + 1
    hits = sorted(search_module._sweep(k_lo, k_hi, b)[0])
    return [(k_lo + v // W ** 3, v // W // W % W - b, v // W % W - b, v % W - b) for v in hits]


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


def test_search_results_are_deterministic():
    a = search_k(15, 100)
    b = search_k(15, 100)
    assert a == b


def test_every_emitted_representation_is_exact_and_canonical():
    for k in (0, 1, 15, 26, 29):
        for rep in search_k(k, 30).representations:
            assert rep.x**3 + rep.y**3 + rep.z**3 == rep.k == k
            assert rep.x <= rep.y <= rep.z
            assert rep.path == spelled_labels(rep.x, rep.y, rep.z)[0]
            assert rep.path in {"+".join(map(str, t)) for t in decompose(class_of(k))}


def test_verify_paper_scale_solution():
    rep = Representation(*sorted((-265, -262, 332)), 15)
    assert (rep.x, rep.y, rep.z) == (-265, -262, 332)
    assert rep.path == "8+8+8"
    assert class_of(rep.k) == 6


def test_verify_canonicalizes_argument_order():
    rep = Representation(*sorted((332, -265, -262)), 15)
    assert (rep.x, rep.y, rep.z) == (-265, -262, 332)
    assert rep == Representation(-265, -262, 332, 15)


def test_verify_zero():
    assert Representation(0, 0, 0, 0).path == "0+0+0"


def test_verify_booker_scale_numbers():
    # 16+ digit terms must verify exactly with plain integers
    x, y, z = 8_866_128_975_287_528, -8_778_405_442_862_239, -2_736_111_468_807_040
    assert Representation(*sorted((x, y, z)), 33).k == 33
    x, y, z = -80_538_738_812_075_974, 80_435_758_145_817_515, 12_602_123_297_335_631
    assert Representation(*sorted((x, y, z)), 42).k == 42


def test_verify_rejects_mismatch_with_actual_sum():
    with pytest.raises(CubeSumMismatch) as exc:
        Representation(*sorted((1, 2, 3)), 35)
    assert exc.value.actual_sum == 36


def test_verify_mismatch_notes_infeasible_class():
    with pytest.raises(CubeSumMismatch, match="class 5"):
        Representation(*sorted((1, 1, 1)), 5)


def test_representation_rejects_non_canonical_order():
    Representation(1, 1, 3, 29)  # 1 + 1 + 27 = 29, canonical order
    with pytest.raises(ValueError, match="not in canonical order"):
        Representation(3, 1, 1, 29)


def test_representation_computes_its_path():
    assert decompose(2) == [(0, 1, 1)]  # class 2 has one path
    assert Representation(1, 1, 3, 29).path == "0+1+1"
    with pytest.raises(CubeSumMismatch):
        Representation(1, 1, 3, 30)


@settings(max_examples=50)
@given(st.lists(st.tuples(*[st.integers(-4, 4)] * 3), max_size=8))
def test_representation_order_and_equality_follow_the_terms(triples):
    # the path is a function of (x, y, z, k), so comparing it too moves nothing
    reps = [Representation(*sorted(t), sum(n**3 for n in t)) for t in triples]
    key = attrgetter("x", "y", "z", "k")
    assert sorted(reps) == sorted(reps, key=key)
    for a in reps:
        for b in reps:
            assert (a == b) == (key(a) == key(b))
            assert (a < b) == (key(a) < key(b))
            if a == b:
                assert hash(a) == hash(b)


def test_search_values_are_immutable():
    rep = Representation(1, 1, 3, 29)
    with pytest.raises(AttributeError):
        rep.k = 30
    with pytest.raises(AttributeError):
        rep.path = None
    with pytest.raises(AttributeError):
        SearchBounds(5, (1, 2)).bound = 6


def test_search_stats_default_to_zero():
    assert SearchStats() == (0, 0)
    assert SearchStats().pairs_scanned == SearchStats().z_pruned == 0


def test_search_k_labels_each_hit_once(monkeypatch):
    calls = []

    def counting_label(*args):
        calls.append(args)
        return label_solution(*args)

    monkeypatch.setattr(search_module, "label_solution", counting_label)
    reps = search_k(29, 4).representations
    assert calls == [(rep.x, rep.y, rep.z, 29) for rep in reps] == [(-3, -2, 4, 29), (1, 1, 3, 29)]
    assert [rep.path for rep in reps] == ["0+1+1", "0+1+1"]


def test_bounds_validation():
    # search_k checks its bound first, so even a class-4 k raises
    with pytest.raises(ValueError, match=r"^bound must be >= 1, got 0$"):
        search_k(4, 0)
    with pytest.raises(ValueError, match=rf"^bound {MAX_SEARCH_BOUND + 1} exceeds the "
                       rf"supported maximum {MAX_SEARCH_BOUND}$"):
        search_k(4, MAX_SEARCH_BOUND + 1)
    # the boundary is allowed, and class 4 comes back skipped with no work
    assert search_k(4, MAX_SEARCH_BOUND) == (4, (), True, SearchStats())


@pytest.mark.parametrize("lo", [1, -MAX_SCAN_WIDTH // 2, -5 * MAX_SCAN_WIDTH])
def test_bounds_cap_the_scan_width(lo):
    # only the bounds are built: nothing is scanned at either width
    SearchBounds(1, (lo, lo + MAX_SCAN_WIDTH - 1))  # exactly the cap is allowed
    hi = lo + MAX_SCAN_WIDTH
    with pytest.raises(ValueError, match=rf"^k range {lo}\.\.{hi} holds "
                       rf"{MAX_SCAN_WIDTH + 1} values, more than the supported maximum "
                       rf"{MAX_SCAN_WIDTH}$"):
        SearchBounds(1, (lo, hi))
    SearchBounds(1, (hi, lo))  # a reversed range is empty, not too wide


def probed_x(k_lo, k_hi, b):
    """The x values the sweep probes, counted by brute force: for each z,
    every x <= z whose pair sums x^3 + y^3 with x <= y <= z, which run from
    2x^3 to x^3 + z^3, can reach the window [k_lo - z^3, k_hi - z^3]."""
    return sum(1 for z in range(-b, b + 1)
               for x in range(-b, z + 1)
               if x ** 3 + z ** 3 >= k_lo - z ** 3 and 2 * x ** 3 <= k_hi - z ** 3)


@pytest.mark.parametrize("b", [1, 2, 3, 8, 25, 60])
def test_sweep_cost_model(b):
    # the sweep probes at most zi + 1 x values for z, and exactly the x whose
    # pair sums can reach the window.  MAX_SCAN_BOUND's worst-case runtime
    # rests on this count
    for k in range(-40, 41):
        _, probes = search_module._sweep(k, k, b)
        assert probes == probed_x(k, k, b), k
        assert probes <= (2 * b + 1) * (2 * b + 2) // 2


@pytest.mark.parametrize("b", [1, 2, 5, 17])
@pytest.mark.parametrize("k", [0, 2, 29, -33])
def test_divisor_cost_model(k, b):
    # a candidate is a d in 1..2b and a z in [-b, b] with d | k - z^3
    # (3d | k - z^3 when 3 | d, since then 3 | x^2 - xy + y^2) that z, the
    # largest term, allows, each bound with search_k's margin: 3z^3 >= k, so
    # z >= round((k/3)^(1/3)) - 1 for k > 0; z >= d/2 when 8k + d^3 >= 0 and
    # z >= -d/2 otherwise; z <= 4d + reach (reach is 4(c + 1) for k > 0 and 0
    # otherwise, c = round(k^(1/3))); and d^3 <= 4(b^3 - k) or d <= 2c + 1, so
    # d <= max(2c + 2, int((4(b^3 - k))^(1/3)) + 1).  The mod-9 sieve drops
    # those whose k - z^3 no two cubes reach.  A k beyond 3b^3, which no box
    # sum reaches, has none
    c = round(k ** (1 / 3)) if k > 0 else 0
    reach = 4 * (c + 1) if k > 0 else 0
    zmin = round((k / 3) ** (1 / 3)) - 1 if k > 0 else -b
    top = max(2 * c + 2, int(max(0, 4 * (b ** 3 - k)) ** (1 / 3)) + 1)
    candidates = [z for d in range(1, min(2 * b, top) + 1) for z in range(zmin, b + 1)
                  if (k - z ** 3) % (3 * d if d % 3 == 0 else d) == 0
                  and 2 * z >= (d if 8 * k + d ** 3 >= 0 else -d)
                  and z <= 4 * d + reach
                  ] if abs(k) <= 3 * b ** 3 else []
    stats = search_k(k, b).stats
    assert stats.pairs_scanned + stats.z_pruned == len(candidates)
    assert stats.z_pruned == sum((k - z ** 3) % 9 not in TWO_CUBE_CLASSES for z in candidates)


def scanned(rows):
    return [(rep.k, rep.x, rep.y, rep.z) for rep in rows]


def test_scan_range_zero():
    rows = list(iter_scan(SearchBounds(2, (0, 0))))
    assert scanned(rows) == [(0, -2, 0, 2), (0, -1, 0, 1), (0, 0, 0, 0)]


def test_scan_at_the_width_cap_verifies_only_the_k_it_hits(monkeypatch):
    # a k without a hit costs the scan no object and no call: of the
    # 1,000,000 k at bound 1, only 1, 2 and 3 have a representation
    calls = []
    monkeypatch.setattr(search_module, "Representation",
                        lambda *args: calls.append(args) or Representation(*args))
    rows = list(iter_scan(SearchBounds(1, (1, MAX_SCAN_WIDTH))))
    assert scanned(rows) == [(1, -1, 1, 1), (1, 0, 0, 1), (2, 0, 1, 1), (3, 1, 1, 1)]
    assert calls == [(x, y, z, k) for k, x, y, z in scanned(rows)]


def test_scan_range_empty():
    assert list(iter_scan(SearchBounds(5, (3, 2)))) == []


def test_iter_scan_drops_each_k_s_hits_once_its_result_is_made(monkeypatch):
    # the scan holds the sweep's list, not a row per k: each hit leaves it
    # as its row is made, so after the i-th row only the rows to come are left
    sweep, swept = search_module._sweep, []
    monkeypatch.setattr(search_module, "_sweep",
                        lambda lo, hi, B: swept.append(sweep(lo, hi, B)) or swept[-1])
    rows, left = [], []
    for rep in iter_scan(SearchBounds(3, (-5, 30))):
        rows.append(rep)
        left.append(len(swept[0][0]))
    assert rows[0].k == -3 and len(rows) > 1
    assert left == [len(rows) - i - 1 for i in range(len(rows))]
    assert rows == [rep for k in range(-5, 31) for rep in search_k(k, 3).representations]


def test_scan_parallel_equals_sequential():
    # scan_range, which the benchmark's tracer still calls, is the list of
    # iter_scan's rows for any worker count
    bounds = SearchBounds(25, (-10, 25))
    rows = list(iter_scan(bounds))
    assert len(rows) > 100
    for workers in (None, 1, 3):
        assert scan_range(bounds, workers=workers) == rows


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 100), st.integers(1, 12))
def test_search_matches_oracle_property(k, bound):
    assert found_triples(search_k(k, bound)) == oracle_search(k, bound)


def test_search_stats_count_the_same_work_for_any_hit_count():
    # a hit costs no probe: k = 0 at b = 30 has 31 hits and a wide window
    # thousands, yet each count is the brute-force one
    assert search_module._sweep(29, 29, 20)[1] == probed_x(29, 29, 20) == 88
    assert search_module._sweep(0, 0, 30)[1] == probed_x(0, 0, 30) == 193
    assert search_module._sweep(1, 300, 300)[1] == 18_680
    reach = 3 * 25 ** 3
    for k_lo, k_hi in [(-40, 40), (1, 300), (-reach, -reach + 500), (reach - 2000, reach),
                       (-1000, -1)]:
        assert search_module._sweep(k_lo, k_hi, 25)[1] == probed_x(k_lo, k_hi, 25)
    # the whole reach probes every x <= z: the upper bound is met
    assert search_module._sweep(-reach, reach, 25)[1] == (2 * 25 + 1) * (2 * 25 + 2) // 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(-300, 300), st.integers(0, 400))
def test_scan_range_matches_oracle_property(bound, start, width):
    ks = range(start, start + width + 1)
    rows = list(iter_scan(SearchBounds(bound, (ks[0], ks[-1]))))
    assert scanned(rows) == [(k, *t) for k in ks for t in oracle_search(k, bound)]
    assert rows == [rep for k in ks for rep in search_k(k, bound).representations]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-400, 400), st.integers(-700_000, 700_000)), st.integers(1, 60))
@example(0, 1)
@example(0, 60)
@example(1, 60)
@example(8, 60)
@example(54, 60)  # 2 * 3^3: roots mod 9 and 27 lifted with 27 | k
@example(729, 60)
@example(729, 8)  # a cube whose root lies outside the box
@example(-729, 60)
@example(-2, 60)
@example(-33, 60)
@example(-42, 60)
@example(-64_000, 60)  # a cube whose root is negative
@example(3 * 60 ** 3, 60)  # the largest sum the box reaches, (60, 60, 60) alone
@example(-3 * 60 ** 3, 60)
@example(3 * 60 ** 3 - 1, 60)  # one below it: no hit, and reach = 352 walks each d's z up to B
@example(-376, 126)  # the hit (-126, 100, 100) has z > 3.8d with d = 26: the factor 4 is needed
@example(34, 6)  # the hit (-6, 5, 5) has z > 4d with d = 1: the k^(1/3) term is needed
@example(-249, 5)  # the hit (-5, -5, 1) has z < d/2 with 8k + d^3 < 0
@example(-3, 5)  # the hit (-4, -4, 5) has d^3 = 4(B^3 - k) exactly: the last d is walked
def test_divisor_search_matches_the_sweep(k, bound):
    assert [(k, *t) for t in found_triples(search_k(k, bound))] == swept_hits(k, k, bound)


@st.composite
def sweep_windows(draw):
    """A bound up to 150 and a window of width 0-60 that straddles 0, lies
    wholly below 0, starts at -3B^3 or ends at 3B^3, or lies anywhere near
    the box's reach."""
    b = draw(st.integers(1, 150))
    width = draw(st.integers(0, 60))
    reach = 3 * b ** 3
    lo = draw(st.one_of(st.integers(-width, 0), st.integers(-reach - width, -width - 1),
                        st.sampled_from([-reach, reach - width]),
                        st.integers(-reach - width, reach)))
    return b, lo, lo + width


@settings(max_examples=100, deadline=None)
@given(sweep_windows())
@example((150, -30, 30))
@example((150, -3 * 150 ** 3, -3 * 150 ** 3 + 60))
@example((150, 3 * 150 ** 3 - 60, 3 * 150 ** 3))
@example((1, -3, 57))
def test_sweep_matches_the_divisor_search_on_windows(window):
    # the jumps grow with B, so this reaches bounds the oracle-table property cannot
    b, lo, hi = window
    assert swept_hits(lo, hi, b) == [(k, *t) for k in range(lo, hi + 1)
                                     for t in found_triples(search_k(k, b))]


def _no_work(*args):
    raise AssertionError("no sum over the box reaches this k: nothing to factor or sweep")


@pytest.mark.parametrize("b", [1, 2, 7, 100])
def test_search_beyond_every_box_sum_returns_at_once(monkeypatch, b):
    reach = 3 * b ** 3  # the largest |x^3 + y^3 + z^3| in the box, at (b, b, b) alone
    assert found_triples(search_k(reach, b)) == [(b, b, b)]
    assert found_triples(search_k(-reach, b)) == [(-b, -b, -b)]
    monkeypatch.setattr(search_module, "_prime_sieve", _no_work)
    for k in (reach + 1, reach + 2, -reach - 1, -reach - 2, 10 ** 39 + 1):
        result = search_k(k, b)
        assert (result.representations, result.skipped) == ((), not is_feasible(k))


def test_one_k_scan_is_one_divisor_search(monkeypatch):
    # a window of one k is search_k's query: the scan makes one call and no sweep
    b = 5
    reach = 3 * b ** 3
    search, calls = search_module.search_k, []
    monkeypatch.setattr(search_module, "search_k",
                        lambda k, B: calls.append((k, B)) or search(k, B))
    monkeypatch.setattr(search_module, "_sweep", _no_work)
    for k in (0, 1, 4, 33, -33, 64, reach, reach + 1):
        calls.clear()
        rows = list(iter_scan(SearchBounds(b, (k, k))))
        assert calls == [(k, b)]
        assert rows == list(search(k, b).representations), k
        assert scanned(rows) == [(k, *t) for t in oracle_search(k, b)], k


def test_scan_sweeps_only_the_k_a_box_reaches(monkeypatch):
    b, reach = 2, 24
    sweep = search_module._sweep
    calls = []
    monkeypatch.setattr(search_module, "_sweep",
                        lambda lo, hi, B: calls.append((lo, hi)) or sweep(lo, hi, B))
    rows = list(iter_scan(SearchBounds(b, (reach - 3, reach + 5))))
    assert calls == [(reach - 3, reach)]
    assert scanned(rows) == [(reach, 2, 2, 2)]
    monkeypatch.setattr(search_module, "_sweep", _no_work)
    for window in [(reach + 1, reach + 10), (-reach - 10, -reach - 1)]:
        assert list(iter_scan(SearchBounds(b, window))) == []


def test_prime_sieve_matches_trial_division():
    for n in (0, 1, 2, 3, 4, 2000):
        is_prime = search_module._prime_sieve(n)
        assert len(is_prime) == n + 1
        assert [m for m in range(n + 1) if is_prime[m]] == \
            [m for m in range(2, n + 1) if all(m % q for q in range(2, isqrt(m) + 1))], n


def _cube_roots_by_trial(m, n=None):
    """Every r in [0, m), listed under r^3 mod n (by default m)."""
    n = n or m
    roots_of = {}
    for r in range(m):
        roots_of.setdefault(r * r * r % n, []).append(r)
    return roots_of


def test_cube_roots_mod_prime_powers_match_brute_force():
    # every prime power up to 2000: p = 2 and 3, p | k and p^2 | k, and primes
    # p = 1 (mod 9) such as 19, 37 and 109, whose 3-Sylow subgroup has order >= 9.
    # A root r of 3^e must have r^3 = k mod 3^(e+1), the 3-adic rule of
    # search_k.  k runs over every residue mod 27, and over cubes with a large
    # power of 3, whose roots lift to the highest powers of 3
    primes = [p for p in range(2, 2001) if all(p % q for q in range(2, isqrt(p) + 1))]
    ks = [*range(-60, 61), *(s * c ** 3 for s in (1, -1) for c in (6, 9, 12, 18, 27, 54))]
    for p in primes:
        powers = [p ** e for e in range(1, 12) if p ** e <= 2000]
        n = {m: 3 * m if p == 3 else m for m in powers}  # the modulus r^3 = k must hold in
        roots_of = {m: _cube_roots_by_trial(m, n[m]) for m in powers}
        for k in ks:
            want = []  # the powers up to the first with no root, which ends p
            for m in powers:
                if k % n[m] not in roots_of[m]:
                    break
                want.append((m, roots_of[m][k % n[m]]))
            assert not any(k % n[m] in roots_of[m] for m in powers[len(want):]), (k, p)
            for top in (p, p * p - 1, 2000):  # no power above top comes back
                got = search_module._cube_roots_mod_prime_powers(k, p, top)
                assert [(m, sorted(r)) for m, r in got] == [w for w in want if w[0] <= top], \
                    (k, p, top)


def test_cube_roots_mod_a_prime_with_a_large_3_sylow_subgroup():
    # p - 1 = 2 * 3^9: the root search steps through a 3-Sylow subgroup of
    # order 3^9, the largest for any prime up to 2 * MAX_SEARCH_BOUND
    p = 39_367
    assert all(p % q for q in range(2, isqrt(p) + 1)) and (p - 1) // 2 == 3 ** 9
    roots_of = _cube_roots_by_trial(p)
    cubes = [k for k in range(1, 40) if k in roots_of] + [c ** 3 for c in (5, 1234, 10 ** 6)]
    non_cubes = [k for k in range(1, 40) if k not in roots_of]
    assert len(cubes) > 3 and len(non_cubes) > 10
    for k in cubes + [-k for k in cubes] + non_cubes + [0, p, -7 * p]:
        got = search_module._cube_roots_mod_prime_powers(k, p, p)
        want = roots_of.get(k % p)
        assert [(m, sorted(r)) for m, r in got] == ([(p, want)] if want else []), k


def test_scan_bound_has_its_own_cap():
    assert MAX_SCAN_BOUND < MAX_SEARCH_BOUND
    SearchBounds(MAX_SCAN_BOUND, (1, 2))  # exactly the cap is allowed
    with pytest.raises(ValueError, match=rf"^bound {MAX_SCAN_BOUND + 1} exceeds the "
                       rf"supported maximum {MAX_SCAN_BOUND}$"):
        SearchBounds(MAX_SCAN_BOUND + 1, (1, 2))
    with pytest.raises(ValueError, match=r"^bound must be >= 1, got 0$"):
        SearchBounds(0, (1, 2))
    with pytest.raises(TypeError):
        SearchBounds(5)  # a scan's box always has a k window
    # one k: the search cap applies
    assert search_k(4, MAX_SCAN_BOUND + 1) == (4, (), True, SearchStats())
