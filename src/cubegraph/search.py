"""Bounded search and exact verification of x^3 + y^3 + z^3 = k.

Two algorithms, one per query shape.  One k (`search_k`, and a scan of a
window that holds one k) uses the divisor method: x + y divides k - z^3, so
only the d = |x + y| for which k is a cube mod d are walked, and for each
only the cube roots of k mod d are tried as z, within the range that z, the
largest term, allows.  A wider window of k (`iter_scan`)
uses one sweep: the cube table is built once, and for each z in
[-B, B] it collects every pair x <= y <= z whose x^3 + y^3 falls in
[k_lo - z^3, k_hi - z^3], probing only the x whose pair sums can reach it and
finding each x's largest y by bisection.  So the whole window costs about
0.21 B^2 probes plus its hits, however many k it holds.  The scan then
yields the verified rows of only the k the sweep hit, in (k, x, y, z) order,
dropping each hit as its row is made, so a caller that writes each row as it
comes holds the sweep's hits and does no work for a k without one.
The sweep beats one divisor search per k only for a wide window, of more
than about B/30 values of k: at B = 3,000, 300 k took 0.59 s by the sweep
against 1.82 s by divisor searches, but 20 k took 0.61 s against 0.15 s
(in process, min of 3, one core of a 2-vCPU x86-64 machine, CPython 3.11).
Both find each solution multiset exactly once.  The sweep has no special
case.  The divisor walk prunes by mod 9: a k in class 4 or 5 is skipped
outright, a z whose pair target k - z^3 no two cubic residues reach is
dropped, and so is most d divisible by 3: if 3^a is the largest power of 3
dividing d, then 3^(a+1) divides k - z^3, so for k not 0 or +-1 mod 9 it
walks no such d.
Verification is plain Python integers throughout, so literature-scale
solutions with 16+ digit terms check exactly.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import compress
from math import isqrt

from .residues import CUBIC_RESIDUES, TWO_CUBE_CLASSES, is_feasible, label_solution

# The cap on `search` (one k, divisor method).  Its worst cases are k = 0 and
# the cubes: z^3 = k mod d has many roots when k shares small prime factors
# with d, and they have about B + 1 hits, each rechecked and printed.  At the
# cap, `search 0 --bound 100000` took 1.6-2.6 s at 44.3 MB peak RSS (1.34M
# candidates), `search 27000 --bound 100000` (30^3) 1.9-2.2 s at 44.0 MB
# (1.56M), and `search 33 --bound 100000` 0.22-0.36 s at 20.2 MB (0.11M, no
# hits; CLI runs, 5 each, on one core of a shared 2-vCPU x86-64 machine,
# CPython 3.11).
MAX_SEARCH_BOUND = 100_000

# The cap on `scan` (a k window, one sweep; a window of one k is a `search`).
# The sweep probes at most (2B + 1)(2B + 2)/2 x values, a bound met only by a
# window holding the whole reach [-3B^3, 3B^3]; a window narrow beside B^3
# takes about 0.21 B^2.  The worst narrow window holds 0: at the cap,
# `scan --from 0 --to 1 --bound 10000` takes 20,632,014 probes, and took
# 7.7-9.4 s at 16.0 MB peak RSS (2.4M probes/s, same machine).  The cost
# grows as B^2, so B = 20,000 would take about 35 s.
MAX_SCAN_BOUND = 10_000

# The widest k range one scan accepts.  A scan does no work for a k its sweep
# does not hit, so what grows with the width is only the CLI's pass that names
# the infeasible k (222,222 lines at the cap): `scan --from 1 --to 1000000
# --bound 1` took 0.37-0.42 s at 14.6 MB peak RSS, against 14.5-14.6 MB for
# `classes` (CLI runs, same machine as above).
MAX_SCAN_WIDTH = 1_000_000


def _check_bound(bound: int, cap: int) -> None:
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > cap:
        raise ValueError(f"bound {bound} exceeds the supported maximum {cap}")


class SearchBounds(namedtuple("SearchBounds", "bound k_range")):
    """A scan's box |x|,|y|,|z| <= bound and its inclusive k window (lo, hi)."""

    __slots__ = ()

    def __new__(cls, bound: int, k_range: tuple[int, int]):
        _check_bound(bound, MAX_SCAN_BOUND)
        lo, hi = k_range
        if hi - lo >= MAX_SCAN_WIDTH:
            raise ValueError(f"k range {lo}..{hi} holds {hi - lo + 1} values, more than "
                             f"the supported maximum {MAX_SCAN_WIDTH}")
        return super().__new__(cls, bound, k_range)


class Representation(namedtuple("Representation", "x y z k path")):
    """A verified solution x^3 + y^3 + z^3 = k in canonical order x <= y <= z.

    The path is the spelled residue triple, such as '8+8+8', from
    label_solution, which raises CubeSumMismatch when the exact cube sum is
    not k.  It is a function of (x, y, z, k), so it never decides an order
    or an equality."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int, k: int):
        if not x <= y <= z:
            raise ValueError(f"not in canonical order: ({x}, {y}, {z})")
        path = label_solution(x, y, z, k)  # checks the cube identity
        return super().__new__(cls, x, y, z, k, path)


class SearchStats(namedtuple("SearchStats", "pairs_scanned z_pruned", defaults=(0, 0))):
    """Work counts of one `search_k`.  A candidate is a live d up to top and
    a z in d's window [lo, hi], the z that can be the largest term, with
    d | k - z^3, and 3d | k - z^3 when 3 | d (see search_k):
    `pairs_scanned` is the candidates that reached the perfect-square test,
    and `z_pruned` those the mod-9 sieve dropped before it.  Both are 0 for
    a k skipped as infeasible.  A scan has no SearchStats: a one-k scan
    drops search_k's, and a wider one's sweep shares its work across k, so
    `_sweep` returns its own count, the x values probed."""

    __slots__ = ()


# search_k's answer; representations: a tuple of Representation, sorted on (x, y, z)
SearchResult = namedtuple("SearchResult", "k representations skipped stats")


def _sweep(k_lo: int, k_hi: int, B: int) -> tuple[list[int], int]:
    """Every canonical (x, y, z) with |x|,|y|,|z| <= B and k_lo <= x^3+y^3+z^3 <= k_hi,
    in no particular order, plus the x values probed.  Each hit is packed
    into one int, ((((k - k_lo) W + x + B) W + y + B) W + z + B with
    W = 2B + 1 and k its cube sum, so the ints sort in (k, x, y, z) order:
    the 2,440 hits of k = 1..300 at B = 300 take 107 KB, against 284 KB as
    3-tuples (traced).

    For each z, the pair sums x^3 + y^3 with x <= y <= z must fall in
    [bot, top] = [k_lo - z^3, k_hi - z^3].  x's pair sums run from 2x^3 to
    x^3 + z^3, so only the x with x^3 + z^3 >= bot and 2x^3 <= top are
    probed, a range found by two bisections.  Each probe finds the largest y
    with x^3 + y^3 <= top by one more bisection, below the last x's y since
    y falls as x rises, then emits y downwards while the sum stays >= bot."""
    cubes = [i * i * i for i in range(-B, B + 1)]  # strictly increasing
    W = len(cubes)
    hits = []
    probes = 0
    for zi in range(W):
        z3 = cubes[zi]
        bot, top = k_lo - z3, k_hi - z3
        xs = range(bisect_left(cubes, bot - z3, 0, zi + 1), bisect_right(cubes, top // 2, 0, zi + 1))
        probes += len(xs)
        yi = zi + 1  # one past the largest y the last x allowed
        for xi in xs:
            x3 = cubes[xi]
            yi = bisect_right(cubes, top - x3, xi, yi)  # > xi, since 2x^3 <= top
            j = yi - 1
            while j >= xi and (dk := x3 + cubes[j] - bot) >= 0:  # dk = k - k_lo
                hits.append(((dk * W + xi) * W + j) * W + zi)
                j -= 1
    return hits, probes


def _prime_sieve(n: int) -> bytearray:
    """is_prime[m] is 1 when m is prime and 0 otherwise, for 0 <= m <= n."""
    is_prime = bytearray((b"\0\0" + b"\1" * (n - 1))[:n + 1])
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return is_prime


def _cube_roots_mod_prime_powers(k: int, p: int, top: int) -> list[tuple[int, list[int]]]:
    """(p^e, every r in [0, p^e) with r^3 = k (mod p^e)) for the prime p and
    e = 1, 2, ... while p^e <= top, ending before the first p^e with no root;
    for p = 3, r^3 = k (mod 3^(e+1)), as search_k's d with 3^e || d needs.  A
    root of p^e reduces to one of p^(e-1), so each power's roots are among the
    p lifts r + j p^(e-1) of the last power's, and a power with no root has
    none above it."""
    if p == 3:  # cubes are 0 or +-1 mod 9, and r^3 = r (mod 3)
        roots = [k % 3] if k % 9 in CUBIC_RESIDUES else []
    elif p % 3 != 1:  # cubing permutes Z/p, and this power undoes it (r^3 = r for p = 2)
        roots = [pow(k, (2 * p - 1) // 3, p)]
    elif k % p == 0:
        roots = [0]  # p is prime, so p | r^3 forces p | r
    elif pow(k, (p - 1) // 3, p) != 1:
        return []  # k is not a cube (Euler's criterion)
    else:
        # write p - 1 = 3^s t with 3 not dividing t.  x = k^(1/3 mod t) has
        # x^3 = k u, u a cube in the cyclic 3-Sylow subgroup of order 3^s that
        # c = b^t generates (b a cubic non-residue), so u c^(3j) = 1 for some
        # j < 3^(s-1), and x c^j is a root.  omega is a primitive cube root of 1.
        t = p - 1
        while t % 3 == 0:
            t //= 3
        b = 2
        while (omega := pow(b, (p - 1) // 3, p)) == 1:
            b += 1
        c, r = pow(b, t, p), k % p
        x = pow(k, pow(3, -1, t), p)
        while x * x * x % p != r:
            x = x * c % p
        roots = [x, x * omega % p, x * omega * omega % p]
    lift = 9 if p == 3 else p  # a lift z of m's roots must have z^3 = k (mod m * lift)
    powers, m = [], p
    while roots:
        powers.append((m, roots))
        if m * p > top:
            break
        roots = [z for r in roots for z in range(r, m * p, m) if (z * z * z - k) % (m * lift) == 0]
        m *= p
    return powers


def search_k(k: int, B: int) -> SearchResult:
    """All representations of k with |x|,|y|,|z| <= B, deduplicated under
    x <= y <= z and sorted; skipped without work when k is in class 4 or 5.
    B is checked first: one outside 1..MAX_SEARCH_BOUND raises ValueError.

    Divisor method (A. R. Booker, "Cracking the problem with 33", Res. Number
    Theory 5, 2019; A. R. Booker and A. V. Sutherland, "On a question of
    Mordell", PNAS 118, 2021): k - z^3 = x^3 + y^3 = (x + y)(x^2 - xy + y^2),
    so d = |x + y| divides k - z^3 and z is a cube root of k mod d.  The d in
    1..top (below) are walked depth first as products of prime powers in
    increasing prime order, and only those for which k is a cube mod d are visited: a
    child d p^e takes its roots from d's by one CRT step, and a prime with no
    root mod p never enters the walk (nor a power of p above the first with no
    root).  A power of 3 has fewer roots.  If 3^a || d, that is 3^a is the
    largest power of 3 dividing d, with a >= 1, then x^2 - xy + y^2 =
    (x + y)^2 - 3xy is divisible by 3, so 3^(a+1) divides k - z^3; and
    z^3 mod 3^(a+1) depends only on z mod 3^a.  So 3^a's roots are the r
    with r^3 = k (mod 3^(a+1)).  Cubes are 0 or +-1 mod 9, so for any other
    k mod 9 (k = 2, 3, 33, 42) no d divisible by 3 is walked.
    For each d, z steps by d from each root through [lo, hi], the z that can
    be the largest term, so that only hits with z >= y >= x are walked.  With
    t = y - x, 4|k - z^3| = d(d^2 + 3t^2), and c = round(k^(1/3)) for k > 0
    (0 otherwise):
    - zmin: 3z^3 >= k, so z >= round((k/3)^(1/3)) - 1 for k > 0.
    - lo = max(zmin, d/2) when 8k + d^3 >= 0, else max(zmin, -d/2).  A hit
      with z^3 < k has x + y = d, so z >= y >= d/2.  One with z^3 > k has
      z^3 >= k + d^3/4, at least d^3/8 when 8k + d^3 >= 0; and always
      z >= y >= (x + y)/2 >= -d/2.
    - hi = 4d + reach, reach = 4(c + 1) for k > 0 and 0 otherwise.  A hit
      with z^3 < k has z < k^(1/3), and z < 0 if k <= 0.  A hit with z^3 > k
      has x + y = -d, and y <= z, that is t <= 2z + d, reads
      2z^3 - (z + d)^3 <= k.  As A^3 - C^3 >= (A - C)^3 for A >= C >= 0,
      A = 2^(1/3) z and C = z + d show that this fails once
      (2^(1/3) - 1) z > d + max(k, 0)^(1/3), so
      z <= 3.85 (d + max(k, 0)^(1/3)) < 4d + reach.
    - top = max(2c + 2, (4(B^3 - k))^(1/3) + 1), at most 2B.  A hit with
      z^3 > k has d^3 <= 4(z^3 - k) <= 4(B^3 - k); one with z^3 < k has
      d <= 2z < 2k^(1/3) <= 2c + 1.
    These bounds are taken in floats only after the 3B^3 return, so every
    value is below 1.7e16, and the margins (zmin's -1, top's +1 and 2c + 2)
    absorb the rounding.  Then
    x + y = d sign(k - z^3), xy = (d^2 - q) / 3 with q = |k - z^3| / d, and
    x, y are the roots of a quadratic whose discriminant (4q - d^2) / 3 = t^2
    must be a perfect square.  Only hits with z the largest term are kept,
    so each multiset comes out once.  d = 0 leaves z^3 = k and the family
    (-t, t, z).  A k beyond 3B^3 comes back empty without work: no box sum
    reaches it."""
    _check_bound(B, MAX_SEARCH_BOUND)
    if not is_feasible(k):
        return SearchResult(k, (), True, SearchStats())
    if abs(k) > 3 * B ** 3:
        return SearchResult(k, (), False, SearchStats())
    hits = []
    c = round(k ** (1 / 3)) if k > 0 else 0  # |k| <= 3B^3 fits a float
    if c ** 3 == k and c <= B:  # d = 0: x = -y, and z = c is the largest term for 0 <= y <= c
        hits.extend((-t, t, c) for t in range(c + 1))
    reach = 4 * (c + 1) if k > 0 else 0  # at least 4 k^(1/3)
    zmin = round((k / 3) ** (1 / 3)) - 1 if k > 0 else -B  # 3z^3 >= k
    top = min(2 * B, max(2 * c + 2, int(max(0, 4 * (B ** 3 - k)) ** (1 / 3)) + 1))
    live = [powers for p in compress(range(top + 1), _prime_sieve(top))
            if (powers := _cube_roots_mod_prime_powers(k, p, top))]
    pairs = pruned = 0
    stack = [(1, [0], 0)]  # d, the cube roots of k mod d, the first index in live d may gain
    while stack:
        d, roots, i = stack.pop()
        for j in range(i, len(live)):
            if d * live[j][0][0] > top:  # p, the first power, is too large
                break
            for pe, pe_roots in live[j]:
                if d * pe > top:
                    break
                inv = pow(d, -1, pe)
                crt = [r + d * ((u - r) * inv % pe) for r in roots for u in pe_roots]
                stack.append((d * pe, crt, j + 1))
        lo = max(zmin, (d + 1) // 2 if 8 * k + d ** 3 >= 0 else -(d // 2))
        hi = min(B, reach + 4 * d)
        for r in roots:
            for z in range(lo + (r - lo) % d, hi + 1, d):
                n = k - z * z * z
                if n % 9 not in TWO_CUBE_CLASSES:
                    pruned += 1
                    continue
                pairs += 1
                disc, rem = divmod(4 * abs(n) // d - d * d, 3)  # (x - y)^2
                if rem or disc < 0:
                    continue
                t = isqrt(disc)
                if t * t != disc:
                    continue
                x = ((d if n > 0 else -d) - t) // 2  # t = d (mod 2) follows from 3t^2 + d^2 = 4q
                if x >= -B and x + t <= z:
                    hits.append((x, x + t, z))
    reps = tuple(Representation(x, y, z, k) for x, y, z in sorted(hits))  # rechecked exactly
    return SearchResult(k, reps, False, SearchStats(pairs, pruned))


def scan_range(bounds: SearchBounds, workers: int | None = None) -> list[Representation]:
    """The list of the rows iter_scan(bounds) yields, for a caller that wants
    them all at once; the benchmark's tracer (perfbench/tracing.py) is the
    only one left.  `workers` is accepted for compatibility and has no
    effect: output is the same for any value."""
    return list(iter_scan(bounds))


def iter_scan(bounds: SearchBounds):
    """Every verified Representation of a k in bounds.k_range, in (k, x, y, z)
    order.  A window of one k is search_k's query and goes to it, so its rows
    come from one tuple, held whole: for k = 0 at B = 10,000 that is 10,001
    rows, 17.3 MB peak RSS against 15.5 MB by the sweep (CLI runs).  A wider
    window takes one sweep over the part of the range in [-3B^3, 3B^3], the
    sums a box can reach.  A k with no hit, such as one in class 4 or 5,
    costs no call.  The sweep's packed hits are sorted once, and each is
    popped and unpacked by three divmods just before its row is made, so a
    caller that writes each row as it comes holds at most the sweep's list."""
    B, (start, stop) = bounds
    if start == stop:
        yield from search_k(start, B).representations
        return
    reach = 3 * B ** 3
    lo, hi = max(start, -reach), min(stop, reach)
    hits = _sweep(lo, hi, B)[0] if lo <= hi else []
    hits.sort(reverse=True)  # popped from the end, in (k, x, y, z) order
    W = 2 * B + 1
    while hits:
        v, z = divmod(hits.pop(), W)
        v, y = divmod(v, W)
        dk, x = divmod(v, W)
        yield Representation(x - B, y - B, z - B, lo + dk)
