import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinconst import primes


def trial_division(x: int) -> bool:
    if x < 2:
        return False
    for d in range(2, math.isqrt(x) + 1):
        if x % d == 0:
            return False
    return True


def test_is_prime_examples():
    assert not primes.is_prime(1)
    assert primes.is_prime(2)
    assert primes.is_prime(165701)
    assert not primes.is_prime(0)


def test_is_prime_matches_trial_division_exhaustive_small():
    for x in range(0, 10_000):
        assert primes.is_prime(x) == trial_division(x), x


def test_is_prime_matches_trial_division_sampled():
    rng = random.Random(20230817)
    for _ in range(2_000):
        x = rng.randrange(0, 10**6)
        assert primes.is_prime(x) == trial_division(x), x
    # exercise the Miller-Rabin path above the small table
    for _ in range(300):
        x = rng.randrange(1 << 20, 1 << 22)
        assert primes.is_prime(x) == trial_division(x), x


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << r, n) == n - 1 for r in range(1, s))


@pytest.mark.parametrize("factors, bases", [
    ((151, 751, 28351), (2, 3, 5, 7)),  # 3 215 031 751, below 2^32
    ((48781, 97561), (2, 7, 61)),  # 4 759 123 141, the least for 2, 7, 61
])
def test_is_prime_rejects_strong_pseudoprimes(factors, bases):
    n = math.prod(factors)
    assert all(_strong_probable_prime(n, a) for a in bases)
    assert not primes.is_prime(n)


def test_is_prime_matches_the_sieve_around_2_32():
    # where the point query switches from bases 2, 7, 61 to the twelve bases
    lo, hi = (1 << 32) - (1 << 16), (1 << 32) + (1 << 16)
    flags = primes.sieve_segment(lo, hi).flags
    assert [primes.is_prime(x) for x in range(lo, hi + 1)] == flags.tolist()


def test_is_prime_range_guard():
    primes.is_prime(1 << 63)  # boundary value is in range, must not raise
    with pytest.raises(ValueError):
        primes.is_prime((1 << 63) + 1)
    with pytest.raises(ValueError):
        primes.is_prime(-1)


def test_next_prime_examples():
    assert primes.next_prime(3) == 5
    assert primes.next_prime(24) == 29
    assert primes.next_prime(33) == 37
    assert primes.next_prime(34) == 37
    assert primes.next_prime(0) == 2
    assert primes.next_prime(2) == 3


def test_next_prime_guard():
    with pytest.raises(ValueError):
        primes.next_prime((1 << 63) - (1 << 31))


def test_next_prime_gap_property():
    rng = random.Random(7)
    for _ in range(200):
        x = rng.randrange(2, 10**6)
        q = primes.next_prime(x)
        assert q > x and primes.is_prime(q)
        for y in range(x + 1, q):
            assert not primes.is_prime(y)


def test_next_composite_examples():
    assert primes.next_composite(5) == 6
    assert primes.next_composite(12) == 14
    assert primes.next_composite(30) == 32
    with pytest.raises(ValueError):
        primes.next_composite(2)


def test_prime_composite_least_witnesses():
    rng = random.Random(11)
    for _ in range(200):
        x = rng.randrange(3, 10**5)
        np_ = primes.next_prime(x)
        nc_ = primes.next_composite(x)
        assert np_ != nc_
        assert min(np_, nc_) == x + 1  # every integer > 3 is prime or composite
        for y in range(x + 1, np_):
            assert not primes.is_prime(y)
        for y in range(x + 1, nc_):
            assert primes.is_prime(y)


def test_consecutive_primes_from():
    assert primes.consecutive_primes_from(17, 5) == [17, 19, 23, 29, 31]
    assert primes.consecutive_primes_from(29, 5) == [29, 31, 37, 41, 43]
    assert primes.consecutive_primes_from(11, 7) == [11, 13, 17, 19, 23, 29, 31]
    with pytest.raises(ValueError):
        primes.consecutive_primes_from(15, 3)
    with pytest.raises(ValueError):
        primes.consecutive_primes_from(17, 0)


def test_consecutive_primes_adjacency():
    run = primes.consecutive_primes_from(1009, 20)
    for q, r in zip(run, run[1:]):
        assert primes.next_prime(q) == r


def test_twin_lessers():
    assert list(primes.twin_lessers(30)) == [3, 5, 11, 17, 29]
    assert list(primes.twin_lessers(2)) == []
    out = list(primes.twin_lessers(60))
    assert out[-2:] == [41, 59]


def test_twin_lessers_segment_boundaries():
    # the windows grow from 2^14 to 2^20 values within the first 3 * 10^6;
    # across every width and every join the lessers are those of one sieve
    limit = 3 * 10**6
    f = primes.sieve_segment(0, limit + 2).flags
    assert list(primes.twin_lessers(limit)) == np.flatnonzero(f[:-2] & f[2:]).tolist()


def test_first_twin_lessers_sieve_few_windows(monkeypatch):
    # the first 10^5 lessers run to about 1.9 * 10^7: doubling windows take
    # them in a few dozen sieves, where 2^14-value windows took over a
    # thousand; each window reads the 2 values past its end for the pair of
    # its last lesser, the next one starts right after that end, and none
    # grows past DEFAULT_SEGMENT_SIZE
    calls = []
    sieve = primes.sieve_segment

    def counting_sieve(lo, hi):
        calls.append((lo, hi))
        return sieve(lo, hi)

    monkeypatch.setattr(primes, "sieve_segment", counting_sieve)
    lessers = primes.first_twin_lessers(10**5)
    assert len(lessers) == 10**5 and lessers[:3] == [3, 5, 11]
    assert len(calls) <= 30
    assert calls[0] == (3, 3 + (1 << 14) + 1)
    assert all(lo == prev_hi - 1 for (_, prev_hi), (lo, _) in zip(calls, calls[1:]))
    assert max(hi - lo - 1 for lo, hi in calls) == primes.DEFAULT_SEGMENT_SIZE


def test_sieve_segment_examples():
    seg = primes.sieve_segment(2, 10)
    assert (seg.lo, seg.hi) == (2, 10)
    assert (seg.lo + np.flatnonzero(seg.flags)).tolist() == [2, 3, 5, 7]
    assert primes.sieve_segment(165690, 165710).flags[165701 - 165690]
    assert not primes.sieve_segment(90, 96).flags.any()


def test_sieve_segment_agrees_with_point_queries():
    rng = random.Random(3)
    for _ in range(20):
        lo = rng.randrange(0, 10**9)
        hi = lo + rng.randrange(0, 3000)
        seg = primes.sieve_segment(lo, hi)
        for k in range(0, hi - lo + 1, max(1, (hi - lo) // 50)):
            assert bool(seg.flags[k]) == primes.is_prime(lo + k)


def test_sieve_segment_errors():
    with pytest.raises(ValueError):
        primes.sieve_segment(10, 5)


def test_oversized_segment_is_rejected_before_allocation():
    # one value past MAX_SEGMENT_SIZE; the bitmap alone would take 64 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds max"):
            primes.sieve_segment(0, primes.MAX_SEGMENT_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("lo, hi", [
    (0, 4095), (1000, 1 << 20), ((1 << 20) - 50, (1 << 20) + 50),
    (0, 1 << 20),  # the whole import-time table
])
def test_prime_flags_between(lo, hi):
    flags = primes.prime_flags_between(lo, hi)
    assert np.array_equal(flags, _plain_prime_flags(hi)[lo:])
    if hi <= 1 << 20:  # a view of the import-time table, which nothing may write
        assert not flags.flags.writeable


def _assert_window_matches_point_queries(lo, hi):
    seg = primes.sieve_segment(lo, hi)
    assert seg.flags.size == hi - lo + 1
    for k in range(hi - lo + 1):
        assert bool(seg.flags[k]) == primes.is_prime(lo + k), lo + k


@pytest.mark.parametrize("lo, hi", [
    (10**12 - 1234, 10**12 + 1766),
    (10**14 + 4321, 10**14 + 7321),
    (999_983 * 1_000_003, 999_983 * 1_000_003 + 3000),  # lo's least factor is large
    (4099**2 - 3000, 4099**2),  # hi = p * p for the largest base prime p
])
def test_sieve_segment_large_base_primes_value_by_value(lo, hi):
    # isqrt(hi) is 4099 to 1e7: the base primes from 2^12 up take the
    # batched numpy path, not the strided slice
    _assert_window_matches_point_queries(lo, hi)


def test_sieve_segment_matches_per_prime_loop():
    # reference: one strided slice per base prime, whatever its size
    lo, hi = 10**12 + 12345, 10**12 + 12345 + (1 << 16)
    want = np.ones(hi - lo + 1, dtype=bool)
    for p in np.flatnonzero(_plain_prime_flags(math.isqrt(hi))).tolist():
        want[max(p * p, -(-lo // p) * p) - lo :: p] = False
    assert np.array_equal(primes.sieve_segment(lo, hi).flags, want)


def _plain_prime_flags(n: int) -> np.ndarray:
    """The textbook sieve over every value 0..n, with no pre-sieve."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


@functools.cache
def _reference_base_primes() -> np.ndarray:
    # every base prime of a window below 10^14 + 2^20
    return np.flatnonzero(_plain_prime_flags(math.isqrt(10**14 + (1 << 20))))


def _per_prime_flags(lo: int, hi: int) -> np.ndarray:
    """Flags for [lo, hi] from one strided slice per base prime, 2 included."""
    want = np.ones(hi - lo + 1, dtype=bool)
    want[: max(0, 2 - lo)] = False  # 0 and 1
    base = _reference_base_primes()
    for p in base[: base.searchsorted(math.isqrt(hi), "right")].tolist():
        want[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return want


def _assert_sieve_matches_per_prime_loop(lo: int, hi: int) -> None:
    got = primes.sieve_segment(lo, hi).flags
    assert got.dtype == bool and np.array_equal(got, _per_prime_flags(lo, hi)), (lo, hi)


def test_sieve_segment_small_windows_match_per_prime_loop():
    # 0, 1, 2 and the pre-sieved primes 3..13 themselves, at every phase
    for lo in range(41):
        for width in range(65):
            _assert_sieve_matches_per_prime_loop(lo, lo + width)


@pytest.mark.parametrize("period", [1, 2, 33, 10**6, 10**12 // 30030])
def test_sieve_segment_windows_across_a_presieve_period(period):
    # the pre-sieve pattern repeats every 2 * 15015 values
    edge = period * 2 * 15015
    for lo, hi in ((edge - 1, edge), (edge - 2, edge + 1), (edge - 63, edge + 64),
                   (edge, edge + 3 * 30030 + 5), (edge - 30030 + 1, edge + 30030 - 1)):
        _assert_sieve_matches_per_prime_loop(lo, hi)


@pytest.mark.parametrize("height", [1 << 32, 10**12, 10**14])
@pytest.mark.parametrize("lo_odd", [False, True])
@pytest.mark.parametrize("hi_odd", [False, True])
def test_sieve_segment_odd_and_even_ends_at_height(height, lo_odd, hi_odd):
    lo = height - 3000 + (height + lo_odd) % 2
    hi = height + 3000 + (height + hi_odd) % 2
    assert (lo % 2, hi % 2) == (lo_odd, hi_odd)
    _assert_sieve_matches_per_prime_loop(lo, hi)


@pytest.mark.parametrize("lo", [1000, 4099, 4100])
def test_sieve_segment_window_holding_batched_base_primes(lo):
    # the base primes 4099..4177 lie in the window, so each is kept and its
    # multiples are crossed off from p * p on
    _assert_sieve_matches_per_prime_loop(lo, 4200**2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**10), st.integers(min_value=0, max_value=5000))
def test_sieve_segment_random_windows_match_per_prime_loop(lo, width):
    _assert_sieve_matches_per_prime_loop(lo, lo + width)


def test_segmented_primes_upto_matches_trial_division_and_plain_sieve():
    # every limit across the recursion floor: from 17^2 = 289 on the root
    # primes come from a nested call, below it the pre-sieve alone leaves
    # only primes
    small = [x for x in range(1001) if trial_division(x)]
    for n in [*range(2, 301), 1000]:
        got = primes._segmented_primes_upto(n)
        assert got.dtype == np.uint32, n
        assert got.tolist() == [x for x in small if x <= n], n
    assert (got.size, got[-1]) == (168, 997)  # n = 1000
    # 4200^2: base primes from 4099 take the batched path
    for n in (1 << 20, 4200**2):
        want = np.flatnonzero(_plain_prime_flags(n))
        assert np.array_equal(primes._segmented_primes_upto(n), want), n


def test_sieve_segment_crosses_off_by_every_batched_base_prime():
    # q * r with r the next prime has q as its least factor, so only q can
    # cross it off; q runs over the ends of the first two numpy batches
    base = _reference_base_primes()
    first = int(np.searchsorted(base, primes._LARGE_PRIME_MIN))
    edges = (first, first + primes._LARGE_PRIME_BATCH)
    for i in sorted({j for e in edges for j in (e - 1, e, e + 1)}):
        q = int(base[i])
        x = q * primes.next_prime(q)
        assert not primes.sieve_segment(x - 2, x + 2).flags[2], q


@pytest.mark.parametrize("height", [10**13, 10**14])
def test_sieve_segment_sweep_width_windows_match_per_prime_loop(height):
    # the width a sweep chunk sieves: most large base primes exceed the odd
    # count and hit the window at most once
    width = (1 << 20) + (1 << 15)
    for lo in (height - 12345, height + 2 * width + 1):
        _assert_sieve_matches_per_prime_loop(lo, lo + width - 1)


def _lone_multiple(p: int, height: int = 10**13) -> int:
    """An odd multiple q * p near height, with q > p prime, so that p is the only
    base prime dividing it, and q * p - 2 prime."""
    q = primes.next_prime(height // p)
    while not primes.is_prime(q * p - 2):
        q = primes.next_prime(q)
    return q * p


def _large_base_prime(rank: int) -> int:
    base = _reference_base_primes()
    return int(base[base.searchsorted(primes._LARGE_PRIME_MIN) + rank])


@pytest.mark.parametrize("rank", [0, 1, primes._LARGE_PRIME_BATCH])
@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("excess", [-1, 0, 1])
def test_sieve_segment_odd_count_next_to_a_large_base_prime(rank, passes, excess):
    # The odd count is passes * p - 1, passes * p or passes * p + 1. Odd index
    # 0 holds a multiple of p, and index passes * p one that only p crosses
    # off, on pass `passes`: the last index of the window when excess is 1.
    p = _large_base_prime(rank)
    count = passes * p + excess
    lo = _lone_multiple(p) - 2 * passes * p
    _assert_sieve_matches_per_prime_loop(lo, lo + 2 * (count - 1))


@pytest.mark.parametrize("past_last", [0, 1])
@pytest.mark.parametrize("lo_even", [False, True])
def test_sieve_segment_single_hit_on_the_last_odd_index_or_one_past(past_last, lo_even):
    # p exceeds the odd count, so it hits the window at most once: on the
    # last odd value q * p, or one past it, on the spare slot, while the last
    # odd value q * p - 2 is a prime that must stay flagged
    p = _large_base_prime(3)
    count = p - 2
    hi = _lone_multiple(p) - 2 * past_last
    lo = hi - 2 * (count - 1) - lo_even
    _assert_sieve_matches_per_prime_loop(lo, hi)
    assert primes.sieve_segment(lo, hi).flags[-1] == bool(past_last)


def test_sieve_segment_window_below_squares_of_large_base_primes():
    # lo < p < p * p <= hi for the base primes 4099..4177: each must be kept
    # as a prime and crossed off only from p * p on
    lo, hi = 1000, 4200**2
    seg = primes.sieve_segment(lo, hi)
    assert np.array_equal(seg.flags, _plain_prime_flags(hi)[lo:])


def test_sieve_segment_base_prime_cache_grows_and_slices_down(monkeypatch):
    monkeypatch.setattr(primes, "_base_cache", (0, np.zeros(0, np.uint32)))
    for lo in (10**14, 10**6, 10**12):
        _assert_window_matches_point_queries(lo, lo + 2000)
    top, cached = primes._base_cache
    assert top >= math.isqrt(10**14 + 2000)
    assert cached.dtype == np.uint32 and not cached.flags.writeable


def test_segmented_base_prime_cache_matches_plain_sieve():
    # just below, at and just above the segment boundaries 2 k S +- 1 (the
    # last odd value of segment k - 1 and the first of segment k), and at the
    # cache limit of a window near 10^14
    s = primes.DEFAULT_SEGMENT_SIZE
    limits = [2 * k * s + d for k in (1, 2) for d in (-2, -1, 0, 1, 2)] + [11_250_000]
    want = np.flatnonzero(_plain_prime_flags(max(limits)))
    for limit in limits:
        got = primes._segmented_primes_upto(limit)
        assert got.dtype == np.uint32, limit
        assert np.array_equal(got, want[: want.searchsorted(limit, "right")]), limit


def test_sieve_segment_offsets_exact_near_range_limit(monkeypatch):
    # with a stub base-prime list the sieve crosses off exactly the multiples
    # of the stub primes, so a window at the top of the range checks the
    # offset arithmetic without sieving by all primes below 3e9; the stub
    # holds 5..13 because the pre-sieve removes their multiples regardless
    top = primes.RANGE_LIMIT
    big = [q for q in range(math.isqrt(top) - 300, math.isqrt(top) + 1) if primes.is_prime(q)]
    stub = np.array([2, 3, 5, 7, 11, 13, 4099, 65537] + big, dtype=np.uint32)
    monkeypatch.setattr(primes, "_base_primes", lambda limit: stub[stub <= limit])
    lo = top - 10**5
    seg = primes.sieve_segment(lo, top)
    want = [all((lo + k) % int(q) for q in stub) for k in range(top - lo + 1)]
    assert seg.flags.tolist() == want
    assert not primes.sieve_segment(top, top).flags[0]


def test_twin_prime_counts_match_published_values():
    # pi_2(10^k) for k = 3..6, OEIS A007508
    for k, want in ((3, 35), (4, 205), (5, 1224), (6, 8169)):
        assert sum(1 for _ in primes.twin_lessers(10**k)) == want


def test_first_twin_lessers():
    # the count-th twin lesser ends the list
    assert [primes.first_twin_lessers(n)[-1] for n in (1, 2, 3, 35, 205)] == [3, 5, 11, 881, 9929]
    assert primes.first_twin_lessers(5) == [3, 5, 11, 17, 29]
    with pytest.raises(ValueError):
        primes.first_twin_lessers(0)
