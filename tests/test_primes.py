import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segment_flags import value_flags
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
    flags = value_flags(primes.sieve_segment(lo, hi))
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
    # within 2^32 of 2^63, where a step could pass the ceiling
    with pytest.raises(ValueError, match="too close to the 64-bit ceiling"):
        primes.next_composite(primes.STEP_HEADROOM)


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
    f = value_flags(primes.sieve_segment(0, limit + 2))
    assert list(primes.twin_lessers(limit)) == np.flatnonzero(f[:-2] & f[2:]).tolist()


def test_twin_indices_read_in_slices(monkeypatch):
    # with 8-flag slices: no flags, one, around one and two slice ends, and a
    # pair whose lesser ends a slice and whose greater starts the next
    size = 8
    monkeypatch.setattr(primes, "DEFAULT_SEGMENT_SIZE", size)
    odd = np.random.default_rng(30).random(4 * size) < 0.6
    for n in (0, 1, size - 1, size, size + 1, 2 * size + 1):
        got = primes.twin_indices(odd, n)
        assert got.dtype == np.intp
        assert got.tolist() == np.flatnonzero(odd[:n] & odd[1 : n + 1]).tolist(), n
    edge = np.zeros(2 * size + 1, bool)
    edge[size - 1 : size + 1] = True
    assert primes.twin_indices(edge, 2 * size).tolist() == [size - 1]


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
    assert (seg.lo + np.flatnonzero(value_flags(seg))).tolist() == [2, 3, 5, 7]
    assert value_flags(primes.sieve_segment(165690, 165710))[165701 - 165690]
    assert not value_flags(primes.sieve_segment(90, 96)).any()


def test_sieve_segment_agrees_with_point_queries():
    rng = random.Random(3)
    for _ in range(20):
        lo = rng.randrange(0, 10**9)
        hi = lo + rng.randrange(0, 3000)
        flags = value_flags(primes.sieve_segment(lo, hi))
        for k in range(0, hi - lo + 1, max(1, (hi - lo) // 50)):
            assert bool(flags[k]) == primes.is_prime(lo + k)


def test_sieve_segment_errors():
    with pytest.raises(ValueError):
        primes.sieve_segment(10, 5)
    for lo, hi in ((-1, 5), (primes.RANGE_LIMIT - 9, primes.RANGE_LIMIT + 1)):
        with pytest.raises(ValueError, match=r"outside supported range \[0, 2\^63\]"):
            primes.sieve_segment(lo, hi)


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


def test_is_prime_equals_one_sieve_through_the_table_end():
    # the import-time table ends at 2^20 + 1 and is_prime reads it up to 2^20
    hi = (1 << 20) + 64
    want = np.zeros(hi + 1, dtype=bool)
    want[1::2] = primes.sieve_segment(0, hi).odd
    want[2] = True
    got = np.array([primes.is_prime(x) for x in range(hi + 1)])
    assert np.array_equal(got, want)
    assert not got[0] and not got[1] and got[2]
    assert not got[(1 << 20) - 1]  # 3 * 5^2 * 11 * 31 * 41
    assert not got[(1 << 20) + 1]  # 17 * 61681, the table's last byte
    assert (np.flatnonzero(got[(1 << 20) - 16 :]) + (1 << 20) - 16).tolist() == [
        1048571, 1048573, 1048583, 1048589, 1048601, 1048609, 1048613, 1048627, 1048633]


@pytest.mark.parametrize("lo, hi", [
    (0, 4095), (1000, 1 << 20), ((1 << 20) - 50, (1 << 20) + 50),
    (0, 1 << 20),  # the whole import-time table
    (0, (1 << 20) + 1), (1, (1 << 20) + 1), ((1 << 20) + 1, (1 << 20) + 1),  # its last byte
    (0, (1 << 20) + 2), ((1 << 20) - 1, (1 << 20) + 3),  # straddling its end: a sieve
    ((1 << 20) + 2, (1 << 20) + 4000), (2, 2), (0, 2), (3, 3), (0, 0), (0, 1),
    (5, 4), (1 << 20, 100), ((1 << 21) + 1, 1 << 21),  # lo > hi: empty, not an error
])
def test_primes_between(lo, hi):
    want = np.flatnonzero(_plain_prime_flags(hi)[lo:]) + lo
    assert primes.primes_between(lo, hi).tolist() == want.tolist()


def test_primes_between_reads_no_per_value_flags():
    lo = 10**9
    got = primes.primes_between(lo, lo + 999)
    assert got.tolist() == [x for x in range(lo, lo + 1000) if primes.is_prime(x)]


def _assert_window_matches_point_queries(lo, hi):
    seg = primes.sieve_segment(lo, hi)
    assert seg.odd.size == (hi - (lo | 1)) // 2 + 1
    flags = value_flags(seg)
    for k in range(hi - lo + 1):
        assert bool(flags[k]) == primes.is_prime(lo + k), lo + k


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
    assert np.array_equal(value_flags(primes.sieve_segment(lo, hi)), want)


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
    seg = primes.sieve_segment(lo, hi)
    assert seg.odd.dtype == bool, (lo, hi)
    assert np.array_equal(value_flags(seg), _per_prime_flags(lo, hi)), (lo, hi)


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


def _decoded(small: np.ndarray, n: int, table: tuple) -> np.ndarray:
    """small and the first n large primes of table, ascending, as int64."""
    return np.concatenate([small.astype(np.int64)]
                          + [b.copy() for b in primes._large_batches(table, n)])


def test_base_prime_table_matches_trial_division_and_plain_sieve():
    # every limit across the recursion floor: from 17^2 = 289 on the root
    # primes come from a nested table, below it the pre-sieve alone leaves
    # only primes
    small = [x for x in range(1001) if trial_division(x)]
    for n in [*range(2, 301), 1000]:
        table = primes._build_table(n)
        assert table[0] == n
        assert (table[1].dtype, table[2].dtype, table[3].dtype) == (
            np.uint32, np.int64, np.uint16), n
        assert _decoded(*primes._table_upto(table, n), table).tolist() == [
            x for x in small if x <= n], n
    assert table[1].size == 168 and table[3].size == 0  # n = 1000
    # 4200^2: base primes from 4099 take the batched path, and the large ones
    # fill 276 anchor runs across 9 segments
    for n in (1 << 20, 4200**2):
        want = np.flatnonzero(_plain_prime_flags(n))
        table = primes._build_table(n)
        assert np.array_equal(_decoded(*primes._table_upto(table, n), table), want), n


def test_sieve_segment_crosses_off_by_every_batched_base_prime():
    # q * r with r the next prime has q as its least factor, so only q can
    # cross it off; q runs over the ends of the first two numpy batches
    base = _reference_base_primes()
    first = int(np.searchsorted(base, primes._LARGE_PRIME_MIN))
    edges = (first, first + primes._LARGE_PRIME_BATCH)
    for i in sorted({j for e in edges for j in (e - 1, e, e + 1)}):
        q = int(base[i])
        x = q * primes.next_prime(q)
        assert not value_flags(primes.sieve_segment(x - 2, x + 2))[2], q


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
    assert value_flags(primes.sieve_segment(lo, hi))[-1] == bool(past_last)


def test_sieve_segment_window_below_squares_of_large_base_primes():
    # lo < p < p * p <= hi for the base primes 4099..4177: each must be kept
    # as a prime and crossed off only from p * p on
    lo, hi = 1000, 4200**2
    seg = primes.sieve_segment(lo, hi)
    assert np.array_equal(value_flags(seg), _plain_prime_flags(hi)[lo:])


def test_sieve_segment_base_prime_cache_grows_and_slices_down(monkeypatch):
    monkeypatch.setattr(primes, "_base_cache", primes._EMPTY_TABLE)
    for lo in (10**14, 10**6, 10**12):
        _assert_window_matches_point_queries(lo, lo + 2000)
    top, small, anchors, halves = primes._base_cache
    assert top >= math.isqrt(10**14 + 2000)
    assert (small.dtype, anchors.dtype, halves.dtype) == (np.uint32, np.int64, np.uint16)
    assert not any(a.flags.writeable for a in (small, anchors, halves))
    # 2 bytes per large base prime, and 8 per anchor run of 4096
    assert halves.nbytes + anchors.nbytes < 2.01 * halves.size


def test_base_prime_table_matches_plain_sieve_at_segment_edges():
    # just below, at and just above the segment boundaries 2 k S +- 1 (the
    # last odd value of segment k - 1 and the first of segment k), and at the
    # cache limit of a window near 10^14
    s = primes.DEFAULT_SEGMENT_SIZE
    limits = [2 * k * s + d for k in (1, 2) for d in (-2, -1, 0, 1, 2)] + [11_250_000]
    want = np.flatnonzero(_plain_prime_flags(max(limits)))
    for limit in limits:
        table = primes._build_table(limit)
        got = _decoded(*primes._table_upto(table, limit), table)
        assert np.array_equal(got, want[: want.searchsorted(limit, "right")]), limit


def _edge_limits() -> list[int]:
    """_LARGE_PRIME_MIN +- 1, and the primes that end and start an anchor run
    and a batch of large primes, each +- 1."""
    base = _reference_base_primes()
    first = int(base.searchsorted(primes._LARGE_PRIME_MIN))
    run, batch = primes._ANCHOR_RUN, primes._LARGE_PRIME_BATCH
    limits = [primes._LARGE_PRIME_MIN + d for d in (-1, 0, 1)]
    for rank in (run, 2 * run, batch, batch + run, 2 * batch):
        for i in (rank - 1, rank):
            p = int(base[first + i])
            limits += [p - 1, p, p + 1]
    return limits


def test_base_primes_decode_to_plain_sieve_at_anchor_and_batch_edges():
    # the count of large primes <= limit lands on, just before and just after
    # a multiple of 4096 (an anchor edge) and of 2^16 (a batch edge)
    want = _reference_base_primes()
    for limit in _edge_limits():
        got = _decoded(*primes._base_primes(limit), primes._base_cache)
        assert np.array_equal(got, want[: want.searchsorted(limit, "right")]), limit


def test_table_encoding_refuses_a_run_past_16_bit_half_offsets():
    # hand-made ascending runs, no sieve: 4096 values 32 apart span 131 040
    # < 2^17 and decode back; 34 apart they span 139 230 and are refused
    run = primes._ANCHOR_RUN
    halves, anchors = np.zeros(2 * run, np.uint16), np.zeros(2, np.int64)
    ok = 4099 + 32 * np.arange(run + 5, dtype=np.int64)
    # two calls: the second one finishes the first run and opens the next
    n = primes._encode(ok[:100], anchors, halves, 0)
    n = primes._encode(ok[100:], anchors, halves, n)
    assert n == ok.size and halves[run - 1] == 0xFFF0
    table = (int(ok[-1]), np.zeros(0, np.uint32), anchors, halves[:n])
    assert np.array_equal(next(primes._large_batches(table, n)), ok)
    with pytest.raises(OverflowError, match="2\\^17"):
        primes._encode(4099 + 34 * np.arange(run, dtype=np.int64), anchors, halves, 0)
    # only the run's last value is past 2^17 from its anchor, and it comes
    # in a later call
    bad = ok[:run].copy()
    bad[-1] = bad[0] + (1 << 17) + 2
    n = primes._encode(bad[:-1], anchors, halves, 0)
    with pytest.raises(OverflowError):
        primes._encode(bad[-1:], anchors, halves, n)


def test_sieve_segment_offsets_exact_near_range_limit(monkeypatch):
    # with stub base primes the sieve crosses off exactly the multiples of the
    # stub primes, so a window at the top of the range checks the offset
    # arithmetic without sieving by all primes below 3e9; the stub holds
    # 5..13 because the pre-sieve removes their multiples regardless, and its
    # large primes come as one batch, which no uint16 half-offset could hold
    top = primes.RANGE_LIMIT
    big = [q for q in range(math.isqrt(top) - 300, math.isqrt(top) + 1) if primes.is_prime(q)]
    small = np.array([2, 3, 5, 7, 11, 13], dtype=np.uint32)
    large = np.array([4099, 65537] + big, dtype=np.int64)
    monkeypatch.setattr(primes, "_base_primes", lambda limit: (
        small[small <= limit], int(np.count_nonzero(large <= limit))))
    monkeypatch.setattr(primes, "_large_batches", lambda table, n: iter([large[:n]]))
    lo = top - 10**5
    seg = primes.sieve_segment(lo, top)
    stub = [*small.tolist(), *large.tolist()]
    want = [all((lo + k) % q for q in stub) for k in range(top - lo + 1)]
    assert value_flags(seg).tolist() == want
    assert not value_flags(primes.sieve_segment(top, top))[0]


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
    with pytest.raises(ValueError, match="limit above 2\\^63"):
        next(primes.twin_lessers(primes.RANGE_LIMIT + 1))
