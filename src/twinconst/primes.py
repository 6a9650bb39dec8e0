"""Exact primality, prime stepping, and segmented sieving over the 64-bit range.

Point queries use deterministic Miller-Rabin base sets: 2, 7, 61 below 2^32,
and above it twelve bases, exact below 3.3e24, hence for the whole supported
range. Bulk scans use a numpy sieve of Eratosthenes over odd values only:
each window starts as a tiled copy of one pattern with the multiples of 3, 5,
7, 11 and 13 already removed (a pre-sieve), base primes from 17 to 2^12 are
crossed off by strided slices, and larger ones together in numpy batches.
In a batch each prime's first odd multiple is one int64 remainder, and pass
j crosses off the j-th next multiple of every prime below count / j (count
is the window's odd count) in one scatter, into a bitmap with one spare
slot for the misses: most of these primes exceed count and take pass 0
only. A Segment holds these odd-value flags and no flag per value; every
reader, sweeps and walks alike, runs on them. The base primes come from a
grow-only per-process table of 2 bytes per prime: those from 2^12 up are
uint16 half-offsets from an anchor per 4096 primes, decoded a batch at a
time. One builder writes it with the same odd-only core, DEFAULT_SEGMENT_SIZE
odd values at a time, taking its root primes from a smaller table. This core
is the only way primes are built: the import-time table, one byte per odd
value up to 2^20 + 1, is one sieve_segment window's odd flags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

RANGE_LIMIT = 1 << 63
# next_prime refuses inputs this close to the ceiling rather than risking wrap
STEP_HEADROOM = RANGE_LIMIT - (1 << 32)
DEFAULT_SEGMENT_SIZE = 1 << 20
MAX_SEGMENT_SIZE = 1 << 26

# Deterministic for n < 3.317e24 (includes all 64-bit inputs).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic for n < 4 759 123 141 (Jaeschke 1993), so for all n < 2^32.
_MR_BASES_32 = (2, 7, 61)

_SMALL_LIMIT = 1 << 20

# Base primes below this are crossed off one strided slice each; the rest have
# at most width / _LARGE_PRIME_MIN multiples in a window and are crossed off
# together, in batches of _LARGE_PRIME_BATCH primes.
_LARGE_PRIME_MIN = 1 << 12
_LARGE_PRIME_BATCH = 1 << 16
_BASE_PRIME_MAX = math.isqrt(RANGE_LIMIT)  # < 2^32


# The pre-sieve: _PRESIEVE[j] is True iff the odd value 1 + 2j has no factor
# among _PRESIEVE_PRIMES; it repeats every _PRESIEVE_PERIOD odd values.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE_PRIMES)
_PRESIEVE = np.gcd(np.arange(1, 2 * _PRESIEVE_PERIOD, 2), _PRESIEVE_PERIOD) == 1
_PRESIEVE.setflags(write=False)


def _sieve_odd(o0: int, count: int, small: np.ndarray,
               large: Iterable[np.ndarray]) -> np.ndarray:
    """Flags odd[i] True iff o0 + 2i is prime, for odd o0 and 0 <= i < count.

    small holds, ascending, the primes below _LARGE_PRIME_MIN up to the
    square root of the last value, and large the larger ones up to it as
    ascending int64 batches; those up to 13 are not read, the pre-sieve has
    removed their multiples.
    """
    # one spare slot past the last odd index catches the misses of the scatter
    odd = np.resize(np.roll(_PRESIEVE, -(o0 // 2 % _PRESIEVE_PERIOD)), count + 1)
    for v in (1,) + _PRESIEVE_PRIMES:
        if o0 <= v < o0 + 2 * count:
            odd[(v - o0) // 2] = v != 1
    # p itself sits at odd index (p - o0) / 2 and its odd multiples at the
    # indices congruent to that modulo p; none below p * p is crossed off
    p = small[small.searchsorted(_PRESIEVE_PRIMES[-1] + 1):].astype(np.int64)
    start = ((p >> 1) - (o0 >> 1)) % p
    if o0 < _LARGE_PRIME_MIN**2:  # else o0 passes every p * p here
        start = np.maximum(start, (p * p - o0) >> 1)
    # an odd multiple k * p steps to the next one 2p on, one odd index p on
    for q, s in zip(p.tolist(), start.tolist()):
        odd[s::q] = False
    buf = None
    for p in large:
        if buf is None:  # the first batch is the largest
            buf = np.empty((2, p.size), np.int64)
        start, idx = buf[:, : p.size]
        np.right_shift(p, 1, out=start)
        start -= o0 >> 1
        start %= p
        if o0 <= int(p[-1]) ** 2:
            np.maximum(start, (p * p - o0) >> 1, out=start)
        # Pass j crosses off odd index start + j * p for the primes p below
        # count / j, the only ones it can reach, in one scatter whose misses
        # land on the spare slot. Only pass 0 takes the primes >= count, which
        # hit the window at most once.
        h, j = p.size, 0
        while h:
            odd[np.minimum(start[:h], count, out=idx[:h])] = False
            j += 1
            h = p.searchsorted(-(-count // j))
            start[:h] += p[:h]
    return odd[:count]


def primes_between(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo <= p <= hi (0 <= lo), ascending; none when lo > hi.
    The odd ones are read from the import-time table when it covers hi, else
    from a sieve of [lo, hi]."""
    if lo > hi:
        return np.zeros(0, np.int64)
    if hi <= _SMALL_LIMIT + 1:
        # byte i is the odd value 2i + 1, so those in [lo, hi] are bytes
        # lo >> 1 through (hi - 1) >> 1
        odd = np.frombuffer(_SMALL_ODD, np.bool_)[lo >> 1 : (hi + 1) >> 1]
    else:
        odd = sieve_segment(lo, hi).odd
    ps = 2 * np.flatnonzero(odd) + (lo | 1)
    return np.insert(ps, 0, 2) if lo <= 2 <= hi else ps


# The base-prime table of the primes <= limit, (limit, small, anchors, halves):
# small holds those below _LARGE_PRIME_MIN as uint32, and halves each larger
# prime p as the uint16 half-offset (p - a) / 2 from a = anchors[i // _ANCHOR_RUN],
# the first of its run of _ANCHOR_RUN consecutive large primes (int64). Near
# 2^32 such a run spans about 91 000 values, within the 2^17 that fit.
_ANCHOR_RUN = 1 << 12
_EMPTY_TABLE = (0, np.zeros(0, np.uint32), np.zeros(0, np.int64), np.zeros(0, np.uint16))
# grown on demand by _base_primes; every array in it is read-only
_base_cache = _EMPTY_TABLE


def _base_primes(limit: int) -> tuple[np.ndarray, int]:
    """The primes <= limit (limit <= isqrt(2^63)) from the per-process table:
    those below _LARGE_PRIME_MIN, and the count of the larger ones, which
    _large_batches(_base_cache, count) decodes.

    The table is rebuilt an eighth past a limit it does not cover, so the next
    windows of an ascending sweep reuse it.
    """
    global _base_cache
    if limit > _base_cache[0]:
        table = _build_table(min(max(limit + limit // 8, 1 << 16), _BASE_PRIME_MAX))
        for a in table[1:]:
            a.setflags(write=False)
        _base_cache = table
    return _table_upto(_base_cache, limit)


def _table_upto(table: tuple, limit: int) -> tuple[np.ndarray, int]:
    """(the small primes <= limit, the count of large primes <= limit) of table."""
    _, small, anchors, halves = table
    r = int(anchors.searchsorted(limit, "right")) - 1  # the run holding the last
    if r < 0:
        return small[: small.searchsorted(limit, "right")], 0
    run = halves[r * _ANCHOR_RUN : (r + 1) * _ANCHOR_RUN]
    # p <= limit iff (p - a) / 2 <= (limit - a) // 2, as p - a is even
    key = np.uint16(min((limit - int(anchors[r])) >> 1, 0xFFFF))
    return small, r * _ANCHOR_RUN + int(run.searchsorted(key, "right"))


def _large_batches(table: tuple, count: int) -> Iterator[np.ndarray]:
    """The first count large primes of table, ascending, as int64 batches of
    _LARGE_PRIME_BATCH: one widening copy of the half-offsets, one shift and
    one broadcast add of their anchors each. All batches share one buffer, so a
    batch is valid only until the next one is read."""
    _, _, anchors, halves = table
    buf = np.empty(min(count, _LARGE_PRIME_BATCH), np.int64)
    for b in range(0, count, _LARGE_PRIME_BATCH):
        p = buf[: min(_LARGE_PRIME_BATCH, count - b)]
        p[:] = halves[b : b + p.size]
        p <<= 1
        full = p.size - p.size % _ANCHOR_RUN  # b is a multiple of _ANCHOR_RUN
        runs = p[:full].reshape(-1, _ANCHOR_RUN)
        runs += anchors[b // _ANCHOR_RUN : (b + full) // _ANCHOR_RUN, None]
        if full < p.size:
            p[full:] += anchors[(b + full) // _ANCHOR_RUN]
        yield p


def _encode(vals: np.ndarray, anchors: np.ndarray, halves: np.ndarray, n: int) -> int:
    """Store the ascending large primes vals as table entries n, n + 1, ...,
    each run of _ANCHOR_RUN entries anchored at its first value, and return
    the new entry count. A half-offset that does not fit 16 bits raises
    OverflowError: wrapped, it would silently corrupt every later sieve."""
    i0 = n
    while n < i0 + vals.size:
        r, k = divmod(n, _ANCHOR_RUN)  # entry n is the k-th of run r
        run = vals[n - i0 : n - i0 + _ANCHOR_RUN - k]
        if not k:
            anchors[r] = run[0]
        d = run - anchors[r]
        if d[-1] >> 17:
            raise OverflowError(f"the {_ANCHOR_RUN} primes from {anchors[r]} span 2^17 "
                                "values or more: no uint16 half-offset holds them")
        d >>= 1
        halves[n : n + d.size] = d
        n += d.size
    return n


def _build_table(limit: int) -> tuple:
    """The base-prime table of the primes <= limit (2 <= limit < 2^32), sieved
    DEFAULT_SEGMENT_SIZE odd values at a time, each segment's large primes
    encoded straight into a uint16 array sized by pi(x) < 1.25506 x / ln x
    (Rosser and Schoenfeld 1962), whose unused tail is never touched. The root
    primes come from the table for isqrt(limit), at most 4 levels deep (2^32,
    2^16, 2^8, 2^4): below 17^2 the pre-sieve alone leaves only primes, so
    none are needed."""
    root = _build_table(math.isqrt(limit)) if limit >= 17**2 else _EMPTY_TABLE
    size = int(1.25506 * limit / math.log(limit)) + 1
    halves = np.empty(size, np.uint16)
    anchors = np.empty(size // _ANCHOR_RUN + 1, np.int64)
    small, n = np.array([2], np.uint32), 0
    for o0 in range(1, limit + 1, 2 * DEFAULT_SEGMENT_SIZE):
        count = min(DEFAULT_SEGMENT_SIZE, (limit - o0) // 2 + 1)
        rsmall, rn = _table_upto(root, math.isqrt(o0 + 2 * count - 2))
        vals = np.flatnonzero(_sieve_odd(o0, count, rsmall, _large_batches(root, rn)))
        vals *= 2
        vals += o0
        if o0 < _LARGE_PRIME_MIN:  # the first segment holds every small prime
            split = vals.searchsorted(_LARGE_PRIME_MIN)
            small = np.concatenate((small, vals[:split].astype(np.uint32)))
            vals = vals[split:]
        n = _encode(vals, anchors, halves, n)
    return limit, small, anchors[: -(-n // _ANCHOR_RUN)], halves[:n]


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES_32 if n < 1 << 32 else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(x: int) -> bool:
    """Exact primality for 0 <= x <= 2^63. 0 and 1 are not prime."""
    if 0 <= x <= _SMALL_LIMIT:
        return _SMALL_ODD[x >> 1] == 1 if x & 1 else x == 2
    if x < 0 or x > RANGE_LIMIT:
        raise ValueError(f"input out of supported range [0, 2^63]: {x}")
    if x % 2 == 0:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    return _miller_rabin(x)


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than x."""
    if x >= STEP_HEADROOM:
        raise ValueError(f"input too close to the 64-bit ceiling: {x}")
    if x < 2:
        return 2
    c = x + 1
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def next_composite(x: int) -> int:
    """Smallest composite strictly greater than x (x >= 3)."""
    if x < 3:
        raise ValueError(f"next_composite requires x >= 3, got {x}")
    if x >= STEP_HEADROOM:
        raise ValueError(f"input too close to the 64-bit ceiling: {x}")
    c = x + 1
    while is_prime(c):
        c += 1
    return c


def consecutive_primes_from(p: int, k: int) -> list[int]:
    """The k consecutive primes starting at p, with no primes omitted."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [p]
    while len(out) < k:
        out.append(next_prime(out[-1]))
    return out


@dataclass(frozen=True)
class Segment:
    """Primality of the inclusive value range [lo, hi], held as the flags of
    its odd values only: odd[i] <=> o0 + 2i is prime, for o0 = lo | 1. Of the
    even values only 2 is prime."""

    lo: int
    hi: int
    odd: np.ndarray


def sieve_segment(lo: int, hi: int) -> Segment:
    """Sieve the window [lo, hi] using base primes up to sqrt(hi)."""
    if lo > hi:
        raise ValueError(f"empty segment [{lo}, {hi}]")
    if lo < 0 or hi > RANGE_LIMIT:
        raise ValueError("segment outside supported range [0, 2^63]")
    n = hi - lo + 1
    if n > MAX_SEGMENT_SIZE:
        raise ValueError(f"segment width {n} exceeds max {MAX_SEGMENT_SIZE}")
    o0 = lo | 1
    small, large = _base_primes(math.isqrt(hi))
    odd = _sieve_odd(o0, (hi - o0) // 2 + 1, small, _large_batches(_base_cache, large))
    return Segment(lo, hi, odd)


# byte i is 1 iff the odd value 2i + 1 <= _SMALL_LIMIT + 1 is prime: 512 KB,
# immutable as bytes
_SMALL_ODD = sieve_segment(0, _SMALL_LIMIT + 1).odd.tobytes()


def twin_indices(odd: np.ndarray, n: int) -> np.ndarray:
    """The indices i < n with odd[i] and odd[i + 1], ascending: the twin
    lessers among odd-value flags such as Segment.odd, which must hold n + 1
    flags. They are read DEFAULT_SEGMENT_SIZE flags at a time, so no
    temporary as wide as a sweep chunk's flags is made."""
    parts = [np.zeros(0, np.intp)]
    for i in range(0, n, DEFAULT_SEGMENT_SIZE):
        j = min(i + DEFAULT_SEGMENT_SIZE, n)
        parts.append(np.flatnonzero(odd[i:j] & odd[i + 1 : j + 1]) + i)
    return np.concatenate(parts)


def twin_lessers(limit: int) -> Iterator[int]:
    """All p <= limit with p and p+2 both prime, ascending.

    The first window is 2^14 values, which hold 342 twin pairs, and each next
    one doubles up to DEFAULT_SEGMENT_SIZE: a short prefix sieves little and a
    long run few windows.
    """
    if limit > RANGE_LIMIT:
        raise ValueError(f"limit above 2^63: {limit}")
    start, width = 3, 1 << 14
    while start <= limit:
        window_hi = min(start + width - 1, limit)
        odd = sieve_segment(start, window_hi + 2).odd
        # odd[:-1] are the odd values (start | 1) + 2i <= window_hi
        yield from (2 * twin_indices(odd, odd.size - 1) + (start | 1)).tolist()
        start = window_hi + 1
        width = min(2 * width, DEFAULT_SEGMENT_SIZE)


def first_twin_lessers(count: int) -> list[int]:
    """The first count twin lessers, ascending (count >= 1)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return list(itertools.islice(twin_lessers(STEP_HEADROOM), count))
