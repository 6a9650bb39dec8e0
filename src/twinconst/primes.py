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
only. The odd-value flags are expanded to one flag per value at the end.
The base primes come from a grow-only per-process cache, which the same
odd-only core builds DEFAULT_SEGMENT_SIZE odd values at a time, taking its
root primes from itself. This core is the only way primes are built: the
import-time table of flags up to 2^20 is one sieve_segment window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

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
_BASE_PRIME_MAX = math.isqrt(RANGE_LIMIT)  # < 2^32, so uint32 holds every base prime


# The pre-sieve: _PRESIEVE[j] is True iff the odd value 1 + 2j has no factor
# among _PRESIEVE_PRIMES; it repeats every _PRESIEVE_PERIOD odd values.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13)
_PRESIEVE_PERIOD = math.prod(_PRESIEVE_PRIMES)
_PRESIEVE = np.gcd(np.arange(1, 2 * _PRESIEVE_PERIOD, 2), _PRESIEVE_PERIOD) == 1
_PRESIEVE.setflags(write=False)


def _sieve_odd(o0: int, count: int, base: np.ndarray) -> np.ndarray:
    """Flags odd[i] True iff o0 + 2i is prime, for odd o0 and 0 <= i < count.

    base holds, ascending, every prime up to the square root of the last
    value; those up to 13 are not read, the pre-sieve has removed their
    multiples.
    """
    # one spare slot past the last odd index catches the misses of the scatter
    odd = np.resize(np.roll(_PRESIEVE, -(o0 // 2 % _PRESIEVE_PERIOD)), count + 1)
    for v in (1,) + _PRESIEVE_PRIMES:
        if o0 <= v < o0 + 2 * count:
            odd[(v - o0) // 2] = v != 1
    # keys of base's dtype, so that a uint32 base is not cast to int64 whole
    first, split = base.searchsorted(
        np.array([_PRESIEVE_PRIMES[-1] + 1, _LARGE_PRIME_MIN], base.dtype))
    # p itself sits at odd index (p - o0) / 2 and its odd multiples at the
    # indices congruent to that modulo p; none below p * p is crossed off
    p = base[first:split].astype(np.int64)
    start = ((p >> 1) - (o0 >> 1)) % p
    if o0 < _LARGE_PRIME_MIN**2:  # else o0 passes every p * p here
        start = np.maximum(start, (p * p - o0) >> 1)
    # an odd multiple k * p steps to the next one 2p on, one odd index p on
    for q, s in zip(p.tolist(), start.tolist()):
        odd[s::q] = False
    for b in range(split, base.size, _LARGE_PRIME_BATCH):
        p = base[b : b + _LARGE_PRIME_BATCH].astype(np.int64)
        start = ((p >> 1) - (o0 >> 1)) % p
        if o0 <= int(p[-1]) ** 2:
            start = np.maximum(start, (p * p - o0) >> 1)
        # Pass j crosses off odd index start + j * p for the primes p below
        # count / j, the only ones it can reach, in one scatter whose misses
        # land on the spare slot. Only pass 0 takes the primes >= count, which
        # hit the window at most once.
        h, j = p.size, 0
        while h:
            odd[np.minimum(start[:h], count)] = False
            j += 1
            h = p.searchsorted(-(-count // j))
            start[:h] += p[:h]
    return odd[:count]


def prime_flags_between(lo: int, hi: int) -> np.ndarray:
    """Flags f[k] True iff lo + k is prime, for 0 <= lo <= lo + k <= hi: a
    read-only view of the import-time table when it covers hi, else a sieve."""
    if hi <= _SMALL_LIMIT:
        return _SMALL_FLAGS[lo : hi + 1]
    return sieve_segment(lo, hi).flags


# (limit, primes <= limit as read-only uint32), grown on demand by _base_primes
_base_cache = (0, np.zeros(0, np.uint32))


def _base_primes(limit: int) -> np.ndarray:
    """Primes <= limit (limit <= isqrt(2^63)), served from the per-process cache.

    The cache is rebuilt an eighth past a limit it does not cover, so the next
    windows of an ascending sweep reuse it.
    """
    global _base_cache
    top, cached = _base_cache
    if limit > top:
        top = min(max(limit + limit // 8, 1 << 16), _BASE_PRIME_MAX)
        cached = _segmented_primes_upto(top)
        cached.setflags(write=False)
        _base_cache = (top, cached)
    return cached[: cached.searchsorted(np.uint32(limit), "right")]


def _segmented_primes_upto(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, as uint32 (2 <= limit < 2^32), sieved
    DEFAULT_SEGMENT_SIZE odd values at a time, each segment's primes written
    straight into a uint32 array sized by pi(x) < 1.25506 x / ln x (Rosser and
    Schoenfeld 1962), whose unused tail is never touched. The root primes come
    from this function itself, at most 4 calls deep (2^32, 2^16, 2^8, 2^4):
    below 17^2 the pre-sieve alone leaves only primes, so none are needed."""
    root = (_segmented_primes_upto(math.isqrt(limit)) if limit >= 17**2
            else np.zeros(0, np.uint32))
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, np.uint32)
    out[0], n = 2, 1
    for o0 in range(1, limit + 1, 2 * DEFAULT_SEGMENT_SIZE):
        count = min(DEFAULT_SEGMENT_SIZE, (limit - o0) // 2 + 1)
        base = root[: root.searchsorted(math.isqrt(o0 + 2 * count - 2), "right")]
        odd = np.flatnonzero(_sieve_odd(o0, count, base))
        seg = out[n : n + odd.size]
        np.multiply(odd, 2, out=seg, casting="unsafe")
        seg += np.uint32(o0)
        n += odd.size
    return out[:n]


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
    if x < 0 or x > RANGE_LIMIT:
        raise ValueError(f"input out of supported range [0, 2^63]: {x}")
    if x <= _SMALL_LIMIT:
        return bool(_SMALL_FLAGS[x])
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
    """Primality bitmap for the inclusive value range [lo, hi]."""

    lo: int
    hi: int
    flags: np.ndarray  # flags[k] <=> (lo + k) is prime


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
    odd = _sieve_odd(o0, (hi - o0) // 2 + 1, _base_primes(math.isqrt(hi)))
    flags = np.zeros(n, dtype=bool)
    flags[o0 - lo :: 2] = odd
    if lo <= 2 <= hi:
        flags[2 - lo] = True
    return Segment(lo, hi, flags)


_SMALL_FLAGS = sieve_segment(0, _SMALL_LIMIT).flags
_SMALL_FLAGS.setflags(write=False)


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
        f = sieve_segment(start, window_hi + 2).flags
        yield from (np.flatnonzero(f[:-2] & f[2:]) + start).tolist()
        start = window_hi + 1
        width = min(2 * width, DEFAULT_SEGMENT_SIZE)


def first_twin_lessers(count: int) -> list[int]:
    """The first count twin lessers, ascending (count >= 1)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return list(itertools.islice(twin_lessers(STEP_HEADROOM), count))
