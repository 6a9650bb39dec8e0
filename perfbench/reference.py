"""Reference values the benchmark checks against, kept apart from the program.

Published numbers are copied here rather than imported from twinconst, so a
defect in the program's own fixtures cannot hide a defect in its output.
"""

from __future__ import annotations

import math

import numpy as np

# Twin-prime counts pi_2(x): twin pairs (p, p + 2) with p <= x (OEIS A007508).
PI2 = {10**4: 205, 10**7: 58980}

# Maximum trace difference per twin pair, ascending by lesser member (OEIS A276826).
A276826_PREFIX = (
    4, 14, 6, 6, 6, 12, 6, 8, 14, 14, 18,
    36, 24, 65, 18, 6, 10, 6, 84, 14, 162,
)

# Theorem 2 of the source paper: the first index where a twin pair's traces
# differ by more than 6 lies in this set (0 = never).
ALLOWED_M = frozenset({0, 3, 5, 7, 9, 11, 13, 15, 17})

THRESHOLD = 6


def prime_flags(limit: int) -> np.ndarray:
    """f[i] is True iff i is prime, for 0 <= i <= limit (plain Eratosthenes)."""
    f = np.ones(limit + 1, dtype=bool)
    f[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if f[p]:
            f[p * p :: p] = False
    return f


def twin_lessers(limit: int) -> list[int]:
    """All p <= limit with p and p + 2 prime."""
    f = prime_flags(limit + 2)
    return [int(p) for p in np.flatnonzero(f[: limit + 1] & f[2 : limit + 3])]


def base_prime_counts(his: list[int]) -> int:
    """Sum over his of pi(isqrt(hi)): the base primes a segmented sieve of
    [lo, hi] strikes out."""
    if not his:
        return 0
    roots = [math.isqrt(hi) for hi in his]
    flags = prime_flags(max(roots))
    return sum(int(np.count_nonzero(flags[: r + 1])) for r in roots)
