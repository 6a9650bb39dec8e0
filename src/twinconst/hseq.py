"""Greedy prime-index-constrained sequences and pairwise statistics.

A trace with start s is the lexicographically first strictly increasing
sequence with value(2) = s and value(n) prime exactly when the index n is
prime. Two traces with different prime starts eventually take equal values;
the statistics here locate that merge and the difference profile before it.

Each step is a pure-Python Miller-Rabin point query: this is the reference
oracle for the walkers of kernels.py, which step every sweep, scan and pair
report; h_sequence also materializes short traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import primes

DEFAULT_BOUND = 10**6
DEFAULT_THRESHOLD = 6


@dataclass(frozen=True)
class NotMergedWithin:
    """Search bound exhausted before the traces met; a finding, not an error."""

    bound: int


@dataclass(frozen=True)
class PairReport:
    """Joint statistics of the traces started at a and b (a > b)."""

    a: int
    b: int
    threshold: int
    bound: int
    merge_index: int | NotMergedWithin
    max_diff: int
    max_diff_first_index: int
    first_excess: int  # 0 means the difference never exceeded threshold

    @property
    def merged(self) -> bool:
        return isinstance(self.merge_index, int)


def h_step(prev: int, index_is_prime: bool) -> int:
    """One greedy step: least admissible value above prev."""
    if prev < 3:
        raise ValueError(f"previous value must be >= 3, got {prev}")
    if index_is_prime:
        return primes.next_prime(prev)
    return primes.next_composite(prev)


def _require_prime_start(start: int) -> None:
    if not primes.is_prime(start) or start < 3:
        raise ValueError(f"start must be an odd prime >= 3, got {start}")


def h_sequence(start: int, n_max: int) -> tuple[int, ...]:
    """The terms of the trace at indices 2 through n_max; index n is at
    position n - 2."""
    _require_prime_start(start)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    values = [start]
    for n in range(3, n_max + 1):
        values.append(h_step(values[-1], primes.is_prime(n)))
    return tuple(values)


def _stream_pair(a: int, b: int, bound: int):
    """Yield (n, va, vb) for n = 2, 3, ... up to merge or bound, O(1) memory."""
    va, vb = a, b
    yield 2, va, vb
    n = 2
    while va != vb and n < bound:
        n += 1
        n_is_prime = primes.is_prime(n)
        va = h_step(va, n_is_prime)
        vb = h_step(vb, n_is_prime)
        yield n, va, vb


def check_walk(threshold: int, bound: int) -> None:
    """Raise ValueError unless threshold >= 1 and bound >= 2."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")


def check_pair(a: int, b: int, threshold: int, bound: int) -> None:
    """Raise ValueError unless a > b are odd primes and check_walk passes."""
    _require_prime_start(a)
    _require_prime_start(b)
    if a <= b:
        raise ValueError(f"require a > b, got a={a} b={b}")
    check_walk(threshold, bound)


def pair_trace(
    a: int,
    b: int,
    threshold: int = DEFAULT_THRESHOLD,
    bound: int = DEFAULT_BOUND,
) -> PairReport:
    """Streaming joint scan: merge index, max difference, first excess index.

    When the pair does not merge within bound, max_diff and first_excess are
    lower-bound observations over the scanned prefix. This pure-Python walk,
    one Miller-Rabin step per trace and index, is the reference oracle;
    sweeps.merge_walks gives the same report for many pairs at once from the
    rank-space walker, and no sweep or command steps a trace through here.
    """
    check_pair(a, b, threshold, bound)
    max_diff = -1
    max_diff_n = 2
    first_excess = 0
    merge: int | NotMergedWithin = NotMergedWithin(bound)
    for n, va, vb in _stream_pair(a, b, bound):
        d = va - vb
        if d > max_diff:
            max_diff = d
            max_diff_n = n
        if first_excess == 0 and d > threshold:
            first_excess = n
        if d == 0:
            merge = n
            break
    return PairReport(
        a=a,
        b=b,
        threshold=threshold,
        bound=bound,
        merge_index=merge,
        max_diff=max_diff,
        max_diff_first_index=max_diff_n,
        first_excess=first_excess,
    )
