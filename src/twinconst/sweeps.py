"""Bulk twin-pair sweeps over value ranges: chunked, parallel, deterministic.

A sweep takes one chunk width, chunk_width(hi): CHUNK, doubled while a chunk
has fewer odd values than there are base primes up to sqrt(hi), so that its
sieve pays per value rather than per base prime (from about 6e13 up). Each
chunk is sieved independently (share-nothing workers) and simulated by
the lockstep kernel in kernels.py, which advances all of the chunk's pairs
together and stops each at its merge or its first excess; a pair that
outruns the kernel's bitmap or its index table is walked again in rank space
by kernels.walk_pairs, on windows it sieves as the traces advance, up to
DEFAULT_BOUND. Chunk results are merged in ascending range order, so reports
do not depend on worker count; the c and m sequences are read off them.
Run-to-merge statistics come from one walk_pairs call in merge_walks, as
hseq.pair_trace's reports: of single pairs for pair_report (twinconst trace),
of twin pairs for scan maxdiff, and of the pairs of consecutive odd primes
for _adjacent_merges (verify conj1), whose merges decide those of all pairs
of small prime starts (prime_pair_merges, behind scan merge).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from . import kernels, primes
from .constellations import MAX_SPAN, corollary_patterns, predict_near_bulk
from .hseq import (
    DEFAULT_BOUND,
    DEFAULT_THRESHOLD,
    NotMergedWithin,
    PairReport,
    check_pair,
    check_walk,
    pair_trace,  # noqa: F401  (unused here; perfbench/child.py wraps sweeps.pair_trace)
)
from .kernels import UNMERGED, gap_words, match_offsets_bulk, pair_stats_kernel, walk_pairs

if TYPE_CHECKING:  # the pool's modules are imported only when a pool starts
    from concurrent.futures import ProcessPoolExecutor

# Values per sweep chunk below about 6e13, read at each scan: the checkpoint
# cadence, ~1e6 scanned values. Higher up, chunk_width doubles it until a chunk
# holds an odd value per base prime; with the values _scan_chunk sieves past
# it, a chunk of any width fits one sieve segment.
CHUNK = 1 << 20
# A pooled scan keeps at most this many chunks per worker submitted and not
# yet taken, so a long sweep queues a few futures, not one per chunk.
_IN_FLIGHT_PER_WORKER = 2


@dataclass
class TwinScanResult:
    """Per-twin-pair statistics over [lo, hi], ascending by lesser member p.

    Every sweep stops a pair at its first excess: m is that index and merge_n
    is 0 then (merge not needed). merge_n is UNMERGED when the pair neither
    merged nor exceeded DEFAULT_THRESHOLD within DEFAULT_BOUND indices. near
    means "merged with max difference <= DEFAULT_THRESHOLD"; fallback marks
    the pairs the lockstep kernel handed to the rank-space walker. predicted
    is None unless the scan_twin_range option predict was set, and cor17 and
    cor15 unless corollary_check was.
    """

    lo: int
    hi: int
    ps: np.ndarray
    m: np.ndarray
    max_diff: np.ndarray
    max_diff_n: np.ndarray
    merge_n: np.ndarray
    near: np.ndarray
    fallback: np.ndarray
    predicted: Optional[np.ndarray] = None
    cor17: Optional[np.ndarray] = None
    cor15: Optional[np.ndarray] = None

    @property
    def fallback_count(self) -> int:
        return int(np.count_nonzero(self.fallback))

    @classmethod
    def concat(cls, parts: list["TwinScanResult"]) -> "TwinScanResult":
        if not parts:
            raise ValueError("nothing to concatenate")
        cols = {}
        for f in fields(cls)[2:]:  # the per-pair columns, after lo and hi
            arrs = [getattr(p, f.name) for p in parts]
            cols[f.name] = None if any(a is None for a in arrs) else np.concatenate(arrs)
        return cls(parts[0].lo, parts[-1].hi, **cols)


def _margin() -> int:
    # the kernel walks on WALK_WINDOW values past a chunk; the matchers read MAX_SPAN
    return max(kernels.WALK_WINDOW, MAX_SPAN)


def _check_limit(hi: int) -> None:
    """Refuse a sweep up to hi whose chunks would sieve past RANGE_LIMIT, as an
    argument error raised before chunk_width builds the base-prime cache."""
    top = primes.RANGE_LIMIT - _margin()
    if hi > top:
        raise ValueError(f"limit {hi} above {top}: a sweep sieves {_margin()} "
                         "values past its limit, which must stay within 2^63")


def chunk_width(hi: int) -> int:
    """Values per chunk of a sweep up to hi: the least power-of-two multiple of
    CHUNK with at least as many odd values (width / 2) as there are base primes
    up to isqrt(hi), capped so that a chunk and its margin fit one sieve
    segment. The count comes from the base-prime cache, which the sweep's
    first window reads anyway and forked pool workers inherit."""
    count = primes._base_primes(math.isqrt(hi)).size
    width = CHUNK
    while width // 2 < count and 2 * width + _margin() <= primes.MAX_SEGMENT_SIZE:
        width *= 2
    return width


def _scan_chunk(args) -> TwinScanResult:
    lo, hi, predict, corollary_check = args
    flags = primes.sieve_segment(lo, hi + _margin()).flags
    width = hi - lo + 1
    twin_ks = np.flatnonzero(flags[:width] & flags[2 : width + 2]).astype(np.int64)
    m, maxd, maxd_n, merge_n, ok = pair_stats_kernel(twin_ks, flags)
    redo = np.flatnonzero(~ok)
    if redo.size:
        ps = lo + twin_ks[redo]
        m[redo], maxd[redo], maxd_n[redo], merge_n[redo] = walk_pairs(
            ps + 2, ps, DEFAULT_THRESHOLD, True, DEFAULT_BOUND)
    near = (merge_n > 0) & (maxd <= DEFAULT_THRESHOLD)
    predicted = cor17 = cor15 = None
    if predict or corollary_check:
        words = gap_words(twin_ks, flags)
    if predict:
        predicted = predict_near_bulk(words, lo + twin_ks)
    if corollary_check:
        cor17, cor15 = (
            np.any([match_offsets_bulk(words, pattern)
                    for pattern in corollary_patterns(m_val)], axis=0)
            for m_val in (17, 15))
    return TwinScanResult(
        lo=lo,
        hi=hi,
        ps=(lo + twin_ks),
        m=m,
        max_diff=maxd,
        max_diff_n=maxd_n,
        merge_n=merge_n,
        near=near,
        fallback=~ok,
        predicted=predicted,
        cor17=cor17,
        cor15=cor15,
    )


def merge_walks(a, b, bound: int = DEFAULT_BOUND,
                threshold: int = DEFAULT_THRESHOLD) -> list[PairReport]:
    """hseq.pair_trace's report for each pair of odd prime starts a[i] > b[i],
    from one walk_pairs call that takes every pair to its merge or to bound;
    raises check_walk's ValueError before any trace is stepped."""
    check_walk(threshold, bound)
    past = NotMergedWithin(bound)
    cols = (col.tolist() for col in walk_pairs(a, b, threshold, False, bound))
    return [PairReport(a=int(x), b=int(y), threshold=threshold, bound=bound,
                       merge_index=past if n == UNMERGED else n, max_diff=d,
                       max_diff_first_index=d_n, first_excess=m)
            for x, y, m, d, d_n, n in zip(a, b, *cols)]


def pair_report(
    a: int,
    b: int,
    threshold: int = DEFAULT_THRESHOLD,
    bound: int = DEFAULT_BOUND,
) -> PairReport:
    """hseq.pair_trace's report for the traces started at a > b, from
    merge_walks; raises the same ValueError for the same arguments."""
    check_pair(a, b, threshold, bound)
    return merge_walks([a], [b], bound, threshold)[0]


def _adjacent_merges(k: int, bound: int) -> list[tuple]:
    """(a, b, merge index or None past bound) for the k - 1 pairs of
    consecutive primes b < a among the first k odd primes, from merge_walks;
    a bound below 2 is refused before the primes are listed."""
    check_walk(DEFAULT_THRESHOLD, bound)
    if k < 2:
        return []
    ps = primes.consecutive_primes_from(3, k)
    return [(r.a, r.b, r.merge_index if r.merged else None)
            for r in merge_walks(ps[1:], ps[:-1], bound)]


def prime_pair_merges(count: int, bound: int = DEFAULT_BOUND) -> list[tuple]:
    """(a, b, merge index or None past bound) for the first count pairs of odd
    primes b < a, in the order (5, 3), (7, 3), (7, 5), (11, 3), ..., so the
    pairs among the first k odd primes come first.

    Only the k - 1 adjacent pairs take the walker, in one merge_walks call.
    Traces a > b never cross and stay equal once they meet, so for odd
    primes s_i < s_l < s_j the traces of s_j and s_i meet exactly when both
    adjacent pairs between them have: the merge index of (s_j, s_i) is the
    largest adjacent merge index of the pairs from s_i up to s_j.
    """
    count = max(count, 0)
    adjacent = _adjacent_merges(math.isqrt(2 * count) + 2, bound)
    starts = [3] + [a for a, _, _ in adjacent]
    merges = np.array([bound + 1 if n is None else n for _, _, n in adjacent])
    out: list[tuple] = []
    for i in range(1, len(starts)):
        if len(out) >= count:
            break
        # merge index of (starts[i], starts[l]) for l = 0 .. i - 1
        row = np.maximum.accumulate(merges[i - 1 :: -1])[::-1].tolist()
        out.extend((starts[i], b, None if n > bound else n) for b, n in zip(starts, row))
    return out[:count]


def _in_order(pool, items, depth: int):
    """_scan_chunk(item) for each item, in order, run on pool with at most
    depth items submitted and not yet yielded. A failed item, or closing the
    generator, cancels the submitted items that no worker has started."""
    pending: deque = deque()
    try:
        for item in items:
            pending.append(pool.submit(_scan_chunk, item))
            if len(pending) == depth:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def scan_twin_range(
    lo: int,
    hi: int,
    *,
    predict: bool = False,
    corollary_check: bool = False,
    workers: int = 1,
    on_chunk: Optional[Callable[[TwinScanResult], None]] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> Optional[TwinScanResult]:
    """Sweep all twin lessers in [lo, hi] in chunk_width(hi)-value chunks at
    DEFAULT_THRESHOLD, each pair to its merge or its first excess. Run-to-merge
    statistics past an excess come from kernels.walk_pairs instead.

    Returns the chunks' results concatenated; on_chunk instead takes each
    chunk's result in order, none is kept, and the call returns None. Pass an
    executor to reuse a worker pool across many scans.
    """
    _check_limit(hi)
    lo = max(lo, 3)
    if hi < lo:
        if on_chunk is not None:
            return None
        # a chunk of no values has the columns that the options ask for
        return replace(_scan_chunk((lo, lo - 1, predict, corollary_check)), hi=hi)
    width = chunk_width(hi)
    starts = range(lo, hi + 1, width)
    spans = ((start, min(start + width - 1, hi), predict, corollary_check)
             for start in starts)
    pool = None
    if workers > 1 and len(starts) > 1:
        pool = executor
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(workers, len(starts)))
    depth = _IN_FLIGHT_PER_WORKER * min(workers, len(starts))
    chunks = _in_order(pool, spans, depth) if pool else map(_scan_chunk, spans)
    parts: list[TwinScanResult] = []
    take = on_chunk or parts.append
    try:
        for part in chunks:
            take(part)
    finally:
        if pool is not None:
            # after a failure, cancel the chunks no worker has started
            chunks.close()
            if executor is None:
                pool.shutdown()
    return TwinScanResult.concat(parts) if on_chunk is None else None


def scan_c_sequence(limit: int, workers: int = 1) -> list[int]:
    """Twin lessers p <= limit with simulated max difference <= 6, ascending."""
    terms: list[int] = []
    scan_twin_range(3, limit, workers=workers,
                    on_chunk=lambda part: terms.extend(part.ps[part.near].tolist()))
    return terms


def scan_m_sequence(count: int, workers: int = 1) -> list[int]:
    """First-excess indices for the first count twin pairs (0 = never exceeds)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # the count-th twin lesser ends the sweep; no list of the lessers is kept
    last = next(itertools.islice(primes.twin_lessers(primes.STEP_HEADROOM), count - 1, None))
    terms: list[int] = []
    scan_twin_range(3, last, workers=workers,
                    on_chunk=lambda part: terms.extend(part.m.tolist()))
    return terms
