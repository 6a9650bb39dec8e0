"""Bulk twin-pair sweeps over value ranges: chunked, parallel, deterministic.

Each chunk is sieved independently (share-nothing workers) and simulated by
the lockstep kernel in kernels.py, which advances all of the chunk's pairs
together; the rare pairs that outrun the kernel's bitmap or index table are
redone on the unbounded point-query path. Chunk results are merged in
ascending range order, so reports do not depend on worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import primes
from .constellations import _EXCESS17_OFFSETS, predict_near_bulk
from .hseq import DEFAULT_BOUND, DEFAULT_THRESHOLD, pair_trace
from .kernels import match_offsets_bulk, pair_stats_kernel, prime_prefix_counts

DEFAULT_CHUNK = 1 << 20  # checkpoint cadence ~1e6 scanned values
VALUE_MARGIN = 1 << 18  # sieve headroom past the chunk for trace values
IDX_LIMIT = 1 << 17  # index primality table length

_IDX_PRIME = primes.prime_flags_upto(IDX_LIMIT - 1)

UNMERGED = -1  # merge_n marker: not merged within DEFAULT_BOUND indices


@dataclass
class TwinScanResult:
    """Per-twin-pair statistics over [lo, hi], ascending by lesser member p.

    merge_n is 0 when the scan stopped at the first excess (merge not needed),
    UNMERGED when even the unbounded fallback gave up. near means "merged with
    max difference <= threshold". predicted/cor17/cor15 are present only when
    requested.
    """

    lo: int
    hi: int
    threshold: int
    ps: np.ndarray
    m: np.ndarray
    max_diff: np.ndarray
    max_diff_n: np.ndarray
    merge_n: np.ndarray
    near: np.ndarray
    predicted: Optional[np.ndarray]
    cor17: Optional[np.ndarray]
    cor15: Optional[np.ndarray]
    fallback_count: int = 0

    @classmethod
    def concat(cls, parts: list["TwinScanResult"]) -> "TwinScanResult":
        if not parts:
            raise ValueError("nothing to concatenate")

        def cat(name):
            arrs = [getattr(p, name) for p in parts]
            if any(a is None for a in arrs):
                return None
            return np.concatenate(arrs)

        return cls(
            lo=parts[0].lo,
            hi=parts[-1].hi,
            threshold=parts[0].threshold,
            ps=cat("ps"),
            m=cat("m"),
            max_diff=cat("max_diff"),
            max_diff_n=cat("max_diff_n"),
            merge_n=cat("merge_n"),
            near=cat("near"),
            predicted=cat("predicted"),
            cor17=cat("cor17"),
            cor15=cat("cor15"),
            fallback_count=sum(p.fallback_count for p in parts),
        )


def _scan_chunk(args) -> TwinScanResult:
    lo, hi, threshold, stop_on_excess, predict, corollary_check, margin = args
    seg = primes.sieve_segment(lo, hi + margin, max_size=1 << 27)
    flags = seg.flags
    width = hi - lo + 1
    twin_ks = np.flatnonzero(flags[:width] & flags[2 : width + 2]).astype(np.int64)
    m, maxd, maxd_n, merge_n, ok = pair_stats_kernel(
        twin_ks, flags, _IDX_PRIME, threshold, stop_on_excess
    )
    fallback_count = 0
    for i in np.flatnonzero(~ok):
        p = lo + int(twin_ks[i])
        rep = pair_trace(p + 2, p, threshold, DEFAULT_BOUND)
        m[i] = rep.first_excess
        maxd[i] = rep.max_diff
        maxd_n[i] = rep.max_diff_first_index
        merge_n[i] = rep.merge_index if rep.merged else UNMERGED
        fallback_count += 1
    near = (merge_n > 0) & (maxd <= threshold)
    predicted = cor17 = cor15 = None
    if predict or corollary_check:
        csum = prime_prefix_counts(flags)
    if predict:
        predicted = predict_near_bulk(twin_ks, lo, flags, csum)
    if corollary_check:
        cor17 = np.zeros(twin_ks.size, dtype=bool)
        cor15 = np.zeros(twin_ks.size, dtype=bool)
        for offsets in _EXCESS17_OFFSETS:
            cor17 |= match_offsets_bulk(twin_ks, flags, csum, offsets, True, 32)
            cor15 |= match_offsets_bulk(twin_ks, flags, csum, offsets + (32,), True, None)
    return TwinScanResult(
        lo=lo,
        hi=hi,
        threshold=threshold,
        ps=(lo + twin_ks),
        m=m,
        max_diff=maxd,
        max_diff_n=maxd_n,
        merge_n=merge_n,
        near=near,
        predicted=predicted,
        cor17=cor17,
        cor15=cor15,
        fallback_count=fallback_count,
    )


def scan_twin_range(
    lo: int,
    hi: int,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    stop_on_excess: bool = True,
    predict: bool = False,
    corollary_check: bool = False,
    workers: int = 1,
    chunk: int = DEFAULT_CHUNK,
    margin: int = VALUE_MARGIN,
    on_chunk: Optional[Callable[[TwinScanResult], None]] = None,
    executor: Optional[ProcessPoolExecutor] = None,
) -> TwinScanResult:
    """Sweep all twin lessers in [lo, hi]; stop_on_excess=False runs each pair
    to its merge so max_diff is exact even past the threshold.

    margin trades sieve width against fallback rate; pass an executor to
    reuse a worker pool across many scans.
    """
    lo = max(lo, 3)
    if hi < lo:
        ints = np.zeros(0, np.int64)
        bools = np.zeros(0, bool)
        return TwinScanResult(
            lo=lo, hi=hi, threshold=threshold,
            ps=ints, m=ints, max_diff=ints, max_diff_n=ints, merge_n=ints,
            near=bools,
            predicted=bools if predict else None,
            cor17=bools if corollary_check else None,
            cor15=bools if corollary_check else None,
        )
    spans = []
    start = lo
    while start <= hi:
        end = min(start + chunk - 1, hi)
        spans.append(
            (start, end, threshold, stop_on_excess, predict, corollary_check, margin))
        start = end + 1
    parts: list[TwinScanResult] = []
    if workers <= 1 or len(spans) == 1:
        for span in spans:
            part = _scan_chunk(span)
            if on_chunk is not None:
                on_chunk(part)
            parts.append(part)
    else:
        own_pool = executor is None
        ex = executor or ProcessPoolExecutor(max_workers=workers)
        futures = []
        try:
            for span in spans:
                futures.append(ex.submit(_scan_chunk, span))
            for fut in futures:
                part = fut.result()
                if on_chunk is not None:
                    on_chunk(part)
                parts.append(part)
        finally:
            # after a failure, drop the chunks no worker has started
            if own_pool:
                ex.shutdown(cancel_futures=True)
            else:
                for fut in futures:
                    fut.cancel()
    return TwinScanResult.concat(parts)
