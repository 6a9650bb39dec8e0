"""Hot per-pair simulation kernels, vectorized with numpy.

pair_stats_kernel advances every twin pair of a chunk together, one trace
index at a time: at index n all pairs take the same kind of step (to the
next prime or the next composite), so each index costs a few array
operations over the pairs still walking. match_offsets_bulk tests a gap
pattern at many base offsets at once.
"""

from __future__ import annotations

import numpy as np


def pair_stats_kernel(
    twin_ks: np.ndarray,
    flags: np.ndarray,
    idx_prime: np.ndarray,
    threshold: int,
    stop_on_excess: bool,
):
    """Simulate the greedy pair recurrence for each twin lesser flags[k], flags[k+2].

    twin_ks must be ascending. Per pair i (b at offset twin_ks[i], a = b + 2)
    returns:
      m_out        least index n with diff > threshold, 0 if none before merge
      maxdiff_out  max diff over simulated indices (exact once merged)
      maxdiff_n    first index attaining maxdiff_out
      merge_out    merge index, 0 if not reached (excess stop or overrun)
      ok_out       False when the bitmap/index tables were exhausted; caller
                   must redo that pair on the unbounded path (its other
                   outputs cover only the indices simulated)
    """
    npairs = twin_ks.size
    m_out = np.full(npairs, 2 if threshold < 2 else 0, np.int64)
    maxdiff_out = np.full(npairs, 2, np.int64)
    maxdiff_n_out = np.full(npairs, 2, np.int64)
    merge_out = np.zeros(npairs, np.int64)
    ok_out = np.ones(npairs, np.bool_)
    if stop_on_excess and threshold < 2:
        return m_out, maxdiff_out, maxdiff_n_out, merge_out, ok_out

    size = flags.size
    # From a value v >= 3 the next composite is v + 1, or v + 2 when v + 1
    # is prime (then v + 2 is even and >= 6). One byte per offset.
    comp_step = np.ones(size, np.int8)
    comp_step[:-1] += flags[1:]
    # Prime positions with a sentinel that reads as "off the bitmap".
    prime_ks = np.append(np.flatnonzero(flags), size)

    # Live state: original pair index, [ka; kb] offsets, running max diff.
    # Traces are monotone in their start, so ka stays ascending across pairs.
    live = np.arange(npairs)
    k = np.stack((twin_ks + 2, twin_ks)).astype(np.int64)
    maxd = maxdiff_out.copy()
    for n in range(3, idx_prime.size):
        if not live.size:
            break
        if idx_prime[n]:
            k = prime_ks[prime_ks.searchsorted(k, "right")]
        else:
            k = k + comp_step[k]
        if k[0, -1] >= size:
            # Pairs whose step left the bitmap keep their stats so far.
            off = k[0] >= size
            ok_out[live[off]] = False
            maxdiff_out[live[off]] = maxd[off]
            keep = ~off
            live, k, maxd = live[keep], k[:, keep], maxd[keep]
        d = k[0] - k[1]
        up = d > maxd
        done = None
        if np.count_nonzero(up):
            maxdiff_n_out[live[up]] = n
            # m is still unset exactly while maxd <= threshold
            crossed = up & (maxd <= threshold) & (d > threshold)
            m_out[live[crossed]] = n
            np.maximum(maxd, d, out=maxd)
            if stop_on_excess and np.count_nonzero(crossed):
                done = crossed
        if np.count_nonzero(d) < d.size:
            merged = d == 0
            merge_out[live[merged]] = n
            done = merged if done is None else done | merged
        if done is not None:
            maxdiff_out[live[done]] = maxd[done]
            keep = ~done
            live, k, maxd = live[keep], k[:, keep], maxd[keep]
    # Pairs still walking ran out of the index primality table.
    ok_out[live] = False
    maxdiff_out[live] = maxd
    return m_out, maxdiff_out, maxdiff_n_out, merge_out, ok_out


def prime_prefix_counts(flags: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of a bitmap of fewer than 2^31 values, as int32:
    out[k] = primes among flags[:k]."""
    out = np.zeros(flags.size + 1, np.int32)
    np.cumsum(flags, dtype=np.int32, out=out[1:])
    return out


def match_offsets_bulk(
    ks: np.ndarray, flags: np.ndarray, csum: np.ndarray, pattern
) -> np.ndarray:
    """Vectorized constellations.matches_pattern: does the GapPattern pattern
    sit at each base offset ks into a primality bitmap?

    csum must be the exclusive prefix sum of flags (prime_prefix_counts).
    Callers guarantee ks plus every offset of pattern stays inside flags.
    """
    out = np.ones(ks.size, dtype=bool)
    for o in pattern.offsets:
        out &= flags[ks + o]
    if pattern.require_consecutive:
        last = pattern.offsets[-1]
        out &= (csum[ks + last + 1] - csum[ks]) == len(pattern.offsets)
    if pattern.forbidden_next is not None:
        out &= ~flags[ks + pattern.forbidden_next]
    return out
