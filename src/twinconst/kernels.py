"""Hot per-pair simulation kernels, vectorized with numpy.

pair_stats_kernel advances every twin pair of a chunk together, one trace
index at a time, and stops each pair at its merge or its first excess: at
index n all pairs take the same kind of step (to the next prime or the next
composite), so each index costs a few array operations over the pairs still
walking, on the chunk's odd-value flags. walk_pairs takes every run-to-merge
walk (sweeps.merge_walks) to its merge or a bound in rank space, one prime
index at a time, in one process; it reads the differences at the prime
indices and expands a composite run to its indices only where the run can
raise a pair's max; a block of steps ends before a trace leaves its sieved
window, and the walk sieves again there. A block of at most _FEW_TRACES
traces steps each alone with scalar reads, a larger one all with gathers.
This module is the one bulk reader of a sweep chunk's odd flags, packed
once (_odd_words): the kernel's prime steps and gap_words, the primality of
the even offsets 0..MAX_SPAN past each twin lesser, are _flags64 reads. On
the gap words match_offsets_bulk tests a pattern with one masked compare,
and predict_near_bulk the Theorem 1 ones (constellations.NEAR_PATTERNS).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import primes
from .constellations import MAX_SPAN, NEAR_PATTERNS
from .hseq import DEFAULT_THRESHOLD

# Values walk_pairs sieves past each trace (2^17 added 2 MB to scan maxdiff's
# peak RSS). A step moves a trace at most 2 * (prime-index gap) + (prime gap)
# values: under 4500 below 4 * 10^18, where prime gaps are at most 1476
# (Oliveira e Silva, Herzog and Pardi, Math. Comp. 2014); no bound is known above.
WALK_WINDOW = 1 << 15
# Indices pair_stats_kernel steps through: one past the largest index at which
# a twin pair p > 5 stops (17, tests/test_certificate.py); p = 3 merges at 11
# and p = 5 stops at 13.
IDX_LIMIT = 17 + 1
# the prime indices below IDX_LIMIT, at which pair_stats_kernel takes prime steps
_INDEX_PRIMES = frozenset(primes.primes_between(0, IDX_LIMIT - 1).tolist())
WALK_BLOCK = 512  # prime indices per statistics block of the walk
# A block with at most this many traces steps them one at a time with scalar
# reads of F; a larger one steps all of them with one ndarray.take per prime
# index. Over one 512-step block near 10^6 the scalar loop cost 0.13-0.14 /
# 0.23-0.27 / 0.43-0.52 / 0.65-0.78 / 0.84-1.03 / 1.6-1.9 times the take
# loop (0.85-2.0 us per prime index, whatever the count) for 1 / 2 / 4 / 6 /
# 8 / 16 traces.
_FEW_TRACES = 6
# cap on a block's prime indices x traces, bounding its arrays; a block
# expands at most a quarter as many composite indices x traces, as each of
# those takes several arrays' cells
_BLOCK_CELLS = 1 << 14
_INDEX_SPAN = 1 << 16  # prime indices are listed this many indices at a time


def pair_stats_kernel(twin_is: np.ndarray, odd: np.ndarray, words: np.ndarray):
    """Simulate the greedy pair recurrence for each twin lesser o0 + 2 * twin_is[i]
    to its merge or its first excess, whichever comes first, on the flags
    odd[i] <=> o0 + 2i is prime (odd o0 >= 3), each trace held as v - o0.

    twin_is must be ascending and words must be _odd_words(odd). A composite
    step reads one flag of odd, and a prime step the packed words
    (_prime_step), so no list of the window's primes is built; offsets from
    the sentinel 2 * odd.size - 1 on are off the bitmap. Per pair i returns:
      m_out        least index n with diff > DEFAULT_THRESHOLD, 0 if none
                   before merge
      maxdiff_out  max diff over simulated indices (exact once merged)
      maxdiff_n    first index attaining maxdiff_out
      merge_out    merge index, 0 if not reached (excess stop or overrun)
      ok_out       False when the bitmap or the IDX_LIMIT indices were
                   exhausted before the pair stopped (its other outputs
                   cover only the indices simulated); sweeps refuse such a
                   pair
    """
    npairs = twin_is.size
    m_out = np.zeros(npairs, np.int64)
    maxdiff_out = np.full(npairs, 2, np.int64)
    maxdiff_n_out = np.full(npairs, 2, np.int64)
    merge_out = np.zeros(npairs, np.int64)
    ok_out = np.ones(npairs, np.bool_)

    sentinel = 2 * odd.size - 1
    # Live state: original pair index, [xa; xb] offsets, running max diff.
    # Traces are monotone in their start, so xa stays ascending across pairs.
    live = np.arange(npairs)
    k = 2 * np.stack((twin_is + 1, twin_is)).astype(np.int64)
    maxd = maxdiff_out.copy()
    for n in range(3, IDX_LIMIT):
        if not live.size:
            break
        if n in _INDEX_PRIMES:
            k = _prime_step(words, k.ravel(), sentinel).reshape(k.shape)
        else:
            # v + 1, or v + 2 when v is even and v + 1 prime (v >= 3)
            k = k + 1 + (k & 1) * odd[(k + 1) >> 1]
        if k[0, -1] >= sentinel:
            # Pairs whose step left the bitmap keep their stats so far.
            off = k[0] >= sentinel
            ok_out[live[off]] = False
            maxdiff_out[live[off]] = maxd[off]
            keep = ~off
            live, k, maxd = live[keep], k[:, keep], maxd[keep]
        d = k[0] - k[1]
        up = d > maxd
        done = None
        if np.count_nonzero(up):
            maxdiff_n_out[live[up]] = n
            np.maximum(maxd, d, out=maxd)
            # a live pair's max is at most DEFAULT_THRESHOLD: it stops here
            crossed = d > DEFAULT_THRESHOLD
            if np.count_nonzero(crossed):
                m_out[live[crossed]] = n
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


def _odd_words(odd: np.ndarray) -> np.ndarray:
    """odd[j] as bit j & 63 of uint64 word j >> 6, clear past odd.size and one word on."""
    packed = np.packbits(odd, bitorder="little")  # its last byte zero-padded
    return np.pad(packed, (0, 8 * (odd.size // 64 + 2) - packed.size)).view("<u8")


def _flags64(words: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per flag index s below the count that words packs (_odd_words), flags
    s..s + 63 as bits 0..63 of one uint64, from words s >> 6 and (s >> 6) + 1."""
    b = (s & 63).astype(np.uint64)
    # numpy shifts a uint64 left by 64 to 0, so b = 0 reads word s >> 6 alone
    return (words[s >> 6] >> b) | (words[(s >> 6) + 1] << (np.uint64(64) - b))


def _prime_step(words: np.ndarray, x: np.ndarray, sentinel: int) -> np.ndarray:
    """2j for the least set flag j > x >> 1 of the odd flags words packs, per
    offset x below the sentinel 2 * odd.size - 1, else the sentinel. The 64
    flags from s = (x >> 1) + 1 are one _flags64 read, their lowest set bit
    popcount(w ^ (w - 1)) - 1; a trace in a longer gap reads on."""
    out = np.full_like(x, sentinel)
    todo, s = np.arange(x.size), (x >> 1) + 1
    while todo.size:
        w = _flags64(words, s)
        hit = w != 0
        out[todo[hit]] = 2 * (s + np.bitwise_count(w ^ (w - np.uint64(1))) - 1)[hit]
        more = ~hit & (s < (sentinel >> 1) - 63)  # flags from odd.size on are clear
        todo, s = todo[more], s[more] + 64
    return out


def _index_primes(bound: int):
    """Ascending arrays of the prime indices 2, 3, 5, ... through the first
    prime index >= bound."""
    for start in itertools.count(0, _INDEX_SPAN):
        qs = primes.primes_between(start, start + _INDEX_SPAN - 1)
        yield qs
        if qs.size and qs[-1] >= bound:
            return


def _rank_line(values: np.ndarray):
    """Rank-space tables for traces at the odd prime values (2, P).

    Value v needs the window up to the even value (v + WALK_WINDOW + 1) & ~1. A
    value past the previous window end starts a cluster, sieved up to its
    last end in abutting segments of at most primes.MAX_SEGMENT_SIZE values.
    A prime's rank, the count of non-primes below it in these disjoint
    windows, is int32: they must hold fewer than 2^31 non-primes. A window
    reaching 2^63 is refused with ValueError. Returns:
      C     the windows' non-prime values, strictly ascending, as int64: the
            prime of rank R is C[R] - 1
      F     F[x] is the least prime rank >= x, or the sentinel C.size at
            F[-1], where walk_pairs clips larger x
      R     each trace's rank
      last  rank of the even value that ends each trace's window
    """
    v, width = np.sort(values, None), WALK_WINDOW
    if int(v[-1]) + width + 1 >= primes.RANGE_LIMIT:
        raise ValueError(f"walk window past {int(v[-1])} reaches 2^63")
    ends = (v + (width + 1)) & ~1
    cut = np.flatnonzero(v[1:] > ends[:-1])
    los, his = v[np.append(0, cut + 1)], ends[np.append(cut, v.size - 1)]
    size = primes.MAX_SEGMENT_SIZE
    segs = [(s, min(s + size - 1, hi))
            for lo, hi in zip(los.tolist(), his.tolist()) for s in range(lo, hi + 1, size)]
    # where each segment starts on the line, then the line's end
    starts = list(itertools.accumulate((e - s + 1 for s, e in segs), initial=0))
    # A segment runs from an odd value to an even one, so its odd values sit
    # at the even positions from its start; its even values are never prime.
    line = np.zeros(starts[-1], np.bool_)
    for (s, e), p, q in zip(segs, starts, starts[1:]):
        line[p:q:2] = primes.sieve_segment(s, e).odd
    # non-prime line positions, shifted to values in place: one int64 array
    C = np.flatnonzero(~line)
    cuts = C.searchsorted(starts).tolist()
    for (s, _), p, i, j in zip(segs, starts, cuts, cuts[1:]):
        C[i:j] += s - p
    prime_pos = np.flatnonzero(line)
    ranks = (prime_pos - np.arange(prime_pos.size)).astype(np.int32)
    sentinel = np.int32(C.size)
    F = np.repeat(np.append(ranks, sentinel),
                  np.diff(ranks, prepend=-1, append=sentinel))
    R = C.searchsorted(values).astype(np.int32)
    last = C.searchsorted(his[los.searchsorted(values, "right") - 1]).astype(np.int32)
    return C, F, R, last


def walk_pairs(a, b, threshold: int, bound: int):
    """The greedy pair recurrence for starts a > b (odd primes, arrays), from
    index 2 to the merge or to index bound.

    Returns per pair m (the first index where the difference exceeds
    threshold, 0 if none), max_diff, max_diff_n (its first index) and merge_n,
    which is 0, as in pair_stats_kernel, for a pair that walked to bound
    without merging; its max_diff, max_diff_n and m then cover indices
    2..bound.

    Each trace is held at a prime index as the rank R of its value (see
    _rank_line). The L composite indices up to the next prime index take the
    non-primes of ranks R .. R + L - 1 and that prime index takes the prime
    of rank F[R + L], so one step per prime index moves every trace. A block
    of steps keeps one row of ranks per prime index. Its rows are filled
    trace by trace, with one scalar read of F per step, when the block has
    at most _FEW_TRACES traces, and otherwise row by row, with one
    ndarray.take over all traces per step; both clip to the sentinel alike.
    The differences at the prime indices come from one gather, and a
    composite run is expanded to its indices only for the pairs whose bound
    on the run's differences exceeds their max so far. A block ends before
    the first row in which a trace has passed its window's end (Rs > last),
    and the walk sieves again there; a first step past a window sieved in
    the same pass raises RuntimeError (a step fits in WALK_WINDOW below 4e18).
    """
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    diff2 = a - b
    m_out = np.where(diff2 > threshold, 2, 0)
    maxdiff_out = diff2.copy()
    maxdiff_n_out = np.full(a.size, 2, np.int64)
    merge_out = np.zeros(a.size, np.int64)
    live = np.arange(a.size)
    index_chunks = _index_primes(bound)
    qs = next(index_chunks)
    j = 0  # qs[j] is the prime index the live traces are at
    R, resieve = None, True
    while live.size and qs[j] < bound:
        if qs.size - j <= WALK_BLOCK:
            qs = np.concatenate((qs[j:], next(index_chunks, qs[:0])))
            j = 0
        fresh = resieve
        if resieve:
            values = np.stack((a[live], b[live])) if R is None else C[R] - 1
            C = F = None  # free the old tables first
            C, F, R, last = _rank_line(values)
        # K steps, from prime index qs[j] to qs[j + K]: K + 1 rows of ranks
        K = max(1, min(_BLOCK_CELLS // R.size, WALK_BLOCK, qs.size - 1 - j))
        q = qs[j : j + K + 1]
        Ls = np.diff(q) - 1  # composite indices after each prime index
        # the step from index 2 to 3 has no composite index but still moves;
        # a trace at rank r steps to F[r + L], r + L clipped to the sentinel
        steps = np.maximum(Ls, 1).tolist()
        Rs = np.empty((K + 1,) + R.shape, R.dtype)
        Rs[0] = R
        if R.size <= _FEW_TRACES:
            # trace by trace, one scalar read of F per step, into the trace's column
            Fm, top = memoryview(F), F.size - 1
            flat = Rs[1:].reshape(K, -1)
            for t, r in enumerate(R.ravel().tolist()):
                flat[:, t] = [r := Fm[x if (x := r + L) < top else top] for L in steps]
        else:
            # all traces per step: shifted[L].take(x, clip) is F[min(x + L, F.size - 1)]
            shifted = {L: F[min(L, F.size - 1):] for L in set(steps)}
            prev = R
            for row, L in zip(Rs[1:], steps):
                shifted[L].take(prev, None, row, "clip")
                prev = row
        # end the block before the first row in which a trace has left its window
        left = (Rs[1:] > last).reshape(K, -1).any(1)
        if resieve := bool(left[-1]):
            K = int(left.argmax())
            if not K:
                if fresh:
                    raise RuntimeError(f"a walk step from prime index {q[0]} passed "
                                       f"a whole {WALK_WINDOW}-value window")
                continue
            Rs, q, Ls = Rs[: K + 1], q[: K + 1], Ls[:K]
        maxd = maxdiff_out[live]
        # Traces apart at a prime index take the distinct non-primes of ranks
        # Ra + t and Rb + t through the composite run after it, so they meet
        # only at prime indices, and as C increases the run's differences are
        # at most its last a value less its first b value. Only the runs
        # whose bound exceeds the max at block start can raise the max, or,
        # while m is unset (max <= threshold), hold the first excess; runs
        # after a merge (equal ranks) hold 0.
        Ra, Rb = Rs[:-1, 0], Rs[:-1, 1]
        cap = C[Ra + np.maximum(Ls - 1, 0)[:, None]] - C[Rb]
        ri, rt = np.nonzero((cap > maxd) & (Ra != Rb) & (Ls > 0)[:, None])
        ends = np.cumsum(Ls[ri])
        if ends.size and ends[-1] > _BLOCK_CELLS // 4:
            # end the block before the run whose cells would pass the cap
            K = max(int(ri[ends.searchsorted(_BLOCK_CELLS // 4, "right")]), 1)
            cut = ri.searchsorted(K)
            ri, rt, ends, q = ri[:cut], rt[:cut], ends[:cut], q[: K + 1]
        R = Rs[K]
        # C[R] - 1 is the prime of rank R; the -1 cancels in the difference.
        # Differences at the prime indices q[1:], one row each:
        dp = C[Rs[1 : K + 1, 0]] - C[Rs[1 : K + 1, 1]]
        lens = Ls[ri]
        cell = np.repeat(np.arange(ri.size), lens)
        u = np.arange(cell.size) - np.repeat(ends - lens, lens)
        ci, ct = ri[cell], rt[cell]
        # candidates (index, trace, difference): prime rows, then run cells
        n = np.concatenate((np.repeat(q[1:], live.size), q[ci] + 1 + u))
        t = np.concatenate((np.tile(np.arange(live.size), K), ct))
        d = np.concatenate((dp.ravel(),
                            C[Ra[ci, ct] + u] - C[Rb[ci, ct] + u]))
        inside = n <= bound
        n, t, d = n[inside], t[inside], d[inside]
        never = bound + 1
        z = np.full(live.size, never)
        np.minimum.at(z, t[d == 0], n[d == 0])
        e = np.full(live.size, never)
        np.minimum.at(e, t[d > threshold], n[d > threshold])
        merged = z < never
        new_m = (m_out[live] == 0) & (e < never)
        upto = n <= z[t]
        best = maxd.copy()
        np.maximum.at(best, t[upto], d[upto])
        up = best > maxd
        first = np.full(live.size, never)
        at = upto & (d == best[t])
        np.minimum.at(first, t[at], n[at])
        maxdiff_out[live[up]] = best[up]
        maxdiff_n_out[live[up]] = first[up]
        m_out[live[new_m]] = e[new_m]
        merge_out[live[merged]] = z[merged]
        j += K
        if merged.any():
            keep = ~merged
            live, R, last = live[keep], R[:, keep], last[:, keep]
    return m_out, maxdiff_out, maxdiff_n_out, merge_out


def gap_words(idx: np.ndarray, words: np.ndarray) -> np.ndarray:
    """One uint32 per base p = o0 + 2 * idx[i] of the odd flags odd[j] <=>
    o0 + 2j is prime, which words packs (_odd_words): bit j is odd[idx[i] + j],
    the primality of p + 2j, for j = 0..MAX_SPAN // 2, from one _flags64 read.

    Callers guarantee idx + MAX_SPAN // 2 stays inside odd.
    """
    return (_flags64(words, idx) & np.uint64((2 << MAX_SPAN // 2) - 1)).astype(np.uint32)


def match_offsets_bulk(words: np.ndarray, pattern) -> np.ndarray:
    """Vectorized constellations.matches_pattern: does the GapPattern pattern's
    prime/composite word sit at each base whose gap word is in words?"""
    mask, bits = pattern.word
    return words & mask == bits


def predict_near_bulk(words: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Vectorized constellations.predicts_near over the twin lessers ps, from
    their gap words."""
    residues = ps % 30
    out = np.zeros(ps.size, dtype=bool)
    for residue, pattern in NEAR_PATTERNS.items():
        out |= (residues == residue) & match_offsets_bulk(words, pattern)
    out[ps == 3] = True
    out[ps == 5] = False
    return out
