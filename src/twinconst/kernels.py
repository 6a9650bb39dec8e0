"""Hot per-pair simulation kernels, vectorized with numpy.

pair_stats_kernel advances every twin pair of a chunk together, one trace
index at a time, and stops each pair at its merge or its first excess: at
index n all pairs take the same kind of step (to the next prime or the next
composite), so each index costs a few array operations over the pairs still
walking. walk_pairs takes the pairs it gives up on, and every run-to-merge
walk (sweeps.merge_walks), to their merge or a bound in rank space, one
prime index at a time, in one process; it reads the
differences at the prime indices and expands a composite run to its indices
only where the run can raise a pair's max. A block of its steps with at most
_FEW_TRACES traces (the few stragglers a long walk ends with) steps each trace
alone with scalar reads; a larger block steps all traces with one gather per
prime index.
gap_words packs the primality of the even offsets 0..MAX_SPAN past each twin
lesser into one word, and match_offsets_bulk tests a gap pattern against many
words with one masked compare.
"""

from __future__ import annotations

import numpy as np

from . import primes
from .constellations import MAX_SPAN
from .hseq import DEFAULT_THRESHOLD

UNMERGED = -1  # merge_n marker: not merged within the walk's bound

# Values sieved past those a trace holds: past each sweep chunk for this
# module's kernel and matcher, and past each trace when the walk sieves, doubled
# when a window holds only one block; 2^17 added 2 MB to scan maxdiff's peak RSS.
WALK_WINDOW = 1 << 15
# Indices pair_stats_kernel steps through. Its pairs stop at the first excess
# and resolve by index 17 (Theorem 2's m <= 17); a pair still walking here is
# left to walk_pairs.
IDX_LIMIT = 1 << 12
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


def pair_stats_kernel(
    twin_ks: np.ndarray,
    flags: np.ndarray,
):
    """Simulate the greedy pair recurrence for each twin lesser flags[k], flags[k+2]
    to its merge or its first excess, whichever comes first.

    twin_ks must be ascending. Per pair i (b at offset twin_ks[i], a = b + 2)
    returns:
      m_out        least index n with diff > DEFAULT_THRESHOLD, 0 if none
                   before merge
      maxdiff_out  max diff over simulated indices (exact once merged)
      maxdiff_n    first index attaining maxdiff_out
      merge_out    merge index, 0 if not reached (excess stop or overrun)
      ok_out       False when the bitmap or the IDX_LIMIT indices were
                   exhausted; caller must redo that pair with walk_pairs (its
                   other outputs cover only the indices simulated)
    """
    npairs = twin_ks.size
    m_out = np.zeros(npairs, np.int64)
    maxdiff_out = np.full(npairs, 2, np.int64)
    maxdiff_n_out = np.full(npairs, 2, np.int64)
    merge_out = np.zeros(npairs, np.int64)
    ok_out = np.ones(npairs, np.bool_)

    size = flags.size
    # Prime positions with a sentinel that reads as "off the bitmap".
    prime_ks = np.append(np.flatnonzero(flags), size)

    # Live state: original pair index, [ka; kb] offsets, running max diff.
    # Traces are monotone in their start, so ka stays ascending across pairs.
    live = np.arange(npairs)
    k = np.stack((twin_ks + 2, twin_ks)).astype(np.int64)
    maxd = maxdiff_out.copy()
    index_is_prime = primes.prime_flags_between(0, IDX_LIMIT - 1)
    for n in range(3, IDX_LIMIT):
        if not live.size:
            break
        if index_is_prime[n]:
            k = prime_ks[prime_ks.searchsorted(k, "right")]
        else:
            # From a value v >= 3 the next composite is v + 1, or v + 2 when
            # v + 1 is prime (then v + 2 is even and >= 6). A trace at the
            # bitmap's last offset steps off it either way.
            k = k + 1 + flags.take(k + 1, mode="clip")
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


def _index_primes(bound: int):
    """Ascending arrays of the prime indices 2, 3, 5, ... through the first
    prime index >= bound."""
    start = 0
    while True:
        end = start + _INDEX_SPAN - 1
        qs = start + np.flatnonzero(primes.prime_flags_between(start, end))
        yield qs
        if qs.size and qs[-1] >= bound:
            return
        start = end + 1


def _rank_line(values: np.ndarray, width: int):
    """Rank-space tables for traces at the prime values (2, P).

    Each cluster of values gets one sieved window that reaches width values
    past its largest value. The windows lie end to end on a virtual line, one
    non-prime pad after each. A prime's rank is the count of non-primes before
    it on the line, so rank is strictly increasing over primes. Positions and
    ranks are int32, so the line must stay below 2^31 values; the pairs of one
    sweep chunk (below 2^26 values wide) need a few times 2^26 at most. Returns:
      C     C[r] is the line position of the non-prime of rank r, so the
            prime of rank R sits at C[R] - 1
      F     F[x] is the least prime rank >= x, or the sentinel one past the
            last prime rank at F[-1], where walk_pairs clips larger x
      R     each trace's rank
      off   value = line position + off, per trace
      last  rank of the last prime of each trace's window
    """
    los: list[int] = []
    his: list[int] = []
    for v in sorted(values.ravel().tolist()):
        if los and v <= his[-1] and v + width - los[-1] < primes.MAX_SEGMENT_SIZE:
            his[-1] = v + width
        else:
            los.append(v)
            his.append(v + width)
    starts = np.cumsum([0] + [hi - lo + 2 for lo, hi in zip(los, his)])
    line = np.zeros(starts[-1], bool)
    for lo, hi, s in zip(los, his, starts.tolist()):
        line[s : s + hi - lo + 1] = primes.sieve_segment(lo, hi).flags
    pos = np.arange(line.size, dtype=np.int32)
    C = pos[~line]
    prime_pos = pos[line]
    ranks = prime_pos - np.arange(prime_pos.size, dtype=np.int32)
    sentinel = ranks[-1] + 1
    F = np.repeat(np.append(ranks, sentinel),
                  np.diff(ranks, prepend=-1, append=sentinel))
    seg = np.searchsorted(los, values, "right") - 1
    off = np.asarray(los, np.int64)[seg] - starts[seg]
    R = ranks[prime_pos.searchsorted(values - off)]
    last_prime = prime_pos.searchsorted(starts[1:] - 1) - 1
    last = ranks[last_prime][seg]
    return C, F, R, off, last


def walk_pairs(a, b, threshold: int, stop_on_excess: bool, bound: int):
    """The greedy pair recurrence for starts a > b (odd primes, arrays), from
    index 2 to the merge, to index bound or, with stop_on_excess, to the
    first index where the difference exceeds threshold.

    Returns m, max_diff, max_diff_n and merge_n as pair_stats_kernel does for
    the pairs it resolves, except that merge_n is UNMERGED for a pair that
    walked to bound without merging or stopping; its max_diff, max_diff_n and
    m then cover indices 2..bound.

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
    on the run's differences exceeds their max so far. The window is sieved
    again when a trace nears its end.
    """
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    diff2 = a - b
    m_out = np.where(diff2 > threshold, 2, 0)
    maxdiff_out = diff2.copy()
    maxdiff_n_out = np.full(a.size, 2, np.int64)
    merge_out = np.zeros(a.size, np.int64)
    live = np.flatnonzero(m_out == 0) if stop_on_excess else np.arange(a.size)
    index_chunks = _index_primes(bound)
    qs = next(index_chunks)
    j = 0  # qs[j] is the prime index the live traces are at
    window = WALK_WINDOW
    R = None
    resieve, fresh = True, False
    while live.size and qs[j] < bound:
        if qs.size - j <= WALK_BLOCK:
            qs = np.concatenate((qs[j:], next(index_chunks, qs[:0])))
            j = 0
        if resieve:
            # a window that held at most one block of steps is too narrow
            window *= 2 if fresh else 1
            values = np.stack((a[live], b[live])) if R is None else C[R] - 1 + off
            C = F = None  # free the old tables first
            C, F, R, off, last = _rank_line(values, window)
            resieve, fresh = False, True
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
            # trace by trace, one scalar read of F per step; columns to rows
            Fm, top = memoryview(F), F.size - 1
            cols = []
            for r in R.ravel().tolist():
                col = []
                for L in steps:
                    x = r + L
                    r = Fm[x if x < top else top]
                    col.append(r)
                cols.append(col)
            Rs[1:] = np.array(cols, R.dtype).T.reshape((K,) + R.shape)
        else:
            # all traces per step: shifted[L].take(x, clip) is F[min(x + L, F.size - 1)]
            shifted = {L: F[min(L, F.size - 1):] for L in set(steps)}
            prev = R
            for row, L in zip(Rs[1:], steps):
                shifted[L].take(prev, None, row, "clip")
                prev = row
        if np.any(Rs[K] > last):
            resieve = True  # a trace left its window: redo the block
            continue
        fresh = False
        offd = off[0] - off[1]
        maxd = maxdiff_out[live]
        # Traces apart at a prime index take the distinct non-primes of ranks
        # Ra + t and Rb + t through the composite run after it, so they meet
        # only at prime indices, and as C increases the run's differences are
        # at most its last a value less its first b value. Only the runs
        # whose bound exceeds the max at block start can raise the max, or,
        # while m is unset (max <= threshold), hold the first excess; runs
        # after a merge (equal ranks) hold 0.
        Ra, Rb = Rs[:-1, 0], Rs[:-1, 1]
        cap = C[Ra + np.maximum(Ls - 1, 0)[:, None]] - C[Rb] + offd
        ri, rt = np.nonzero((cap > maxd) & (Ra != Rb) & (Ls > 0)[:, None])
        ends = np.cumsum(Ls[ri])
        if ends.size and ends[-1] > _BLOCK_CELLS // 4:
            # end the block before the run whose cells would pass the cap
            K = max(int(ri[ends.searchsorted(_BLOCK_CELLS // 4, "right")]), 1)
            cut = ri.searchsorted(K)
            ri, rt, ends, q = ri[:cut], rt[:cut], ends[:cut], q[: K + 1]
        R = Rs[K]
        advance = np.max(R - Rs[0])
        # C[R] - 1 is the prime of rank R; the -1 cancels in the difference.
        # Differences at the prime indices q[1:], one row each:
        dp = C[Rs[1 : K + 1, 0]] - C[Rs[1 : K + 1, 1]] + offd
        lens = Ls[ri]
        cell = np.repeat(np.arange(ri.size), lens)
        u = np.arange(cell.size) - np.repeat(ends - lens, lens)
        ci, ct = ri[cell], rt[cell]
        # candidates (index, trace, difference): prime rows, then run cells
        n = np.concatenate((np.repeat(q[1:], live.size), q[ci] + 1 + u))
        t = np.concatenate((np.tile(np.arange(live.size), K), ct))
        d = np.concatenate((dp.ravel(),
                            C[Ra[ci, ct] + u] - C[Rb[ci, ct] + u] + offd[ct]))
        inside = n <= bound
        n, t, d = n[inside], t[inside], d[inside]
        never = bound + 1
        z = np.full(live.size, never)
        np.minimum.at(z, t[d == 0], n[d == 0])
        e = np.full(live.size, never)
        np.minimum.at(e, t[d > threshold], n[d > threshold])
        merged = z < never
        new_m = (m_out[live] == 0) & (e < never)
        end = np.where(new_m, e, z) if stop_on_excess else z  # an excess comes first
        upto = n <= end[t]
        best = maxd.copy()
        np.maximum.at(best, t[upto], d[upto])
        up = best > maxd
        first = np.full(live.size, never)
        at = upto & (d == best[t])
        np.minimum.at(first, t[at], n[at])
        maxdiff_out[live[up]] = best[up]
        maxdiff_n_out[live[up]] = first[up]
        m_out[live[new_m]] = e[new_m]
        done = merged | new_m if stop_on_excess else merged
        met = merged & ~new_m if stop_on_excess else merged
        merge_out[live[met]] = z[met]
        j += K
        if done.any():
            keep = ~done
            live, R, off, last = live[keep], R[:, keep], off[:, keep], last[:, keep]
        # sieve again before a block like this one could leave the window
        resieve = live.size > 0 and np.min(last - R) < advance
    merge_out[live] = UNMERGED
    return m_out, maxdiff_out, maxdiff_n_out, merge_out


def gap_words(ks: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """One uint32 per base offset k into a primality bitmap: bit i is
    flags[k + 2i], for i = 0..MAX_SPAN // 2.

    Callers guarantee ks + MAX_SPAN stays inside flags.
    """
    words = np.zeros(ks.size, np.uint32)
    for i in range(MAX_SPAN // 2 + 1):
        words |= flags[ks + 2 * i].astype(np.uint32) << i
    return words


def match_offsets_bulk(words: np.ndarray, pattern) -> np.ndarray:
    """Vectorized constellations.matches_pattern: does the GapPattern pattern's
    prime/composite word sit at each base whose gap word is in words?"""
    mask, bits = pattern.word
    return words & mask == bits
