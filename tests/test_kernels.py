"""The lockstep pair kernel and the rank-space walker against the point-query
oracle hseq.pair_trace, through scan_twin_range, sweeps.merge_walks and its
consumers (cli._maxdiff_terms, sweeps.pair_report, sweeps.prime_pair_merges,
verify.probe_conjecture1) and kernels.walk_pairs."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinconst.kernels as kernels
import twinconst.sweeps as sweeps
from twinconst import primes
from twinconst.cli import _maxdiff_terms
from twinconst.constellations import MAX_SPAN
from twinconst.hseq import (DEFAULT_BOUND, DEFAULT_THRESHOLD, NotMergedWithin, h_sequence,
                            pair_trace)
from twinconst.kernels import UNMERGED, pair_stats_kernel, walk_pairs
from twinconst.sweeps import (TwinScanResult, merge_walks, pair_report, prime_pair_merges,
                               scan_twin_range)
from twinconst.verify import probe_conjecture1


def _assert_matches_oracle(result):
    """Every pair's statistics equal pair_trace's, bounded at the index where
    the sweep stopped the pair: its first excess or its merge."""
    for i, p in enumerate(result.ps.tolist()):
        m, merge_n = int(result.m[i]), int(result.merge_n[i])
        rep = pair_trace(p + 2, p, DEFAULT_THRESHOLD, m or merge_n)
        assert m == rep.first_excess, p
        assert int(result.max_diff[i]) == rep.max_diff, p
        assert int(result.max_diff_n[i]) == rep.max_diff_first_index, p
        assert merge_n == (rep.merge_index if rep.merged else 0), p


def _oracle(a, b, threshold, stop_on_excess, bound):
    """walk_pairs' (m, max_diff, max_diff_n, merge_n) for one pair, from
    pair_trace."""
    rep = pair_trace(a, b, threshold, bound)
    if stop_on_excess and rep.first_excess:
        rep = pair_trace(a, b, threshold, rep.first_excess)
        return rep.first_excess, rep.max_diff, rep.max_diff_first_index, 0
    merge = rep.merge_index if rep.merged else UNMERGED
    return rep.first_excess, rep.max_diff, rep.max_diff_first_index, merge


STEP_LOOPS = {"vectorized": 0, "trace-major": 1 << 30}  # loop: _FEW_TRACES


def _walk_each_loop(*args):
    """walk_pairs(*args) under each of the walker's step loops, by loop: all
    traces per prime index with one gather (no block is few-trace), and
    trace by trace with scalar reads (every block is)."""
    outs = {}
    for loop, few_traces in STEP_LOOPS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_FEW_TRACES", few_traces)
            outs[loop] = walk_pairs(*args)
    return outs


def _assert_walk_matches_oracle(a, b, threshold, stop_on_excess, bound):
    want = [_oracle(*pair, threshold, stop_on_excess, bound) for pair in zip(a, b)]
    for loop, out in _walk_each_loop(a, b, threshold, stop_on_excess, bound).items():
        for i, pair in enumerate(zip(a, b)):
            got = tuple(int(col[i]) for col in out)
            assert got == want[i], (pair, bound, loop)


def _differences(a, b, n_max):
    """The trace differences at indices 2..n_max, from hseq.h_sequence."""
    return [x - y for x, y in zip(h_sequence(a, n_max), h_sequence(b, n_max))]


@pytest.fixture(params=["default-blocks", "one-step-blocks", "few-cells"])
def walk_block(request, monkeypatch):
    """The walker's default blocks; blocks of one prime index, in which each
    composite run's bound is compared with the max just before the run; and
    a cell cap so small that blocks end before the run that would pass it,
    after one step when the first run alone does."""
    if request.param == "one-step-blocks":
        monkeypatch.setattr(kernels, "WALK_BLOCK", 1)
    elif request.param == "few-cells":
        monkeypatch.setattr(kernels, "_BLOCK_CELLS", 64)


def test_run_to_merge_below_1e4_matches_oracle():
    # scan maxdiff walks the 205 twin pairs below 10^4 to their merges with
    # the walker, the stragglers 3467 and 6701 (merges at 841793 and 503819)
    # among them; the oracle checks every field of every pair's report
    ps = list(primes.twin_lessers(10**4))
    assert len(ps) == 205 and {3467, 6701} < set(ps)
    reports = merge_walks([p + 2 for p in ps], ps)
    for p, rep in zip(ps, reports):
        assert rep == pair_trace(p + 2, p, 6, 10**6), p
    assert all(rep.merged for rep in reports)
    assert [rep.merge_index for rep in reports if rep.b in (3467, 6701)] == [841793, 503819]
    assert _maxdiff_terms(205) == (tuple(rep.max_diff for rep in reports), False)


def test_stop_on_excess_near_1e12_matches_oracle():
    rng = np.random.default_rng(2016)
    lo = 10**12 + int(rng.integers(0, 10**9))
    result = scan_twin_range(lo, lo + (1 << 16) - 1)
    assert result.ps.size > 50
    assert result.fallback_count == 0
    _assert_matches_oracle(result)


def test_pairs_off_the_bitmap_reach_the_fallback(monkeypatch):
    # near 10^12 a trace passes some 30 values per prime index, so the pairs
    # near the end of a 64-value chunk leave its bitmap (16 values past it,
    # widened to the matchers' MAX_SPAN) before index 17
    monkeypatch.setattr(kernels, "WALK_WINDOW", 16)
    # the width the sweep reads, pinned: near 10^12 chunk_width would widen
    # a 64-value chunk to hold an odd value per base prime
    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: 64)
    result = scan_twin_range(10**12, 10**12 + (1 << 14) - 1)
    assert result.fallback_count >= 3
    _assert_matches_oracle(result)


def _pi_upper(x: int) -> int:
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld 1962)
    return int(1.25506 * x / np.log(x)) + 1


def test_chunk_width_rule():
    # CHUNK holds an odd value per base prime up to 10^13 (pi(3.2e6) = 227 647
    # < 2^19); pi(10^7) = 664 579 needs 2^21 values, pi(3.2e7) = 1 951 957 2^22
    widths = [sweeps.chunk_width(h) for h in (10**7, 10**12, 10**13, 10**14, 10**15)]
    assert widths == [sweeps.CHUNK] * 3 + [1 << 21, 1 << 22]


def test_chunk_width_is_capped_near_the_range_limit(monkeypatch):
    # a base-prime list as long as pi(isqrt(2^63)) may be, read-only and
    # zero-strided, stands in for the cache, so nothing is sieved; the rule
    # asks for 2^29 values and stops at the widest chunk whose margin still
    # fits one sieve segment
    hi = primes.RANGE_LIMIT - 1
    stub = np.broadcast_to(np.uint32(0), (_pi_upper(math.isqrt(hi)),))
    monkeypatch.setattr(primes, "_base_primes", lambda limit: stub)
    width = sweeps.chunk_width(hi)
    assert width == primes.MAX_SEGMENT_SIZE // 2
    assert width + max(kernels.WALK_WINDOW, MAX_SPAN) <= primes.MAX_SEGMENT_SIZE


def test_sweep_limit_is_checked_before_chunk_width(monkeypatch):
    # a zero bitmap stands in for the sieve, so nothing is sieved: the last
    # accepted limit has its chunk's margin end at 2^63 exactly, and one past
    # it is an argument error before chunk_width reads the base-prime cache
    top = primes.RANGE_LIMIT - max(kernels.WALK_WINDOW, MAX_SPAN)
    widths, sieved = [], []

    def no_primes(lo, hi):
        sieved.append(hi)
        return primes.Segment(lo, hi, np.zeros(hi - lo + 1, dtype=bool))

    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: widths.append(hi) or 64)
    monkeypatch.setattr(primes, "sieve_segment", no_primes)
    assert scan_twin_range(top - 63, top).ps.size == 0
    assert (widths, sieved) == ([top], [primes.RANGE_LIMIT])
    with pytest.raises(ValueError, match=f"limit {top + 1} above {top}"):
        scan_twin_range(top - 63, top + 1)
    assert (widths, sieved) == ([top], [primes.RANGE_LIMIT])


@pytest.mark.parametrize("lo, span", [(10**14 + 2 ** 20 + 12345, 5 << 20),
                                      (10**15 + 2 ** 21 + 54321, 10 << 20)])
def test_widened_chunks_give_the_chunk_width_scan(lo, span, monkeypatch):
    # two and a half widened chunks equal the same range in CHUNK-value
    # chunks, in every column but which pairs took the fallback
    hi = lo + span - 1
    columns = dict(predict=True, corollary_check=True)
    assert sweeps.chunk_width(hi) == span * 2 // 5
    wide = scan_twin_range(lo, hi, **columns)
    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: sweeps.CHUNK)
    narrow = scan_twin_range(lo, hi, **columns)
    assert wide.ps.size > 1000
    for f in fields(TwinScanResult):
        if f.name != "fallback":
            assert np.array_equal(getattr(wide, f.name), getattr(narrow, f.name)), f.name


@pytest.mark.parametrize("lo", [10**6, 10**12])
def test_small_chunks_and_margin_give_the_default_scan(lo, monkeypatch):
    # a kernel that steps no index hands every pair to the walker, which must
    # then report what the kernel reports; with a 16-value window the
    # matchers still read the MAX_SPAN values past each chunk
    hi = lo + (1 << 14) - 1
    columns = dict(predict=True, corollary_check=True)
    default = scan_twin_range(lo, hi, **columns)
    monkeypatch.setattr(kernels, "IDX_LIMIT", 3)
    monkeypatch.setattr(kernels, "WALK_WINDOW", 16)
    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: 32)
    small = scan_twin_range(lo, hi, **columns)
    assert small.fallback_count > small.ps.size // 2
    for f in fields(TwinScanResult):
        if f.name != "fallback":
            assert np.array_equal(getattr(small, f.name), getattr(default, f.name)), f.name


@pytest.mark.parametrize("threshold", [1, 6])
@pytest.mark.parametrize("stop_on_excess", [True, False])
def test_walk_matches_oracle_at_small_bounds(threshold, stop_on_excess):
    # twin and non-twin starts; 1009 - 3 and 10^6 + 3 - 7 are far enough
    # apart for each trace to get a window of its own. Bounds 9, 50 and 1000
    # end inside composite runs, 3, 11 and 47 on prime indices.
    a = [5, 7, 13, 19, 43, 1009, 10**6 + 3, 1019, 17]
    b = [3, 5, 11, 17, 41, 3, 7, 1013, 3]
    for bound in (2, 3, 4, 9, 11, 47, 50, 1000, 20000):
        _assert_walk_matches_oracle(a, b, threshold, stop_on_excess, bound)


def test_bound_inside_a_composite_run_before_the_merge():
    # 6701's traces merge at index 503819; 503818 is composite
    assert not primes.is_prime(503818)
    rep = pair_trace(6703, 6701, 6, 503818)
    assert not rep.merged
    assert pair_report(6703, 6701, 6, 503818) == rep


def test_unmerged_pair_at_default_bound():
    # the traces of 14629 and 14627 do not meet within 10^6 indices: the
    # walker reports UNMERGED, with the oracle's lower-bound statistics
    rep = pair_trace(14629, 14627, 6, DEFAULT_BOUND)
    assert not rep.merged
    assert pair_report(14629, 14627) == rep


@pytest.mark.parametrize("prime_count, bound", [
    # 17's traces merge with those of 3..13 at 683; 467 is the largest
    # merge below it; at 1000 the 555 unmerged pairs walk to the bound
    (40, 682), (40, 683), (40, 1000), (20, DEFAULT_BOUND)])
def test_prime_pair_merges_match_oracle(prime_count, bound):
    ps = primes.consecutive_primes_from(3, prime_count)
    want = []
    for i, a in enumerate(ps):
        for b in ps[:i]:
            pos = pair_trace(a, b, bound=bound).merge_index
            want.append((a, b, None if isinstance(pos, NotMergedWithin) else pos))
    assert prime_pair_merges(len(want), bound) == want


ODD_PRIMES_200 = primes.consecutive_primes_from(3, 200)


@given(st.lists(st.sampled_from(ODD_PRIMES_200), min_size=3, max_size=3, unique=True),
       st.integers(min_value=2, max_value=1500))
@settings(max_examples=100, deadline=None)
def test_merge_is_the_later_of_the_adjacent_merges(starts, bound):
    # the lemma behind prime_pair_merges, on the oracle: for s < t < u the
    # traces of u and s meet when those of t and s and of u and t both have
    s, t, u = sorted(starts)

    def merge(a, b):
        pos = pair_trace(a, b, bound=bound).merge_index
        return bound + 1 if isinstance(pos, NotMergedWithin) else pos

    assert merge(u, s) == max(merge(t, s), merge(u, t))


def test_prime_pair_merges_match_oracle_on_a_sample_of_80_primes():
    # 3160 pairs from the 79 adjacent walks; at bound 7000 the pairs that
    # merge at 6257 are merged and those that merge at 390703 are not
    bound = 7000
    ps = primes.consecutive_primes_from(3, 80)
    got = prime_pair_merges(80 * 79 // 2, bound)
    assert [(a, b) for a, b, _ in got] == [(a, b) for i, a in enumerate(ps) for b in ps[:i]]
    positions = {n for _, _, n in got}
    assert {6257, None} <= positions
    rng = np.random.default_rng(80)
    for i in rng.choice(len(got), 60, replace=False).tolist():
        a, b, n = got[i]
        pos = pair_trace(a, b, bound=bound).merge_index
        assert n == (None if isinstance(pos, NotMergedWithin) else pos), (a, b)


def test_prime_pair_merges_edge_arguments():
    assert prime_pair_merges(0) == []
    assert prime_pair_merges(1, 2) == [(5, 3, None)]
    with pytest.raises(ValueError, match="bound must be >= 2"):
        prime_pair_merges(3, 1)


@pytest.mark.parametrize("walk", [
    lambda: _maxdiff_terms(5, 1), lambda: prime_pair_merges(3, 1),
    lambda: probe_conjecture1(3, 1), lambda: pair_report(7, 5, 6, 1)],
    ids=["maxdiff", "merge", "conj1", "trace"])
def test_bound_below_2_is_refused_before_any_sieving_or_walking(walk, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("sieved or walked before the bound was checked")

    monkeypatch.setattr(primes, "sieve_segment", refused)
    monkeypatch.setattr(sweeps, "walk_pairs", refused)
    with pytest.raises(ValueError) as exc:
        walk()
    assert str(exc.value) == "bound must be >= 2, got 1"


@pytest.mark.parametrize("window", [64, 1024])
def test_walk_near_1e12_across_window_refreshes(window, monkeypatch):
    # near 10^12 one block of steps moves a trace by some 10^4 values, so the
    # walker must widen these windows as well as sieve them again; blocks of
    # 64 prime indices keep the walk to index 3181 from fitting in one block
    # once a window has widened
    widths = {}  # _FEW_TRACES: window widths
    rank_line = kernels._rank_line

    def counting(values, width):
        widths.setdefault(kernels._FEW_TRACES, []).append(width)
        return rank_line(values, width)

    monkeypatch.setattr(kernels, "WALK_WINDOW", window)
    monkeypatch.setattr(kernels, "WALK_BLOCK", 64)
    monkeypatch.setattr(kernels, "_rank_line", counting)
    lo = 10**12 + 5000
    ps = [p for p in range(lo | 1, lo + 1501, 2) if primes.is_prime(p) and primes.is_prime(p + 2)]
    assert len(ps) >= 3
    a = [p + 2 for p in ps]
    # under both step loops; a block that leaves a window, redone after, has
    # traces clipped to the sentinel
    for loop, out in _walk_each_loop(a, ps, DEFAULT_THRESHOLD, False, DEFAULT_BOUND).items():
        merge_n, w = out[3], widths[STEP_LOOPS[loop]]
        longest = int(np.argmax(merge_n))
        assert ps[longest] == 10**12 + 5647 and merge_n[longest] == 3181, loop
        assert len(w) >= 3 and max(w) > window, loop
        assert len(w) - len(set(w)) >= 1, loop  # sieved again at one width
    _assert_walk_matches_oracle(a, ps, DEFAULT_THRESHOLD, False, DEFAULT_BOUND)


def test_chunk_without_twin_pairs():
    result = scan_twin_range(20, 28)
    assert result.ps.size == 0 and result.fallback_count == 0
    empty = np.zeros(0, np.int64)
    out = pair_stats_kernel(empty, np.ones(64, bool))
    assert [a.size for a in out] == [0] * 5
    assert [a.size for a in walk_pairs(empty, empty, 6, False, DEFAULT_BOUND)] == [0] * 4


@pytest.mark.parametrize("predict", [False, True])
@pytest.mark.parametrize("corollary_check", [False, True])
def test_empty_range_gives_the_requested_columns(predict, corollary_check):
    # hi < lo: no pairs, the optional columns exactly when their option is
    # set, and no chunk for on_chunk
    options = dict(predict=predict, corollary_check=corollary_check)
    result = scan_twin_range(10, 5, **options)
    assert result.ps.size == 0 and result.fallback_count == 0
    assert (result.predicted is not None) == predict
    assert (result.cor17 is not None) == (result.cor15 is not None) == corollary_check
    for f in fields(result):
        column = getattr(result, f.name)
        assert f.name in ("lo", "hi") or column is None or column.size == 0, f.name
    chunks = []
    assert scan_twin_range(10, 5, on_chunk=chunks.append, **options) is None
    assert chunks == []


@pytest.mark.parametrize("a, b, first", [
    # max difference 56 at indices 162 (composite), 167 (prime) and 168
    (29, 19, 162),
    # 480 at 23 indices from the prime index 9221 to 11636, in one default
    # block and across many one-step blocks; the traces merge at 18143
    (128203, 128201, 9221)])
def test_first_of_tied_maxima_is_reported(a, b, first, walk_block):
    rep = pair_trace(a, b, DEFAULT_THRESHOLD, DEFAULT_BOUND)
    diffs = _differences(a, b, rep.merge_index)
    assert diffs.count(rep.max_diff) >= 2 and diffs.index(rep.max_diff) + 2 == first
    assert walk_pairs([a], [b], DEFAULT_THRESHOLD, False, DEFAULT_BOUND)[2].tolist() == [first]
    _assert_walk_matches_oracle([a], [b], DEFAULT_THRESHOLD, False, DEFAULT_BOUND)


@pytest.mark.parametrize("stop_on_excess", [True, False])
def test_first_excess_inside_a_composite_run(stop_on_excess, walk_block):
    # at threshold 19 the traces of 17 and 7 differ by 19 at index 52 and by
    # 18 at index 54, the first of the composite run 54..58, and first exceed
    # 19 at its last index: a run that starts at or below the max before it
    diffs = _differences(17, 7, 58)
    assert not any(primes.is_prime(n) for n in range(54, 59))
    assert max(diffs[: 54 - 2]) == 19 and diffs[54 - 2] == 18 and diffs[58 - 2] == 20
    assert walk_pairs([17], [7], 19, stop_on_excess, DEFAULT_BOUND)[0].tolist() == [58]
    _assert_walk_matches_oracle([17], [7], 19, stop_on_excess, DEFAULT_BOUND)


@pytest.mark.parametrize("stop_on_excess", [True, False])
def test_walk_of_many_pairs(stop_on_excess):
    # 333 pairs of nearby primes at three heights, so that a block holds
    # only _BLOCK_CELLS // 666 = 24 prime indices
    a, b = [], []
    for base in (10**3, 10**6, 10**9):
        ps = primes.consecutive_primes_from(primes.next_prime(base), 112)
        a += ps[1:111] + ps[2:3]
        b += ps[:110] + ps[:1]
    assert len(a) >= 300 and kernels._BLOCK_CELLS // (2 * len(a)) < 32
    _assert_walk_matches_oracle(a, b, DEFAULT_THRESHOLD, stop_on_excess, 3000)


@pytest.mark.parametrize("stop_on_excess", [True, False])
def test_walk_matches_oracle_on_random_pairs(stop_on_excess, walk_block):
    # pairs of primes a few primes apart near 3, 10^3, 10^6, 10^9 and
    # 10^12; random thresholds; bounds one below, at and one above a prime
    # index, so that a walk ends just before, on and just after one
    rng = np.random.default_rng(1217 + stop_on_excess)
    index_primes = primes.consecutive_primes_from(3, 300)
    for _ in range(6):
        a, b = [], []
        for base in (3, 10**3, 10**6, 10**9, 10**12):
            start = primes.next_prime(base - 1 + int(rng.integers(0, min(base, 1000))))
            ps = primes.consecutive_primes_from(start, 5)
            lo = int(rng.integers(0, 4))
            hi = int(rng.integers(lo + 1, 5))
            a.append(ps[hi])
            b.append(ps[lo])
        threshold = int(rng.integers(1, 41))
        q = index_primes[int(rng.integers(0, len(index_primes)))]
        for bound in (q - 1, q, q + 1):
            _assert_walk_matches_oracle(a, b, threshold, stop_on_excess, bound)
