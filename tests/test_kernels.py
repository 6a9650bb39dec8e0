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

from segment_flags import value_flags
import twinconst.kernels as kernels
import twinconst.sweeps as sweeps
from twinconst import primes
from twinconst.cli import _maxdiff_terms, main
from twinconst.constellations import MAX_SPAN
from twinconst.hseq import DEFAULT_BOUND, DEFAULT_THRESHOLD, h_sequence, pair_trace
from twinconst.kernels import pair_stats_kernel, walk_pairs
from twinconst.sweeps import (TwinScanResult, merge_walks, pair_report, prime_pair_merges,
                               scan_twin_range)
from twinconst.verify import _save_checkpoint, _state, partitioned_scan, probe_conjecture1


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


def _oracle(a, b, threshold, bound):
    """walk_pairs' (m, max_diff, max_diff_n, merge_n) for one pair, from
    pair_trace."""
    rep = pair_trace(a, b, threshold, bound)
    return rep.first_excess, rep.max_diff, rep.max_diff_first_index, rep.merge_index or 0


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


def _assert_walk_matches_oracle(a, b, threshold, bound):
    want = [_oracle(*pair, threshold, bound) for pair in zip(a, b)]
    for loop, out in _walk_each_loop(a, b, threshold, bound).items():
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


@pytest.mark.parametrize("height, seed", [(10**14, 14), (10**15, 15)])
def test_chunk_at_height_matches_oracle(height, seed):
    # one chunk of every column at a seeded window, as the 10^12 test above
    rng = np.random.default_rng(seed)
    lo = height + int(rng.integers(0, 10**9))
    result = scan_twin_range(lo, lo + (1 << 16) - 1, predict=True, corollary_check=True)
    assert result.ps.size > 50 and result.fallback_count == 0
    _assert_matches_oracle(result)
    assert np.array_equal(result.near, (result.merge_n > 0) & (result.max_diff <= 6))


def test_sweep_reads_no_per_value_flags():
    # a sweep chunk runs on the sieve's odd flags from start to end, the only
    # flags a Segment holds
    lo = 10**9 + 12345
    result = scan_twin_range(lo, lo + (3 << 19), predict=True, corollary_check=True)
    assert result.ps.size > 3000 and result.fallback_count == 0


def test_kernel_index_table_is_the_primes_below_idx_limit():
    want = {n for n in range(kernels.IDX_LIMIT) if primes.is_prime(n)}
    assert kernels._INDEX_PRIMES == want == {2, 3, 5, 7, 11, 13, 17}


@pytest.mark.parametrize("p, gap", [(1357201, 132), (2010733, 148)])
@pytest.mark.parametrize("bit", [0, 1, 31, 62, 63])
def test_prime_step_matches_next_prime_across_maximal_gaps(p, gap, bit):
    # p sits at bit `bit` of the second 64-bit word of odd flags: at bit 63
    # the 148-value gap clears the whole third word, so the step reads on to
    # the fourth. The window ends 37 flags into its fifth word, and every
    # offset past its last prime steps to the sentinel.
    assert primes.next_prime(p) == p + gap
    o0 = p - 2 * (64 + bit)
    odd = primes.sieve_segment(o0, o0 + 2 * (4 * 64 + 37) - 1).odd
    sentinel = 2 * odd.size - 1
    last = o0 + 2 * int(np.flatnonzero(odd)[-1])
    want = [primes.next_prime(o0 + x) - o0 if o0 + x < last else sentinel
            for x in range(sentinel)]
    got = kernels._prime_step(kernels._odd_words(odd), np.arange(sentinel), sentinel)
    assert got.tolist() == want
    assert want[2 * (64 + bit)] == 2 * (64 + bit) + gap and want[-1] == sentinel


def test_odd_words_equal_packed_padded_flags_for_every_size_mod_64():
    # packing first and padding the packed bytes gives the words that padding
    # the flags by 128 - size % 64 and then packing gives
    rng = np.random.default_rng(64)
    for size in range(1, 3 * 64 + 1):
        odd = rng.random(size) < 0.3
        want = np.packbits(np.pad(odd, (0, 128 - odd.size % 64)), bitorder="little").view("<u8")
        got = kernels._odd_words(odd)
        assert got.dtype == want.dtype and np.array_equal(got, want), size


@pytest.mark.parametrize("size", [255, 256, 257, 4 * 64 + 37])
def test_flags64_reads_64_flags_at_every_offset_up_to_the_padding(size):
    # from every in-word offset of the first two words, and from each of the
    # last 64 flags, whose reads run into _odd_words' clear padding
    odd = np.random.default_rng(size).random(size) < 0.5
    padded = np.pad(odd, (0, 64))
    s = np.concatenate((np.arange(128), np.arange(size - 64, size)))
    want = [int(np.packbits(padded[j : j + 64], bitorder="little").view("<u8")[0])
            for j in s.tolist()]
    assert kernels._flags64(kernels._odd_words(odd), s).tolist() == want


def _gap_words_per_offset(idx, odd):
    """gap_words as one gather from the bool flags per offset 0..MAX_SPAN / 2."""
    words = np.zeros(idx.size, np.uint32)
    for j in range(MAX_SPAN // 2 + 1):
        words |= odd[idx + j].astype(np.uint32) << j
    return words


@pytest.mark.parametrize("height, seed", [(10**7, 7), (10**14, 14)])
def test_gap_words_equal_the_per_offset_gather(height, seed):
    # a sweep chunk's window at a seeded height: the gap words of its twin
    # lessers, those within 16 flags of a word edge among them, and of every
    # odd value whose 17 flags end at the window's last flag
    lo = height + int(np.random.default_rng(seed).integers(0, 10**6))
    hi = lo + sweeps.CHUNK - 1
    odd = primes.sieve_segment(lo, hi + sweeps.MARGIN).odd
    words = kernels._odd_words(odd)
    twin_is = primes.twin_indices(odd, (hi + 1) // 2 - lo // 2)
    edge = np.minimum(twin_is & 63, 63 - (twin_is & 63)) < 16
    assert edge.sum() > 50 and (~edge).sum() > 50
    tail = np.arange(odd.size - MAX_SPAN // 2 - 200, odd.size - MAX_SPAN // 2)
    for idx in (twin_is, twin_is[edge], tail):
        got = kernels.gap_words(idx, words)
        assert got.dtype == np.uint32
        assert np.array_equal(got, _gap_words_per_offset(idx, odd))


def test_pairs_near_the_bitmap_end_are_not_ok():
    # windows [3, hi]: a pair is ok exactly when its upper trace stays at or
    # below the window's last odd value up to the pair's stop index, as the
    # even value after it is the sentinel offset 2 * odd.size - 1, off the
    # bitmap; the ok pairs' statistics are the oracle's
    off = 0
    for hi in range(150, 300):
        odd = primes.sieve_segment(3, hi).odd
        last = 3 + 2 * (odd.size - 1)
        twin_is = np.flatnonzero(odd[:-1] & odd[1:])
        ps = 3 + 2 * twin_is
        out = pair_stats_kernel(twin_is, odd, kernels._odd_words(odd))
        ok = out[4]
        want = []
        for p in ps.tolist():
            rep = pair_trace(p + 2, p, DEFAULT_THRESHOLD, DEFAULT_BOUND)
            want.append(h_sequence(p + 2, rep.first_excess or rep.merge_index)[-1] <= last)
        assert ok.tolist() == want, hi
        off += want.count(False)
        _assert_matches_oracle(TwinScanResult(3, hi, ps[ok], *(col[ok] for col in out[:4]),
                                              None, None))
    assert off > 100


def test_pairs_off_the_bitmap_end_the_sweep(monkeypatch, tmp_path):
    # near 10^12 a trace passes some 30 values per prime index, so with a
    # margin of the matchers' MAX_SPAN alone some pairs near the end of a
    # 64-value chunk leave its bitmap before they stop: the sweep raises,
    # naming the first of them, and a campaign reports an abort
    monkeypatch.setattr(sweeps, "MARGIN", MAX_SPAN)
    # the width the sweep reads, pinned: near 10^12 chunk_width would widen
    # a 64-value chunk to hold an odd value per base prime
    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: 64)
    lo, hi = 10**12, 10**12 + (1 << 14) - 1

    def off(p):
        rep = pair_trace(p + 2, p)
        sieved = lo + (p - lo) // 64 * 64 + 63 + MAX_SPAN  # its chunk's last value
        return h_sequence(p + 2, rep.first_excess or rep.merge_index)[-1] > sieved

    twins = [p for p in range(lo + 1, hi + 1, 2) if primes.is_prime(p) and primes.is_prime(p + 2)]
    first = next(p for p in twins if off(p))
    with pytest.raises(RuntimeError, match=rf"^twin pair \({first + 2}, {first}\) did not stop"):
        scan_twin_range(lo, hi)
    # the same sweep resumed at lo from a checkpoint of a new report
    ckpt = str(tmp_path / "scan.ckpt")
    _save_checkpoint(ckpt, {"limit": hi}, lo, _state(partitioned_scan(2)))
    report = partitioned_scan(hi, checkpoint=ckpt)
    assert report.aborted and report.pairs_examined > 0
    assert report.details["error"].startswith(f"RuntimeError: twin pair ({first + 2}, {first})")


def _pi_upper(x: int) -> int:
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld 1962)
    return int(1.25506 * x / np.log(x)) + 1


def test_chunk_width_rule():
    # CHUNK holds an odd value per base prime up to 10^13 (pi(3.2e6) = 227 647
    # < 2^19); pi(10^7) = 664 579 needs 2^21 values, pi(3.2e7) = 1 951 957 2^22
    widths = [sweeps.chunk_width(h) for h in (10**7, 10**12, 10**13, 10**14, 10**15)]
    assert widths == [sweeps.CHUNK] * 3 + [1 << 21, 1 << 22]


def test_chunk_width_is_capped_near_the_range_limit(monkeypatch):
    # a count of large base primes as high as pi(isqrt(2^63)) may be stands
    # in for the cache, so nothing is sieved; the rule
    # asks for 2^29 values and stops at the widest chunk whose margin still
    # fits one sieve segment
    hi = primes.RANGE_LIMIT - 1
    count = _pi_upper(math.isqrt(hi))
    monkeypatch.setattr(primes, "_base_primes", lambda limit: (np.zeros(0, np.uint32), count))
    width = sweeps.chunk_width(hi)
    assert width == primes.MAX_SEGMENT_SIZE // 2
    assert width + sweeps.MARGIN <= primes.MAX_SEGMENT_SIZE


def test_sweep_limit_is_checked_before_chunk_width(monkeypatch):
    # zero odd flags stand in for the sieve, so nothing is sieved: the last
    # accepted limit has its chunk's margin end at 2^63 exactly, and one past
    # it is an argument error before chunk_width reads the base-prime cache
    top = primes.RANGE_LIMIT - sweeps.MARGIN
    widths, sieved = [], []

    def no_primes(lo, hi):
        sieved.append(hi)
        return primes.Segment(lo, hi, odd=np.zeros((hi - (lo | 1)) // 2 + 1, dtype=bool))

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
    # chunks, in every column
    hi = lo + span - 1
    columns = dict(predict=True, corollary_check=True)
    assert sweeps.chunk_width(hi) == span * 2 // 5
    wide = scan_twin_range(lo, hi, **columns)
    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: sweeps.CHUNK)
    narrow = scan_twin_range(lo, hi, **columns)
    assert wide.ps.size > 1000
    for f in fields(TwinScanResult):
        assert np.array_equal(getattr(wide, f.name), getattr(narrow, f.name)), f.name


@pytest.mark.parametrize("lo", [10**6, 10**12])
def test_small_chunks_and_margin_give_the_default_scan(lo, monkeypatch):
    # 32-value chunks, each with its MARGIN values past it, give the scan of
    # the default chunks; a kernel that steps no index stops no pair, and
    # the sweep raises
    hi = lo + (1 << 14) - 1
    columns = dict(predict=True, corollary_check=True)
    default = scan_twin_range(lo, hi, **columns)
    monkeypatch.setattr(sweeps, "chunk_width", lambda hi: 32)
    small = scan_twin_range(lo, hi, **columns)
    assert small.ps.size > 20
    for f in fields(TwinScanResult):
        assert np.array_equal(getattr(small, f.name), getattr(default, f.name)), f.name
    monkeypatch.setattr(kernels, "IDX_LIMIT", 3)
    with pytest.raises(RuntimeError, match=rf"twin pair \({default.ps[0] + 2}, {default.ps[0]}\)"):
        scan_twin_range(lo, hi, **columns)


@pytest.mark.parametrize("threshold", [1, 6])
def test_walk_matches_oracle_at_small_bounds(threshold):
    # twin and non-twin starts; 1009 - 3 and 10^6 + 3 - 7 are far enough
    # apart for each trace to get a window of its own. Bounds 9, 50 and 1000
    # end inside composite runs, 3, 11 and 47 on prime indices.
    a = [5, 7, 13, 19, 43, 1009, 10**6 + 3, 1019, 17]
    b = [3, 5, 11, 17, 41, 3, 7, 1013, 3]
    for bound in (2, 3, 4, 9, 11, 47, 50, 1000, 20000):
        _assert_walk_matches_oracle(a, b, threshold, bound)


def test_bound_inside_a_composite_run_before_the_merge():
    # 6701's traces merge at index 503819; 503818 is composite
    assert not primes.is_prime(503818)
    rep = pair_trace(6703, 6701, 6, 503818)
    assert not rep.merged
    assert pair_report(6703, 6701, 6, 503818) == rep


def test_unmerged_pair_at_default_bound():
    # the traces of 14629 and 14627 do not meet within 10^6 indices: the
    # walker reports no merge, with the oracle's lower-bound statistics
    rep = pair_trace(14629, 14627, 6, DEFAULT_BOUND)
    assert not rep.merged
    assert pair_report(14629, 14627) == rep


def test_open_pair_has_merge_n_0_and_merge_index_none():
    # 17's traces merge with 3's at 683, so at bound 100 the pair is open:
    # walk_pairs leaves its merge_n at 0, as pair_stats_kernel does for the
    # twin pair (7, 5), which it stops at its first excess, 13, before the
    # merge at 47
    assert walk_pairs([17], [3], DEFAULT_THRESHOLD, 100)[3].tolist() == [0]
    odd = primes.sieve_segment(3, 1 << 12).odd  # 5 is odd index 1 from 3
    m, _, _, merge_n, ok = pair_stats_kernel(np.array([1]), odd, kernels._odd_words(odd))
    assert (m.tolist(), merge_n.tolist(), ok.tolist()) == ([13], [0], [True])
    rep = pair_trace(17, 3, DEFAULT_THRESHOLD, 100)
    assert rep.merge_index is None and not rep.merged
    assert merge_walks([17], [3], 100) == [rep]
    assert pair_report(17, 3, DEFAULT_THRESHOLD, 100) == rep


def _rank_line_from_value_flags(values, width):
    """_rank_line's (C, F, R, last), each window [v, (v + width + 1) & ~1]
    joined with those it meets and sieved whole into per-value flags."""
    windows = []
    for v in sorted(values.ravel().tolist()):
        end = (v + width + 1) & ~1
        if windows and v <= windows[-1][1]:
            windows[-1][1] = end
        else:
            windows.append([v, end])
    vals = np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows])
    prime = np.concatenate([value_flags(primes.sieve_segment(lo, hi)) for lo, hi in windows])
    below = np.cumsum(~prime) - ~prime  # non-primes before each value
    C = vals[~prime]
    ranks = below[prime]
    F = np.append(ranks, C.size)[ranks.searchsorted(np.arange(C.size + 1))]
    R = below[vals.searchsorted(values)]
    ends = np.array([hi for _, hi in windows])
    last = below[vals.searchsorted(ends[ends.searchsorted(values)])]
    return C, F, R, last


@pytest.mark.parametrize("values", [
    # 20 pairs of consecutive primes 2^14 values apart near 10^9: one
    # cluster of some 3.6 * 10^5 values over six 2^16-value segments
    [[primes.next_prime(primes.next_prime(10**9 + i * (1 << 14))) for i in range(20)],
     [primes.next_prime(10**9 + i * (1 << 14)) for i in range(20)]],
    # two clusters far apart, the first from 3
    [[primes.next_prime(10**15)], [3]],
])
def test_rank_line_equals_the_one_from_per_value_flags(values, monkeypatch):
    values = np.array(values, np.int64)
    want = _rank_line_from_value_flags(values, kernels.WALK_WINDOW)
    monkeypatch.setattr(primes, "MAX_SEGMENT_SIZE", 1 << 16)
    got = kernels._rank_line(values)
    assert [x.shape for x in got[2:]] == [values.shape] * 2
    for name, g, w in zip(("C", "F", "R", "last"), got, want):
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("prime_count, bound", [
    # 17's traces merge with those of 3..13 at 683; 467 is the largest
    # merge below it; at 1000 the 555 unmerged pairs walk to the bound
    (40, 682), (40, 683), (40, 1000), (20, DEFAULT_BOUND)])
def test_prime_pair_merges_match_oracle(prime_count, bound):
    ps = primes.consecutive_primes_from(3, prime_count)
    want = []
    for i, a in enumerate(ps):
        for b in ps[:i]:
            want.append((a, b, pair_trace(a, b, bound=bound).merge_index))
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
        return bound + 1 if pos is None else pos

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
        assert n == pair_trace(a, b, bound=bound).merge_index, (a, b)


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


@pytest.mark.parametrize("window", [64, 512, 1024])
def test_walk_near_1e12_across_window_refreshes(window, monkeypatch):
    # near 10^12 one block of steps moves a trace by some 10^4 values, so the
    # walker sieves these windows again, each time at the one width; blocks
    # of 64 prime indices keep the walk to index 3181 from fitting in one
    # block. Every step there fits in 512 values, but one can pass a whole
    # 64-value window: sieving again from the same rank would make no
    # progress, so the walk raises instead of looping
    calls = {}  # _FEW_TRACES: _rank_line calls
    rank_line = kernels._rank_line

    def counting(values):
        calls[kernels._FEW_TRACES] = calls.get(kernels._FEW_TRACES, 0) + 1
        return rank_line(values)

    monkeypatch.setattr(kernels, "WALK_WINDOW", window)
    monkeypatch.setattr(kernels, "WALK_BLOCK", 64)
    monkeypatch.setattr(kernels, "_rank_line", counting)
    lo = 10**12 + 5000
    ps = [p for p in range(lo | 1, lo + 1501, 2) if primes.is_prime(p) and primes.is_prime(p + 2)]
    assert len(ps) >= 3
    a = [p + 2 for p in ps]
    if window == 64:
        for few_traces in STEP_LOOPS.values():
            monkeypatch.setattr(kernels, "_FEW_TRACES", few_traces)
            with pytest.raises(RuntimeError, match="passed a whole 64-value window"):
                walk_pairs(a, ps, DEFAULT_THRESHOLD, DEFAULT_BOUND)
        return
    for loop, out in _walk_each_loop(a, ps, DEFAULT_THRESHOLD, DEFAULT_BOUND).items():
        merge_n = out[3]
        longest = int(np.argmax(merge_n))
        assert ps[longest] == 10**12 + 5647 and merge_n[longest] == 3181, loop
        assert calls[STEP_LOOPS[loop]] >= 3, loop
    _assert_walk_matches_oracle(a, ps, DEFAULT_THRESHOLD, DEFAULT_BOUND)


TWINS_BELOW_1E4 = list(primes.twin_lessers(10**4))


@pytest.mark.parametrize("a, b, bound, most", [
    # the 205 twin pairs below 10^4, walked to 10^6, and an open pair to 10^7;
    # sieving again before a block could leave a window, and redoing a block
    # that did, sieved 1.45 and 1.67 times their distinct values
    ([p + 2 for p in TWINS_BELOW_1E4], TWINS_BELOW_1E4, DEFAULT_BOUND, 1.25),
    ([14629], [14627], 10**7, 1.5),
], ids=["205-pairs", "14627"])
def test_walk_sieves_few_values_twice(a, b, bound, most, monkeypatch):
    # values primes.sieve_segment sieves during the walk, over the distinct
    # values its segments cover
    segments = []
    sieve = primes.sieve_segment
    monkeypatch.setattr(primes, "sieve_segment",
                        lambda lo, hi: segments.append((lo, hi)) or sieve(lo, hi))
    walk_pairs(a, b, DEFAULT_THRESHOLD, bound)
    distinct, end = 0, -1
    for lo, hi in sorted(segments):
        distinct += max(hi, end) - max(lo - 1, end)
        end = max(end, hi)
    assert sum(hi - lo + 1 for lo, hi in segments) <= most * distinct


@pytest.mark.parametrize("segment", [1 << 16, 1 << 17])
@pytest.mark.parametrize("x, step", [(10**5, 1 << 14), (10**5, 30000),
                                     (10**9, 1 << 14), (10**9, 30000)])
def test_walk_over_a_cluster_longer_than_one_sieve_segment(x, step, segment, monkeypatch):
    # 40 pairs of consecutive primes step values apart, step below the
    # 2^15-value window: their windows join into one cluster of some 40 *
    # step values, sieved as abutting segments of at most segment values,
    # and the non-prime values C lists must ascend across every join
    rank_line = kernels._rank_line
    spans = []

    def checked(values):
        C, F, R, last = rank_line(values)
        assert np.all(np.diff(C) > 0)
        spans.append(int(C[-1] - C[0]))
        return C, F, R, last

    monkeypatch.setattr(primes, "MAX_SEGMENT_SIZE", segment)
    monkeypatch.setattr(kernels, "_rank_line", checked)
    b = [primes.next_prime(x + i * step) for i in range(40)]
    a = [primes.next_prime(p) for p in b]
    _assert_walk_matches_oracle(a, b, DEFAULT_THRESHOLD, 2000)
    assert spans[0] > 4 * segment


def _primes_below(top, k):
    """The k largest primes below top, descending."""
    out, x = [], top - 1
    while len(out) < k:
        if primes.is_prime(x):
            out.append(x)
        x -= 1
    return out


@pytest.mark.parametrize("top", [2**63 - 2**15 + 40, 2**63 - 2**15 - 400, 2**63 - 2**16])
def test_walks_at_the_64_bit_ceiling(top, monkeypatch):
    # the first window ends 2^15 + 1 values past the larger start, within
    # 70 values of 2^63 for the first top; the oracle steps with next_prime,
    # which keeps 2^32 values from 2^63 unless its headroom is lifted, and
    # its 30-index traces stay far below 2^63
    a, b = _primes_below(top, 2)
    got = pair_report(a, b, 6, 30)
    monkeypatch.setattr(primes, "STEP_HEADROOM", primes.RANGE_LIMIT)
    assert got == pair_trace(a, b, 6, 30)


def test_walk_whose_window_would_reach_2_63_is_refused(capsys):
    # the two largest primes below 2^63: their first window would pass it
    a, b = _primes_below(2**63, 2)
    with pytest.raises(ValueError, match="2\\^63"):
        pair_report(a, b, 6, 30)
    assert main(["trace", str(a), str(b), "--bound", "30"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_chunk_without_twin_pairs():
    result = scan_twin_range(20, 28)
    assert result.ps.size == 0 and result.fallback_count == 0
    empty = np.zeros(0, np.int64)
    odd = np.ones(64, bool)
    out = pair_stats_kernel(empty, odd, kernels._odd_words(odd))
    assert [a.size for a in out] == [0] * 5
    assert [a.size for a in walk_pairs(empty, empty, 6, DEFAULT_BOUND)] == [0] * 4


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
    assert walk_pairs([a], [b], DEFAULT_THRESHOLD, DEFAULT_BOUND)[2].tolist() == [first]
    _assert_walk_matches_oracle([a], [b], DEFAULT_THRESHOLD, DEFAULT_BOUND)


def test_first_excess_inside_a_composite_run(walk_block):
    # at threshold 19 the traces of 17 and 7 differ by 19 at index 52 and by
    # 18 at index 54, the first of the composite run 54..58, and first exceed
    # 19 at its last index: a run that starts at or below the max before it
    diffs = _differences(17, 7, 58)
    assert not any(primes.is_prime(n) for n in range(54, 59))
    assert max(diffs[: 54 - 2]) == 19 and diffs[54 - 2] == 18 and diffs[58 - 2] == 20
    assert walk_pairs([17], [7], 19, DEFAULT_BOUND)[0].tolist() == [58]
    _assert_walk_matches_oracle([17], [7], 19, DEFAULT_BOUND)


def test_walk_of_many_pairs():
    # 333 pairs of nearby primes at three heights, so that a block holds
    # only _BLOCK_CELLS // 666 = 24 prime indices
    a, b = [], []
    for base in (10**3, 10**6, 10**9):
        ps = primes.consecutive_primes_from(primes.next_prime(base), 112)
        a += ps[1:111] + ps[2:3]
        b += ps[:110] + ps[:1]
    assert len(a) >= 300 and kernels._BLOCK_CELLS // (2 * len(a)) < 32
    _assert_walk_matches_oracle(a, b, DEFAULT_THRESHOLD, 3000)


def test_walk_matches_oracle_on_random_pairs(walk_block):
    # pairs of primes a few primes apart near 3, 10^3, 10^6, 10^9 and
    # 10^12; random thresholds; bounds one below, at and one above a prime
    # index, so that a walk ends just before, on and just after one
    rng = np.random.default_rng(1217)
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
            _assert_walk_matches_oracle(a, b, threshold, bound)
