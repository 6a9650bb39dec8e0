"""The lockstep pair kernel against the point-query oracle hseq.pair_trace,
through scan_twin_range and its fallback for pairs the kernel gives up on."""

import numpy as np
import pytest

import twinconst.sweeps as sweeps
from twinconst.hseq import DEFAULT_BOUND, pair_trace
from twinconst.kernels import pair_stats_kernel
from twinconst.sweeps import scan_twin_range


def _assert_matches_oracle(result, bound_at_stop):
    """Every pair's statistics equal pair_trace's; in stop-on-excess mode the
    oracle is bounded at the index where the kernel stopped."""
    for i, p in enumerate(result.ps.tolist()):
        m, merge_n = int(result.m[i]), int(result.merge_n[i])
        bound = (m or merge_n) if bound_at_stop else DEFAULT_BOUND
        rep = pair_trace(p + 2, p, result.threshold, bound)
        assert m == rep.first_excess, p
        assert int(result.max_diff[i]) == rep.max_diff, p
        assert int(result.max_diff_n[i]) == rep.max_diff_first_index, p
        assert merge_n == (rep.merge_index if rep.merged else 0), p


@pytest.fixture
def recorded_fallbacks(monkeypatch):
    """pair_trace reports handed to the sweep's fallback, keyed by lesser."""
    reports = {}

    def recording(a, b, threshold, bound):
        reports[b] = rep = pair_trace(a, b, threshold, bound)
        return rep

    monkeypatch.setattr(sweeps, "pair_trace", recording)
    return reports


def test_run_to_merge_below_1e4_matches_oracle(recorded_fallbacks):
    result = scan_twin_range(3, 9931, stop_on_excess=False)
    assert result.ps.size == 205
    # the two stragglers outrun the index table and take the fallback; their
    # statistics are the oracle's own reports, so check only the rest here
    assert result.fallback_count == 2
    assert sorted(recorded_fallbacks) == [3467, 6701]
    for i, p in enumerate(result.ps.tolist()):
        rep = recorded_fallbacks.get(p) or pair_trace(p + 2, p, result.threshold)
        assert rep.merged, p
        assert int(result.max_diff[i]) == rep.max_diff, p
        assert int(result.merge_n[i]) == rep.merge_index, p


@pytest.mark.parametrize("threshold", [1, 6])
def test_stop_on_excess_near_1e12_matches_oracle(threshold):
    rng = np.random.default_rng(2016)
    lo = 10**12 + int(rng.integers(0, 10**9))
    result = scan_twin_range(lo, lo + (1 << 16) - 1, threshold=threshold)
    assert result.ps.size > 50
    assert result.fallback_count == 0
    _assert_matches_oracle(result, bound_at_stop=True)


def test_pairs_off_the_bitmap_reach_the_fallback():
    # a 64-value margin is far too short for run-to-merge walks
    result = scan_twin_range(3, 2000, stop_on_excess=False, margin=64)
    assert result.fallback_count > 0
    _assert_matches_oracle(result, bound_at_stop=False)


def test_chunk_without_twin_pairs():
    result = scan_twin_range(20, 28)
    assert result.ps.size == 0 and result.fallback_count == 0
    empty = np.zeros(0, np.int64)
    out = pair_stats_kernel(empty, np.ones(64, bool), sweeps._IDX_PRIME, 6, True)
    assert [a.size for a in out] == [0] * 5
