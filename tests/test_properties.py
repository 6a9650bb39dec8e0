"""Hypothesis-driven invariants complementing the randomized suites in
prop_checks.py (which the acceptance module runs at full case counts)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segment_flags import value_flags
from twinconst import primes
from twinconst.hseq import h_step, pair_trace
from twinconst.sweeps import scan_twin_range

TWINS_50K = list(primes.twin_lessers(50_000))


@given(st.integers(min_value=3, max_value=10**6), st.booleans())
@settings(max_examples=200)
def test_h_step_is_least_admissible(prev, want_prime):
    nxt = h_step(prev, want_prime)
    assert nxt > prev
    assert primes.is_prime(nxt) == want_prime
    for v in range(prev + 1, nxt):
        assert primes.is_prime(v) != want_prime


@given(st.sampled_from(TWINS_50K))
@settings(max_examples=300, deadline=None)
def test_kernel_scan_agrees_with_streaming_trace(p):
    # dual route: lockstep bitmap kernel vs point-query streaming simulation
    result = scan_twin_range(p, p)
    assert result.ps.tolist() == [p]
    rep = pair_trace(p + 2, p, bound=200_000)
    assert int(result.m[0]) == rep.first_excess
    if rep.merged:
        assert bool(result.near[0]) == (rep.max_diff <= 6)
        if rep.max_diff <= 6:
            assert int(result.max_diff[0]) == rep.max_diff
            assert int(result.merge_n[0]) == rep.merge_index
    else:
        # pairs that drift past the threshold may take a very long time to
        # merge; nearness is already decided negative for them
        assert rep.first_excess > 0
        assert not result.near[0]


@given(st.integers(min_value=0, max_value=10**7), st.integers(min_value=0, max_value=2000))
@settings(max_examples=50, deadline=None)
def test_sieve_segment_matches_point_primality(lo, width):
    flags = value_flags(primes.sieve_segment(lo, lo + width))
    ks = np.linspace(0, width, num=min(width + 1, 40), dtype=int)
    for k in ks:
        assert bool(flags[k]) == primes.is_prime(lo + int(k))
