"""Every twin pair p > 5 stops within 17 indices and 36 values: a case tree.

stop_leaves(threshold) walks the traces started at p + 2 and p, held as
offsets a > b from p, for each class r = p mod 30 in {11, 17, 29} (every
twin lesser p > 5 has one), from index 2 with a = 2 and b = 0. At a prime
index each trace steps to its next prime, at a composite index to its next
composite. An odd offset is an even value and an even offset o with 3 or 5
dividing r + o is a multiple of 3 or 5 above 5, so both are composite; the
walk branches on the primality of any other even offset, and only when a
step needs it. Two cuts end a branch at a prime index: with no prime in
(b, a] both traces land on a's next prime, a merge; with no prime in
(a, b' + threshold], where b' is b's next prime, the difference exceeds the
threshold, an excess. A composite step ends the branch when the traces meet
or exceed the threshold.

The leaves hold for every p > 5 of their class, so at the paper's threshold
6 they prove Theorem 1's classifier, Theorem 2's m set and the m = 15/17
corollaries, and they size the sweep kernel: kernels.IDX_LIMIT indices and
sweeps.MARGIN values past a chunk. The tests then check the leaves against
the kernel on every twin pair of three sweeps.
"""

import itertools
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

import twinconst.kernels as kernels
import twinconst.sweeps as sweeps
from twinconst import primes
from twinconst.constellations import MAX_SPAN, NEAR_PATTERNS, corollary_patterns
from twinconst.hseq import DEFAULT_THRESHOLD, pair_trace
from twinconst.sweeps import scan_twin_range
from twinconst.verify import ALLOWED_M_VALUES

CLASSES = (11, 17, 29)
# the largest prime gap below 4e18 (T. Oliveira e Silva, S. Herzog and
# S. Pardi, Math. Comp. 83, 2014): the kernel's step to the prime that a
# first excess lands on reads at most this far past the leaf's offsets
MAX_PRIME_GAP_BELOW_4E18 = 1476


class Leaf(NamedTuple):
    r: int  # the class p mod 30
    kind: str  # "merge" or "excess"
    n: int  # the index of the merge or of the first excess
    max_diff: int  # the difference at n for an excess: a lower bound when cut
    max_diff_n: int  # the first index of max_diff
    known: tuple  # (offset, p + offset prime): 0, 2 and each offset branched on
    top: int  # the largest offset read


class _Open(Exception):
    """The walk needs the primality of p + args[0], which is not known."""


def _fact(r: int, known: dict, o: int):
    """Is p + o prime, for a twin lesser p = r mod 30 above 5: True, False, or
    None when known leaves it open."""
    if o % 2 or (r + o) % 3 == 0 or (r + o) % 5 == 0:
        return False
    return known.get(o)


def _walk(r: int, threshold: int, known: dict, read: list):
    """(kind, n, max_diff, max_diff_n) of the traces from (p + 2, p) under
    known, or _Open for the first offset the walk needs that known lacks."""

    def prime(o: int) -> bool:
        read.append(o)
        fact = _fact(r, known, o)
        if fact is None:
            raise _Open(o)
        return fact

    a, b, maxd, maxd_n = 2, 0, 2, 2
    for n in itertools.count(3):
        if all(n % q for q in range(2, n)):
            b = next(o for o in itertools.count(b + 1) if o > a or prime(o))
            if b > a:
                return "merge", n, maxd, maxd_n
            a = next(o for o in itertools.count(a + 1) if o > b + threshold or prime(o))
        else:
            a += 1 + prime(a + 1)
            b += 1 + prime(b + 1)
            if a == b:
                return "merge", n, maxd, maxd_n
        if a - b > threshold:
            return "excess", n, a - b, n
        if a - b > maxd:
            maxd, maxd_n = a - b, n


def _leaves(r: int, threshold: int, known: dict) -> list:
    read: list = []
    try:
        kind, n, maxd, maxd_n = _walk(r, threshold, known, read)
    except _Open as need:
        o = need.args[0]
        return (_leaves(r, threshold, {**known, o: True})
                + _leaves(r, threshold, {**known, o: False}))
    return [Leaf(r, kind, n, maxd, maxd_n, tuple(sorted(known.items())), max(read))]


@lru_cache(maxsize=None)
def stop_leaves(threshold: int = DEFAULT_THRESHOLD) -> tuple:
    """The leaves of the case tree at threshold, by class, depth first with
    the prime branch first. Offsets 0 and 2 are the twin pair itself."""
    return tuple(leaf for r in CLASSES for leaf in _leaves(r, threshold, {0: True, 2: True}))


def _implies(leaf: Leaf, pattern) -> bool:
    """Does the leaf fix every offset of the pattern's word as the pattern does?"""
    mask, bits = pattern.word
    known = dict(leaf.known)
    return all(_fact(leaf.r, known, 2 * i) is bool(bits >> i & 1)
               for i in range(mask.bit_length()))


def _consistent(leaf: Leaf, pattern) -> bool:
    """Can a twin lesser of the leaf's class match both the leaf and the pattern?"""
    mask, bits = pattern.word
    known = dict(leaf.known)
    return all(_fact(leaf.r, known, 2 * i) in (None, bool(bits >> i & 1))
               for i in range(mask.bit_length()))


def _by_class(leaves) -> dict:
    return {r: [leaf for leaf in leaves if leaf.r == r] for r in CLASSES}


def test_leaf_counts_at_the_paper_threshold():
    leaves = stop_leaves()
    assert len(leaves) == 37
    assert [len(group) for group in _by_class(leaves).values()] == [13, 4, 20]


def test_theorem1_one_merge_leaf_per_class_is_its_near_pattern():
    merge_at = {11: 17, 17: 11, 29: 11}
    for r, group in _by_class(stop_leaves()).items():
        merges = [leaf for leaf in group if leaf.kind == "merge"]
        assert len(merges) == 1, r
        (merge,) = merges
        assert (merge.n, merge.max_diff) == (merge_at[r], 6), r
        assert _implies(merge, NEAR_PATTERNS[r]), r
        assert not any(_consistent(leaf, NEAR_PATTERNS[r]) for leaf in group if leaf != merge), r


def test_theorem2_excess_indices_are_the_allowed_m_values():
    excess = {leaf.n for leaf in stop_leaves() if leaf.kind == "excess"}
    assert excess | {0} == ALLOWED_M_VALUES


@pytest.mark.parametrize("m", [17, 15])
def test_corollary_leaves_are_the_corollary_patterns(m):
    patterns = corollary_patterns(m)
    group = _by_class(stop_leaves())[29]
    at_m = [leaf for leaf in group if leaf.kind == "excess" and leaf.n == m]
    assert at_m
    for leaf in at_m:
        assert any(_implies(leaf, pattern) for pattern in patterns), leaf
    for leaf in group:
        if leaf not in at_m:
            assert not any(_consistent(leaf, pattern) for pattern in patterns), leaf
    # no pair of another class first exceeds at m
    assert {leaf.r for leaf in stop_leaves() if leaf.kind == "excess" and leaf.n == m} == {29}


def test_stop_bounds_size_the_kernel():
    leaves = stop_leaves()
    last = max(leaf.n for leaf in leaves)
    reach = max(leaf.top for leaf in leaves)
    assert (last, reach) == (17, 36)
    # the explicit pairs below 7: (5, 3) merges at 11 and (7, 5) first
    # exceeds at 13, inside the same bound
    assert pair_trace(5, 3).merge_index == 11
    assert pair_trace(7, 5).first_excess == 13
    small = scan_twin_range(3, 5)
    assert small.ps.tolist() == [3, 5]
    assert small.merge_n.tolist() == [11, 0] and small.m.tolist() == [0, 13]
    assert kernels.IDX_LIMIT == last + 1
    # a chunk's last pair reads up to reach, then steps across at most one
    # prime gap at its first excess; the matchers read MAX_SPAN
    assert sweeps.MARGIN >= max(reach + MAX_PRIME_GAP_BELOW_4E18, MAX_SPAN)


def test_thresholds_5_and_7_give_other_trees():
    # a guard on the walk itself: one threshold either side of 6 changes
    # the tree, so a walk that steps or cuts differently shows here too
    five = stop_leaves(5)
    assert len(five) == 7 and all(leaf.kind == "excess" for leaf in five)
    assert max(leaf.n for leaf in five) == 11
    seven = stop_leaves(7)
    assert len(seven) == 38
    assert {leaf.n for leaf in seven if leaf.kind == "excess"} == {3, 5, 7, 11, 13, 17}


@pytest.mark.parametrize("lo, hi, pairs", [
    (3, 10**7, 58_978),
    (10**14, 10**14 + (1 << 22) - 1, None),
    (10**15, 10**15 + (1 << 22) - 1, None)], ids=["to-1e7", "near-1e14", "near-1e15"])
def test_every_twin_pair_matches_one_leaf_and_the_kernel_agrees(lo, hi, pairs):
    # each pair's leaf is read from the sieve's odd flags at the leaf's
    # offsets; the sweep's m, merge_n, near, max_diff and max_diff_n are the
    # leaf's (an excess cut by the walk bounds max_diff from below)
    res = scan_twin_range(lo, hi)
    big = res.ps > 5
    ps = res.ps[big]
    if pairs is not None:
        assert ps.size == pairs
    o0 = lo | 1
    odd = primes.sieve_segment(lo, hi + MAX_SPAN).odd  # leaves branch up to offset 32
    idx = (ps - o0) // 2
    hits = np.zeros(ps.size, np.int64)
    m, merge_n, max_diff, max_diff_n = (np.zeros(ps.size, np.int64) for _ in range(4))
    for leaf in stop_leaves():
        hit = ps % 30 == leaf.r
        for o, prime in leaf.known:
            hit &= odd[idx + o // 2] == prime
        hits += hit
        merged = leaf.kind == "merge"
        m[hit] = 0 if merged else leaf.n
        merge_n[hit] = leaf.n if merged else 0
        max_diff[hit] = leaf.max_diff
        max_diff_n[hit] = leaf.max_diff_n
    assert np.all(hits == 1)
    assert np.array_equal(res.m[big], m)
    assert np.array_equal(res.merge_n[big], merge_n)
    assert np.array_equal(res.near[big], merge_n > 0)
    assert np.array_equal(res.max_diff_n[big], max_diff_n)
    cut = m > 0
    assert np.array_equal(res.max_diff[big][~cut], max_diff[~cut])
    assert np.all(res.max_diff[big][cut] >= max_diff[cut])
