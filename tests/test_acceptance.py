"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The 10^7 campaign is run once and shared by criteria 5 and 6.
"""

import time

import pytest

import prop_checks
from twinconst.cli import _maxdiff_terms, _merge_sequence_terms
from twinconst.hseq import h_sequence, pair_trace
from twinconst.sweeps import scan_c_sequence, scan_m_sequence
from twinconst.verify import ALLOWED_M_VALUES, partitioned_scan

MERGE_PREFIX = [11, 47, 47, 47, 47, 11, 47, 47, 17, 17, 683, 683, 683, 683, 683]
MAXDIFF_PREFIX = (4, 14, 6, 6, 6, 12, 6, 8, 14, 14, 18,
                  36, 24, 65, 18, 6, 10, 6, 84, 14, 162)
C_PREFIX = [3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789, 3527, 3917]
M_PREFIX = [0, 13, 0, 0, 0, 9, 0, 11, 11, 5, 3, 15, 3, 7, 3, 0, 3, 0, 3, 5, 7, 3, 11]


def _report(n, label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"PASS criterion {n}: {label}{suffix}")


@pytest.fixture(scope="module")
def sweep_1e7():
    t0 = time.perf_counter()
    report = partitioned_scan(10**7)
    return report, time.perf_counter() - t0


def test_criterion_1_merge_positions():
    t0 = time.perf_counter()
    terms = _merge_sequence_terms(15, 10**4)
    elapsed = time.perf_counter() - t0
    assert terms == MERGE_PREFIX
    assert elapsed < 1.0
    _report(1, "merge positions for pairs among {3..17}", elapsed)


def test_criterion_2_max_differences():
    t0 = time.perf_counter()
    terms, unmerged = _maxdiff_terms(21)
    elapsed = time.perf_counter() - t0
    assert not unmerged
    assert terms == MAXDIFF_PREFIX
    assert elapsed < 5.0
    _report(2, "first 21 max-difference terms", elapsed)


def test_criterion_3_c_sequence():
    t0 = time.perf_counter()
    terms = scan_c_sequence(3917)
    elapsed = time.perf_counter() - t0
    assert terms == C_PREFIX
    assert elapsed < 5.0
    _report(3, "c-sequence terms through 3917", elapsed)


def test_criterion_4_m_sequence():
    t0 = time.perf_counter()
    terms = scan_m_sequence(23)
    elapsed = time.perf_counter() - t0
    assert terms == M_PREFIX
    assert elapsed < 5.0
    _report(4, "first 23 first-excess terms", elapsed)


def test_criterion_5_classifier_equivalence_1e7(sweep_1e7):
    report, elapsed = sweep_1e7
    assert report.verified, report.counterexamples[:3]
    assert report.pairs_examined == 58980  # pi_2(10^7), OEIS A007508
    assert report.details["c_count"] == sum(report.residue_counts.values())
    assert elapsed < 300.0
    _report(5, f"classifier == simulation on {report.pairs_examined} twin pairs <= 1e7",
            elapsed)


def test_criterion_6_m_value_set_1e7(sweep_1e7):
    report, _ = sweep_1e7
    observed = set(report.m_value_histogram)
    assert observed <= ALLOWED_M_VALUES, observed - ALLOWED_M_VALUES
    _report(6, f"m values observed <= 1e7: {sorted(observed)}")


def test_criterion_7_rare_residue():
    t0 = time.perf_counter()
    c_terms = scan_c_sequence(2 * 10**5)
    elapsed = time.perf_counter() - t0
    ones = [p for p in c_terms if p % 10 == 1]
    assert ones == [11, 165701]
    assert elapsed < 30.0
    _report(7, "c-terms == 1 (mod 10) below 2e5 are exactly {11, 165701}", elapsed)


def test_criterion_8_corollary_1():
    t0 = time.perf_counter()
    report = partitioned_scan(10**6)
    elapsed = time.perf_counter() - t0
    # verified includes "max_diff 4 exactly at p=3" and "max_diff >= 6" for
    # every other p
    assert report.verified, report.counterexamples[:3]
    assert report.pairs_examined == 8169  # pi_2(10^6), OEIS A007508
    assert report.details["min_max_diff_excluding_p3"] == 6
    _report(8, "unique max-diff 4 at p=3; all others >= 6 (twins <= 1e6)", elapsed)


def test_criterion_9_sufficiency_instances():
    cases = [
        # (a, b, upper rows n=2.., lower rows n=2.., attain set, merge index)
        (19, 17,
         (19, 23, 24, 29, 30, 31, 32, 33, 34),
         (17, 19, 20, 23, 24, 29, 30, 32, 33),
         {5, 6}, 11),
        (31, 29,
         (31, 37, 38, 41, 42, 43, 44, 45, 46),
         (29, 31, 32, 37, 38, 41, 42, 44, 45),
         {3, 4}, 11),
        (13, 11,
         (13, 17, 18, 19, 20, 23, 24, 25, 26, 29, 30, 31, 32, 33, 34),
         (11, 13, 14, 17, 18, 19, 20, 21, 22, 23, 24, 29, 30, 32, 33),
         {11, 12}, 17),
    ]
    for a, b, rows_a, rows_b, attain, merge_at in cases:
        n_last = 2 + len(rows_a) - 1
        assert h_sequence(a, n_last) == rows_a, (a, b)
        assert h_sequence(b, n_last) == rows_b, (a, b)
        rep = pair_trace(a, b)
        assert rep.max_diff == 6
        assert rep.max_diff_first_index == min(attain)
        for n in attain:
            assert rows_a[n - 2] - rows_b[n - 2] == 6
        assert rep.merge_index == merge_at
    _report(9, "t=0 sufficiency tables match row-for-row")


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    n = prop_checks.run_greedy_minimality(1000)
    assert n == 1000
    n = prop_checks.run_start_monotonicity(1000)
    assert n == 1000
    n = prop_checks.run_merge_persistence(1000)
    assert n == 1000
    n = prop_checks.run_parallel_determinism(1000)
    assert n == 1000
    n = prop_checks.run_bfile_round_trip(1000)
    assert n == 1000
    _report(10, "five property suites at 1000 randomized cases each",
            time.perf_counter() - t0)
