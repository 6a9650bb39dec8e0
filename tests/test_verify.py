import sys
import time

import numpy as np
import pytest

import twinconst.sweeps as sweeps
from twinconst.verify import (
    ALLOWED_M_VALUES,
    partitioned_scan,
    probe_conjecture1,
    verify_corollaries,
    verify_theorem1,
    verify_theorem2,
)

C_PREFIX = [3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789, 3527, 3917]

_real_scan_chunk = sweeps._scan_chunk
_FAILING_LO = 20_003  # the third 10_000-value chunk
_chunk_log = None  # directory where _fail_third_chunk records every chunk it starts


def _fail_third_chunk(args):
    # module level, so a pool can send it to forked workers by reference
    lo = args[0]
    (_chunk_log / str(lo)).touch()
    if lo == _FAILING_LO:
        raise RuntimeError("injected worker failure")
    if lo > _FAILING_LO:
        time.sleep(0.05)  # later chunks are slow, so a pool still running them shows
    return _real_scan_chunk(args)


def test_theorem1_small_range():
    report = verify_theorem1(4000)
    assert report.verified
    assert not report.counterexamples
    assert report.details["c_prefix"] == C_PREFIX


def test_theorem1_trivial_range():
    report = verify_theorem1(10)
    assert report.verified
    assert report.pairs_examined == 2  # twins 3 and 5


def test_theorem1_rare_residue():
    report = verify_theorem1(200_000)
    assert report.verified
    assert report.details["c_mod10_eq_1"] == [11, 165701]


def test_theorem2_value_set():
    report = verify_theorem2(500)
    assert report.verified
    observed = set(report.details["observed_m_values"])
    assert observed <= ALLOWED_M_VALUES
    assert {0, 13, 9, 11, 5, 3, 15, 7} <= observed


def test_theorem2_tiny_range():
    report = verify_theorem2(10)
    assert set(report.details["observed_m_values"]) == {0, 13}


def test_theorem2_first_occurrences_reported():
    report = verify_theorem2(2_000)
    first = report.details["first_occurrence"]
    assert first[0] == 3
    assert first[13] == 5
    assert all(m in ALLOWED_M_VALUES for m in first)


def test_corollaries():
    report = verify_corollaries(10_000)
    assert report.verified
    assert report.details["min_max_diff_excluding_p3"] == 6
    # 12th twin pair (p=149) is the first with m=15
    assert report.details["count_m15"] >= 1
    assert report.m_value_histogram.get(15, 0) >= 1


def test_corollaries_pattern_equivalence_range():
    report = verify_corollaries(200_000)
    assert report.verified
    assert report.details["count_m17_outside_mod30_29"] == 0
    assert report.details["count_m15_outside_mod30_29"] == 0


def test_probe_conjecture1_published_positions():
    report = probe_conjecture1(5, 10_000)
    flat = [pos for _, _, pos in report.details["positions"]]
    assert flat == [11, 47, 47, 47, 47, 11, 47, 47, 17, 17]
    assert report.details["unmerged"] == []
    assert report.verified


def test_probe_conjecture1_683_family():
    report = probe_conjecture1(6, 10_000)
    tail = [pos for a, _, pos in report.details["positions"] if a == 17]
    assert tail == [683] * 5


def test_partitioned_scan_worker_invariance():
    r1 = partitioned_scan(10**5, 1)
    r4 = partitioned_scan(10**5, 4)
    for name in ("ps", "m", "max_diff", "max_diff_n", "merge_n", "near", "predicted"):
        assert np.array_equal(getattr(r1.result, name), getattr(r4.result, name))
    assert r1.m_value_histogram == r4.m_value_histogram
    assert r1.residue_counts == r4.residue_counts
    assert r1.counterexamples == r4.counterexamples


def test_partitioned_scan_residues():
    report = partitioned_scan(10**4, 4)
    assert set(report.residue_counts) <= {1, 3, 7, 9}


def test_partitioned_scan_empty():
    report = partitioned_scan(0, 4)
    assert report.pairs_examined == 0
    assert report.m_value_histogram == {}
    assert report.verified


def test_partitioned_scan_worker_failure_gives_partial_report(monkeypatch):
    real = sweeps._scan_chunk
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("injected worker failure")
        return real(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", flaky)
    report = partitioned_scan(50_000, 1, chunk=10_000)
    assert report.aborted
    assert not report.verified
    assert "injected worker failure" in report.details["error"]
    assert report.details["completed_hi"] == 20_002  # two chunks finished


def test_partitioned_scan_worker_failure_two_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", tmp_path)
    monkeypatch.setattr(sweeps, "_scan_chunk", _fail_third_chunk)
    report = partitioned_scan(400_000, 2, chunk=10_000)
    assert report.aborted
    assert not report.verified
    assert "injected worker failure" in report.details["error"]
    assert report.details["completed_hi"] == 20_002
    # of the 40 queued chunks, only those a worker had already taken may run
    # after the failure; the rest are cancelled
    started = len(list(tmp_path.iterdir()))
    assert 3 <= started < 20


def test_checkpoint_resume(tmp_path):
    ckpt = str(tmp_path / "scan.ckpt.npz")
    fresh = partitioned_scan(60_000, 1, chunk=20_000)

    # abort after the first chunk, leaving a checkpoint behind
    real = sweeps._scan_chunk
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("boom")
        return real(args)

    import twinconst.verify as verify_mod
    orig = sweeps._scan_chunk
    sweeps._scan_chunk = flaky
    try:
        partial = partitioned_scan(60_000, 1, chunk=20_000, checkpoint=ckpt)
    finally:
        sweeps._scan_chunk = orig
    assert partial.aborted
    import os
    assert os.path.exists(ckpt)

    resumed = partitioned_scan(60_000, 1, chunk=20_000, checkpoint=ckpt)
    assert not resumed.aborted
    for name in ("ps", "m", "max_diff", "near"):
        assert np.array_equal(getattr(resumed.result, name),
                              getattr(fresh.result, name))
    assert not os.path.exists(ckpt)  # removed after a clean finish


def test_checkpoint_param_mismatch_is_ignored(tmp_path):
    ckpt = str(tmp_path / "scan.ckpt.npz")
    partial_params_scan = partitioned_scan(30_000, 1, chunk=10_000, checkpoint=ckpt)
    # finished cleanly, so no checkpoint left; write one then change params
    from twinconst.verify import _save_checkpoint
    _save_checkpoint(ckpt, {"limit": 999}, 10_000, None)
    report = partitioned_scan(30_000, 1, chunk=10_000, checkpoint=ckpt)
    assert report.pairs_examined == partial_params_scan.pairs_examined


def test_report_serialization(tmp_path):
    report = verify_theorem1(2_000)
    text = report.to_text()
    assert "campaign: theorem1" in text
    assert "counterexamples: 0" in text
    rows = report.rows()
    assert any(row.startswith("m_histogram\t") for row in rows)
    path = tmp_path / "report.txt"
    report.write(str(path))
    content = path.read_text()
    assert "pairs_examined" in content
