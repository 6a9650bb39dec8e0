import dataclasses
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import twinconst.sweeps as sweeps
import twinconst.verify as verify_mod
from twinconst.sweeps import TwinScanResult, scan_twin_range
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
_chunk_log = None  # directory where the chunk functions below record each chunk they start


# module level, so a pool can send these to forked workers by reference
def _logged_chunk(args):
    lo = args[0]
    (_chunk_log / str(lo)).touch()
    if lo > _FAILING_LO:
        time.sleep(0.05)  # later chunks are slow, so a pool still running them shows
    return _real_scan_chunk(args)


def _fail_third_chunk(args):
    if args[0] == _FAILING_LO:
        (_chunk_log / str(args[0])).touch()
        raise RuntimeError("injected worker failure")
    return _logged_chunk(args)


def _first_pair_falls_back(args):
    part = _real_scan_chunk(args)
    part.fallback[:1] = True
    return part


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


def test_partitioned_scan_checkpoint_failure_two_workers(monkeypatch, tmp_path):
    ckpt = str(tmp_path / "scan.ckpt.npz")
    log = tmp_path / "chunks"
    log.mkdir()
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", log)
    monkeypatch.setattr(sweeps, "_scan_chunk", _logged_chunk)
    real_save = verify_mod._save_checkpoint

    def failing_save(path, params, next_lo, acc):
        if next_lo > _FAILING_LO:  # the third chunk's checkpoint write
            raise OSError("injected checkpoint failure")
        real_save(path, params, next_lo, acc)

    monkeypatch.setattr(verify_mod, "_save_checkpoint", failing_save)
    report = partitioned_scan(400_000, 2, chunk=10_000, checkpoint=ckpt)
    assert report.aborted
    assert "OSError: injected checkpoint failure" in report.details["error"]
    assert report.details["completed_hi"] == 30_002
    assert os.path.exists(ckpt)
    # a failing on_chunk callback cancels the queued chunks, as a failing chunk does
    started = len(list(log.iterdir()))
    assert 3 <= started < 20


def test_callback_failure_cancels_queued_chunks_of_callers_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", tmp_path)
    monkeypatch.setattr(sweeps, "_scan_chunk", _logged_chunk)

    def fail_third(part):
        if part.lo == _FAILING_LO:
            raise OSError("injected callback failure")

    with ProcessPoolExecutor(max_workers=2) as pool:
        # excinfo keeps the traceback, and with it the sweep's map iterator,
        # alive until the pool shuts down: only an explicit cancel stops the
        # queued chunks
        with pytest.raises(OSError, match="injected callback failure") as excinfo:
            scan_twin_range(3, 400_000, chunk=10_000, workers=2, executor=pool,
                            on_chunk=fail_third)
    started = len(list(tmp_path.iterdir()))
    assert 3 <= started < 20


def test_checkpoint_resume(tmp_path, monkeypatch):
    ckpt = str(tmp_path / "scan.ckpt.npz")
    # every chunk sends its first pair to the fallback, so the fallback
    # column must survive the checkpoint (the real stragglers cost seconds)
    monkeypatch.setattr(sweeps, "_scan_chunk", _first_pair_falls_back)
    kwargs = dict(chunk=20_000, corollary_check=True)
    fresh = partitioned_scan(60_000, 1, **kwargs)
    assert fresh.details["fallback_pairs"] == 3

    # abort after the first chunk, leaving a checkpoint behind
    started = []

    def flaky(args):
        started.append(args[0])
        if len(started) > 1:
            raise RuntimeError("boom")
        return _first_pair_falls_back(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", flaky)
    partial = partitioned_scan(60_000, 1, checkpoint=ckpt, **kwargs)
    assert partial.aborted
    assert os.path.exists(ckpt)

    def recorded(args):
        started.append(args[0])
        return _first_pair_falls_back(args)

    started.clear()
    monkeypatch.setattr(sweeps, "_scan_chunk", recorded)
    resumed = partitioned_scan(60_000, 1, checkpoint=ckpt, **kwargs)
    assert started == [20_003, 40_003]  # the first chunk came from the checkpoint
    assert not resumed.aborted
    assert resumed.details == fresh.details
    for f in dataclasses.fields(TwinScanResult):
        assert np.array_equal(getattr(resumed.result, f.name),
                              getattr(fresh.result, f.name)), f.name
    assert not os.path.exists(ckpt)  # removed after a clean finish


@pytest.mark.parametrize("chunk", [0, -1])
def test_chunk_below_one_is_rejected(chunk):
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        scan_twin_range(3, 100, chunk=chunk)
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        partitioned_scan(100, 1, chunk=chunk)


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
