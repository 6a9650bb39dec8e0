import builtins
import dataclasses
import json
import os
import sys
import tempfile
import time
import weakref

import numpy as np
import pytest

import twinconst.sweeps as sweeps
import twinconst.verify as verify_mod
from twinconst import primes
from twinconst.hseq import NotMergedWithin, pair_trace
from twinconst.sweeps import scan_twin_range
from twinconst.verify import ALLOWED_M_VALUES, partitioned_scan, probe_conjecture1

C_PREFIX = [3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789, 3527, 3917]

_real_scan_chunk = sweeps._scan_chunk
_FAILING_LO = 20_003  # the third 10_000-value chunk
_KILLED_LO = 30_003  # the fourth, a child's on two workers
_chunk_log = None  # directory where the chunk functions below record each chunk they start
_caller = None  # the test process's pid, for _killed_in_child


def _no_child_left():
    """Every process a sweep forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# forked sweep workers find these through sweeps._scan_chunk, set before the fork
def _logged_chunk(args):
    lo = args[0]
    (_chunk_log / str(lo)).touch()
    if lo > _FAILING_LO:
        time.sleep(0.05)  # later chunks are slow, so a worker still running them shows
    return _real_scan_chunk(args)


def _killed_in_child(args):
    if args[0] == _KILLED_LO and os.getpid() != _caller:
        os._exit(3)
    return _real_scan_chunk(args)


def _fail_third_chunk(args):
    if args[0] == _FAILING_LO:
        (_chunk_log / str(args[0])).touch()
        raise RuntimeError("injected worker failure")
    return _logged_chunk(args)


_plants = []  # (column, lesser p, new value or None to flip) for _planted_chunk


def _planted_chunk(args):
    part = _real_scan_chunk(args)
    for column, p, value in _plants:
        i = int(np.searchsorted(part.ps, p))
        if i < part.ps.size and part.ps[i] == p:
            col = getattr(part, column)
            col[i] = (not col[i]) if value is None else value
    return part


def _first_pair_falls_back(args):
    part = _real_scan_chunk(args)
    part.fallback[:1] = True
    return part


def test_theorem1_small_range():
    report = partitioned_scan(4000)
    assert report.verified
    assert not report.counterexamples
    assert report.details["c_prefix"] == C_PREFIX


def test_theorem1_trivial_range():
    report = partitioned_scan(10)
    assert report.verified
    assert report.pairs_examined == 2  # twins 3 and 5


def test_theorem1_rare_residue():
    report = partitioned_scan(200_000)
    assert report.verified
    assert report.details["c_mod10_eq_1"] == [11, 165701]


def test_theorem2_value_set():
    report = partitioned_scan(500)
    assert report.verified
    observed = set(report.details["first_occurrence"])
    assert observed <= ALLOWED_M_VALUES
    assert {0, 13, 9, 11, 5, 3, 15, 7} <= observed


def test_theorem2_tiny_range():
    report = partitioned_scan(10)
    assert set(report.details["first_occurrence"]) == {0, 13}


def test_theorem2_first_occurrences_reported():
    report = partitioned_scan(2_000)
    first = report.details["first_occurrence"]
    assert first[0] == 3
    assert first[13] == 5
    assert all(m in ALLOWED_M_VALUES for m in first)


def test_corollaries():
    report = partitioned_scan(10_000)
    assert report.verified
    assert report.details["min_max_diff_excluding_p3"] == 6
    # 12th twin pair (p=149) is the first with m=15
    assert report.details["count_m15"] >= 1
    assert report.m_value_histogram.get(15, 0) >= 1


@pytest.mark.parametrize("limit", [-5, 2, 3])
def test_corollaries_p3_check_needs_p3_in_range(limit):
    # below 3 no pair is scanned, so there is no max_diff 4 at p = 3 to miss
    report = partitioned_scan(limit)
    assert report.verified, report.counterexamples
    assert report.pairs_examined == (limit >= 3)


def test_corollaries_aborted_before_p3_has_no_p3_counterexample(monkeypatch):
    # the completed prefix stops at 2, so p = 3 was never scanned
    def failing(args):
        raise RuntimeError("injected worker failure")

    monkeypatch.setattr(sweeps, "_scan_chunk", failing)
    report = partitioned_scan(10_000)
    assert report.aborted and report.details["completed_hi"] == 2
    assert report.counterexamples == []


def test_corollaries_pattern_equivalence_range():
    report = partitioned_scan(200_000)
    assert report.verified
    assert report.details["count_m17_outside_mod30_29"] == 0
    assert report.details["count_m15_outside_mod30_29"] == 0


def test_partitioned_scan_finishes_every_campaign(monkeypatch):
    # p = 3 planted with max_diff 6: the fold of the chunk that holds p = 3
    # reports it, with replay traces, as Corollary 1's counterexample
    from twinconst.hseq import h_sequence

    monkeypatch.setattr(sys.modules[__name__], "_plants", [("max_diff", 3, 6)])
    monkeypatch.setattr(sweeps, "_scan_chunk", _planted_chunk)
    report = partitioned_scan(10_000)
    assert [(ce["p"], ce["expected"], ce["observed"]) for ce in report.counterexamples] == [
        (3, "max_diff == 4", 6)]
    ce = report.counterexamples[0]
    assert ce["upper_trace"] == list(h_sequence(5, 40))
    assert ce["lower_trace"] == list(h_sequence(3, 40))
    # 100-value chunks fold m values out of order: 0 and 13 come first
    monkeypatch.setattr(sweeps, "CHUNK", 100)
    report = partitioned_scan(2_000)
    first = report.details["first_occurrence"]
    assert list(first) == sorted(first)
    assert len(first) > 3


def test_probe_conjecture1_published_positions():
    report = probe_conjecture1(5, 10_000)
    assert report.details["adjacent_merges"] == [
        (5, 3, 11), (7, 5, 47), (11, 7, 11), (13, 11, 17)]
    assert report.details["unmerged"] == []
    assert report.pairs_examined == 10 and report.hi == 13
    assert report.verified


def test_probe_conjecture1_683_family():
    report = probe_conjecture1(6, 10_000)
    assert report.details["adjacent_merges"][-1] == (17, 13, 683)


def test_probe_conjecture1_adjacent_merges_match_oracle():
    # among the first 40 odd primes, (163, 157) merges at 390703: past 7000
    k, bound = 40, 7000
    report = probe_conjecture1(k, bound)
    adjacent = report.details["adjacent_merges"]
    ps = primes.consecutive_primes_from(3, k)
    assert [(a, b) for a, b, _ in adjacent] == list(zip(ps[1:], ps))
    for a, b, n in adjacent:
        pos = pair_trace(a, b, bound=bound).merge_index
        assert n == (None if isinstance(pos, NotMergedWithin) else pos), (a, b)
    assert report.details["unmerged"] == [(163, 157)]
    assert not report.verified  # an open adjacent pair leaves the conjecture unverified
    assert report.pairs_examined == k * (k - 1) // 2 and report.hi == ps[-1]
    # every pair's merge is the largest adjacent merge between its starts
    merges = [bound + 1 if n is None else n for _, _, n in adjacent]
    want = [(a, b, None if n > bound else n)
            for i, a in enumerate(ps) for j, b in enumerate(ps[:i])
            for n in [max(merges[j:i])]]
    assert sweeps.prime_pair_merges(len(want), bound) == want


def _report_lines(report):
    """The lines of the report's file, less this run's wall time."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        dataclasses.replace(report, wall_time=0.0).write(path)
        with open(path) as fh:
            return fh.read().splitlines()


def test_partitioned_scan_worker_invariance(monkeypatch):
    # per-pair columns are compared across worker counts by
    # prop_checks.run_parallel_determinism
    with monkeypatch.context() as m:
        m.setattr(sweeps, "CHUNK", 30_000)
        r1 = partitioned_scan(3 * 10**5, 1)
        r4 = partitioned_scan(3 * 10**5, 4)
    one_chunk = partitioned_scan(3 * 10**5, 1)
    # c_prefix fills up (50 terms) in the seventh chunk
    assert r1.details["c_count"] > 50
    assert _report_lines(r1) == _report_lines(r4) == _report_lines(one_chunk)
    assert r1.details == r4.details == one_chunk.details


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
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    report = partitioned_scan(50_000, 1)
    assert report.aborted
    assert not report.verified
    assert "injected worker failure" in report.details["error"]
    assert report.details["completed_hi"] == 20_002  # two chunks finished


def test_partitioned_scan_worker_failure_two_workers(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", tmp_path)
    monkeypatch.setattr(sweeps, "_scan_chunk", _fail_third_chunk)
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    report = partitioned_scan(400_000, 2)
    assert report.aborted
    assert not report.verified
    assert "injected worker failure" in report.details["error"]
    assert report.details["completed_hi"] == 20_002
    # the failing third chunk is the caller's own; of the 40 chunks, only
    # those a worker had already started may have run
    started = len(list(tmp_path.iterdir()))
    assert 3 <= started < 20
    _no_child_left()


def test_partitioned_scan_checkpoint_failure_two_workers(monkeypatch, tmp_path):
    ckpt = str(tmp_path / "scan.ckpt")
    log = tmp_path / "chunks"
    log.mkdir()
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", log)
    monkeypatch.setattr(sweeps, "_scan_chunk", _logged_chunk)
    real_save = verify_mod._save_checkpoint

    def failing_save(path, params, next_lo, state):
        if next_lo > _FAILING_LO:  # the third chunk's checkpoint write
            raise OSError("injected checkpoint failure")
        real_save(path, params, next_lo, state)

    monkeypatch.setattr(verify_mod, "_save_checkpoint", failing_save)
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    monkeypatch.setattr(verify_mod, "CHECKPOINT_SPAN", 10_000)  # a write per chunk
    report = partitioned_scan(400_000, 2, checkpoint=ckpt)
    assert report.aborted
    assert "OSError: injected checkpoint failure" in report.details["error"]
    assert report.details["completed_hi"] == 30_002
    assert os.path.exists(ckpt)
    # a failing on_chunk callback stops the later chunks, as a failing chunk does
    started = len(list(log.iterdir()))
    assert 3 <= started < 20
    _no_child_left()


def test_callback_failure_stops_the_forked_chunks(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", tmp_path)
    monkeypatch.setattr(sweeps, "_scan_chunk", _logged_chunk)
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)

    def fail_third(part):
        if part.lo == _FAILING_LO:
            raise OSError("injected callback failure")

    # excinfo keeps the traceback, and with it the sweep's generator, alive:
    # the sweep itself must stop and reap its workers
    with pytest.raises(OSError, match="injected callback failure") as excinfo:
        scan_twin_range(3, 400_000, workers=2, on_chunk=fail_third)
    _no_child_left()
    started = len(list(tmp_path.iterdir()))
    assert 3 <= started < 20


def test_forked_scan_bounds_the_chunks_in_flight(monkeypatch, tmp_path):
    # every worker logs each chunk as it starts it, and on_chunk is slow, so
    # children free to run ahead would; each is one chunk ahead at most
    monkeypatch.setattr(sweeps, "_scan_chunk", _logged_chunk)
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    for workers in (2, 3):
        log = tmp_path / str(workers)
        log.mkdir()
        monkeypatch.setattr(sys.modules[__name__], "_chunk_log", log)
        taken, ahead = [], []

        def take(part):
            time.sleep(0.005)
            taken.append(part.lo)
            ahead.append(len(list(log.iterdir())) - len(taken))

        scan_twin_range(3, 200_000, workers=workers, on_chunk=take)
        assert taken == [3 + 10_000 * i for i in range(20)]
        assert 1 <= max(ahead) <= workers - 1, (workers, ahead)
        _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_failing_chunk_is_raised_at_its_turn_and_reaps_the_workers(monkeypatch, tmp_path,
                                                                   workers):
    # the failing third chunk is the caller's own at 2 workers, a child's at 3
    monkeypatch.setattr(sys.modules[__name__], "_chunk_log", tmp_path)
    monkeypatch.setattr(sweeps, "_scan_chunk", _fail_third_chunk)
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    taken = []
    with pytest.raises(RuntimeError, match="injected worker failure"):
        scan_twin_range(3, 400_000, workers=workers, on_chunk=taken.append)
    assert [part.lo for part in taken] == [3, 10_003]
    _no_child_left()


def test_killed_worker_aborts_the_campaign(monkeypatch):
    # the fourth chunk's child exits without sending it: the campaign reports
    # the three chunks before it, and names the worker and the chunk
    monkeypatch.setattr(sys.modules[__name__], "_caller", os.getpid())
    monkeypatch.setattr(sweeps, "_scan_chunk", _killed_in_child)
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    report = partitioned_scan(100_000, 2)
    assert report.aborted and not report.verified
    assert len(forked) == 1
    assert report.details["error"] == (f"RuntimeError: sweep worker {forked[0]} died "
                                       f"before sending the chunk at {_KILLED_LO}")
    assert report.details["completed_hi"] == _KILLED_LO - 1
    assert report.pairs_examined == partitioned_scan(30_002).pairs_examined
    _no_child_left()


def test_checkpoint_resume(tmp_path, monkeypatch):
    ckpt = str(tmp_path / "scan.ckpt")
    # every chunk sends its first pair to the fallback, so the fallback
    # count must survive the checkpoint (the real stragglers cost seconds)
    monkeypatch.setattr(sweeps, "_scan_chunk", _first_pair_falls_back)
    monkeypatch.setattr(sweeps, "CHUNK", 20_000)
    monkeypatch.setattr(verify_mod, "CHECKPOINT_SPAN", 20_000)  # a write per chunk
    fresh = partitioned_scan(60_000, 1)
    assert fresh.details["fallback_pairs"] == 3

    # abort after the first chunk, leaving a checkpoint behind
    started = []

    def flaky(args):
        started.append(args[0])
        if len(started) > 1:
            raise RuntimeError("boom")
        return _first_pair_falls_back(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", flaky)
    partial = partitioned_scan(60_000, 1, checkpoint=ckpt)
    assert partial.aborted
    assert os.path.exists(ckpt)

    def recorded(args):
        started.append(args[0])
        return _first_pair_falls_back(args)

    started.clear()
    monkeypatch.setattr(sweeps, "_scan_chunk", recorded)
    resumed = partitioned_scan(60_000, 1, checkpoint=ckpt)
    assert started == [20_003, 40_003]  # the first chunk came from the checkpoint
    assert not resumed.aborted
    assert resumed.details == fresh.details
    assert _report_lines(resumed) == _report_lines(fresh)
    assert not os.path.exists(ckpt)  # removed after a clean finish


def test_scan_keeps_no_chunk_it_hands_to_on_chunk(monkeypatch):
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    refs = []

    def on_chunk(part):
        assert all(ref() is None for ref in refs)  # the earlier chunks are gone
        refs.append(weakref.ref(part))

    assert scan_twin_range(3, 30_000, on_chunk=on_chunk) is None
    assert len(refs) == 3
    assert all(ref() is None for ref in refs)


def test_checkpoint_param_mismatch_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    ckpt = str(tmp_path / "scan.ckpt")
    partial_params_scan = partitioned_scan(30_000, 1, checkpoint=ckpt)
    # finished cleanly, so no checkpoint left; write one then change params
    from twinconst.verify import _save_checkpoint
    _save_checkpoint(ckpt, {"limit": 999}, 10_000, None)
    report = partitioned_scan(30_000, 1, checkpoint=ckpt)
    assert report.pairs_examined == partial_params_scan.pairs_examined


def test_report_1e6_pinned():
    # every claim's figures at 10^6, as one report states them
    report = partitioned_scan(10**6, 2)
    assert report.verified and report.pairs_examined == 8169  # pi_2(10^6), A007508
    assert report.m_value_histogram == {0: 115, 3: 5515, 5: 1741, 7: 608, 9: 17,
                                        11: 135, 13: 29, 15: 3, 17: 6}
    d = report.details
    assert d["c_count"] == 115 and d["c_mod10_eq_1"] == [11, 165701]
    assert d["first_occurrence"] == {0: 3, 3: 137, 5: 107, 7: 191, 9: 41, 11: 71,
                                     13: 5, 15: 149, 17: 30089}
    assert list(d["first_occurrence"]) == sorted(ALLOWED_M_VALUES)
    assert (d["count_m17"], d["count_m15"]) == (6, 3)
    assert d["count_m17_outside_mod30_29"] == d["count_m15_outside_mod30_29"] == 0
    assert d["min_max_diff_excluding_p3"] == 6


def test_report_serialization(tmp_path):
    report = partitioned_scan(2_000)
    text = report.to_text()
    assert text.startswith("campaign: claims\n")
    assert "counterexamples: 0" in text
    assert "m_histogram: 0:" in text
    path = tmp_path / "report.txt"
    report.write(str(path))
    assert path.read_text() == text  # no counterexample lines


PLANT_LIMIT = 2_200_000  # three default-size chunks; plants sit in the first and third


_M_SET = "m in {0,3,5,7,9,11,13,15,17}"
PLANTS = {
    "classifier": [("predicted", 500_111, None), ("predicted", 514_637, None),
                   ("predicted", 2_097_257, None)],
    _M_SET: [("m", 500_177, 4), ("m", 2_097_287, 4)],
    # both lessers are 30t+29 with m = 3
    "pattern": [("cor17", 500_909, None), ("cor15", 2_097_449, None)],
    "max_diff >= 6": [("max_diff", 500_231, 4), ("max_diff", 2_097_479, 4)],
}
PLANTED = pytest.mark.parametrize("plants, expected", [
    (plants, expected) for expected, plants in PLANTS.items()
], ids=["t1-predicted", "t2-m", "cor-pattern", "cor-max-diff"])


@PLANTED
def test_planted_counterexamples(monkeypatch, plants, expected):
    from twinconst.hseq import h_sequence

    monkeypatch.setattr(sys.modules[__name__], "_plants", plants)
    monkeypatch.setattr(sweeps, "_scan_chunk", _planted_chunk)
    reports = [partitioned_scan(PLANT_LIMIT, workers) for workers in (1, 2)]
    planted = sorted(p for _, p, _ in plants)
    for report in reports:
        assert not report.verified
        with_p = [ce for ce in report.counterexamples if "p" in ce]
        assert sorted(ce["p"] for ce in with_p) == planted
        for ce in with_p:
            p = ce["p"]
            assert list(h_sequence(p + 2, 40)) == ce["upper_trace"]
            assert list(h_sequence(p, 40)) == ce["lower_trace"]
        if expected == "classifier":
            assert all(ce["expected"] != ce["observed"] for ce in with_p)
        elif expected == "pattern":
            assert all(ce["observed"]["m"] == 3 and ce["observed"]["pattern"]
                       for ce in with_p)
            assert [ce["expected"] for ce in with_p] == [
                "m==17 iff pattern(17)", "m==15 iff pattern(15)"]
        else:
            assert all(ce["expected"] == expected and ce["observed"] == 4
                       for ce in with_p)
        assert len(with_p) == len(report.counterexamples)
        if expected == "max_diff >= 6":
            assert report.details["min_max_diff_excluding_p3"] == 4
        if expected == _M_SET:
            assert report.details["first_occurrence"][4] == planted[0]
        # the report file: the text, then one line per counterexample
        lines = _report_lines(report)
        text = dataclasses.replace(report, wall_time=0.0).to_text().splitlines()
        assert lines[: len(text)] == text
        assert [line.partition("\t") for line in lines[len(text):]] == [
            ("counterexample", "\t", json.dumps(ce)) for ce in report.counterexamples]
    assert _report_lines(reports[0]) == _report_lines(reports[1])


@PLANTED
def test_resumed_campaign_matches_uninterrupted(tmp_path, monkeypatch, plants, expected):
    ckpt = str(tmp_path / "campaign.ckpt")
    monkeypatch.setattr(sys.modules[__name__], "_plants", plants)
    monkeypatch.setattr(sweeps, "_scan_chunk", _planted_chunk)
    monkeypatch.setattr(verify_mod, "CHECKPOINT_SPAN", sweeps.CHUNK)  # a write per chunk
    fresh = partitioned_scan(PLANT_LIMIT)
    started = []

    def abort_third(args):
        started.append(args[0])
        if len(started) == 3:
            raise RuntimeError("boom")
        return _planted_chunk(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", abort_third)
    partial = partitioned_scan(PLANT_LIMIT, checkpoint=ckpt)
    assert partial.aborted and os.path.exists(ckpt)
    started.clear()
    resumed = partitioned_scan(PLANT_LIMIT, checkpoint=ckpt)
    assert started == [2 * sweeps.CHUNK + 3]  # two chunks came from the checkpoint
    assert _report_lines(resumed) == _report_lines(fresh)
    assert resumed.counterexamples == fresh.counterexamples
    # JSON keys are strings; the int-keyed maps come back with int keys
    maps = [resumed.m_value_histogram, resumed.residue_counts,
            resumed.details["first_occurrence"]]
    for counts in maps:
        assert counts and all(type(k) is int for k in counts)
    assert not os.path.exists(ckpt)


def test_one_sweep_reports_every_kind_of_planted_counterexample(monkeypatch):
    plants = [plant for kind in PLANTS.values() for plant in kind]
    monkeypatch.setattr(sys.modules[__name__], "_plants", plants)
    monkeypatch.setattr(sweeps, "_scan_chunk", _planted_chunk)
    report = partitioned_scan(PLANT_LIMIT, 2)
    assert not report.verified
    with_p = [ce for ce in report.counterexamples if "p" in ce]
    assert sorted(ce["p"] for ce in with_p) == sorted(p for _, p, _ in plants)
    assert len(report.counterexamples) == len(with_p)


def test_checkpoint_cadence_and_resume_between_writes(tmp_path, monkeypatch):
    ckpt = str(tmp_path / "scan.ckpt")
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    monkeypatch.setattr(verify_mod, "CHECKPOINT_SPAN", 25_000)
    fresh = partitioned_scan(100_000, 1)
    writes = []
    real_save = verify_mod._save_checkpoint

    def recorded_save(path, params, next_lo, state):
        writes.append(next_lo)
        real_save(path, params, next_lo, state)

    monkeypatch.setattr(verify_mod, "_save_checkpoint", recorded_save)
    # chunks end at 10_002, 20_002, ...: a write once 25_000 values have
    # passed since the last, and none for the last chunk, whose clean
    # finish removes the checkpoint
    assert _report_lines(partitioned_scan(100_000, 1, checkpoint=ckpt)) == _report_lines(fresh)
    assert writes == [30_003, 60_003, 90_003]
    assert not os.path.exists(ckpt)

    # abort in the fifth chunk, after the first write and before the second
    writes.clear()

    def abort_fifth(args):
        if args[0] == 40_003:
            raise RuntimeError("boom")
        return _real_scan_chunk(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", abort_fifth)
    partial = partitioned_scan(100_000, 1, checkpoint=ckpt)
    assert partial.aborted and partial.details["completed_hi"] == 40_002
    assert writes == [30_003]
    started = []

    def recorded(args):
        started.append(args[0])
        return _real_scan_chunk(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", recorded)
    writes.clear()
    resumed = partitioned_scan(100_000, 1, checkpoint=ckpt)
    assert started == list(range(30_003, 100_000, 10_000))
    # the span counts from the resumed write: 60_002 is 30_000 values past it
    assert writes == [60_003, 90_003]
    assert _report_lines(resumed) == _report_lines(fresh)
    assert not os.path.exists(ckpt)


def test_last_checkpoint_holds_the_finished_report(tmp_path, monkeypatch):
    # the fold decides every claim, so the state the last chunk saves is the
    # state of the report that partitioned_scan returns
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    monkeypatch.setattr(verify_mod, "CHECKPOINT_SPAN", 10_000)  # a write per chunk
    writes = []
    real_save = verify_mod._save_checkpoint

    def recorded_save(path, params, next_lo, state):
        writes.append(json.dumps(state))
        real_save(path, params, next_lo, state)

    monkeypatch.setattr(verify_mod, "_save_checkpoint", recorded_save)
    report = partitioned_scan(30_002, checkpoint=str(tmp_path / "scan.ckpt"))
    assert len(writes) == 3
    assert writes[-1] == json.dumps({n: getattr(report, n) for n in verify_mod._STATE_FIELDS})


def _v2_npz_checkpoint(path):
    meta = {"version": 2, "params": {}, "next_lo": 10_003, "have": ["ps"]}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), ps=np.array([3, 5]))


def _directory(path):
    path.mkdir()
    (path / "kept").write_text("not ours")


def _contents(path):
    if path.is_dir():
        return {p.name: p.read_bytes() for p in path.iterdir()}
    return path.read_bytes()


@pytest.mark.parametrize("write", [
    lambda path: path.write_bytes(b"\x00\xffnot a checkpoint\n"),
    lambda path: path.write_text("[1, 2, 3]"),
    lambda path: path.write_text(json.dumps({"version": verify_mod.CHECKPOINT_VERSION})),
    _v2_npz_checkpoint,
    _directory,
], ids=["garbage", "json-list", "json-without-params", "v2-npz", "directory"])
def test_checkpoint_that_is_not_one_is_rejected(tmp_path, capsys, monkeypatch, write):
    from twinconst.cli import main

    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    ckpt = tmp_path / "scan.ckpt"
    write(ckpt)
    before = _contents(ckpt)
    with pytest.raises(ValueError, match="not a JSON checkpoint") as excinfo:
        partitioned_scan(30_000, 1, checkpoint=str(ckpt))
    assert str(ckpt) in str(excinfo.value)
    report = tmp_path / "t1.report"
    code = main(["verify", "t1", "--limit", "30000", "--checkpoint", str(ckpt),
                 "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and f"error: {ckpt}: not a JSON checkpoint" in err
    assert _contents(ckpt) == before
    assert not report.exists()


def test_unwritable_checkpoint_is_rejected_before_any_sieving(tmp_path, capsys, monkeypatch):
    from twinconst.cli import main

    def no_chunk(args):
        raise AssertionError("a chunk was scanned")

    monkeypatch.setattr(sweeps, "_scan_chunk", no_chunk)
    ckpt = tmp_path / "missing" / "scan.ckpt"
    with pytest.raises(ValueError, match="not a writable directory") as excinfo:
        partitioned_scan(30_000, 1, checkpoint=str(ckpt))
    assert str(ckpt) in str(excinfo.value)
    report = tmp_path / "t1.report"
    code = main(["verify", "t1", "--limit", "30000", "--checkpoint", str(ckpt),
                 "--report", str(report)])
    assert code == 2 and f"error: {ckpt}: " in capsys.readouterr().err
    assert not report.exists() and not ckpt.parent.exists()


def test_unreadable_checkpoint_is_an_argument_error(tmp_path, capsys, monkeypatch):
    # a checkpoint file that open refuses, as one without read permission
    # is, ends the campaign with exit 2 before anything is sieved
    from twinconst.cli import main

    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text("{}")
    real_open = builtins.open

    def guarded_open(file, *args, **kwargs):
        if str(file) == str(ckpt):
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    def no_sieve(lo, hi):
        raise AssertionError("sieved before the checkpoint was read")

    monkeypatch.setattr(builtins, "open", guarded_open)
    monkeypatch.setattr(primes, "sieve_segment", no_sieve)
    report = tmp_path / "t1.report"
    code = main(["verify", "t1", "--limit", "30000", "--checkpoint", str(ckpt),
                 "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and f"error: {ckpt}: not a JSON checkpoint (PermissionError" in err
    assert ckpt.read_text() == "{}" and not report.exists()


_PARAMS = {"limit": 30_000}
_STATE = {"pairs_examined": 10**6, "counterexamples": [], "m_value_histogram": {},
          "residue_counts": {}, "details": {}}


def test_checkpoint_of_another_version_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    ckpt = tmp_path / "scan.ckpt"
    fresh = partitioned_scan(30_000, 1)
    for version in (2, verify_mod.CHECKPOINT_VERSION - 1):
        ckpt.write_text(json.dumps({"version": version, "params": _PARAMS,
                                    "next_lo": 20_003, "state": _STATE}))
        report = partitioned_scan(30_000, 1, checkpoint=str(ckpt))
        assert _report_lines(report) == _report_lines(fresh), version
        assert not ckpt.exists()


def test_checkpoint_with_sweep_options_in_params_is_ignored(tmp_path, monkeypatch):
    # params once also held the campaign and its sweep options, which one
    # campaign of every claim now implies, and the chunk, which is now the
    # constant sweeps.CHUNK
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    ckpt = tmp_path / "scan.ckpt"
    fresh = partitioned_scan(30_000, 1)
    old = {**_PARAMS, "campaign": "theorem1", "chunk": 10_000}
    for params in ({**old, "predict": True, "corollary_check": False}, old):
        ckpt.write_text(json.dumps({"version": verify_mod.CHECKPOINT_VERSION,
                                    "params": params, "next_lo": 20_003, "state": _STATE}))
        report = partitioned_scan(30_000, 1, checkpoint=str(ckpt))
        assert _report_lines(report) == _report_lines(fresh), params
        assert not ckpt.exists()


@pytest.mark.parametrize("campaign", ["theorem1", "theorem2", "corollaries", "scan"])
def test_checkpoint_of_one_claim_campaign_is_ignored(tmp_path, monkeypatch, campaign):
    # a version 3 checkpoint named its campaign in params and held only that
    # campaign's details: the whole range is scanned again
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    ckpt = tmp_path / "scan.ckpt"
    fresh = partitioned_scan(30_000, 1)
    state = {**_STATE, "details": {"fallback_pairs": 0}}
    ckpt.write_text(json.dumps({"version": 3, "params": {**_PARAMS, "campaign": campaign},
                                "next_lo": 20_003, "state": state}))
    started = []

    def recorded(args):
        started.append(args[0])
        return _real_scan_chunk(args)

    monkeypatch.setattr(sweeps, "_scan_chunk", recorded)
    report = partitioned_scan(30_000, 1, checkpoint=str(ckpt))
    assert started == [3, 10_003, 20_003]
    assert _report_lines(report) == _report_lines(fresh)
    assert not ckpt.exists()


def test_checkpoint_without_report_state_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    ckpt = tmp_path / "scan.ckpt"
    state = {k: v for k, v in _STATE.items() if k != "details"}
    ckpt.write_text(json.dumps({"version": verify_mod.CHECKPOINT_VERSION,
                                "params": _PARAMS, "next_lo": 20_003, "state": state}))
    with pytest.raises(ValueError, match="not a JSON checkpoint"):
        partitioned_scan(30_000, 1, checkpoint=str(ckpt))


@pytest.mark.parametrize("extra", [None, "extra"], ids=["empty-details", "extra-key"])
def test_checkpoint_whose_details_differ_is_rejected(tmp_path, capsys, monkeypatch, extra):
    # details with keys other than a new report's would fail the first fold:
    # the file is no checkpoint, refused before anything is sieved
    from twinconst.cli import main

    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    details = {} if extra is None else {**partitioned_scan(30_000).details, extra: 0}

    def no_sieve(lo, hi):
        raise AssertionError("sieved before the checkpoint was read")

    monkeypatch.setattr(primes, "sieve_segment", no_sieve)
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text(json.dumps({"version": verify_mod.CHECKPOINT_VERSION, "params": _PARAMS,
                                "next_lo": 20_003, "state": {**_STATE, "details": details}}))
    before = ckpt.read_bytes()
    report = tmp_path / "t1.report"
    code = main(["verify", "t1", "--limit", "30000", "--checkpoint", str(ckpt),
                 "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and f"error: {ckpt}: not a JSON checkpoint" in err
    assert ckpt.read_bytes() == before and not report.exists()


@pytest.mark.parametrize("field, key, value", [
    ("details", "c_prefix", 5),
    ("details", "first_occurrence", []),
    ("details", "count_m17", True),
    ("details", "min_max_diff_excluding_p3", "6"),
    ("pairs_examined", None, 10.0),
    ("m_value_histogram", None, [[3, 1]]),
    ("m_value_histogram", 3, "1"),
    ("m_value_histogram", 3, True),
    ("residue_counts", "x", 1),
    ("details", "c_prefix", [3, 11.0]),
    ("details", "c_mod10_eq_1", [None]),
    ("details", "first_occurrence", {"3": "137"}),
], ids=["c_prefix-int", "first_occurrence-list", "count-bool", "min-str",
        "pairs-float", "histogram-list", "histogram-count-str", "histogram-count-bool",
        "residue-key-str", "c_prefix-float", "c_mod10-null", "first_occurrence-str"])
def test_checkpoint_whose_value_types_differ_is_rejected(tmp_path, capsys, monkeypatch,
                                                         field, key, value):
    # a real report's state, resumable at 20_003, with one value, or one
    # element of a map or list, of another type: folding into it would fail
    # half-way through a chunk, or write a report that cannot be sorted, so
    # the file is no checkpoint, refused before anything is sieved
    from twinconst.cli import main

    monkeypatch.setattr(sweeps, "CHUNK", 10_000)
    state = {n: getattr(partitioned_scan(20_002), n) for n in verify_mod._STATE_FIELDS}
    assert isinstance(state["details"]["min_max_diff_excluding_p3"], int)
    if key is None:
        state[field] = value
    else:
        state[field][key] = value
    sieved = []
    monkeypatch.setattr(primes, "sieve_segment", lambda lo, hi: sieved.append(lo))
    ckpt = tmp_path / "scan.ckpt"
    ckpt.write_text(json.dumps({"version": verify_mod.CHECKPOINT_VERSION, "params": _PARAMS,
                                "next_lo": 20_003, "state": state}))
    before = ckpt.read_bytes()
    report = tmp_path / "t1.report"
    code = main(["verify", "t1", "--limit", "30000", "--checkpoint", str(ckpt),
                 "--report", str(report)])
    err = capsys.readouterr().err
    assert code == 2 and f"error: {ckpt}: not a JSON checkpoint" in err
    assert sieved == [] and ckpt.read_bytes() == before and not report.exists()


def test_planted_m_outside_mod30_29_is_counted_not_reported(monkeypatch):
    # the corollaries' equivalences are stated for 30t+29 lessers only
    plants = [("m", 500_111, 17), ("m", 2_097_257, 15)]  # lessers 30t+11 and 30t+17
    assert [p % 30 for _, p, _ in plants] == [11, 17]
    fresh = partitioned_scan(PLANT_LIMIT)
    monkeypatch.setattr(sys.modules[__name__], "_plants", plants)
    monkeypatch.setattr(sweeps, "_scan_chunk", _planted_chunk)
    report = partitioned_scan(PLANT_LIMIT)
    assert report.verified
    for m_val in (17, 15):
        assert report.details[f"count_m{m_val}"] == fresh.details[f"count_m{m_val}"] + 1
        assert report.details[f"count_m{m_val}_outside_mod30_29"] == 1
