import itertools
import os

import numpy as np
import pytest

from twinconst import cli
from twinconst.bfile import SequenceRecord, get_fixture
from twinconst.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hseq_terms(capsys):
    code, out, _ = run(capsys, "hseq", "--start", "3", "--n", "11")
    assert code == 0
    assert out.strip() == "3 5 6 7 8 11 12 14 15 17"


def test_hseq_bfile(capsys):
    code, out, _ = run(capsys, "hseq", "--start", "17", "--n", "10",
                       "--format", "bfile")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2 17"
    assert lines[-1] == "10 33"


def test_hseq_nonprime_start(capsys):
    # h_sequence's one check of the start refuses a composite start and 2
    for start in ("4", "2"):
        code, out, err = run(capsys, "hseq", "--start", start, "--n", "5")
        assert (code, out) == (2, "")
        assert err == f"error: start must be an odd prime >= 3, got {start}\n"
    # starts outside primality's range [0, 2^63] are argument errors too
    for start in ("-5", "9223372036854775809"):
        code, out, err = run(capsys, "hseq", "--start", start, "--n", "3")
        assert (code, out) == (2, "") and err.startswith("error: ")


def test_trace(capsys):
    code, out, _ = run(capsys, "trace", "5", "3")
    assert code == 0
    assert "merge=11" in out and "max_diff=4" in out and "m=0" in out

    code, out, _ = run(capsys, "trace", "7", "5")
    assert code == 0
    assert "merge=47" in out and "max_diff=14" in out and "m=13" in out

    code, out, _ = run(capsys, "trace", "19", "17")
    assert "max_diff=6" in out and "max_diff_at=5" in out


def test_trace_invalid_pair(capsys):
    code, _, err = run(capsys, "trace", "6", "3")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("5", "5"), "require a > b, got a=5 b=5"),
    (("5", "9"), "start must be an odd prime >= 3, got 9"),
    (("7", "5", "--threshold", "0"), "threshold must be >= 1, got 0"),
    (("7", "5", "--bound", "1"), "bound must be >= 2, got 1"),
])
def test_trace_argument_errors(capsys, argv, message):
    code, out, err = run(capsys, "trace", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_trace_long_walk(capsys):
    # 3467's traces merge after 841793 indices, far past the kernel's table
    code, out, _ = run(capsys, "trace", "3469", "3467")
    assert code == 0
    assert out == "merge=841793 max_diff=4546 max_diff_at=555109 m=3\n"


def test_trace_bound_exhausted(capsys):
    code, out, _ = run(capsys, "trace", "17", "3", "--bound", "100")
    assert code == 3
    assert "merge=none" in out


def test_scan_c(capsys):
    code, out, _ = run(capsys, "scan", "c", "--limit", "4000")
    assert code == 0
    assert out.strip() == ("3 11 17 29 59 227 269 1277 1289 1607 2129 2789 "
                           "3527 3917")


def test_scan_m(capsys):
    code, out, _ = run(capsys, "scan", "m", "--count", "23")
    assert code == 0
    assert out.strip() == "0 13 0 0 0 9 0 11 11 5 3 15 3 7 3 0 3 0 3 5 7 3 11"


def test_scan_maxdiff(capsys):
    code, out, _ = run(capsys, "scan", "maxdiff", "--count", "21")
    assert code == 0
    assert out.strip() == ("4 14 6 6 6 12 6 8 14 14 18 36 24 65 18 6 10 6 "
                           "84 14 162")


@pytest.mark.parametrize("count, bound", [(5, 3), (21, 100), (21, 10000)])
def test_scan_maxdiff_honours_bound(capsys, count, bound):
    # a pair that merges past bound has its max difference over 2..bound,
    # as the oracle reports it, and the scan exits 3; all of the first 21
    # pairs merge by index 5107, so bound 10^4 exits 0
    from twinconst import hseq, primes

    code, out, err = run(capsys, "scan", "maxdiff", "--count", str(count),
                         "--bound", str(bound))
    ps = list(itertools.islice(primes.twin_lessers(10**4), count))
    reps = [hseq.pair_trace(p + 2, p, bound=bound) for p in ps]
    assert [int(t) for t in out.split()] == [rep.max_diff for rep in reps]
    if bound == 10000:
        assert all(rep.merged for rep in reps) and (code, err) == (0, "")
    else:
        assert code == 3 and f"did not merge within bound {bound}" in err


@pytest.mark.parametrize("argv", [
    ["trace", "5", "3"], ["scan", "maxdiff"], ["scan", "merge"], ["verify", "conj1"]])
def test_every_bound_defaults_to_the_default_bound(argv):
    from twinconst.cli import build_parser
    from twinconst.hseq import DEFAULT_BOUND

    assert build_parser().parse_args(argv).bound == DEFAULT_BOUND


def test_scan_maxdiff_bound_below_two(capsys):
    code, out, err = run(capsys, "scan", "maxdiff", "--count", "3", "--bound", "1")
    assert code == 2
    assert out == "" and "bound must be >= 2, got 1" in err


def test_scan_merge(capsys):
    code, out, _ = run(capsys, "scan", "merge", "--count", "15")
    assert code == 0
    assert out.strip() == "11 47 47 47 47 11 47 47 17 17 683 683 683 683 683"


def test_scan_merge_bound_exhausted(capsys):
    code, out, err = run(capsys, "scan", "merge", "--count", "15",
                         "--bound", "100")
    assert code == 3
    assert "did not merge" in err


def test_scan_missing_arg(capsys):
    code, _, err = run(capsys, "scan", "c")
    assert code == 2
    code, _, err = run(capsys, "scan", "m")
    assert code == 2


@pytest.mark.parametrize("kind", ["m", "maxdiff", "merge"])
def test_scan_count_below_one(capsys, kind):
    code, out, err = run(capsys, "scan", kind, "--count", "0")
    assert code == 2
    assert out == "" and "--count must be >= 1" in err


def test_scan_merge_bound_below_two(capsys):
    code, out, err = run(capsys, "scan", "merge", "--count", "3", "--bound", "1")
    assert code == 2
    assert out == "" and "bound must be >= 2, got 1" in err


def test_scan_bfile_round_trip(capsys):
    code, out, _ = run(capsys, "scan", "c", "--limit", "100",
                       "--format", "bfile")
    assert code == 0
    assert out == "1 3\n2 11\n3 17\n4 29\n5 59\n"


def test_verify_t1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "t1", "--limit", "50000")
    assert code == 0
    assert "verified: True" in out
    assert (tmp_path / "twinconst-t1.report").exists()


def test_verify_t2_report_path(tmp_path, capsys):
    report = tmp_path / "t2.report"
    code, out, _ = run(capsys, "verify", "t2", "--limit", "10000",
                       "--report", str(report))
    assert code == 0
    assert report.exists()
    assert "m_histogram" in report.read_text()


def test_verify_cor(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "cor", "--limit", "10000")
    assert code == 0
    code, out, _ = run(capsys, "verify", "cor", "--limit", "2")
    assert code == 0 and "pairs_examined: 0" in out


def test_verify_conj1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "conj1", "--primes", "5",
                       "--bound", "10000")
    assert code == 0
    assert "conjecture1" in out


def test_verify_conj1_bound_exhausted(tmp_path, capsys):
    # 3 odd primes, bound 5: (5, 3) merges at 11 and (7, 5) at 47
    report = tmp_path / "conj1.report"
    code, out, err = run(capsys, "verify", "conj1", "--primes", "3", "--bound", "5",
                         "--report", str(report))
    assert code == 3
    assert "did not merge within bound 5" in err
    assert "unmerged: [(5, 3), (7, 5)]\n" in out
    assert "verified: False\n" in out
    assert report.read_text() == out[: out.index("report: ")]


@pytest.mark.parametrize("target", ["t1", "conj1"])
def test_verify_unwritable_report_exits_before_the_scan(capsys, tmp_path, monkeypatch, target):
    import twinconst.sweeps as sweeps
    import twinconst.verify as verify

    def no_scan(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(verify, "partitioned_scan", no_scan)
    monkeypatch.setattr(sweeps, "merge_walks", no_scan)  # conj1's walk
    for report in (tmp_path / "missing" / "x.report", tmp_path):
        code, out, err = run(capsys, "verify", target, "--limit", "1000",
                             "--report", str(report))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write the report to {report}\n"


@pytest.mark.parametrize("argv", [["scan", "c"], ["verify", "t1"]])
def test_sweep_limit_past_the_range_is_an_argument_error(capsys, tmp_path, monkeypatch, argv):
    # refused before any sieving: the base-prime cache is left as it was
    from twinconst import primes

    cache = (0, np.zeros(0, np.uint32))
    monkeypatch.setattr(primes, "_base_cache", cache)
    report = tmp_path / "x.report"
    extra = ["--report", str(report)] if argv[0] == "verify" else []
    code, out, err = run(capsys, *argv, "--limit", str(10**20), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: limit {10**20} above ")
    assert primes._base_cache is cache
    assert not report.exists()


def test_compare_fixtures(capsys):
    for name in ("a276848", "a276826", "a276676", "m-sequence"):
        code, out, _ = run(capsys, "compare", name)
        assert code == 0, (name, out)
        assert "match" in out


@pytest.mark.parametrize("change, message", [
    (lambda terms: terms[:5] + [terms[5] + 1] + terms[6:],
     "m-sequence: first divergence at index 6: computed 10, fixture 9\n"),
    (lambda terms: terms[:-1], "m-sequence: length mismatch (computed 22, fixture 23)\n"),
], ids=["divergence", "short"])
def test_compare_mismatch(capsys, monkeypatch, change, message):
    terms = list(get_fixture("m-sequence").terms)
    monkeypatch.setattr(cli, "scan_m_sequence", lambda count: change(terms))
    code, out, _ = run(capsys, "compare", "m-sequence")
    assert (code, out) == (1, message)


def test_compare_unknown(capsys):
    code, _, err = run(capsys, "compare", "nonexistent")
    assert code == 2
    assert "unknown fixture" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["scan", "c", "--limit", "100"],
    ["verify", "t1", "--limit", "100"],
], ids=["scan", "verify"])
def test_workers_below_one(capsys, tmp_path, monkeypatch, argv, workers):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--workers", workers)
    assert code == 2
    assert out == "" and f"--workers must be >= 1, got {workers}" in err
    assert not list(tmp_path.iterdir())  # no report written


def test_worker_env_default(monkeypatch):
    monkeypatch.setenv("TWINCONST_WORKERS", "3")
    from twinconst.cli import _default_workers
    assert _default_workers() == 3
    monkeypatch.setenv("TWINCONST_WORKERS", "junk")
    assert _default_workers() == 1


def test_output_worker_invariance(capsys, monkeypatch):
    code1, out1, _ = run(capsys, "scan", "c", "--limit", "50000",
                         "--workers", "1")
    code2, out2, _ = run(capsys, "scan", "c", "--limit", "50000",
                         "--workers", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    # the 10000th twin lesser, 1260989, puts two 2^20-value chunks in the
    # scan: on two workers the caller runs one and forks a child for the
    # other, and so on four
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:  # in the caller
            forks[-1] += 1
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    outs = []
    for workers in ("1", "2", "4"):
        forks.append(0)
        code, out, _ = run(capsys, "scan", "m", "--count", "10000", "--workers", workers)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert forks == [0, 1, 1]


SLICE = cli._PRINT_SLICE


@pytest.mark.parametrize("fmt", ["terms", "bfile"])
@pytest.mark.parametrize("size", [0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
def test_printed_record_is_written_slice_by_slice(capsys, fmt, size):
    # the same text as the whole record joined at once: no terms, one term,
    # and around the ends of the slices _print_record writes one at a time
    record = SequenceRecord("demo", 2, tuple(range(10**6, 10**6 + 7 * size, 7)))
    assert len(record.terms) == size
    cli._print_record(record, fmt)
    if fmt == "bfile":
        want = record.emit()
    else:
        want = " ".join(str(t) for t in record.terms) + "\n"
    # compared line by line: pytest reports the first differing line at once
    assert capsys.readouterr().out.split("\n") == want.split("\n")
