#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of twinconst.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from ./src.
Every workload invocation is a fresh process launched from here. Its files go
to a scratch directory under perfbench/ that is removed on exit.

--trace 0 repeats the workload, untraced, for S seconds and reports the
end-to-end metrics: median process wall time (launch to exit), pairs resolved
per second of it, interpreter set-up time and peak resident memory. --trace 1
repeats, for S seconds, an untraced run at the workload's worker count, a
traced run on one worker and, for t1_1e7, an untraced run on one worker, and
reports per-layer times and counts from the traced run. Both modes check every
output and print a human-readable summary followed by one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

MIN_RUNS = 3  # workload runs per measurement, however long they take
SETUP_MIN = 7  # set-up launches per measurement
RUN_BUDGET_S = 150  # stop launching after this; a run must end within 180 s
# the per-layer counts that must repeat exactly between runs of the same code
EXACT_COUNTS = (
    "primes.sieve_segment.calls", "primes.sieve_segment.values",
    "primes.sieve_segment.base_primes", "kernels.pair_stats_kernel.pairs",
    "kernels.pair_stats_kernel.steps", "hseq.pair_trace.calls",
    "hseq.pair_trace.indices", "sweeps.chunks", "verify.checkpoint.writes",
    "verify.checkpoint.bytes",
)
# layer of a span = the module its name starts with
LAYERS = ("primes", "kernels", "hseq", "constellations", "sweeps", "verify", "cli")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


DEADLINE = time.monotonic() + RUN_BUDGET_S


def more_runs(t0: float, seconds: float, done: int, tried: int, least: int) -> bool:
    """Measure for `seconds`, and on until `least` runs succeeded, giving up
    after twice that many tries or at the deadline."""
    if time.monotonic() >= DEADLINE:
        return False
    return time.perf_counter() - t0 < seconds or (done < least and tried < 2 * least)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("TWINCONST_WORKERS", None)
    env.pop("TWINCONST_NO_NUMBA", None)
    return env


def launch(argv: list[str], cwd: Path, out: Path) -> tuple[float, int | None, float]:
    """Run argv to completion: (wall seconds, exit code, peak RSS in MB).

    Peak RSS comes from wait4, which covers the process and every descendant
    it waited for, such as pool workers. A process still running at the
    deadline is killed with its descendants and gets exit code None.
    """
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout", "wb") as so, open(out / "stderr", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=so, stderr=se,
                                start_new_session=True)
        signal.alarm(max(1, int(DEADLINE + 20 - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return time.perf_counter() - t0, None, 0.0
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, workload, work: Path, checks) -> None:
        self.w = workload
        self.work = work
        self.checks = checks
        self.reps = 0
        self.reference = None  # (digest, pairs, parsed output) of the first run

    def run(self, workers: int, trace: bool) -> dict:
        """One fresh process running the workload; checks what it left behind."""
        self.reps += 1
        rep = self.work / f"rep{self.reps}"
        cwd = rep / "cwd"
        cwd.mkdir(parents=True)
        argv = [sys.executable, str(BENCH / "child.py"), self.w.name, "--out", str(rep),
                "--workers", str(workers)] + self.w.child_args()
        if trace:
            argv.append("--trace")
        wall, rc, rss = launch(argv, cwd, rep)
        res = {"wall": wall, "rss_mb": rss, "call_s": None, "spans": None, "pairs": None}
        what = f"{self.w.name} run {self.reps} (workers={workers}, trace={int(trace)})"
        if not self.checks.check(rc == 0, f"{what}: exit code "
                                 f"{'none, killed at the deadline' if rc is None else rc}"):
            log((rep / "stderr").read_text()[-2000:])
            return res
        child = json.loads((rep / "child.json").read_text())
        res["call_s"], res["spans"] = child["call_s"], child["spans"]
        left = {p.name for p in cwd.iterdir()}
        self.checks.check(left == self.w.expected_files(),
                          f"{what}: left {sorted(left)} in its directory, "
                          f"expected {sorted(self.w.expected_files())}")
        try:
            digest, pairs, parsed = self.w.read(cwd, (rep / "stdout").read_text())
        except (OSError, KeyError, ValueError) as exc:
            self.checks.check(False, f"{what}: unreadable output: {exc!r}")
            return res
        res["pairs"] = pairs
        if self.reference is None:
            self.reference = (digest, pairs, parsed)
        else:
            self.checks.check(digest == self.reference[0],
                              f"{what}: output differs from the first run's")
        shutil.rmtree(rep)
        return res

    def check_reference_output(self) -> None:
        if self.reference is not None:
            self.w.check_output(self.reference[2], self.checks)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def measure_setup(work: Path, checks) -> float:
    """One launch of a fresh interpreter that only imports twinconst.cli, with
    its module-level tables; seconds from launch to exit."""
    wall, rc, _ = launch([sys.executable, "-c", "import twinconst.cli"], work, work / "setup")
    checks.check(rc == 0, f"setup import exit code {rc}")
    return wall


def tail_text(xs: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return f"no tail percentile: {n} samples, fewer than 11"
    return f"p{100 * (n - 10) // n} = {sorted(xs)[n - 11]:.4f} s"


def end_to_end(runner: Runner, work: Path, seconds: float, checks) -> dict:
    measure_setup(work, checks)  # untimed: writes the bytecode cache
    setup, walls, rss, pairs = [], [], [], None
    t0 = time.perf_counter()
    # set-up launches alternate with workload runs, so that both medians
    # cover the same stretch of machine time
    while more_runs(t0, seconds, len(walls), runner.reps, MIN_RUNS):
        setup.append(measure_setup(work, checks))
        res = runner.run(runner.w.workers, trace=False)
        if res["pairs"] is not None:
            walls.append(res["wall"])
            rss.append(res["rss_mb"])
            pairs = res["pairs"]
    while len(setup) < SETUP_MIN:
        setup.append(measure_setup(work, checks))
    if not walls:
        return {}
    wall = median(walls)
    metrics = {
        "wall_s": wall,
        "pairs_per_s": pairs / wall,
        "setup_s": median(setup),
        "peak_rss_mb": median(rss),
    }
    print(f"wall_s = {wall:.4f} s (median of {len(walls)} runs; {tail_text(walls)}; "
          f"min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"pairs_per_s = {metrics['pairs_per_s']:.1f} 1/s ({pairs} pairs per run)")
    print(f"setup_s = {metrics['setup_s']:.4f} s (median of {len(setup)} launches)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (median over runs of the "
          f"largest process; max {max(rss):.1f})")
    print(f"exact_counts {json.dumps({'pairs': pairs})}")
    return metrics


def layer_metrics(agg: dict, parallel_speedup: float) -> dict:
    """Per-layer metrics from one traced run's aggregated spans."""
    import reference

    def get(name, key="s"):
        a = agg.get(name)
        if a is None:
            return 0
        return a[key] if key in ("s", "self_s", "calls") else a["counts"].get(key, 0)

    kpairs = get("kernels.pair_stats_kernel", "pairs")
    return {
        "primes.sieve_segment.s": get("primes.sieve_segment"),
        "primes.sieve_segment.calls": get("primes.sieve_segment", "calls"),
        "primes.sieve_segment.values": get("primes.sieve_segment", "values"),
        "primes.sieve_segment.base_primes": reference.base_prime_counts(
            get("primes.sieve_segment", "his") or []),
        "kernels.pair_stats_kernel.s": get("kernels.pair_stats_kernel"),
        "kernels.pair_stats_kernel.pairs": kpairs,
        "kernels.pair_stats_kernel.steps": get("kernels.pair_stats_kernel", "steps"),
        "kernels.pair_stats_kernel.ok_ratio":
            get("kernels.pair_stats_kernel", "ok") / kpairs if kpairs else 0.0,
        "kernels.match_offsets_bulk.s": get("kernels.match_offsets_bulk"),
        "hseq.pair_trace.s": get("hseq.pair_trace"),
        "hseq.pair_trace.calls": get("hseq.pair_trace", "calls"),
        "hseq.pair_trace.indices": get("hseq.pair_trace", "indices"),
        "constellations.predict_near_bulk.s": get("constellations.predict_near_bulk"),
        "sweeps.scan_twin_range.self_s": get("sweeps.scan_twin_range", "self_s"),
        "sweeps.chunks": get("kernels.pair_stats_kernel", "calls"),
        "sweeps.parallel_speedup": parallel_speedup,
        # partitioned_scan's chunk callback is its own closure
        "verify.partitioned_scan.self_s": get("verify.partitioned_scan", "self_s")
        + get("verify.on_chunk", "self_s"),
        "verify.checkpoint.s": get("verify.checkpoint"),
        "verify.checkpoint.writes": get("verify.checkpoint", "calls"),
        "verify.checkpoint.bytes": get("verify.checkpoint", "bytes"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }


def per_layer(runner: Runner, seconds: float, checks) -> dict:
    from tracer import aggregate

    w = runner.w
    rows, overheads, layer_self = [], [], []
    t0 = time.perf_counter()
    tries = 0
    while more_runs(t0, seconds, len(rows), tries, 2):
        tries += 1
        plain = runner.run(w.workers, trace=False)
        traced = runner.run(1, trace=True)
        plain1 = runner.run(1, trace=False) if w.workers != 1 else plain
        if None in (plain["call_s"], traced["spans"], plain1["call_s"]):
            continue
        agg = aggregate(traced["spans"])
        rows.append(layer_metrics(agg, traced["call_s"] / plain["call_s"]))
        overheads.append(traced["wall"] - plain1["wall"])
        layer_self.append({layer: sum(a["self_s"] for name, a in agg.items()
                                      if name.split(".")[0] == layer) for layer in LAYERS})
    if not rows:
        return {}
    for key in EXACT_COUNTS:
        vals = {r[key] for r in rows}
        checks.check(len(vals) == 1, f"{w.name}: count {key} differs between runs: {vals}")
    # times and time ratios vary between runs; counts do not
    metrics = {k: median([r[k] for r in rows]) if UNITS[k] in ("s", "x") else rows[0][k]
               for k in rows[0]}
    metrics["trace.overhead_s"] = median(overheads)
    selfs = {layer: median([s[layer] for s in layer_self]) for layer in LAYERS}
    total = sum(selfs.values()) or 1.0
    print(f"traced runs: {len(rows)} (workers=1); untraced at workers={w.workers}")
    print("layer self time (median s, share of all traced self time):")
    for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:15s} {s:8.4f} s  {100 * s / total:5.1f}%")
    print(f"dominant layer: {max(selfs, key=selfs.get)}")
    print(f"tracing overhead: traced minus untraced process wall at workers=1 = "
          f"{metrics['trace.overhead_s']:.4f} s")
    print(f"exact_counts {json.dumps({k: metrics[k] for k in EXACT_COUNTS})}")
    return metrics


def environment(workload) -> dict:
    import numpy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:  # a checkout without git history has no sha; src_sha256 identifies it
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "numba_importable": has_numba,
        "git_sha": sha.stdout.strip() if sha and sha.returncode == 0 else None,
        "src_sha256": src.hexdigest(), "workload": workload.name,
        "workers": workload.workers,
    }


def main() -> int:
    from workloads import WORKLOADS, Checks

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "twinconst" / "cli.py").is_file():
        log(f"error: no twinconst sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload](args.seed)
    checks = Checks(log)
    print(f"env {json.dumps(environment(workload))}")
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} {' '.join(workload.child_args())}".rstrip())
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        runner = Runner(workload, work, checks)
        if args.trace:
            metrics = per_layer(runner, args.seconds, checks)
        else:
            metrics = end_to_end(runner, work, args.seconds, checks)
        runner.check_reference_output()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    want = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    checks.check(set(metrics) == want, f"metrics {sorted(set(metrics) ^ want)} do not "
                 "match BENCHMARK.json")
    print(f"failed_frac = {checks.failed}/{checks.attempted} = "
          f"{checks.failed / max(checks.attempted, 1)} (failed checks / attempted checks)")
    result = {
        "correct": checks.failed == 0 and bool(metrics),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
