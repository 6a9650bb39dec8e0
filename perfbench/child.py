"""Run one workload once in this fresh interpreter, optionally under the tracer.

    python3 perfbench/child.py WORKLOAD --out DIR --workers N [--lo N] [--trace]

The workload's files (CLI report, checkpoint, scan arrays) go to the current
directory. DIR/child.json receives the workload call's duration, its exit
code and, with --trace, every span. The exit code is the workload's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

T1_LIMIT = 10**7
MAXDIFF_COUNT = 205
HIGH_SPAN = 8 << 20  # eight 2^20-value sweep chunks


def _install_spans(tracer) -> None:
    """Wrap each layer's public function under the name its caller uses."""
    import numpy as np

    from twinconst import cli, kernels, primes, sweeps, verify

    def sieve_counts(args, kwargs, seg):
        return {"values": seg.hi - seg.lo + 1, "his": [seg.hi]}

    def kernel_counts(args, kwargs, out):
        m, _, _, merge_n, ok = out
        # a resolved pair last stepped at its merge index or, when it
        # stopped at the first excess, at m; stepping starts at index 3
        last = np.where(merge_n > 0, merge_n, m)[ok]
        return {"pairs": int(ok.size), "ok": int(ok.sum()),
                "steps": int(np.maximum(last - 2, 0).sum())}

    def trace_counts(args, kwargs, rep):
        last = rep.merge_index if rep.merged else rep.bound
        return {"indices": last - 2}

    def checkpoint_counts(args, kwargs, out):
        return {"bytes": os.path.getsize(args[0])}

    tracer.patch(primes, "sieve_segment", "primes.sieve_segment", sieve_counts)
    tracer.patch(sweeps, "pair_stats_kernel", "kernels.pair_stats_kernel", kernel_counts)
    tracer.patch(sweeps, "match_offsets_bulk", "kernels.match_offsets_bulk")
    # predict_near_bulk imports match_offsets_bulk from kernels at each call
    tracer.patch(kernels, "match_offsets_bulk", "kernels.match_offsets_bulk")
    tracer.patch(sweeps, "pair_trace", "hseq.pair_trace", trace_counts)
    tracer.patch(sweeps, "predict_near_bulk", "constellations.predict_near_bulk")
    tracer.patch(sweeps, "scan_twin_range", "sweeps.scan_twin_range")
    tracer.patch(cli, "scan_twin_range", "sweeps.scan_twin_range")

    # partitioned_scan's per-chunk callback runs inside the sweep; its span
    # keeps the accumulator concat and checkpoint write out of the sweep's
    # self time
    scan = verify.scan_twin_range

    def scan_with_traced_callback(*args, on_chunk=None, **kwargs):
        if on_chunk is not None:
            on_chunk = tracer.span("verify.on_chunk", on_chunk)
        return scan(*args, on_chunk=on_chunk, **kwargs)

    verify.scan_twin_range = scan_with_traced_callback
    tracer.patch(verify, "scan_twin_range", "sweeps.scan_twin_range")
    tracer.patch(verify, "partitioned_scan", "verify.partitioned_scan")
    tracer.patch(verify, "_save_checkpoint", "verify.checkpoint", checkpoint_counts)
    tracer.patch(cli, "main", "cli.main")


def _workload_call(name: str, workers: int, lo: int):
    """A no-argument callable running the workload, returning its exit code."""
    from twinconst import cli, sweeps

    if name == "t1_1e7":
        argv = ["verify", "t1", "--limit", str(T1_LIMIT), "--workers", str(workers),
                "--checkpoint", "t1.ckpt.npz", "--report", "t1.report"]
        return lambda: cli.main(argv)
    if name == "maxdiff_205":
        argv = ["scan", "maxdiff", "--count", str(MAXDIFF_COUNT), "--workers", str(workers)]
        return lambda: cli.main(argv)
    if name == "high_1e14":
        import numpy as np

        def high() -> int:
            res = sweeps.scan_twin_range(lo, lo + HIGH_SPAN - 1, predict=True,
                                         corollary_check=True, workers=workers)
            np.savez("scan.npz", ps=res.ps, m=res.m, max_diff=res.max_diff,
                     max_diff_n=res.max_diff_n, merge_n=res.merge_n, near=res.near,
                     predicted=res.predicted, cor17=res.cor17, cor15=res.cor15,
                     fallback_count=np.array(res.fallback_count))
            return 0

        return high
    raise SystemExit(f"unknown workload {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--lo", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import twinconst

    if SRC.resolve() not in Path(twinconst.__file__).resolve().parents:
        print(f"error: twinconst imported from {twinconst.__file__}, not {SRC}",
              file=sys.stderr)
        return 9
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        _install_spans(tracer)
    call = _workload_call(args.workload, args.workers, args.lo)
    t0 = time.perf_counter()
    rc = call()
    call_s = time.perf_counter() - t0
    sys.stdout.flush()
    record = {"call_s": call_s, "rc": rc, "spans": tracer.spans if tracer else None}
    with open(Path(args.out) / "child.json", "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
