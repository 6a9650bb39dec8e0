"""Range-scale verification campaigns with parallel partitioning.

Every campaign compares a fast claim (pattern classifier, value-set bound,
corollary equivalence) against direct simulation over a value range and
reports counterexamples with replay data. Long scans checkpoint to a
resumable .npz state file (format documented in the README).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .hseq import (
    DEFAULT_BOUND,
    DEFAULT_THRESHOLD,
    NotMergedWithin,
    h_sequence,
    prime_pair_merges,
)
from .sweeps import DEFAULT_CHUNK, TwinScanResult, scan_twin_range

ALLOWED_M_VALUES = frozenset({0, 3, 5, 7, 9, 11, 13, 15, 17})

CHECKPOINT_VERSION = 2


@dataclass
class CampaignReport:
    campaign: str
    lo: int
    hi: int
    pairs_examined: int
    counterexamples: list
    m_value_histogram: dict
    residue_counts: dict
    wall_time: float
    aborted: bool = False
    details: dict = field(default_factory=dict)
    result: Optional[TwinScanResult] = field(default=None, repr=False)

    @property
    def verified(self) -> bool:
        return not self.aborted and not self.counterexamples

    def to_text(self) -> str:
        lines = [
            f"campaign: {self.campaign}",
            f"range: [{self.lo}, {self.hi}]",
            f"pairs_examined: {self.pairs_examined}",
            f"counterexamples: {len(self.counterexamples)}",
            f"verified: {self.verified}",
            f"aborted: {self.aborted}",
            f"wall_time_s: {self.wall_time:.3f}",
        ]
        if self.m_value_histogram:
            hist = " ".join(f"{k}:{v}" for k, v in sorted(self.m_value_histogram.items()))
            lines.append(f"m_histogram: {hist}")
        if self.residue_counts:
            res = " ".join(f"{k}:{v}" for k, v in sorted(self.residue_counts.items()))
            lines.append(f"residue_counts: {res}")
        for key, val in self.details.items():
            lines.append(f"{key}: {val}")
        return "\n".join(lines) + "\n"

    def rows(self) -> list[str]:
        """Machine-readable TSV rows: kind, key, value."""
        out = [f"meta\tpairs_examined\t{self.pairs_examined}",
               f"meta\twall_time_s\t{self.wall_time:.3f}"]
        for k, v in sorted(self.m_value_histogram.items()):
            out.append(f"m_histogram\t{k}\t{v}")
        for k, v in sorted(self.residue_counts.items()):
            out.append(f"residue_counts\t{k}\t{v}")
        for ce in self.counterexamples:
            out.append("counterexample\t" + json.dumps(ce, default=str))
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())
            fh.write("\n".join(self.rows()))
            fh.write("\n")


def _save_checkpoint(path: str, params: dict, next_lo: int,
                     acc: Optional[TwinScanResult]) -> None:
    arrays = {}
    if acc is not None:
        for f in TwinScanResult.columns():
            if getattr(acc, f.name) is not None:
                arrays[f.name] = getattr(acc, f.name)
    meta = {"version": CHECKPOINT_VERSION, "params": params, "next_lo": next_lo,
            "have": sorted(arrays)}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_checkpoint(path: str, params: dict):
    """Return (next_lo, accumulated result or None), or None on absence/mismatch."""
    if not os.path.exists(path):
        return None
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("version") != CHECKPOINT_VERSION or meta.get("params") != params:
            return None
        next_lo = int(meta["next_lo"])
        if not meta["have"]:
            return next_lo, None
        cols = {f.name: (data[f.name] if f.name in meta["have"] else None)
                for f in TwinScanResult.columns()}
        return next_lo, TwinScanResult(3, next_lo - 1, params["threshold"], **cols)


def partitioned_scan(
    limit: int,
    workers: int = 1,
    *,
    threshold: int = DEFAULT_THRESHOLD,
    stop_on_excess: bool = True,
    predict: bool = True,
    corollary_check: bool = False,
    chunk: int = DEFAULT_CHUNK,
    checkpoint: Optional[str] = None,
    campaign: str = "scan",
) -> CampaignReport:
    """Deterministic chunked sweep of all twin lessers <= limit.

    Identical output for any worker count; on worker failure returns the
    partial in-order report with aborted=True.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    t0 = time.perf_counter()
    params = {"limit": limit, "threshold": threshold, "stop_on_excess": stop_on_excess,
              "predict": predict, "corollary_check": corollary_check, "chunk": chunk}
    parts: list[TwinScanResult] = []
    start = 3
    if checkpoint is not None:
        loaded = _load_checkpoint(checkpoint, params)
        if loaded is not None:
            start, acc = loaded
            if acc is not None:
                parts.append(acc)

    def collect(part: TwinScanResult) -> None:
        parts.append(part)
        if checkpoint is not None:
            _save_checkpoint(checkpoint, params, part.hi + 1,
                             TwinScanResult.concat(parts))

    aborted = False
    error = None
    if start <= limit:
        try:
            scan_twin_range(
                start, limit,
                threshold=threshold, stop_on_excess=stop_on_excess,
                predict=predict, corollary_check=corollary_check,
                workers=workers, chunk=chunk, on_chunk=collect,
            )
        except Exception as exc:  # worker failure: report the completed prefix
            aborted = True
            error = f"{type(exc).__name__}: {exc}"
    if parts:
        result = TwinScanResult.concat(parts)
    else:
        result = TwinScanResult.empty(3, 2, threshold, predict=predict,
                                      corollary_check=corollary_check)
    if checkpoint is not None and not aborted and os.path.exists(checkpoint):
        os.unlink(checkpoint)

    m_hist = {int(k): int(v) for k, v in zip(*np.unique(result.m, return_counts=True))}
    near_ps = result.ps[result.near]
    res_counts = {
        int(k): int(v)
        for k, v in zip(*np.unique(near_ps % 10, return_counts=True))
    }
    report = CampaignReport(
        campaign=campaign,
        lo=3,
        hi=limit,
        pairs_examined=int(result.ps.size),
        counterexamples=[],
        m_value_histogram=m_hist,
        residue_counts=res_counts,
        wall_time=time.perf_counter() - t0,
        aborted=aborted,
        details={"fallback_pairs": result.fallback_count},
        result=result,
    )
    if error:
        report.details["error"] = error
        report.details["completed_hi"] = parts[-1].hi if parts else 2
    return report


def _replay(p: int, depth: int = 40) -> dict:
    """Traces of both sequences for offline inspection of a counterexample."""
    return {
        "p": p,
        "upper_trace": list(h_sequence(p + 2, depth).values),
        "lower_trace": list(h_sequence(p, depth).values),
    }


def verify_theorem1(limit: int, workers: int = 1,
                    checkpoint: Optional[str] = None) -> CampaignReport:
    """Classifier vs simulation equivalence for nearness over twin lessers <= limit."""
    report = partitioned_scan(limit, workers, predict=True, checkpoint=checkpoint,
                              campaign="theorem1")
    result = report.result
    for i in np.flatnonzero(result.predicted != result.near):
        p = int(result.ps[i])
        ce = {"p": p, "expected": bool(result.predicted[i]),
              "observed": bool(result.near[i])}
        ce.update(_replay(p))
        report.counterexamples.append(ce)
    c_list = [int(p) for p in result.ps[result.near]]
    report.details["c_count"] = len(c_list)
    report.details["c_prefix"] = c_list[:50]
    report.details["c_mod10_eq_1"] = [p for p in c_list if p % 10 == 1]
    return report


def verify_theorem2(limit: int, workers: int = 1,
                    checkpoint: Optional[str] = None) -> CampaignReport:
    """First-excess values over twin lessers <= limit stay in the nine-value set."""
    report = partitioned_scan(limit, workers, predict=False, checkpoint=checkpoint,
                              campaign="theorem2")
    result = report.result
    for i in np.flatnonzero(~np.isin(result.m, sorted(ALLOWED_M_VALUES))):
        p = int(result.ps[i])
        ce = {"p": p, "expected": "m in {0,3,5,7,9,11,13,15,17}",
              "observed": int(result.m[i])}
        ce.update(_replay(p))
        report.counterexamples.append(ce)
    first_occurrence = {}
    for i, m in enumerate(result.m):
        m = int(m)
        if m not in first_occurrence:
            first_occurrence[m] = int(result.ps[i])
    report.details["first_occurrence"] = dict(sorted(first_occurrence.items()))
    report.details["observed_m_values"] = sorted(first_occurrence)
    return report


def verify_corollaries(limit: int, workers: int = 1,
                       checkpoint: Optional[str] = None) -> CampaignReport:
    """Unique max-diff 4 at p=3; m=17/m=15 constellation equivalences; counts.

    Runs in stop-on-excess mode: pairs whose difference exceeds the threshold
    carry a prefix max_diff > 6, which decides the 4-versus->=6 dichotomy
    without simulating to the (possibly very distant) merge.
    """
    report = partitioned_scan(limit, workers, stop_on_excess=True, predict=False,
                              corollary_check=True, checkpoint=checkpoint,
                              campaign="corollaries")
    result = report.result
    at4 = [int(p) for p in result.ps[result.max_diff == 4]]
    if at4 != [3]:
        report.counterexamples.append(
            {"expected": "max_diff 4 exactly at p=3", "observed": at4})
    others = result.max_diff[result.ps != 3]
    if others.size and int(others.min()) < 6:
        bad = result.ps[(result.ps != 3) & (result.max_diff < 6)]
        for p in bad:
            ce = {"p": int(p), "expected": "max_diff >= 6",
                  "observed": int(result.max_diff[result.ps == p][0])}
            ce.update(_replay(int(p)))
            report.counterexamples.append(ce)
    # corollary equivalences are stated for constellations based at p = 30t+29
    cls29 = (result.ps % 30) == 29
    for m_val, matches in ((17, result.cor17), (15, result.cor15)):
        mism = cls29 & ((result.m == m_val) != matches)
        for i in np.flatnonzero(mism):
            p = int(result.ps[i])
            ce = {"p": p, "expected": f"m=={m_val} iff pattern({m_val})",
                  "observed": {"m": int(result.m[i]), "pattern": bool(matches[i])}}
            ce.update(_replay(p))
            report.counterexamples.append(ce)
        report.details[f"count_m{m_val}"] = int(np.count_nonzero(result.m == m_val))
        report.details[f"count_m{m_val}_outside_mod30_29"] = int(
            np.count_nonzero((result.m == m_val) & ~cls29))
    report.details["min_max_diff_excluding_p3"] = (
        int(others.min()) if others.size else None)
    return report


def probe_conjecture1(prime_count: int, bound: int = DEFAULT_BOUND) -> CampaignReport:
    """Merge positions for all pairs among the first prime_count odd primes.

    Non-merging within bound is recorded as a finding, not a counterexample.
    """
    t0 = time.perf_counter()
    k = max(prime_count, 0)
    positions = []
    unmerged = []
    for a, b, pos in islice(prime_pair_merges(bound), k * (k - 1) // 2):
        if isinstance(pos, NotMergedWithin):
            unmerged.append((a, b))
            pos = None
        positions.append((a, b, pos))
    report = CampaignReport(
        campaign="conjecture1",
        lo=3,
        hi=positions[-1][0] if positions else 3,
        pairs_examined=len(positions),
        counterexamples=[],
        m_value_histogram={},
        residue_counts={},
        wall_time=time.perf_counter() - t0,
        details={"positions": positions, "unmerged": unmerged, "bound": bound},
    )
    return report
