"""Range-scale verification campaigns with parallel partitioning.

Every campaign compares a fast claim (pattern classifier, value-set bound,
corollary equivalence) against direct simulation over a value range and
reports counterexamples with replay data. partitioned_scan folds each
chunk of the sweep into the campaign's report as the chunk arrives; long
scans checkpoint that report to a resumable JSON file (format documented in
the README).
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .hseq import DEFAULT_BOUND, h_sequence
from .sweeps import TwinScanResult, _adjacent_merges, _check_limit, scan_twin_range

ALLOWED_M_VALUES = frozenset({0, 3, 5, 7, 9, 11, 13, 15, 17})

CHECKPOINT_VERSION = 3
# what a checkpoint keeps of a CampaignReport: no wall time, so its bytes repeat
_STATE_FIELDS = ("pairs_examined", "counterexamples", "m_value_histogram",
                 "residue_counts", "details")


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

    def write(self, path: str) -> None:
        """The text, then one line per counterexample: its replay data as JSON."""
        with open(path, "w") as fh:
            fh.write(self.to_text())
            for ce in self.counterexamples:
                fh.write("counterexample\t" + json.dumps(ce, default=str) + "\n")


def _int_keys(pairs: list) -> dict:
    """JSON object hook: the keys of the int-keyed maps (m histogram, residue
    counts, first occurrences) were ints before JSON made them strings."""
    return {int(k) if k.isdigit() else k: v for k, v in pairs}


def _save_checkpoint(path: str, params: dict, next_lo: int, state: Optional[dict]) -> None:
    text = json.dumps({"version": CHECKPOINT_VERSION, "params": params,
                       "next_lo": next_lo, "state": state})
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_checkpoint(path: str, params: dict):
    """Return (next_lo, report state), or None when there is no file at path
    or its version or params differ; raise ValueError, naming path, for a
    file that is not a JSON checkpoint."""
    if not os.path.exists(path):
        return None
    # IsADirectoryError: a directory; ValueError: not UTF-8 or not JSON;
    # KeyError, TypeError: JSON that is not a checkpoint
    try:
        with open(path, "rb") as fh:
            meta = json.loads(fh.read(), object_pairs_hook=_int_keys)
        if meta["version"] != CHECKPOINT_VERSION or meta["params"] != params:
            return None
        if set(meta["state"]) != set(_STATE_FIELDS):
            raise KeyError("state")
        return int(meta["next_lo"]), meta["state"]
    except (IsADirectoryError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a JSON checkpoint ({exc!r})") from None


def partitioned_scan(
    limit: int,
    workers: int = 1,
    *,
    checkpoint: Optional[str] = None,
    campaign: str = "scan",
) -> CampaignReport:
    """Deterministic chunked sweep of all twin lessers <= limit, folded into
    one report chunk by chunk: pair, m value, near residue and fallback
    counts, plus the details and counterexamples of campaign "theorem1",
    "theorem2" or "corollaries" ("scan" adds none), finished by the
    campaign's last step once the sweep ends. The campaign also names the
    columns the sweep computes for its fold: theorem1 the classifier's
    prediction, corollaries the m=15/17 pattern matches.

    Identical output for any worker count; on worker failure returns the
    report of the completed prefix with aborted=True.
    """
    t0 = time.perf_counter()
    details, fold, options, finish = _CAMPAIGNS[campaign]
    params = {"limit": limit, "campaign": campaign}
    report = CampaignReport(
        campaign=campaign, lo=3, hi=limit, pairs_examined=0, counterexamples=[],
        m_value_histogram={}, residue_counts={}, wall_time=0.0,
        details={"fallback_pairs": 0, **copy.deepcopy(details)})
    start = 3
    # a limit past the sweep's range and an unwritable checkpoint are
    # argument errors, found before any sieving
    _check_limit(limit)
    if checkpoint is not None:
        checkpoint_dir = os.path.dirname(checkpoint) or "."
        if not (os.path.isdir(checkpoint_dir) and os.access(checkpoint_dir, os.W_OK)):
            raise ValueError(f"{checkpoint}: {checkpoint_dir} is not a writable directory")
        loaded = _load_checkpoint(checkpoint, params)
        if loaded is not None:
            start, state = loaded
            report = replace(report, **state)
    completed_hi = start - 1

    def fold_chunk(part: TwinScanResult) -> None:
        nonlocal completed_hi
        report.pairs_examined += int(part.ps.size)
        _count_into(report.m_value_histogram, part.m)
        _count_into(report.residue_counts, part.ps[part.near] % 10)
        report.details["fallback_pairs"] += part.fallback_count
        fold(report, part)
        completed_hi = part.hi
        if checkpoint is not None:
            _save_checkpoint(checkpoint, params, part.hi + 1,
                             {name: getattr(report, name) for name in _STATE_FIELDS})

    if start <= limit:
        try:
            scan_twin_range(start, limit, workers=workers, on_chunk=fold_chunk, **options)
        except Exception as exc:  # worker failure: report the completed prefix
            report.aborted = True
            report.details.update(error=f"{type(exc).__name__}: {exc}",
                                  completed_hi=completed_hi)
    if checkpoint is not None and not report.aborted and os.path.exists(checkpoint):
        os.unlink(checkpoint)
    finish(report)
    report.wall_time = time.perf_counter() - t0
    return report


def _counterexample(p: int, expected, observed, depth: int = 40) -> dict:
    """A counterexample with the traces of both sequences, for offline replay."""
    return {"p": p, "expected": expected, "observed": observed,
            "upper_trace": list(h_sequence(p + 2, depth).values),
            "lower_trace": list(h_sequence(p, depth).values)}


def _count_into(counts: dict, values: np.ndarray) -> None:
    for k, v in zip(*np.unique(values, return_counts=True)):
        counts[int(k)] = counts.get(int(k), 0) + int(v)


def _fold_theorem1(report: CampaignReport, part: TwinScanResult) -> None:
    for i in np.flatnonzero(part.predicted != part.near):
        report.counterexamples.append(_counterexample(
            int(part.ps[i]), bool(part.predicted[i]), bool(part.near[i])))
    near = part.ps[part.near]
    d = report.details
    d["c_count"] += int(near.size)
    d["c_prefix"] += near[:50 - len(d["c_prefix"])].tolist()
    d["c_mod10_eq_1"] += near[near % 10 == 1].tolist()


def _fold_theorem2(report: CampaignReport, part: TwinScanResult) -> None:
    for i in np.flatnonzero(~np.isin(part.m, sorted(ALLOWED_M_VALUES))):
        report.counterexamples.append(_counterexample(
            int(part.ps[i]), "m in {0,3,5,7,9,11,13,15,17}", int(part.m[i])))
    first_occurrence = report.details["first_occurrence"]
    for m, i in zip(*np.unique(part.m, return_index=True)):
        first_occurrence.setdefault(int(m), int(part.ps[i]))


def _finish_theorem2(report: CampaignReport) -> None:
    first_occurrence = dict(sorted(report.details["first_occurrence"].items()))
    report.details["first_occurrence"] = first_occurrence
    report.details["observed_m_values"] = sorted(first_occurrence)


def _fold_corollaries(report: CampaignReport, part: TwinScanResult) -> None:
    d = report.details
    d["max_diff_4_at"] += part.ps[part.max_diff == 4].tolist()
    others = part.ps != 3
    for i in np.flatnonzero(others & (part.max_diff < 6)):
        report.counterexamples.append(_counterexample(
            int(part.ps[i]), "max_diff >= 6", int(part.max_diff[i])))
    if others.any():
        low, prev = int(part.max_diff[others].min()), d["min_max_diff_excluding_p3"]
        d["min_max_diff_excluding_p3"] = low if prev is None else min(prev, low)
    # corollary equivalences are stated for constellations based at p = 30t+29
    cls29 = (part.ps % 30) == 29
    for m_val, matches in ((17, part.cor17), (15, part.cor15)):
        is_m = part.m == m_val
        for i in np.flatnonzero(cls29 & (is_m != matches)):
            report.counterexamples.append(_counterexample(
                int(part.ps[i]), f"m=={m_val} iff pattern({m_val})",
                {"m": int(part.m[i]), "pattern": bool(matches[i])}))
        d[f"count_m{m_val}"] += int(np.count_nonzero(is_m))
        d[f"count_m{m_val}_outside_mod30_29"] += int(np.count_nonzero(is_m & ~cls29))


def _finish_corollaries(report: CampaignReport) -> None:
    """Unique max-diff 4 at p=3. A stop-mode pair that exceeds the threshold
    carries a prefix max_diff > 6, which decides the 4-versus->=6 dichotomy
    without simulating to the (possibly very distant) merge."""
    at4 = report.details.pop("max_diff_4_at")
    # an aborted scan checked p = 3 only if its completed prefix reached it
    scanned_to = report.details["completed_hi"] if report.aborted else report.hi
    if scanned_to >= 3 and at4 != [3]:
        report.counterexamples.insert(
            0, {"expected": "max_diff 4 exactly at p=3", "observed": at4})


def _no_step(*args) -> None:
    pass


# per campaign: its own details before any chunk, in report order; its fold;
# the scan_twin_range options for the columns that fold reads; and its finish,
# which partitioned_scan runs on the report once the sweep ends
_CAMPAIGNS = {
    "scan": ({}, _no_step, {}, _no_step),
    "theorem1": ({"c_count": 0, "c_prefix": [], "c_mod10_eq_1": []}, _fold_theorem1,
                 {"predict": True}, _no_step),
    "theorem2": ({"first_occurrence": {}}, _fold_theorem2, {}, _finish_theorem2),
    "corollaries": ({"count_m17": 0, "count_m17_outside_mod30_29": 0,
                     "count_m15": 0, "count_m15_outside_mod30_29": 0,
                     "min_max_diff_excluding_p3": None, "max_diff_4_at": []},
                    _fold_corollaries, {"corollary_check": True}, _finish_corollaries),
}


def probe_conjecture1(prime_count: int, bound: int = DEFAULT_BOUND) -> CampaignReport:
    """Conjecture 1 over the first prime_count odd primes: the merge index of
    each adjacent pair (a, b, merge or None past bound), which decide every
    pair between them (sweeps.prime_pair_merges), and the open adjacent pairs.

    Non-merging within bound is recorded as a finding, not a counterexample.
    """
    t0 = time.perf_counter()
    k = max(prime_count, 0)
    adjacent = _adjacent_merges(k, bound)
    return CampaignReport(
        campaign="conjecture1",
        lo=3,
        hi=adjacent[-1][0] if adjacent else 3,
        pairs_examined=k * (k - 1) // 2,
        counterexamples=[],
        m_value_histogram={},
        residue_counts={},
        wall_time=time.perf_counter() - t0,
        details={"adjacent_merges": adjacent,
                 "unmerged": [(a, b) for a, b, n in adjacent if n is None],
                 "bound": bound},
    )
