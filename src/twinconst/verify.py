"""Range-scale verification campaigns with parallel partitioning.

One sweep compares every fast claim (pattern classifier, value-set bound,
corollary equivalences) against direct simulation over a value range and
reports counterexamples with replay data. partitioned_scan folds each
chunk of the sweep into one report as the chunk arrives, and that fold alone
decides every claim; long scans checkpoint the report to a resumable JSON
file (format documented in the README).
"""

from __future__ import annotations

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

CHECKPOINT_VERSION = 5
# A checkpoint is written after a chunk that ends at least this many values
# past the last one written: about 1 ms a write, at most one per 8 default chunks.
CHECKPOINT_SPAN = 1 << 23
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
        return not (self.aborted or self.counterexamples or self.details.get("unmerged"))

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


def _state(report: CampaignReport) -> dict:
    return {name: getattr(report, name) for name in _STATE_FIELDS}


def _types(fields: dict) -> list:
    """(key, value type) per field; a None min_max_diff_excluding_p3 counts as int."""
    return [(k, int if v is None and k == "min_max_diff_excluding_p3" else type(v))
            for k, v in fields.items()]


def _load_checkpoint(path: str, params: dict, fresh: dict):
    """Return (next_lo, report state), or None when there is no file at path
    or its version or params differ; raise ValueError, naming path, for a
    file that cannot be read or is not a JSON checkpoint: one whose state, or
    its details, differs from fresh, a new report's state, in a key, their
    order or a value's type, or whose int-keyed maps or int lists hold
    anything but ints."""
    if not os.path.exists(path):
        return None
    # OSError: unreadable, as a directory or a file without read permission;
    # ValueError: not UTF-8 or not JSON; the rest: not a checkpoint
    try:
        with open(path, "rb") as fh:
            meta = json.loads(fh.read(), object_pairs_hook=_int_keys)
        if meta["version"] != CHECKPOINT_VERSION or meta["params"] != params:
            return None
        state = meta["state"]
        d = state["details"]
        maps = (state["m_value_histogram"], state["residue_counts"], d["first_occurrence"])
        ints = [*d["c_prefix"], *d["c_mod10_eq_1"], *(x for m in maps for x in (*m, *m.values()))]
        if (_types(state) + _types(d) != _types(fresh) + _types(fresh["details"])
                or any(type(x) is not int for x in ints)):
            raise TypeError("state")
        return int(meta["next_lo"]), state
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a JSON checkpoint ({exc!r})") from None


def partitioned_scan(
    limit: int,
    workers: int = 1,
    *,
    checkpoint: Optional[str] = None,
) -> CampaignReport:
    """Deterministic chunked sweep of all twin lessers <= limit that checks
    every sweep claim of the paper, folded into one report chunk by chunk:
    pair, m value, near residue and fallback counts, Theorem 1's classifier
    against simulated nearness, Theorem 2's m set, and the corollaries' m=15/17
    pattern equivalences and max-diff bound. The report is returned as the
    last fold left it, with its wall time.

    Identical output for any worker count; on worker failure returns the
    report of the completed prefix with aborted=True. With checkpoint, the
    report is saved there after each chunk that ends CHECKPOINT_SPAN or more
    values past the last save, and a saved report resumes the sweep.
    """
    t0 = time.perf_counter()
    params = {"limit": limit}
    report = CampaignReport(
        campaign="claims", lo=3, hi=limit, pairs_examined=0, counterexamples=[],
        m_value_histogram={}, residue_counts={}, wall_time=0.0,
        details={"fallback_pairs": 0, "c_count": 0, "c_prefix": [], "c_mod10_eq_1": [],
                 "first_occurrence": {}, "count_m17": 0, "count_m17_outside_mod30_29": 0,
                 "count_m15": 0, "count_m15_outside_mod30_29": 0,
                 "min_max_diff_excluding_p3": None})
    start = 3
    # a limit past the sweep's range and an unwritable checkpoint are
    # argument errors, found before any sieving
    _check_limit(limit)
    if checkpoint is not None:
        checkpoint_dir = os.path.dirname(checkpoint) or "."
        if not (os.path.isdir(checkpoint_dir) and os.access(checkpoint_dir, os.W_OK)):
            raise ValueError(f"{checkpoint}: {checkpoint_dir} is not a writable directory")
        loaded = _load_checkpoint(checkpoint, params, _state(report))
        if loaded is not None:
            start, state = loaded
            report = replace(report, **state)
    completed_hi = saved_hi = start - 1

    def fold_chunk(part: TwinScanResult) -> None:
        nonlocal completed_hi, saved_hi
        _fold_claims(report, part)
        completed_hi = part.hi
        if checkpoint is not None and part.hi - saved_hi >= CHECKPOINT_SPAN:
            _save_checkpoint(checkpoint, params, part.hi + 1, _state(report))
            saved_hi = part.hi

    if start <= limit:
        try:
            scan_twin_range(start, limit, workers=workers, on_chunk=fold_chunk,
                            predict=True, corollary_check=True)
        except Exception as exc:  # worker failure: report the completed prefix
            report.aborted = True
            report.details.update(error=f"{type(exc).__name__}: {exc}",
                                  completed_hi=completed_hi)
    if checkpoint is not None and not report.aborted and os.path.exists(checkpoint):
        os.unlink(checkpoint)
    report.wall_time = time.perf_counter() - t0
    return report


def _counterexample(p: int, expected, observed, depth: int = 40) -> dict:
    """A counterexample with the traces of both sequences, for offline replay."""
    return {"p": p, "expected": expected, "observed": observed,
            "upper_trace": list(h_sequence(p + 2, depth)),
            "lower_trace": list(h_sequence(p, depth))}


def _count_into(counts: dict, values: np.ndarray) -> list:
    """Add how often each value occurs to counts; return the distinct values."""
    keys, freq = np.unique(values, return_counts=True)
    for k, v in zip(keys.tolist(), freq.tolist()):
        counts[k] = counts.get(k, 0) + v
    return keys.tolist()


def _fold_claims(report: CampaignReport, part: TwinScanResult) -> None:
    """Add one chunk's counts, and every claim's details and counterexamples, to report."""
    ps, m, max_diff, d = part.ps, part.m, part.max_diff, report.details
    found = report.counterexamples
    report.pairs_examined += int(ps.size)
    m_values = _count_into(report.m_value_histogram, m)
    _count_into(report.residue_counts, ps[part.near] % 10)
    d["fallback_pairs"] += part.fallback_count
    # Theorem 1: the classifier predicts simulated nearness
    for i in np.flatnonzero(part.predicted != part.near):
        found.append(_counterexample(int(ps[i]), bool(part.predicted[i]), bool(part.near[i])))
    near = ps[part.near]
    d["c_count"] += int(near.size)
    d["c_prefix"] += near[:50 - len(d["c_prefix"])].tolist()
    d["c_mod10_eq_1"] += near[near % 10 == 1].tolist()
    # Theorem 2: every m lies in ALLOWED_M_VALUES
    outside = [v for v in m_values if v not in ALLOWED_M_VALUES]
    for i in np.flatnonzero(np.isin(m, outside)):
        found.append(_counterexample(int(ps[i]), "m in {0,3,5,7,9,11,13,15,17}", int(m[i])))
    first = d["first_occurrence"]
    first.update({v: int(ps[np.argmax(m == v)]) for v in m_values if v not in first})
    d["first_occurrence"] = dict(sorted(first.items()))
    # Corollary 1: max_diff is 4 at p = 3 and >= 6 at every other pair. A pair
    # stopped at its first excess carries its prefix max_diff, which is then
    # > 6: that settles 4 versus >= 6 without walking to a distant merge.
    at3 = ps == 3
    for i in np.flatnonzero(at3 & (max_diff != 4)):
        found.append(_counterexample(3, "max_diff == 4", int(max_diff[i])))
    others = ~at3
    for i in np.flatnonzero(others & (max_diff < 6)):
        found.append(_counterexample(int(ps[i]), "max_diff >= 6", int(max_diff[i])))
    if others.any():
        low, prev = int(max_diff[others].min()), d["min_max_diff_excluding_p3"]
        d["min_max_diff_excluding_p3"] = low if prev is None else min(prev, low)
    # the m=15/17 equivalences are stated for constellations based at p = 30t+29
    cls29 = (ps % 30) == 29
    for m_val, matches in ((17, part.cor17), (15, part.cor15)):
        is_m = m == m_val
        for i in np.flatnonzero(cls29 & (is_m != matches)):
            found.append(_counterexample(int(ps[i]), f"m=={m_val} iff pattern({m_val})",
                                         {"m": int(m[i]), "pattern": bool(matches[i])}))
        d[f"count_m{m_val}"] += int(np.count_nonzero(is_m))
        d[f"count_m{m_val}_outside_mod30_29"] += int(np.count_nonzero(is_m & ~cls29))


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
