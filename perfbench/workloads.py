"""The three benchmark workloads: inputs from the seed, output parsing, checks.

Each workload reads what one child process left behind, checks it against
references the program does not produce, and re-derives a seeded sample of
pairs with the program's reference oracle, hseq.pair_trace, outside the timed
region.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

import reference
from child import HIGH_SPAN, MAXDIFF_COUNT, T1_LIMIT

ORACLE_BOUND = 10**6  # index bound for run-to-merge oracle traces


class Checks:
    """Counts attempted and failed checks; prints each failure to stderr."""

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed = 0
        self._log = log

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._log(f"FAILED check: {what}")
        return bool(ok)


def _oracle_near(p: int) -> bool:
    """Simulated nearness: traces from p and p + 2 merge and never differ by more than 6."""
    from twinconst.hseq import pair_trace

    rep = pair_trace(p + 2, p, reference.THRESHOLD, 64)
    if rep.first_excess:
        return False
    if rep.merged:
        return True
    rep = pair_trace(p + 2, p, reference.THRESHOLD, ORACLE_BOUND)
    return rep.merged and rep.max_diff <= reference.THRESHOLD


class Workload:
    """One workload. Subclasses define the output and its checks."""

    name = ""
    workers = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def child_args(self) -> list[str]:
        return []

    def read(self, cwd: Path, stdout: str):
        """(digest of the output that must repeat exactly, pairs resolved, parsed output)."""
        raise NotImplementedError

    def expected_files(self) -> set[str]:
        return set()

    def check_output(self, out, checks: Checks) -> None:
        raise NotImplementedError


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class T1(Workload):
    """The paper's headline campaign; the only user of the pool and checkpoints."""

    name = "t1_1e7"
    workers = 2

    def expected_files(self):
        return {"t1.report"}

    def read(self, cwd, stdout):
        text = (cwd / "t1.report").read_text()
        # the campaign's own timer is the only line that may differ between runs
        stable = [ln for ln in text.splitlines() if "wall_time_s" not in ln]
        fields = {}
        for ln in stable:
            key, sep, val = ln.partition(": ")
            if sep:
                fields[key] = val
        out = {
            "pairs": int(fields["pairs_examined"]),
            "counterexamples": int(fields["counterexamples"]),
            "verified": fields["verified"] == "True",
            "aborted": fields["aborted"] == "True",
            "m_hist": {int(k): int(v) for k, v in
                       (kv.split(":") for kv in fields["m_histogram"].split())},
            "c_count": int(fields["c_count"]),
            "c_prefix": json.loads(fields["c_prefix"]),
            "c_mod10_eq_1": json.loads(fields["c_mod10_eq_1"]),
        }
        return _digest("\n".join(stable).encode()), out["pairs"], out

    def check_output(self, out, checks):
        checks.check(out["pairs"] == reference.PI2[T1_LIMIT],
                     f"t1 pairs_examined {out['pairs']} != pi_2(1e7) = "
                     f"{reference.PI2[T1_LIMIT]} (A007508)")
        checks.check(out["verified"] and not out["aborted"] and out["counterexamples"] == 0,
                     "t1 campaign not verified")
        checks.check(sum(out["m_hist"].values()) == out["pairs"],
                     "t1 m histogram does not sum to the pair count")
        checks.check(set(out["m_hist"]) <= reference.ALLOWED_M,
                     f"t1 m values {sorted(out['m_hist'])} outside Theorem 2's set")
        checks.check(len(out["c_prefix"]) == min(50, out["c_count"]),
                     "t1 c_prefix length")
        # oracle: sampled near lessers, sampled non-near lessers below the
        # last listed one, and every listed near lesser = 1 mod 10
        prefix = out["c_prefix"]
        listed = set(prefix)
        others = [p for p in reference.twin_lessers(prefix[-1]) if p not in listed]
        for p in self.rng.sample(prefix, 4):
            checks.check(_oracle_near(p), f"t1 oracle: listed lesser {p} is not near")
        for p in self.rng.sample(others, 4):
            checks.check(not _oracle_near(p), f"t1 oracle: unlisted lesser {p} is near")
        for p in out["c_mod10_eq_1"]:
            checks.check(p % 10 == 1 and _oracle_near(p),
                         f"t1 oracle: c_mod10_eq_1 entry {p}")


class High(Workload):
    """Sieve-bound sweep: every chunk near 1e14 rebuilds ~664k base primes."""

    name = "high_1e14"
    workers = 1

    def __init__(self, seed):
        super().__init__(seed)
        self.lo = ((10**14 >> 20) + self.rng.randrange(4096)) << 20
        self.hi = self.lo + HIGH_SPAN - 1

    def child_args(self):
        return ["--lo", str(self.lo)]

    def expected_files(self):
        return {"scan.npz"}

    def read(self, cwd, stdout):
        with np.load(cwd / "scan.npz") as data:
            out = {k: data[k] for k in data.files}
        digest = _digest(*(np.ascontiguousarray(out[k]).tobytes() for k in sorted(out)))
        return digest, int(out["ps"].size), out

    def check_output(self, out, checks):
        from twinconst.primes import is_prime

        ps = out["ps"]
        checks.check(ps.size > 0 and ps[0] >= self.lo and ps[-1] <= self.hi
                     and bool(np.all(np.diff(ps) > 0)),
                     "high ps not ascending inside the scanned range")
        for p in self.rng.sample([int(p) for p in ps], 32):
            checks.check(is_prime(p) and is_prime(p + 2),
                         f"high: reported {p}, {p + 2} not both prime")
        for _ in range(4):
            a = self.rng.randrange(self.lo, self.hi - 4096) | 1
            want = [p for p in range(a, a + 4096, 2) if is_prime(p) and is_prime(p + 2)]
            got = ps[(ps >= a) & (ps < a + 4096)].tolist()
            checks.check(got == want, f"high: twin lessers in [{a}, {a + 4096}) differ")
        m = out["m"]
        checks.check(np.array_equal(out["predicted"], out["near"]),
                     "high: Theorem 1 classifier disagrees with simulation")
        checks.check(np.isin(m, sorted(reference.ALLOWED_M)).all(),
                     "high: m outside Theorem 2's set")
        cls29 = ps % 30 == 29
        for m_val, matches in ((17, out["cor17"]), (15, out["cor15"])):
            checks.check(np.array_equal((m == m_val)[cls29], matches[cls29]),
                         f"high: m={m_val} corollary equivalence fails")
        for i in self.rng.sample(range(ps.size), 8):
            checks.check(self._oracle_agrees(out, i), f"high oracle: pair {int(ps[i])}")

    @staticmethod
    def _oracle_agrees(out, i) -> bool:
        from twinconst.hseq import pair_trace

        p, m = int(out["ps"][i]), int(out["m"][i])
        # stop-on-excess statistics cover indices up to m when m > 0
        rep = pair_trace(p + 2, p, reference.THRESHOLD, m if m else ORACLE_BOUND)
        merge_n = rep.merge_index if rep.merged else 0
        return (rep.first_excess == m and rep.max_diff == int(out["max_diff"][i])
                and rep.max_diff_first_index == int(out["max_diff_n"][i])
                and merge_n == int(out["merge_n"][i]))


class MaxDiff(Workload):
    """Run-to-merge walks; the only workload with hseq straggler fallbacks."""

    name = "maxdiff_205"
    workers = 1

    def read(self, cwd, stdout):
        terms = [int(t) for t in stdout.split()]
        return _digest(stdout.encode()), len(terms), terms

    def check_output(self, terms, checks):
        from twinconst.hseq import pair_trace
        from twinconst.primes import twin_lessers

        n = reference.PI2[10**4]
        lessers = reference.twin_lessers(10**4)
        checks.check(len(lessers) == n, "reference sieve disagrees with pi_2(1e4)")
        checks.check(sum(1 for _ in twin_lessers(10**4)) == n,
                     f"program's twin_lessers(1e4) count != pi_2(1e4) = {n} (A007508)")
        checks.check(len(terms) == MAXDIFF_COUNT, f"maxdiff: {len(terms)} terms")
        prefix = reference.A276826_PREFIX
        checks.check(tuple(terms[: len(prefix)]) == prefix,
                     "maxdiff: first 21 terms differ from A276826")
        # the whole sequence is cheap enough to re-derive, and a sample would
        # rarely hit the two pairs that take the straggler fallback
        for p, term in zip(lessers, terms):
            rep = pair_trace(p + 2, p, reference.THRESHOLD, ORACLE_BOUND)
            checks.check(rep.merged and rep.max_diff == term,
                         f"maxdiff oracle: pair {p}: {rep.max_diff} vs {term}")


WORKLOADS = {w.name: w for w in (T1, High, MaxDiff)}
