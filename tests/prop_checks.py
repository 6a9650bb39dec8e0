"""Randomized property suites shared by test_properties and the acceptance
module (which runs them at >= 1000 cases each)."""

import contextlib
import io
import random

import numpy as np

from twinconst import primes, sweeps
from twinconst.cli import _print_terms
from twinconst.hseq import h_sequence, h_step
from twinconst.sweeps import scan_twin_range

ODD_PRIMES_100 = primes.consecutive_primes_from(3, 100)


def run_greedy_minimality(n_cases: int, seed: int = 0) -> int:
    """Traces are strictly increasing, index-primality-matched, and greedy."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        start = rng.choice(ODD_PRIMES_100)
        n_max = rng.randint(2, 120)
        values = h_sequence(start, n_max)
        assert values[0] == start
        for i, v in enumerate(values):
            n = 2 + i
            assert primes.is_prime(v) == primes.is_prime(n), (start, n)
            if i > 0:
                prev = values[i - 1]
                assert v > prev, (start, n)
                # no admissible value was skipped
                for cand in range(prev + 1, v):
                    assert primes.is_prime(cand) != primes.is_prime(n), (start, n, cand)
    return n_cases


def run_start_monotonicity(n_cases: int, seed: int = 1) -> int:
    """H_a(n) >= H_b(n) whenever a >= b, at every index."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        a, b = sorted(rng.sample(ODD_PRIMES_100, 2), reverse=True)
        steps = rng.randint(5, 200)
        va, vb = a, b
        for n in range(3, 3 + steps):
            n_is_prime = primes.is_prime(n)
            va = h_step(va, n_is_prime)
            vb = h_step(vb, n_is_prime)
            assert va >= vb, (a, b, n)
    return n_cases


def run_merge_persistence(n_cases: int, seed: int = 2) -> int:
    """Once equal, the traces stay equal."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(n_cases):
        a, b = sorted(rng.sample(ODD_PRIMES_100[:40], 2), reverse=True)
        va, vb = a, b
        merged_at = None
        for n in range(3, 3000):
            n_is_prime = primes.is_prime(n)
            va = h_step(va, n_is_prime)
            vb = h_step(vb, n_is_prime)
            if merged_at is not None:
                assert va == vb, (a, b, merged_at, n)
                if n - merged_at >= 50:
                    break
            elif va == vb:
                merged_at = n
        checked += 1
    return checked


def run_parallel_determinism(n_cases: int, seed: int = 3) -> int:
    """Scan results are identical for any worker count and chunking."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        limit = rng.randint(10, 4096)
        chunk = rng.randint(256, 1024)
        default_chunk, sweeps.CHUNK = sweeps.CHUNK, chunk
        try:
            serial = scan_twin_range(3, limit, predict=True, workers=1)
            parallel = scan_twin_range(3, limit, predict=True, workers=2)
        finally:
            sweeps.CHUNK = default_chunk
        for name in ("ps", "m", "max_diff", "max_diff_n", "merge_n",
                     "near", "predicted"):
            assert np.array_equal(getattr(serial, name),
                                  getattr(parallel, name)), (limit, chunk, name)
    return n_cases


def run_bfile_round_trip(n_cases: int, seed: int = 4) -> int:
    rng = random.Random(seed)
    for _ in range(n_cases):
        offset = rng.randint(-5, 100)
        terms = tuple(rng.randint(-(10**12), 10**12)
                      for _ in range(rng.randint(1, 40)))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _print_terms(terms, offset, "bfile")
        text = out.getvalue()
        assert text == "".join(f"{offset + i} {t}\n" for i, t in enumerate(terms))
    return n_cases
