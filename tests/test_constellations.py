import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segment_flags import value_flags
import twinconst
from twinconst import primes
from twinconst.constellations import (
    MAX_SPAN,
    NEAR_PATTERNS,
    GapPattern,
    corollary_patterns,
    matches_pattern,
    predicts_near,
)
from twinconst.hseq import pair_trace
from twinconst.kernels import _odd_words, gap_words, match_offsets_bulk, predict_near_bulk
from twinconst.sweeps import scan_c_sequence, scan_m_sequence

PRODUCTION_PATTERNS = [*NEAR_PATTERNS.values(), *corollary_patterns(17),
                       *corollary_patterns(15)]


def test_classify_twin():
    # a twin lesser p > 5 is classed by p % 30, the key of its NEAR_PATTERNS
    # entry; 3 and 5 are special cases; anything else is refused
    assert sorted(NEAR_PATTERNS) == [11, 17, 29]
    for p in (11, 17, 29):
        assert predicts_near(p) == matches_pattern(p, NEAR_PATTERNS[p])
    assert predicts_near(3) is True
    assert predicts_near(5) is False
    for p in (0, 1, 7, 9, 23):
        with pytest.raises(ValueError, match="not a twin lesser"):
            predicts_near(p)


def test_classify_residues():
    # every twin lesser p > 5 lies in one of the residue classes 11, 17 and
    # 29 mod 30, the keys of NEAR_PATTERNS
    lessers = list(primes.twin_lessers(10_000))
    assert lessers[:4] == [3, 5, 11, 17]
    for p in lessers[2:]:
        assert p % 30 in NEAR_PATTERNS, p
        assert p % 10 == {11: 1, 17: 7, 29: 9}[p % 30], p


def test_gap_pattern_validation():
    with pytest.raises(ValueError):
        GapPattern((2, 4))
    with pytest.raises(ValueError):
        GapPattern((0, 3))
    with pytest.raises(ValueError):
        GapPattern((0, 4, 2))
    with pytest.raises(ValueError):
        GapPattern(())
    with pytest.raises(ValueError):
        GapPattern((0, 2, 6), span=4)
    with pytest.raises(ValueError):
        GapPattern((0, 2), span=5)
    assert GapPattern((0, 2, 6)).span == 6
    # a gap word holds offsets 0..MAX_SPAN: a longer pattern could never match
    assert GapPattern((0, 2), span=MAX_SPAN).word == ((1 << 17) - 1, 0b11)
    with pytest.raises(ValueError, match="MAX_SPAN"):
        GapPattern((0, 2), span=MAX_SPAN + 2)
    with pytest.raises(ValueError, match="MAX_SPAN"):
        GapPattern((0, 2, MAX_SPAN + 2))


def test_matches_pattern():
    five = GapPattern((0, 2, 6, 12, 14))
    assert matches_pattern(17, five)
    assert not matches_pattern(107, five)  # 119 = 7*17 breaks the run
    seven = GapPattern((0, 2, 6, 8, 12, 18, 20))
    assert matches_pattern(11, seven)
    with pytest.raises(ValueError):
        matches_pattern(15, five)
    with pytest.raises(ValueError):
        matches_pattern(2, GapPattern((0,)))


def test_matches_pattern_word():
    # 5, 7, 11, 13, 17: 5 + 12 is prime, but so are 5 + 6 and 5 + 8
    assert not matches_pattern(5, GapPattern((0, 2, 12)))
    assert matches_pattern(5, GapPattern((0, 2, 6, 8, 12)))
    # 137, 139, 149: nothing prime in between
    assert matches_pattern(137, GapPattern((0, 2, 12)))


def test_matches_pattern_span():
    assert matches_pattern(5, GapPattern((0, 2)))
    assert not matches_pattern(5, GapPattern((0, 2), span=6))  # 5+6=11 is prime
    assert matches_pattern(29, GapPattern((0, 2), span=6))  # 33 and 35 are composite


def test_predicts_near_examples():
    assert predicts_near(29)
    assert not predicts_near(5)
    assert predicts_near(3)
    assert predicts_near(165701)
    assert predicts_near(17)
    assert not predicts_near(41)
    with pytest.raises(ValueError):
        predicts_near(9)


def test_constellations_loads_without_the_bulk_readers():
    # the pattern definitions and the scalar matchers import no kernels, so
    # kernels can import the patterns without a cycle
    code = "import sys, twinconst.constellations; print('twinconst.kernels' in sys.modules)"
    src = str(Path(twinconst.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_predicts_near_matches_simulation_small():
    # simulated nearness: the traces merge with max difference <= 6
    for p in primes.twin_lessers(20_000):
        rep = pair_trace(p + 2, p)
        assert predicts_near(p) == (rep.merged and rep.max_diff <= 6), p


def test_predict_near_bulk_matches_scalar():
    # odd[i] <=> 3 + 2i is prime; the twin lessers below 40_000
    odd = primes.sieve_segment(3, 50_000).odd
    n = 20_000
    twin_is = np.flatnonzero(odd[:n] & odd[1 : n + 1])
    ps = 3 + 2 * twin_is
    bulk = predict_near_bulk(gap_words(twin_is, _odd_words(odd)), ps)
    for p, got in zip(ps.tolist(), bulk):
        assert bool(got) == predicts_near(p)


def test_match_offsets_bulk_matches_scalar():
    patterns = [*PRODUCTION_PATTERNS, GapPattern((0, 2, 12)), GapPattern((0, 2, 6), span=8)]
    hits = np.zeros(len(patterns), dtype=int)
    # the middle window holds 7447049, the first base of the m=15 pattern
    # (0, 2, 8, 12, 18, 24, 30, 32); the window from 3 holds one of every other
    for lo, width in ((3, 1 << 19), (7_446_000, 1 << 12), (10**12, 1 << 12)):
        # the primes below lo + width, all odd: odd[i] <=> (lo | 1) + 2i is prime
        odd = primes.sieve_segment(lo, lo + width + 40).odd
        idx = np.flatnonzero(odd[: width // 2])
        words = gap_words(idx, _odd_words(odd))
        for i, pattern in enumerate(patterns):
            bulk = match_offsets_bulk(words, pattern)
            scalar = [matches_pattern((lo | 1) + 2 * j, pattern) for j in idx.tolist()]
            assert bulk.tolist() == scalar, (lo, pattern)
            hits[i] += np.count_nonzero(bulk)
    assert hits.all(), hits


# hits of each production pattern among the primes of [3, 2^20 + 2]: near
# 17, 29 and 11; m=17; m=15
FIRST_CHUNK_HITS = [56, 60, 2, 2, 2, 2, 0, 1, 2]


@pytest.mark.parametrize("lo, hi, scalar_hi", [
    (3, 1 << 22, 1 << 20),
    (7_446_000, 7_450_000, 7_450_000),
    (10**12, 10**12 + 4096, 10**12 + 4096),
])
def test_matchers_agree_with_sieved_primes(lo, hi, scalar_hi):
    """Both matchers say "match" at a prime p exactly when the primes in
    [p, p + span] are p + offsets, compared as whole windows of the sieve,
    odd values included. The scalar matcher's Miller-Rabin queries would take
    about a minute over the primes of (2^20, 2^22], so it checks those up to
    scalar_hi only."""
    seg = primes.sieve_segment(lo, hi + MAX_SPAN)
    flags = value_flags(seg)
    ks = np.flatnonzero(flags[: hi - lo + 1])
    windows = np.lib.stride_tricks.sliding_window_view(flags, MAX_SPAN + 1)[ks]
    # the primes lo + ks are odd: odd index (lo + k - (lo | 1)) / 2
    words = gap_words((lo + ks - (lo | 1)) // 2, _odd_words(seg.odd))
    scalar_ks = ks[lo + ks <= scalar_hi].tolist()
    for i, pattern in enumerate(PRODUCTION_PATTERNS):
        word = np.zeros(pattern.span + 1, bool)
        word[list(pattern.offsets)] = True
        expected = (windows[:, : pattern.span + 1] == word).all(axis=1)
        assert np.array_equal(match_offsets_bulk(words, pattern), expected), pattern
        scalar = [matches_pattern(lo + k, pattern) for k in scalar_ks]
        assert scalar == expected[: len(scalar_ks)].tolist(), pattern
        if lo == 3:
            hits = np.count_nonzero(expected[lo + ks < 3 + (1 << 20)])
            assert hits == FIRST_CHUNK_HITS[i], pattern


def test_corollary_patterns():
    pats17 = corollary_patterns(17)
    assert len(pats17) == 3
    for pat in pats17:
        assert pat.offsets[-1] == 30
        assert pat.span == 32
    pats15 = corollary_patterns(15)
    assert len(pats15) == 3
    for pat in pats15:
        assert pat.offsets[-1] == 32
        assert pat.span == 32
    assert MAX_SPAN == 32
    with pytest.raises(ValueError):
        corollary_patterns(16)


def test_scan_c_sequence():
    assert scan_c_sequence(60) == [3, 11, 17, 29, 59]
    assert scan_c_sequence(2) == []
    full = scan_c_sequence(4000)
    assert full[-2:] == [3527, 3917]
    assert full == [3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789,
                    3527, 3917]


def test_scan_c_residue_coherence():
    for p in scan_c_sequence(50_000):
        if p >= 11:
            assert p % 30 in (11, 17, 29)


def test_scan_m_sequence():
    assert scan_m_sequence(6) == [0, 13, 0, 0, 0, 9]
    assert scan_m_sequence(1) == [0]
    assert scan_m_sequence(23)[-3:] == [7, 3, 11]
    with pytest.raises(ValueError):
        scan_m_sequence(0)


def test_scan_m_sequence_sieves_within_one_chunk_of_the_last_pair(monkeypatch):
    # the 10^4-th twin lesser, 1 260 989, is in the second 2^20-value chunk
    # from 3: the scan stops after that chunk, sieves each value up to its end
    # once, with each chunk's margin, and never lists the twin lessers first
    from twinconst import primes, sweeps

    count = 10**4
    last = primes.first_twin_lessers(count)[-1]
    want = sweeps.scan_twin_range(3, last).m.tolist()
    sieved = []
    sieve = primes.sieve_segment
    monkeypatch.setattr(primes, "sieve_segment",
                        lambda lo, hi: sieved.append((lo, hi)) or sieve(lo, hi))
    assert scan_m_sequence(count) == want
    chunk = sweeps.CHUNK
    assert 2 + chunk < last < 2 + 2 * chunk
    assert max(hi for _, hi in sieved) == 2 + 2 * chunk + sweeps.MARGIN
    assert sum(hi - lo + 1 for lo, hi in sieved) <= last + chunk + len(sieved) * sweeps.MARGIN


def test_scan_m_sequence_does_not_depend_on_the_worker_count():
    # two workers stop with the chunk in the other worker's hands unused
    assert scan_m_sequence(20_000, workers=2) == scan_m_sequence(20_000)


def test_scans_keep_only_their_terms(monkeypatch):
    # the c- and m-scans take each chunk's terms as it comes and never
    # concatenate the columns of the whole range
    from twinconst.bfile import get_fixture
    from twinconst.sweeps import TwinScanResult

    def refuse(parts):
        raise AssertionError("a scan concatenated its chunks")

    monkeypatch.setattr(TwinScanResult, "concat", refuse)
    c_seq, m_seq = get_fixture("c-sequence")[1], get_fixture("m-sequence")[1]
    assert tuple(scan_c_sequence(max(c_seq))) == c_seq
    assert tuple(scan_m_sequence(len(m_seq))) == m_seq
