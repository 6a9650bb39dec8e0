"""Gap patterns and the scalar nearness predicate for twin lessers.

A twin lesser p is "near" when the traces started at p and p+2 never drift
more than 6 apart. Simulation (hseq.pair_trace) is the ground truth; the
pattern classifier here predicts the same answer from a constellation test.
This module holds the pattern definitions (GapPattern, NEAR_PATTERNS,
corollary_patterns) and the scalar reference matchers, matches_pattern and
predicts_near, which make point queries one value at a time. It imports
neither numpy nor kernels nor sweeps: the bulk matchers
kernels.match_offsets_bulk and kernels.predict_near_bulk read the same
patterns from the gap words (kernels.gap_words) of a sweep's twin pairs,
and the sweeps of sweeps.py check them against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import primes


# The furthest offset a pattern may read: a gap word holds the primality of
# p + 2i for i = 0..MAX_SPAN // 2, 17 bits of a uint32. The classifier and
# corollary patterns read up to it.
MAX_SPAN = 32


@dataclass(frozen=True)
class GapPattern:
    """A prime constellation as a prime/composite word from a base prime p.

    p + o is prime for each o in offsets and composite for every other even
    o <= span; span defaults to offsets[-1] and may not pass MAX_SPAN. Odd
    offsets need no entry: p is odd, so p + o is even and composite.
    """

    offsets: tuple[int, ...]
    span: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.offsets or self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if any(o % 2 for o in self.offsets):
            raise ValueError("offsets must be even")
        if any(x >= y for x, y in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if self.span is None:
            object.__setattr__(self, "span", self.offsets[-1])
        if self.span < self.offsets[-1] or self.span % 2:
            raise ValueError("span must be even and at least offsets[-1]")
        if self.span > MAX_SPAN:
            raise ValueError(f"span {self.span} past MAX_SPAN = {MAX_SPAN}")

    @cached_property
    def word(self) -> tuple[int, int]:
        """(mask, bits): bit i of mask is set for each even offset 2i <= span,
        and bit i of bits when p + 2i is prime."""
        return (1 << (self.span // 2 + 1)) - 1, sum(1 << (o // 2) for o in self.offsets)


# Five- and seven-prime constellations characterizing nearness, keyed by the
# residue p % 30 of the twin lesser p; every twin lesser p > 5 has one of them.
NEAR_PATTERNS: dict[int, GapPattern] = {
    17: GapPattern((0, 2, 6, 12, 14)),
    29: GapPattern((0, 2, 8, 12, 14)),
    11: GapPattern((0, 2, 6, 8, 12, 18, 20)),
}

_EXCESS17_OFFSETS = (
    (0, 2, 8, 12, 18, 24, 30),
    (0, 2, 8, 14, 20, 24, 30),
    (0, 2, 8, 14, 18, 24, 30),
)


def matches_pattern(p: int, pattern: GapPattern) -> bool:
    """True iff the constellation described by pattern sits at the odd prime p."""
    if p % 2 == 0 or not primes.is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    mask, bits = pattern.word
    return all(primes.is_prime(p + 2 * i) == bool((bits >> i) & 1)
               for i in range(mask.bit_length()))


def predicts_near(p: int) -> bool:
    """Constellation-based prediction of max trace difference <= 6, no simulation."""
    if p < 2 or not (primes.is_prime(p) and primes.is_prime(p + 2)):
        raise ValueError(f"{p} is not a twin lesser")
    if p <= 5:
        return p == 3  # 3: the unique pair with max difference 4; 5: max difference 14
    return matches_pattern(p, NEAR_PATTERNS[p % 30])


def corollary_patterns(m: int) -> list[GapPattern]:
    """Constellations equivalent to first-excess index 17 (m=17) or 15 (m=15)."""
    if m == 17:
        return [GapPattern(o, span=32) for o in _EXCESS17_OFFSETS]
    if m == 15:
        return [GapPattern(o + (32,)) for o in _EXCESS17_OFFSETS]
    raise ValueError(f"patterns defined for m in {{15, 17}} only, got {m}")
