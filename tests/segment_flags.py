"""Per-value prime flags of a sieve window, for the tests that index it by value."""

import numpy as np


def value_flags(seg) -> np.ndarray:
    """flags[k] <=> seg.lo + k is prime, from the Segment's odd flags: of its
    even values only 2 is prime."""
    flags = np.zeros(seg.hi - seg.lo + 1, bool)
    flags[(seg.lo | 1) - seg.lo :: 2] = seg.odd
    if seg.lo <= 2 <= seg.hi:
        flags[2 - seg.lo] = True
    return flags
