"""twinconst: greedy prime-index-constrained sequences, twin-pair statistics,
and prime-constellation verification campaigns."""

from .constellations import (
    GapPattern,
    TwinClass,
    classify_twin,
    corollary_patterns,
    matches_pattern,
    predicts_near,
)
from .hseq import (
    HTrace,
    NotMergedWithin,
    PairReport,
    h_sequence,
    h_step,
    pair_trace,
)
from .primes import (
    Segment,
    consecutive_primes_from,
    first_twin_lessers,
    is_prime,
    next_composite,
    next_prime,
    sieve_segment,
    twin_lessers,
)
from .sweeps import scan_c_sequence, scan_m_sequence
from .verify import (
    CampaignReport,
    partitioned_scan,
    probe_conjecture1,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignReport",
    "GapPattern",
    "HTrace",
    "NotMergedWithin",
    "PairReport",
    "Segment",
    "TwinClass",
    "classify_twin",
    "consecutive_primes_from",
    "corollary_patterns",
    "first_twin_lessers",
    "h_sequence",
    "h_step",
    "is_prime",
    "matches_pattern",
    "next_composite",
    "next_prime",
    "pair_trace",
    "partitioned_scan",
    "predicts_near",
    "probe_conjecture1",
    "scan_c_sequence",
    "scan_m_sequence",
    "sieve_segment",
    "twin_lessers",
]
