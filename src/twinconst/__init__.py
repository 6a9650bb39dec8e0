"""twinconst: greedy prime-index-constrained sequences, twin-pair statistics,
and prime-constellation verification campaigns.

The package is used through its submodules (twinconst.primes, .hseq,
.constellations, .kernels, .sweeps, .verify, .bfile and .cli); it re-exports
no names.
"""

__version__ = "0.1.0"
