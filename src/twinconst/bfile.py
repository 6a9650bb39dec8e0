"""OEIS-style b-file records and embedded regression fixtures."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SequenceRecord:
    """Named integer sequence with an explicit starting index."""

    name: str
    offset: int
    terms: tuple[int, ...]

    def emit(self) -> str:
        """b-file text: one 'index value' pair per line."""
        lines = [f"{self.offset + i} {t}" for i, t in enumerate(self.terms)]
        return "\n".join(lines) + ("\n" if lines else "")


# Published prefixes used by the `compare` command and regression tests.
# Merge positions for pairs (a, b) over the first odd primes, grouped by a:
# (5,3); (7,3),(7,5); (11,3),(11,5),(11,7); (13,*); (17,*).
MERGE_POSITIONS_PREFIX = (
    11,
    47, 47,
    47, 47, 11,
    47, 47, 17, 17,
    683, 683, 683, 683, 683,
)
# Max trace difference per twin pair, ascending by lesser member.
MAX_DIFFS_PREFIX = (
    4, 14, 6, 6, 6, 12, 6, 8, 14, 14, 18,
    36, 24, 65, 18, 6, 10, 6, 84, 14, 162,
)
# Twin lessers whose max trace difference stays <= 6.
C_SEQUENCE_PREFIX = (
    3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789, 3527, 3917,
)
# First-excess index per twin pair (0 = difference never exceeds 6).
M_SEQUENCE_PREFIX = (
    0, 13, 0, 0, 0, 9, 0, 11, 11, 5, 3, 15, 3, 7, 3, 0, 3, 0, 3, 5, 7, 3, 11,
)

FIXTURES: dict[str, SequenceRecord] = {
    "merge-positions": SequenceRecord("merge-positions", 1, MERGE_POSITIONS_PREFIX),
    "max-diffs": SequenceRecord("max-diffs", 1, MAX_DIFFS_PREFIX),
    "c-sequence": SequenceRecord("c-sequence", 1, C_SEQUENCE_PREFIX),
    "m-sequence": SequenceRecord("m-sequence", 1, M_SEQUENCE_PREFIX),
}

# OEIS aliases for the fixtures that have published identifiers.
FIXTURE_ALIASES = {
    "a276676": "merge-positions",
    "a276826": "max-diffs",
    "a276848": "c-sequence",
}


def get_fixture(name: str) -> SequenceRecord:
    key = name.lower()
    key = FIXTURE_ALIASES.get(key, key)
    if key not in FIXTURES:
        known = sorted(set(FIXTURES) | set(FIXTURE_ALIASES))
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(known)}")
    return FIXTURES[key]
