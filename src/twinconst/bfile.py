"""Embedded regression fixtures: published sequence prefixes, by name and
OEIS alias, for the `compare` command and regression tests."""

from __future__ import annotations

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

# The fixtures by name; each prefix starts at index 1.
FIXTURES: dict[str, tuple[int, ...]] = {
    "merge-positions": MERGE_POSITIONS_PREFIX,
    "max-diffs": MAX_DIFFS_PREFIX,
    "c-sequence": C_SEQUENCE_PREFIX,
    "m-sequence": M_SEQUENCE_PREFIX,
}

# OEIS aliases for the fixtures that have published identifiers.
FIXTURE_ALIASES = {
    "a276676": "merge-positions",
    "a276826": "max-diffs",
    "a276848": "c-sequence",
}


def get_fixture(name: str) -> tuple[str, tuple[int, ...]]:
    """(fixture name, terms) of a fixture named by its name or OEIS alias, in
    any case; KeyError for an unknown one."""
    key = name.lower()
    key = FIXTURE_ALIASES.get(key, key)
    if key not in FIXTURES:
        known = sorted(set(FIXTURES) | set(FIXTURE_ALIASES))
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(known)}")
    return key, FIXTURES[key]
