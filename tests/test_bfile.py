import pytest

from twinconst.bfile import (
    FIXTURES,
    SequenceRecord,
    get_fixture,
)


def test_emit_format():
    rec = SequenceRecord("demo", 2, (17, 19, 20))
    assert rec.emit() == "2 17\n3 19\n4 20\n"


def test_round_trip():
    # each line of emit() reads back as the record's next (index, term)
    rec = SequenceRecord("demo", 1, (4, 14, 6, 6, 6, 12))
    lines = [tuple(map(int, line.split())) for line in rec.emit().splitlines()]
    assert lines == [(1 + i, t) for i, t in enumerate(rec.terms)]


def test_emit_empty():
    assert SequenceRecord("demo", 1, ()).emit() == ""


def test_fixture_lookup():
    assert get_fixture("a276848").name == "c-sequence"
    assert get_fixture("A276826").terms[0] == 4
    assert get_fixture("merge-positions").terms[:3] == (11, 47, 47)
    with pytest.raises(KeyError):
        get_fixture("nope")


def test_fixture_contents():
    assert FIXTURES["c-sequence"].terms == (
        3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789, 3527, 3917)
    assert len(FIXTURES["max-diffs"].terms) == 21
    assert len(FIXTURES["m-sequence"].terms) == 23
    assert len(FIXTURES["merge-positions"].terms) == 15
