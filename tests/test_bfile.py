import pytest

from twinconst.bfile import FIXTURES, get_fixture
from twinconst.cli import _print_terms


def test_emit_format(capsys):
    _print_terms((17, 19, 20), 2, "bfile")
    assert capsys.readouterr().out == "2 17\n3 19\n4 20\n"


def test_round_trip(capsys):
    # each printed b-file line reads back as the next (index, term)
    terms = (4, 14, 6, 6, 6, 12)
    _print_terms(terms, 1, "bfile")
    lines = [tuple(map(int, line.split())) for line in capsys.readouterr().out.splitlines()]
    assert lines == [(1 + i, t) for i, t in enumerate(terms)]


def test_emit_empty(capsys):
    _print_terms((), 1, "bfile")
    assert capsys.readouterr().out == ""


def test_fixture_lookup():
    assert get_fixture("a276848")[0] == "c-sequence"
    assert get_fixture("A276826")[1][0] == 4
    assert get_fixture("merge-positions") == ("merge-positions", FIXTURES["merge-positions"])
    assert get_fixture("merge-positions")[1][:3] == (11, 47, 47)
    with pytest.raises(KeyError):
        get_fixture("nope")


def test_fixture_contents():
    assert FIXTURES["c-sequence"] == (
        3, 11, 17, 29, 59, 227, 269, 1277, 1289, 1607, 2129, 2789, 3527, 3917)
    assert len(FIXTURES["max-diffs"]) == 21
    assert len(FIXTURES["m-sequence"]) == 23
    assert len(FIXTURES["merge-positions"]) == 15
