import pytest

from twinconst.hseq import (
    h_sequence,
    h_step,
    pair_trace,
)


def test_h_step():
    assert h_step(3, True) == 5
    assert h_step(19, False) == 20
    assert h_step(31, False) == 32
    with pytest.raises(ValueError):
        h_step(2, True)


def test_h_sequence_fixtures():
    assert h_sequence(3, 11) == (3, 5, 6, 7, 8, 11, 12, 14, 15, 17)
    assert h_sequence(17, 10) == (17, 19, 20, 23, 24, 29, 30, 32, 33)
    assert h_sequence(19, 10) == (19, 23, 24, 29, 30, 31, 32, 33, 34)


def test_h_sequence_validation():
    with pytest.raises(ValueError):
        h_sequence(4, 10)
    with pytest.raises(ValueError):
        h_sequence(9, 10)
    with pytest.raises(ValueError):
        h_sequence(3, 1)


def test_h_sequence_indexing():
    # the term at index n is at position n - 2: indices 2..n_max, no more
    terms = h_sequence(17, 10)
    assert len(terms) == 9
    assert terms[2 - 2] == 17
    assert terms[10 - 2] == 33
    with pytest.raises(IndexError):
        terms[11 - 2]


def test_h_sequence_prefix_determinism():
    short = h_sequence(7, 30)
    long = h_sequence(7, 100)
    assert long[: len(short)] == short


def test_merge_position_published_values():
    pairs = {(5, 3): 11, (7, 3): 47, (7, 5): 47, (11, 3): 47, (11, 5): 47,
             (11, 7): 11, (13, 7): 17, (13, 11): 17}
    pairs.update(((17, b), 683) for b in (3, 5, 7, 11, 13))
    for (a, b), want in pairs.items():
        assert pair_trace(a, b).merge_index == want, (a, b)


def test_merge_position_bound():
    assert pair_trace(17, 3, bound=100).merge_index is None
    assert pair_trace(17, 3, bound=683).merge_index == 683


def test_merge_position_validation():
    with pytest.raises(ValueError):
        pair_trace(4, 3)
    with pytest.raises(ValueError):
        pair_trace(3, 5)
    with pytest.raises(ValueError):
        pair_trace(5, 3, bound=1)


def test_pair_trace_published_values():
    rep = pair_trace(5, 3, 6, 1000)
    assert rep.max_diff == 4 and rep.first_excess == 0
    rep = pair_trace(7, 5, 6, 1000)
    assert rep.max_diff == 14 and rep.first_excess == 13
    rep = pair_trace(13, 11, 6, 1000)
    assert rep.max_diff == 6 and rep.first_excess == 0
    rep = pair_trace(43, 41, 6, 1000)
    assert rep.first_excess == 9


def test_pair_trace_merge_consistency():
    # the merge index is the first index where the materialized traces agree,
    # and they stay equal after it
    rep = pair_trace(19, 17)
    assert rep.merged and rep.merge_index == 11
    diffs = [va - vb for va, vb in zip(h_sequence(19, 20), h_sequence(17, 20))]
    assert diffs.index(0) + 2 == rep.merge_index
    assert not any(diffs[rep.merge_index - 2 :])


def test_pair_trace_unmerged_is_reported():
    rep = pair_trace(17, 3, bound=50)
    assert not rep.merged
    assert rep.merge_index is None


def test_pair_trace_validation():
    with pytest.raises(ValueError):
        pair_trace(5, 5)
    with pytest.raises(ValueError):
        pair_trace(5, 3, threshold=0)


def test_max_difference_known_pairs():
    for a, b, at in ((19, 17, 5), (31, 29, 3), (13, 11, 11)):
        rep = pair_trace(a, b)
        assert (rep.max_diff, rep.max_diff_first_index) == (6, at), (a, b)


def test_streaming_matches_materialized():
    # the O(1)-memory pair scan must agree with full trace materialization
    for a, b in ((7, 5), (13, 11), (19, 17), (31, 29), (43, 41)):
        rep = pair_trace(a, b)
        n_max = rep.merge_index + 5
        ta = h_sequence(a, n_max)
        tb = h_sequence(b, n_max)
        diffs = [ta[n - 2] - tb[n - 2] for n in range(2, n_max + 1)]
        assert max(diffs) == rep.max_diff
        assert 2 + diffs.index(max(diffs)) == rep.max_diff_first_index
        assert 2 + diffs.index(0) == rep.merge_index
        over = [n for n, d in zip(range(2, n_max + 1), diffs) if d > rep.threshold]
        assert (over[0] if over else 0) == rep.first_excess
