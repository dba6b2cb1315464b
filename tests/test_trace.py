"""The diagnostics channel: scoped recording of notes."""

import pytest

from igmatch.trace import note, recording


def test_no_note_is_kept_outside_a_block():
    note("dropped")
    with recording() as notes:
        pass
    assert notes == []
    note("also dropped")
    assert notes == []


def test_nested_blocks_each_collect_their_notes_in_order():
    with recording() as outer:
        note("a")
        with recording() as inner:
            note("b")
            note("c")
        note("d")
    assert outer == ["a", "b", "c", "d"]
    assert inner == ["b", "c"]


def test_the_outer_context_comes_back_after_an_exception():
    with recording() as outer:
        with pytest.raises(ValueError):
            with recording() as inner:
                note("a")
                raise ValueError
        note("b")
    note("c")
    assert outer == ["a", "b"]
    assert inner == ["a"]
