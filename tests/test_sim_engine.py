"""Unit tests for the shared discrete-event queue."""

import pytest

from repro.core.events import EventQueue


class TestEventQueue:
    def test_pop_empty_raises_clear_error(self):
        q = EventQueue()
        with pytest.raises(IndexError, match="pop from empty EventQueue"):
            q.pop()

    def test_pop_empty_after_drain(self):
        q = EventQueue()
        q.push(3, "a")
        assert q.pop() == (3, "a")
        with pytest.raises(IndexError, match="pop from empty EventQueue"):
            q.pop()

    def test_time_order(self):
        q = EventQueue()
        q.push(5, "late")
        q.push(1, "early")
        q.push(3, "mid")
        assert [q.pop() for _ in range(3)] == [
            (1, "early"), (3, "mid"), (5, "late")]

    def test_ties_pop_in_insertion_order(self):
        q = EventQueue()
        for payload in ("first", "second", "third"):
            q.push(7, payload)
        assert [q.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_payloads_need_not_be_comparable(self):
        q = EventQueue()
        q.push(2, {"uncomparable": True})
        q.push(2, {"uncomparable": False})
        assert q.pop()[1] == {"uncomparable": True}

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(9, "x")
        q.push(4, "y")
        assert q.peek_time() == 4
        q.pop()
        assert q.peek_time() == 9
        q.pop()
        assert q.peek_time() is None

    def test_pop_at_takes_only_matching_time(self):
        q = EventQueue()
        q.push(2, "a")
        q.push(2, "b")
        q.push(5, "c")
        assert q.pop_at(2) == ["a", "b"]
        assert len(q) == 1
        assert q.pop_at(2) == []
        assert q.pop_at(5) == ["c"]
        assert not q

    def test_pop_at_on_empty_queue(self):
        q = EventQueue()
        assert q.pop_at(0) == []

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError, match="nonnegative"):
            q.push(-1, "x")

    def test_len_and_bool(self):
        q = EventQueue()
        assert len(q) == 0 and not q
        q.push(1, "x")
        assert len(q) == 1 and q
