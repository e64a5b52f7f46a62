"""The live event loop: timed waits with microsecond precision, and the
runner every live entry point starts its loop with.

``selectors.EpollSelector`` hands ``epoll_wait`` whole milliseconds,
rounded up, so every timer of a loop on it fires up to a millisecond
late. The contract tests record the system calls the live loop's
selector makes instead of sleeping; the timed-wait one fails on a
plain ``EpollSelector``, which hands epoll 0.001 for a 0.0003 s wait.
"""

import asyncio
import select
import socket

import pytest

from repro.runtime.serve import new_live_loop, run_live

linux_only = pytest.mark.skipif(
    not hasattr(select, "epoll"), reason="the precise selector wraps epoll"
)


class _RecordingEpoll:
    """The selector's epoll object with ``poll`` recorded, not run."""

    def __init__(self, epoll, calls):
        self._epoll = epoll
        self._calls = calls

    def poll(self, timeout=-1, maxevents=-1):
        self._calls.append(("poll", timeout))
        return []

    def __getattr__(self, name):
        return getattr(self._epoll, name)


@pytest.fixture()
def recorded(monkeypatch):
    """(selector of a new live loop, the calls its waits make); a
    socket is registered so the loop watches more than its own fds."""
    loop = new_live_loop()
    selector = loop._selector
    left, right = socket.socketpair()
    calls = []

    def recording_select(rlist, wlist, xlist, timeout):
        calls.append(("select", list(rlist), list(wlist), list(xlist), timeout))
        return [], [], []

    loop.add_reader(left.fileno(), lambda: None)
    monkeypatch.setattr(select, "select", recording_select)
    monkeypatch.setattr(selector, "_selector", _RecordingEpoll(selector._selector, calls))
    yield selector, calls
    monkeypatch.undo()
    loop.remove_reader(left.fileno())
    loop.close()
    left.close()
    right.close()


@linux_only
class TestPreciseSelectorContract:
    def test_a_timed_wait_sleeps_in_select_on_the_epoll_fd_alone(self, recorded):
        selector, calls = recorded
        assert selector.select(0.0003) == []
        assert calls == [
            ("select", [selector.fileno()], [], [], 0.0003),
            ("poll", 0),
        ]

    def test_an_untimed_wait_blocks_in_epoll(self, recorded):
        selector, calls = recorded
        selector.select(None)
        assert calls == [("poll", -1)]

    def test_a_zero_wait_never_calls_select(self, recorded):
        selector, calls = recorded
        selector.select(0)
        selector.select(-1.0)
        assert calls == [("poll", 0), ("poll", 0)]


@linux_only
def test_a_timed_wait_returns_ready_events_at_once():
    # Real system calls: the epoll fd turns readable with the socket, so
    # select() returns long before its timeout and epoll reports the key.
    loop = new_live_loop()
    left, right = socket.socketpair()
    try:
        loop.add_reader(left.fileno(), lambda: None)
        right.send(b"x")
        ready = loop._selector.select(30.0)
        assert [key.fd for key, _ in ready] == [left.fileno()]
        loop.remove_reader(left.fileno())
    finally:
        loop.close()
        left.close()
        right.close()


class TestRunner:
    def test_returns_the_value_and_closes_the_loop(self):
        seen = {}

        async def main():
            loop = seen["loop"] = asyncio.get_running_loop()
            seen["straggler"] = loop.create_task(asyncio.sleep(3600))
            await asyncio.sleep(0.0003)
            return 42

        assert run_live(main()) == 42
        assert seen["loop"].is_closed()
        # The task main left behind was cancelled, not abandoned.
        assert seen["straggler"].cancelled()

    def test_an_exception_propagates_and_the_loop_still_closes(self):
        seen = {}

        async def main():
            seen["loop"] = asyncio.get_running_loop()
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_live(main())
        assert seen["loop"].is_closed()

    def test_refuses_to_nest_in_a_running_loop(self):
        async def main():
            inner = asyncio.sleep(0)
            try:
                with pytest.raises(RuntimeError, match="running event loop"):
                    run_live(inner)
            finally:
                inner.close()
            return "outer"

        assert run_live(main()) == "outer"
