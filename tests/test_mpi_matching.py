"""Unit tests for the message-matching engine (no transport involved)."""

import threading

import pytest

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.exceptions import (
    CommRevokedError, RankFailedError, TruncationError,
)
from repro.mpi.matching import Envelope, MatchingEngine, RecvTicket
from repro.mpi.status import Status


def env(src=0, tag=1, nbytes=0, ctx=0, dest=0):
    return Envelope(ctx, src, dest, tag, nbytes)


class TestBasicMatching:
    def test_posted_then_delivered(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 100)
        assert not t.done()
        eng.deliver(env(nbytes=3), b"abc")
        assert t.done()
        assert t.wait() == b"abc"

    def test_delivered_then_posted(self):
        eng = MatchingEngine()
        eng.deliver(env(nbytes=3), b"xyz")
        t = eng.post_recv(0, 0, 1, 100)
        assert t.done()
        assert t.wait() == b"xyz"

    def test_status_filled(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, ANY_SOURCE, ANY_TAG, 100)
        eng.deliver(env(src=3, tag=9, nbytes=2), b"hi")
        t.wait()
        assert t.status.Get_source() == 3
        assert t.status.Get_tag() == 9
        assert t.status.count_bytes == 2


class TestWildcards:
    def test_any_source(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, ANY_SOURCE, 7, 10)
        eng.deliver(env(src=5, tag=7), b"")
        assert t.done()

    def test_any_tag(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 2, ANY_TAG, 10)
        eng.deliver(env(src=2, tag=42), b"")
        assert t.done()

    def test_wrong_source_not_matched(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 1, 7, 10)
        eng.deliver(env(src=2, tag=7), b"")
        assert not t.done()
        assert eng.pending_unexpected() == 1

    def test_wrong_tag_not_matched(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 1, 7, 10)
        eng.deliver(env(src=1, tag=8), b"")
        assert not t.done()

    def test_wrong_context_not_matched(self):
        eng = MatchingEngine()
        t = eng.post_recv(5, ANY_SOURCE, ANY_TAG, 10)
        eng.deliver(env(ctx=6), b"")
        assert not t.done()


class TestOrdering:
    def test_unexpected_fifo_per_pattern(self):
        eng = MatchingEngine()
        eng.deliver(env(src=1, tag=1, nbytes=1), b"a")
        eng.deliver(env(src=1, tag=1, nbytes=1), b"b")
        t1 = eng.post_recv(0, 1, 1, 10)
        t2 = eng.post_recv(0, 1, 1, 10)
        assert t1.wait() == b"a"
        assert t2.wait() == b"b"

    def test_posted_fifo(self):
        eng = MatchingEngine()
        t1 = eng.post_recv(0, ANY_SOURCE, ANY_TAG, 10)
        t2 = eng.post_recv(0, ANY_SOURCE, ANY_TAG, 10)
        eng.deliver(env(nbytes=1), b"x")
        assert t1.done() and not t2.done()

    def test_earliest_satisfying_recv_wins(self):
        eng = MatchingEngine()
        t1 = eng.post_recv(0, 3, 1, 10)       # specific source 3
        t2 = eng.post_recv(0, ANY_SOURCE, 1, 10)
        eng.deliver(env(src=2, tag=1), b"")
        # Message from 2 skips t1 (wants src 3) and matches t2.
        assert not t1.done() and t2.done()

    def test_tag_selectivity_across_interleaved_sends(self):
        eng = MatchingEngine()
        eng.deliver(env(src=1, tag=5, nbytes=1), b"5")
        eng.deliver(env(src=1, tag=6, nbytes=1), b"6")
        t6 = eng.post_recv(0, 1, 6, 10)
        t5 = eng.post_recv(0, 1, 5, 10)
        assert t6.wait() == b"6"
        assert t5.wait() == b"5"


class TestTruncation:
    def test_oversized_message_raises_on_wait(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 2)
        eng.deliver(env(nbytes=5), b"12345")
        with pytest.raises(TruncationError, match="truncates"):
            t.wait()

    def test_exact_fit_ok(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 5)
        eng.deliver(env(nbytes=5), b"12345")
        assert t.wait() == b"12345"


class TestProbe:
    def test_iprobe_empty(self):
        eng = MatchingEngine()
        assert eng.iprobe(0, ANY_SOURCE, ANY_TAG) is None

    def test_iprobe_does_not_consume(self):
        eng = MatchingEngine()
        eng.deliver(env(src=2, tag=3, nbytes=4), b"data")
        st = eng.iprobe(0, 2, 3)
        assert isinstance(st, Status)
        assert st.count_bytes == 4
        assert eng.pending_unexpected() == 1

    def test_probe_blocks_until_delivery(self):
        eng = MatchingEngine()
        result = {}

        def prober():
            result["st"] = eng.probe(0, 1, 1, timeout=5)

        th = threading.Thread(target=prober)
        th.start()
        eng.deliver(env(src=1, tag=1, nbytes=2), b"ok")
        th.join(5)
        assert not th.is_alive()
        assert result["st"].Get_source() == 1

    def test_probe_timeout(self):
        eng = MatchingEngine()
        with pytest.raises(TimeoutError):
            eng.probe(0, 1, 1, timeout=0.05)


class TestCancel:
    def test_cancel_posted(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 1, 1, 10)
        assert eng.cancel_recv(t)
        assert t.cancelled
        assert eng.pending_posted() == 0

    def test_cancel_after_match_fails(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 1, 1, 10)
        eng.deliver(env(src=1, tag=1), b"")
        assert not eng.cancel_recv(t)

    def test_cancelled_wait_returns_empty(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 1, 1, 10)
        eng.cancel_recv(t)
        assert t.wait() == b""


class TestConcurrency:
    def test_concurrent_delivery_and_posting(self):
        eng = MatchingEngine()
        n = 200
        tickets = []

        def poster():
            for _ in range(n):
                tickets.append(eng.post_recv(0, ANY_SOURCE, ANY_TAG, 64))

        def deliverer():
            for i in range(n):
                eng.deliver(env(src=0, tag=1, nbytes=2), b"%02d" % (i % 100))

        threads = [
            threading.Thread(target=poster),
            threading.Thread(target=deliverer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        for t in tickets:
            t.wait(timeout=5)
        assert eng.pending_posted() == 0
        assert eng.pending_unexpected() == 0


def _wait_in_thread(ticket, timeout=10.0):
    """Block in ``ticket.wait`` on a thread; returns (thread, outcome)."""
    outcome = {}

    def run():
        try:
            outcome["payload"] = ticket.wait(timeout)
        except Exception as exc:  # noqa: BLE001 - recorded for the test
            outcome["error"] = exc

    th = threading.Thread(target=run, daemon=True)
    th.start()
    return th, outcome


def _until_blocked(th):
    """Give a waiter thread time to park on the latch."""
    th.join(0.1)
    assert th.is_alive(), "waiter returned before the ticket completed"


class TestLatch:
    """RecvTicket's one-shot latch: every completion path wakes waiters."""

    def test_completion_before_wait(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 10)
        eng.deliver(env(nbytes=2), b"ok")
        assert t.done()
        assert t.wait_done(0) is True
        assert t.wait(timeout=0) == b"ok"
        assert t.wait() == b"ok"  # waiting again passes too

    def test_timeout_then_later_delivery(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 10)
        with pytest.raises(TimeoutError, match="timed out"):
            t.wait(timeout=0.05)
        assert t.wait_done(0) is False
        assert not t.done()
        eng.deliver(env(nbytes=3), b"yes")
        assert t.wait(timeout=5) == b"yes"

    def test_delivery_wakes_blocked_waiter(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 10)
        th, outcome = _wait_in_thread(t)
        _until_blocked(th)
        eng.deliver(env(nbytes=1), b"x")
        th.join(5)
        assert not th.is_alive()
        assert outcome == {"payload": b"x"}

    @pytest.mark.parametrize("how", [
        "fail", "cancel", "revoke_context", "set_failure",
    ])
    def test_every_completion_path_wakes_blocked_waiter(self, how):
        eng = MatchingEngine()
        # "fail" drives the ticket directly, so it must not be posted.
        t = RecvTicket(0, 0, 1, 10) if how == "fail" else eng.post_recv(
            0, 0, 1, 10
        )
        th, outcome = _wait_in_thread(t)
        _until_blocked(th)
        boom = RankFailedError("peer died", rank=0)
        if how == "fail":
            t.fail(boom)
        elif how == "cancel":
            assert eng.cancel_recv(t)
        elif how == "revoke_context":
            assert eng.revoke_context(0)
        else:
            eng.set_failure(boom)
        th.join(5)
        assert not th.is_alive(), f"{how} did not wake the waiter"
        assert t.done()
        if how == "cancel":
            assert outcome == {"payload": b""}
        elif how == "revoke_context":
            assert isinstance(outcome["error"], CommRevokedError)
        else:
            assert outcome["error"] is boom

    def test_two_waiters_on_one_ticket_both_return(self):
        eng = MatchingEngine()
        t = eng.post_recv(0, 0, 1, 10)
        waiters = [_wait_in_thread(t) for _ in range(2)]
        for th, _outcome in waiters:
            _until_blocked(th)
        eng.deliver(env(nbytes=2), b"hi")
        for th, outcome in waiters:
            th.join(5)
            assert not th.is_alive()
            assert outcome == {"payload": b"hi"}

    def test_stress_more_waiters_than_cores(self):
        """Every message reaches its receiver, in order, under heavy
        preemption (a lost latch release would hang a waiter)."""
        import sys

        eng = MatchingEngine()
        per_thread, n_threads = 200, 8
        got: dict[int, list[bytes]] = {tag: [] for tag in range(n_threads)}

        def receiver(tag):
            for _ in range(per_thread):
                got[tag].append(eng.post_recv(0, ANY_SOURCE, tag, 8).wait(10))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=receiver, args=(tag,), daemon=True)
                for tag in range(n_threads)
            ]
            for th in threads:
                th.start()
            for i in range(per_thread):
                for tag in range(n_threads):
                    eng.deliver(env(tag=tag, nbytes=8), b"%08d" % i)
            for th in threads:
                th.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        expected = [b"%08d" % i for i in range(per_thread)]
        assert all(got[tag] == expected for tag in range(n_threads))
        assert eng.pending_posted() == 0 and eng.pending_unexpected() == 0

    def test_verifier_slice_wait_reports_two_rank_deadlock(self):
        from repro.analysis import DeadlockError, verify
        from repro.mpi.world import run_on_threads

        def body(comm):
            with verify(comm, grace=0.1, op_timeout=5.0):
                comm.recv_bytes(1 - comm.rank, 7, 64)

        with pytest.raises(DeadlockError, match="deadlock detected"):
            run_on_threads(2, body, timeout=30)
