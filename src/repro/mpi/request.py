"""Non-blocking operation handles, the analogue of ``MPI_Request``.

The runtime uses an eager/buffered send protocol, so send requests complete
at post time; receive requests wrap a matching-engine ticket and complete
when a message matches.
"""

from __future__ import annotations

from typing import Sequence

from .exceptions import RequestError
from .matching import RecvTicket
from .status import Status


class Request:
    """Base class for non-blocking operation handles."""

    def test(self) -> tuple[bool, Status | None]:
        """Non-blocking completion check; returns (done, status-or-None)."""
        raise NotImplementedError

    def wait(self, timeout: float | None = None) -> Status:
        """Block until complete; return the operation status."""
        raise NotImplementedError

    def done(self) -> bool:
        """Return whether the operation has completed."""
        raise NotImplementedError

    def cancel(self) -> bool:
        """Attempt to cancel; returns whether cancellation succeeded."""
        return False


class SendRequest(Request):
    """Handle for a buffered (eager) send — complete at creation.

    The wire-level send completes eagerly, but *MPI* semantics only hand
    the buffer back to the user at wait/test — which is where an attached
    race-sanitizer pin (``sanitizer_pin``, duck-typed, set by the bindings
    layer) is released and the buffer snapshot verified.
    """

    __slots__ = ("_status", "sanitizer_pin")

    def __init__(self, dest: int, tag: int, nbytes: int) -> None:
        self._status = Status(dest, tag, nbytes)
        self.sanitizer_pin = None

    def _release_pin(self) -> None:
        pin = self.sanitizer_pin
        if pin is not None:
            self.sanitizer_pin = None
            pin.release()

    def test(self) -> tuple[bool, Status]:
        self._release_pin()
        return True, self._status

    def wait(self, timeout: float | None = None) -> Status:
        self._release_pin()
        return self._status

    def done(self) -> bool:
        return True


class RecvRequest(Request):
    """Handle for a posted receive.

    ``wait`` completes the receive and (if a destination buffer was
    registered) copies the payload into it.
    """

    __slots__ = ("_ticket", "_sink", "_payload", "_waited")

    def __init__(self, ticket: RecvTicket, sink=None) -> None:
        self._ticket = ticket
        # Optional writable buffer (memoryview-able) to copy the payload into.
        self._sink = sink
        self._payload: bytes | None = None
        self._waited = False

    def test(self) -> tuple[bool, Status | None]:
        if self._ticket.done():
            self._finish()
            return True, self._ticket.status
        return False, None

    def wait(self, timeout: float | None = None) -> Status:
        self._ticket.wait(timeout)
        self._finish()
        return self._ticket.status

    def done(self) -> bool:
        return self._ticket.done()

    def payload(self) -> bytes:
        """Return the received bytes (valid after completion)."""
        if not self._ticket.done():
            raise RequestError("payload() before receive completed")
        self._finish()
        assert self._payload is not None
        return self._payload

    def _finish(self) -> None:
        if self._waited:
            return
        self._payload = self._ticket.payload or b""
        if self._sink is not None and self._payload:
            view = memoryview(self._sink).cast("B")
            n = len(self._payload)
            view[:n] = self._payload
        self._waited = True
        # Tell an active verifier the request was completed (not leaked);
        # covers the test()/payload() paths that bypass RecvTicket.wait.
        if self._ticket.verifier is not None:
            self._ticket.verifier.on_consume(self._ticket)


def waitall(requests: Sequence[Request]) -> list[Status]:
    """Wait for all requests; return their statuses in order."""
    return [r.wait() for r in requests]


def testall(requests: Sequence[Request]) -> tuple[bool, list[Status] | None]:
    """Test all requests; statuses only if every one is complete."""
    results = [r.test() for r in requests]
    if all(done for done, _ in results):
        return True, [st for _, st in results]  # type: ignore[misc]
    return False, None


def waitany(requests: Sequence[Request], poll_interval: float = 1e-5) -> int:
    """Wait until at least one request completes; return its index.

    A simple polling implementation — adequate for the benchmark suite,
    which never has more than a window's worth of outstanding requests.
    """
    import time

    if not requests:
        raise RequestError("waitany on empty request list")
    while True:
        for i, r in enumerate(requests):
            if r.done():
                r.wait()
                return i
        time.sleep(poll_interval)
