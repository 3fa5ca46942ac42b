"""Message-matching engine.

Implements MPI receive-matching semantics for one rank:

* an incoming message matches the *earliest* posted receive whose
  ``(context, source, tag)`` pattern it satisfies;
* a newly posted receive matches the *earliest* unexpected message it
  satisfies;
* messages between the same (sender, receiver, context) pair are
  non-overtaking — transports must deliver in per-sender order, and both
  queues here are FIFO-scanned, which together preserve MPI ordering.

The engine is thread-safe: transports deliver from their reader threads
while application threads post receives and block in :meth:`RecvTicket.wait`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .constants import ANY_SOURCE, ANY_TAG
from .exceptions import CommRevokedError, TruncationError
from .status import Status


@dataclass(slots=True, unsafe_hash=True)
class Envelope:
    """Wire-level message envelope (treat as immutable).

    Slotted and not frozen: a frozen dataclass's ``__init__`` goes
    through ``object.__setattr__``, and one envelope is built per send
    and per frame read.
    """

    context: int  # communicator context id
    source: int   # sender's rank within the communicator
    dest: int     # receiver's rank within the communicator
    tag: int
    nbytes: int


class RecvTicket:
    """Handle for one posted receive; completed by the matching engine.

    Waiters block on a one-shot latch: a lock created held, released
    exactly once when the ticket completes, fails or is cancelled (by the
    engine, under its lock).  A waiter acquires the latch and releases it
    again at once, so every waiter passes; :meth:`done` reads a flag set
    just before the release.
    """

    __slots__ = (
        "context", "source", "tag", "max_bytes",
        "_latch", "_done", "payload", "status", "error", "cancelled",
        "verifier",
    )

    def __init__(
        self, context: int, source: int, tag: int, max_bytes: int
    ) -> None:
        self.context = context
        self.source = source
        self.tag = tag
        self.max_bytes = max_bytes
        self._latch = latch = threading.Lock()
        latch.acquire()
        self._done = False
        self.payload: bytes | None = None
        self.status = Status()
        self.error: Exception | None = None
        self.cancelled = False
        # Optional runtime-verifier handle (repro.analysis), stamped by
        # Comm.irecv_bytes while a `verify` region is active.
        self.verifier = None

    def matches(self, env: Envelope) -> bool:
        """Return True if ``env`` satisfies this receive's pattern."""
        if env.context != self.context:
            return False
        if self.source != ANY_SOURCE and env.source != self.source:
            return False
        if self.tag != ANY_TAG and env.tag != self.tag:
            return False
        return True

    def complete(self, env: Envelope, payload: bytes) -> None:
        """Deliver a matched message into this ticket and wake the waiter."""
        if env.nbytes > self.max_bytes:
            self.error = TruncationError(
                f"message of {env.nbytes} bytes truncates receive buffer "
                f"of {self.max_bytes} bytes (source={env.source}, "
                f"tag={env.tag})"
            )
        self.payload = payload
        self.status._fill(env.source, env.tag, env.nbytes)
        self._done = True
        self._latch.release()

    def cancel(self) -> None:
        """Mark cancelled and wake the waiter (engine removes the ticket)."""
        self.cancelled = True
        self.status.cancelled = True
        self._done = True
        self._latch.release()

    def fail(self, error: Exception) -> None:
        """Complete the ticket with an error and wake the waiter."""
        self.error = error
        self._done = True
        self._latch.release()

    def describe(self) -> str:
        """One-line wait-state description (for failure diagnostics)."""
        src = "ANY_SOURCE" if self.source == ANY_SOURCE else self.source
        tag = "ANY_TAG" if self.tag == ANY_TAG else self.tag
        return f"recv(source={src}, tag={tag}, context={self.context:#x})"

    def done(self) -> bool:
        """Whether the ticket completed, failed or was cancelled."""
        return self._done

    def wait_done(self, timeout: float | None = None) -> bool:
        """Block until :meth:`done` or ``timeout`` seconds; return done()."""
        if self._done:
            return True
        latch = self._latch
        if latch.acquire(True, -1 if timeout is None else max(timeout, 0)):
            latch.release()
            return True
        return self._done

    def wait(self, timeout: float | None = None) -> bytes:
        """Block until matched; return the payload.

        Raises the recorded error (e.g. truncation) if one occurred.
        """
        if self.verifier is not None:
            # Surveillance wait: deadlock/timeout detection while blocked.
            self.verifier.wait_ticket(self, timeout)
        elif not self._done and not self.wait_done(timeout):
            raise TimeoutError(
                f"receive (source={self.source}, tag={self.tag}) timed out "
                f"after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        if self.cancelled:
            return b""
        return self.payload  # type: ignore[return-value]


class MatchingEngine:
    """Per-rank matching state: posted receives + unexpected messages."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._posted: list[RecvTicket] = []
        # Unexpected messages as (envelope, payload), oldest first.
        self._unexpected: list[tuple[Envelope, bytes]] = []
        # Blocking probes wait on this condition; deliveries signal it
        # only while ``_probing`` (count of waiting probes) is non-zero.
        self._delivered = threading.Condition(self._lock)
        self._probing = 0
        # Sticky endpoint failure (e.g. a peer rank died).  Once set, every
        # pending and future receive completes with this error: with a rank
        # gone the job cannot make progress, so fail fast everywhere rather
        # than hang survivors until the global timeout.  ULFM recovery
        # clears it via acknowledge_failure(); the per-rank record in
        # _failed_ranks is permanent.
        self._failure: Exception | None = None
        self._failed_ranks: dict[int, Exception] = {}
        # Revoked communicator contexts: permanently dead — posted
        # receives fail, queued and future messages are discarded.
        # ``_failure`` and ``_revoked`` are written under the lock but
        # read without it (a reference read / set lookup is atomic), so
        # the per-message liveness checks never contend with deliveries.
        self._revoked: set[int] = set()
        # Optional telemetry hooks (repro.telemetry); duck-typed so the
        # engine never imports the telemetry package.
        self.telemetry = None

    # -- receiver side ---------------------------------------------------
    def post_recv(
        self, context: int, source: int, tag: int, max_bytes: int,
        source_world: int | None = None,
    ) -> RecvTicket:
        """Post a receive; match immediately against unexpected messages.

        ``source_world`` (the sender's world rank, when the caller knows
        it) lets a receive targeting an already-dead peer fail promptly
        even after the sticky failure has been acknowledged.
        """
        ticket = RecvTicket(context, source, tag, max_bytes)
        with self._lock:
            if context in self._revoked:
                ticket.fail(CommRevokedError(
                    f"communicator context {context:#x} was revoked",
                    context=context,
                ))
                return ticket
            for i, (env, payload) in enumerate(self._unexpected):
                if ticket.matches(env):
                    del self._unexpected[i]
                    ticket.complete(env, payload)
                    if self.telemetry is not None:
                        self.telemetry.on_matched_from_queue(env)
                    return ticket
            if self._failure is not None:
                ticket.fail(self._failure)
                return ticket
            if source_world is not None and source_world in self._failed_ranks:
                ticket.fail(self._failed_ranks[source_world])
                return ticket
            self._posted.append(ticket)
            return ticket

    def cancel_recv(self, ticket: RecvTicket) -> bool:
        """Cancel a posted receive if it has not already matched."""
        with self._lock:
            try:
                self._posted.remove(ticket)
            except ValueError:
                return False
            ticket.cancel()
            if ticket.verifier is not None:
                ticket.verifier.on_consume(ticket)
            return True

    # -- transport side --------------------------------------------------
    def deliver(self, env: Envelope, payload: bytes) -> None:
        """Deliver an incoming message (called from transport threads)."""
        with self._lock:
            if env.context in self._revoked:
                # Straggler on a revoked communicator (e.g. a frame a
                # dead rank sent before dying): discard, don't queue.
                return
            for i, ticket in enumerate(self._posted):
                if ticket.matches(env):
                    del self._posted[i]
                    ticket.complete(env, payload)
                    if self.telemetry is not None:
                        self.telemetry.on_delivered(
                            env, matched=True,
                            queue_depth=len(self._unexpected),
                        )
                    return
            self._unexpected.append((env, payload))
            if self.telemetry is not None:
                self.telemetry.on_delivered(
                    env, matched=False, queue_depth=len(self._unexpected)
                )
            if self._probing:
                self._delivered.notify_all()

    # -- failure propagation ----------------------------------------------
    def set_failure(self, error: Exception) -> None:
        """Fail every pending and future receive with ``error``.

        Called by the failure detector (or a transport read loop) when a
        peer rank is declared dead.  Blocked waiters — point-to-point
        receives, collective-internal receives, probes — wake immediately
        and raise instead of waiting out their timeouts.
        """
        with self._lock:
            rank = getattr(error, "rank", -1)
            if isinstance(rank, int) and rank >= 0:
                self._failed_ranks.setdefault(rank, error)
            if self._failure is not None:
                return
            self._failure = error
            posted, self._posted = self._posted, []
            for ticket in posted:
                ticket.fail(error)
                if ticket.verifier is not None:
                    # The error is delivered into the ticket; without
                    # this the verifier would flag every failed receive
                    # as a leaked request at finalize.
                    ticket.verifier.on_consume(ticket)
            self._delivered.notify_all()

    def acknowledge_failure(self) -> Exception | None:
        """Clear the sticky failure so survivors can keep communicating.

        ULFM's ``MPI_Comm_failure_ack`` analogue: the recorded failure
        (returned, or None) stops poisoning new operations, while the
        per-rank death record stays — receives addressed at a dead peer
        still fail promptly, and :meth:`failed_ranks` still reports it
        for ``shrink()`` to exclude.
        """
        with self._lock:
            failure, self._failure = self._failure, None
            return failure

    def failed_ranks(self) -> set[int]:
        """World ranks recorded dead (survives acknowledge_failure)."""
        with self._lock:
            return set(self._failed_ranks)

    def failure(self) -> Exception | None:
        """The sticky endpoint failure, if one was recorded."""
        return self._failure

    def check_failure(self) -> None:
        """Raise the recorded endpoint failure, if any."""
        failure = self._failure
        if failure is not None:
            raise failure

    # -- revocation (ULFM) -------------------------------------------------
    def revoke_context(self, context: int) -> bool:
        """Kill one communicator context: fail posted, purge queued.

        Every posted receive on ``context`` completes with
        :class:`~repro.mpi.exceptions.CommRevokedError` (waking ranks
        parked inside the revoked communicator's collectives), queued
        unexpected messages on it are discarded, and any message that
        arrives later is dropped on delivery.  Returns False when the
        context was already revoked.
        """
        with self._lock:
            if context in self._revoked:
                return False
            self._revoked.add(context)
            error = CommRevokedError(
                f"communicator context {context:#x} was revoked",
                context=context,
            )
            keep: list[RecvTicket] = []
            for ticket in self._posted:
                if ticket.context != context:
                    keep.append(ticket)
                    continue
                ticket.fail(error)
                if ticket.verifier is not None:
                    ticket.verifier.on_consume(ticket)
            self._posted = keep
            self._unexpected = [
                um for um in self._unexpected if um[0].context != context
            ]
            self._delivered.notify_all()
            return True

    def is_revoked(self, context: int) -> bool:
        """Whether ``context`` has been revoked."""
        return context in self._revoked

    def purge_unexpected(self, context: int) -> int:
        """Drop queued unexpected messages on ``context`` (non-sticky).

        Unlike :meth:`revoke_context` this does not condemn the context:
        the ULFM consensus uses it to clear protocol stragglers from a
        context it will use again.
        """
        with self._lock:
            before = len(self._unexpected)
            self._unexpected = [
                um for um in self._unexpected if um[0].context != context
            ]
            return before - len(self._unexpected)

    def describe_pending(self) -> str:
        """Snapshot of the wait-state for failure diagnostics."""
        with self._lock:
            posted = [t.describe() for t in self._posted]
            unexpected = len(self._unexpected)
        if not posted and not unexpected:
            return "no pending operations"
        parts = []
        if posted:
            parts.append(f"{len(posted)} posted: " + "; ".join(posted))
        if unexpected:
            parts.append(f"{unexpected} unexpected message(s) queued")
        return ", ".join(parts)

    # -- probing ---------------------------------------------------------
    def _probe_unexpected(self, probe: RecvTicket) -> Status | None:
        """Status of the oldest queued message ``probe`` matches (locked)."""
        for env, _payload in self._unexpected:
            if probe.matches(env):
                return Status(env.source, env.tag, env.nbytes)
        return None

    def iprobe(
        self, context: int, source: int, tag: int
    ) -> Status | None:
        """Non-blocking probe of the unexpected queue."""
        probe = RecvTicket(context, source, tag, 0)
        with self._lock:
            return self._probe_unexpected(probe)

    def probe(
        self, context: int, source: int, tag: int,
        timeout: float | None = None,
    ) -> Status:
        """Blocking probe: wait until a matching message is unexpected."""
        probe = RecvTicket(context, source, tag, 0)
        with self._delivered:
            while True:
                st = self._probe_unexpected(probe)
                if st is not None:
                    return st
                if self._failure is not None:
                    raise self._failure
                self._probing += 1
                woken = self._delivered.wait(timeout)
                self._probing -= 1
                if not woken:
                    raise TimeoutError(
                        f"probe (source={source}, tag={tag}) timed out"
                    )

    # -- introspection (tests / debugging) --------------------------------
    def pending_unexpected(self) -> int:
        """Number of queued unexpected messages."""
        with self._lock:
            return len(self._unexpected)

    def pending_posted(self) -> int:
        """Number of posted-but-unmatched receives."""
        with self._lock:
            return len(self._posted)
