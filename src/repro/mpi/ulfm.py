"""ULFM-style communicator recovery: revoke, shrink, agree.

User-Level Failure Mitigation (the fault-tolerance chapter proposed for
the MPI standard) lets an application *survive* rank failures instead of
aborting: a member that observes a failure revokes the communicator
(``MPI_Comm_revoke``), which flushes every rank out of its pending
operations; the survivors then collectively build a smaller, working
communicator (``MPI_Comm_shrink``) and continue.  ``MPI_Comm_agree``
provides fault-tolerant agreement for application-level decisions.

This module implements those three operations for the runtime's
:class:`~repro.mpi.comm.Comm`:

* **revoke** — non-collective.  Broadcasts a ``CTRL_REVOKE`` control
  frame to every member and condemns the context in the local matching
  engine: posted receives fail with
  :class:`~repro.mpi.exceptions.CommRevokedError`, queued and future
  messages on the context are discarded.
* **shrink / agree** — collective among survivors.  Both run the same
  convergence protocol: repeated rounds of dead-set exchange on a
  reserved recovery context (``ULFM_CONTEXT_FLAG | comm.context``) until
  every survivor has seen the identical failure set.  Failures *during*
  the protocol are absorbed: a round that loses a peer records it and
  starts over with the smaller survivor set.

Recovery traffic is exempt from fault injection (see
:func:`~repro.mpi.transport.base.fault_exempt`) — the protocol must not
depend on the reliability machinery it is rebuilding — but it still
rides the reliability layer's ack/retransmit path when one is stacked,
so lost recovery messages surface as peer failures, not hangs.

Known limitation: a peer that stays silent for the per-round timeout
(``OMBPY_ULFM_TIMEOUT``, default 30 s) is declared dead even if it is
merely slow; and a rank that fails *after* a survivor has concluded the
final round can leave the remaining survivors disagreeing about that
last death until the next recovery.  Both mirror the behaviour of
timeout-based ULFM implementations.
"""

from __future__ import annotations

import struct
import time
from typing import Callable, TypeVar

from ..knobs import KNOBS, read
from .comm import Comm
from .exceptions import CommError, CommRevokedError, MPIError, RankFailedError
from .group import Group
from .matching import Envelope
from .transport.base import CTRL_REVOKE, ULFM_CONTEXT_FLAG

#: Per-round receive timeout (seconds) for the convergence protocol.
ENV_ULFM_TIMEOUT = "OMBPY_ULFM_TIMEOUT"
DEFAULT_TIMEOUT = KNOBS[ENV_ULFM_TIMEOUT].default

_WORD = struct.Struct("<q")
_CTX_SHIFT = 16
_CTX_MASK = (1 << _CTX_SHIFT) - 1

T = TypeVar("T")


def _recovery_timeout(timeout: float | None) -> float:
    return read(ENV_ULFM_TIMEOUT) if timeout is None else timeout


def revoke(comm: Comm) -> None:
    """Revoke ``comm`` everywhere (ULFM ``MPI_Comm_revoke``).

    Best-effort broadcast: peers that are already dead are skipped, and
    a notice that cannot be delivered is dropped (the peer will fail
    its own operations through the failure detector instead).  The
    local revocation is unconditional and idempotent.
    """
    endpoint = comm.endpoint
    _count(endpoint, "ulfm.revokes")
    payload = _WORD.pack(comm.context)
    already_dead = endpoint.engine.failed_ranks()
    for wr in comm.Get_group().world_ranks():
        if wr == endpoint.world_rank or wr in already_dead:
            continue
        endpoint.transport.send_control(wr, CTRL_REVOKE, payload)
    endpoint.engine.revoke_context(comm.context)


def shrink(comm: Comm, timeout: float | None = None) -> Comm:
    """Agree on the failed ranks and return the survivor communicator.

    Collective among survivors (ULFM ``MPI_Comm_shrink``).  The new
    communicator keeps the survivors in their old relative order and
    uses a context derived deterministically from the parent context
    and the (rank-aligned) recovery attempt number, so all survivors
    construct the identical communicator without further traffic.
    """
    _count(comm.endpoint, "ulfm.shrinks")
    dead, _flag, attempt = _converge(comm, True, timeout)
    survivors = [
        wr for wr in comm.Get_group().world_ranks() if wr not in dead
    ]
    if not survivors:
        raise CommError("shrink: no surviving ranks")
    return Comm(
        comm.endpoint,
        Group(survivors),
        _shrink_context(comm.context, attempt),
        comm.thread_level,
    )


def agree(
    comm: Comm, flag: bool = True, timeout: float | None = None
) -> bool:
    """Fault-tolerant agreement: AND of every live member's ``flag``."""
    _count(comm.endpoint, "ulfm.agreements")
    _dead, result, _attempt = _converge(comm, flag, timeout)
    return result


def _count(endpoint, name: str, n: int = 1) -> None:
    """Bump a telemetry counter when the endpoint carries a registry."""
    tele = endpoint.telemetry
    if tele is not None and tele.metrics is not None:
        tele.metrics.counter(name).inc(n)


def run_with_recovery(
    comm: Comm,
    fn: Callable[[Comm], T],
    max_attempts: int | None = None,
) -> tuple[T, Comm]:
    """Run ``fn(comm)``, shrinking and retrying after rank failures.

    On :class:`~repro.mpi.exceptions.RankFailedError` or
    :class:`~repro.mpi.exceptions.CommRevokedError` the communicator is
    revoked (flushing peers out of their pending operations), shrunk to
    the survivors, and ``fn`` is re-run on the new communicator.
    Returns ``(result, final_comm)`` — callers must use ``final_comm``
    for any further communication.  Each rank failure can trigger at
    most one retry, so attempts are bounded by the communicator size.
    """
    attempts = max_attempts if max_attempts is not None else max(1, comm.size)
    current = comm
    last: Exception | None = None
    for _ in range(attempts):
        try:
            return fn(current), current
        except (CommRevokedError, RankFailedError) as exc:
            last = exc
            if current.size <= 1:
                raise
            current.revoke()
            current = current.shrink()
    assert last is not None
    raise last


def _shrink_context(parent_context: int, attempt: int) -> int:
    """Derive the survivor communicator's context id.

    Counts down from the top of the 16-bit derivation slot while
    ``Comm.Dup``/``Split`` count up from 1, so shrink contexts cannot
    collide with ordinary derived communicators short of ~32k
    derivations at the same level.
    """
    slot = _CTX_MASK - (attempt & (_CTX_MASK >> 1))
    context = (parent_context << _CTX_SHIFT) | slot
    if context >= 1 << 62:
        raise CommError("communicator derivation too deep")
    return context


def _converge(
    comm: Comm, flag: bool, timeout: float | None
) -> tuple[set[int], bool, int]:
    """Dead-set convergence among survivors.

    Rounds of all-to-all dead-set exchange on the recovery context.
    Each round every presumed survivor sends ``(flag, sorted dead set)``
    to every other and waits for the same from each.  The protocol
    converges when a round completes with every received set equal to
    the set sent and no new failures observed — at that point all
    survivors hold the identical set (one clean exchange equalizes the
    sets; the next clean round confirms it simultaneously everywhere).

    Returns ``(dead world ranks, AND-ed flag, attempt number)``.
    """
    endpoint = comm.endpoint
    engine = endpoint.engine
    transport = endpoint.transport
    me = endpoint.world_rank
    members = comm.Get_group().world_ranks()
    member_set = set(members)
    uctx = ULFM_CONTEXT_FLAG | comm.context
    attempt = comm._next_ulfm_attempt()
    per_wait = _recovery_timeout(timeout)
    max_bytes = _WORD.size * (1 + len(members))

    # The sticky failure got us here; clear it so recovery receives can
    # be posted.  The per-rank death record survives acknowledgement.
    engine.acknowledge_failure()
    dead = {wr for wr in engine.failed_ranks() if wr in member_set}
    flag_word = 1 if flag else 0
    tele = endpoint.telemetry
    t0 = time.time_ns()

    max_rounds = 4 * len(members) + 4
    for rnd in range(max_rounds):
        tag = attempt * 4096 + rnd
        sent_dead = frozenset(dead)
        peers = [wr for wr in members if wr != me and wr not in dead]
        payload = _WORD.pack(flag_word) + b"".join(
            _WORD.pack(d) for d in sorted(sent_dead)
        )
        tickets = [
            (wr, engine.post_recv(uctx, wr, tag, max_bytes, source_world=wr))
            for wr in peers
        ]
        for wr in peers:
            env = Envelope(uctx, me, wr, tag, len(payload))
            try:
                transport.send(wr, env, payload)
            except Exception:  # noqa: BLE001 - peer death surfaces on wait
                pass

        converged = True
        for wr, ticket in tickets:
            data = None
            for _repost in range(len(members) + 2):
                try:
                    data = ticket.wait(per_wait)
                    break
                except TimeoutError:
                    # Documented limitation: a silent peer is declared
                    # dead after the recovery timeout.
                    engine.cancel_recv(ticket)
                    dead.add(wr)
                    break
                except MPIError as exc:
                    failed = getattr(exc, "rank", -1)
                    engine.acknowledge_failure()
                    if isinstance(failed, int) and failed in member_set:
                        dead.add(failed)
                    if wr in dead:
                        break
                    # Wakeup for a different rank's death: repost — this
                    # peer's round message may already be queued.
                    ticket = engine.post_recv(
                        uctx, wr, tag, max_bytes, source_world=wr
                    )
            else:
                # Repost budget exhausted without progress: give up on
                # this peer rather than spin.
                dead.add(wr)
            if data is None:
                converged = False
                continue
            words = [w for (w,) in _WORD.iter_unpack(data)]
            if words and words[0] == 0:
                flag_word = 0
            their_dead = set(words[1:])
            dead |= their_dead & member_set
            if their_dead != sent_dead:
                converged = False
        if dead != sent_dead:
            converged = False
        if converged:
            # Clear recovery-protocol stragglers (duplicate round
            # messages a peer resent before converging).
            engine.purge_unexpected(uctx)
            if tele is not None:
                _count(endpoint, "ulfm.rounds", rnd + 1)
                if tele.tracer is not None:
                    tele.tracer.complete(
                        "ulfm.converge", "ulfm", t0, time.time_ns() - t0,
                        {"rounds": rnd + 1, "dead": sorted(dead)},
                    )
            return dead, flag_word == 1, attempt

    raise MPIError(
        f"ULFM recovery failed to converge after {max_rounds} rounds "
        f"(dead={sorted(dead)})"
    )
