"""Lazy, multiplexed connection cache for stream transports.

The eager mesh (every rank dials every lower rank at startup) costs
O(N²) connections and O(N) establishment time per rank — our own scale
lint prices it at ~61 ms of serialized dial latency at 128 ranks
(OMB510).  :class:`LazyStreamFabric` replaces it:

* **one acceptor per rank** — ``establish_mesh`` starts a listener
  thread and returns; nothing is dialed up front;
* **dial on first send** — the first message to a peer establishes the
  channel (with backed-off retries for the startup race); subsequent
  sends are a dict lookup.  A connection is full-duplex and shared: the
  accepting side registers it as *its* send channel too, so one socket
  serves an active pair in both directions;
* **LRU-capped socket budget** — with ``max_open`` set (or
  ``OMBPY_FABRIC_MAX_CONNS``), establishing a channel beyond the budget
  evicts the least-recently-used one.  Eviction is a cooperative
  half-close: the evictor sends a :data:`~..transport.base.CTRL_BYE`
  frame, shuts down its write side, and **keeps reading until EOF**, so
  frames already in flight from the peer are all delivered; the peer's
  reader consumes the BYE, retires the channel, and the peer's next
  send transparently re-dials;
* **ordering across re-dials** — readers for the same peer are chained:
  a new connection's reader first joins the previous reader, so frames
  a peer sent on the old channel are delivered before anything from the
  new one.  Per-sender FIFO survives eviction.

Failure semantics are unchanged from the eager mesh: an unexpected EOF
or send error on an established channel reports the peer to the failure
detector, and a dial that stays refused past a short patience window
(the listener is provably up before any peer learns our address) is a
dead peer, not a startup race.
"""

from __future__ import annotations

import errno
import itertools
import logging
import random
import socket
import struct
import threading
import time
from typing import Callable

from ...backoff import backoff
from ...knobs import read
from ..exceptions import InternalError, RankFailedError
from ..matching import Envelope
from ..transport.base import (
    CONTROL_CONTEXT, CTRL_BYE, HEADER_SIZE, control_envelope, pack_header,
    recv_exact_into, send_frame, unpack_header,
)

logger = logging.getLogger(__name__)

#: Connection preamble: the dialing side announces its world rank.
HELLO = struct.Struct("<i")

ENV_MAX_CONNS = "OMBPY_FABRIC_MAX_CONNS"

_DIAL_INITIAL_BACKOFF = 0.005
_DIAL_MAX_BACKOFF = 0.25

#: How long a *refused* dial keeps retrying.  Refused means the peer's
#: listener is gone: both stream transports publish their address only
#: after ``listen()`` (TCP via the rendezvous port map, UDS via the
#: bound socket file), so persistent refusal is a dead peer and waiting
#: the full dial timeout would wedge survivors for a minute.
_REFUSED_PATIENCE = 2.0

#: Transient connect errnos worth retrying while the refused-patience
#: window is open.
_RETRYABLE_ERRNOS = frozenset({
    errno.ECONNREFUSED, errno.ETIMEDOUT, errno.ECONNRESET,
    errno.ECONNABORTED, errno.EAGAIN,
})

#: Upper bound on waiting for a replaced reader to drain (see
#: ``_read_loop``); generous because it only triggers on eviction races.
_READER_CHAIN_TIMEOUT = 30.0


class _Channel:
    """One live stream socket to a peer."""

    __slots__ = ("closing", "last_used", "lock", "peer", "reader", "sock")

    def __init__(self, peer: int, sock: socket.socket) -> None:
        self.peer = peer
        self.sock = sock
        self.lock = threading.Lock()
        self.closing = False
        self.last_used = time.monotonic()
        self.reader: threading.Thread | None = None


class LazyStreamFabric:
    """Connection cache + acceptor + readers for one rank's stream sockets.

    Embedded by :class:`~repro.mpi.transport.tcp.TcpTransport` and
    :class:`~repro.mpi.transport.uds.UdsTransport` (and the hybrid
    transport's inter-group path): the owner supplies the listener
    socket and a ``dialer(peer) -> socket`` closure; the fabric owns
    every thread and socket after that.
    """

    def __init__(
        self,
        owner,
        listen_sock: socket.socket,
        dialer: Callable[[int], socket.socket],
        *,
        label: str,
        configure: Callable[[socket.socket], None] | None = None,
        max_open: int | None = None,
        dial_timeout: float | None = None,
        startup_errnos: frozenset[int] = frozenset(),
    ) -> None:
        self.owner = owner
        self.listen_sock = listen_sock
        self.dialer = dialer
        self.label = label
        self.configure = configure
        self.max_open = read(ENV_MAX_CONNS) if max_open is None else max_open
        self.dial_timeout = (
            read("OMBPY_DIAL_TIMEOUT") if dial_timeout is None
            else dial_timeout
        )
        self.startup_errnos = startup_errnos

        self._lock = threading.Lock()
        self._channels: dict[int, _Channel] = {}   # peer -> send channel
        self._dial_locks: dict[int, threading.Lock] = {}
        # Reader of a channel that entered cooperative close (BYE sent or
        # received) and is draining toward EOF; the next channel to the
        # same peer chains its reader behind this one for ordering.
        self._draining: dict[int, threading.Thread] = {}
        self._live: dict[int, int] = {}            # peer -> open stream count
        self._ensuring: set[int] = set()
        self._closed = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._counts = {
            "dials": 0, "accepts": 0, "evictions": 0, "byes": 0,
            "redials": 0, "peak_peers": 0, "peak_streams": 0,
        }

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the acceptor; O(1) — nothing is dialed here."""
        if self._accept_thread is not None:
            return
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self.label}-accept-r{self.owner.world_rank}", daemon=True,
        )
        self._accept_thread.start()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self.listen_sock.close()
        except OSError:
            pass
        with self._lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for ch in channels:
            with ch.lock:
                ch.closing = True
                _quiet_close(ch.sock)

    # -- queries -----------------------------------------------------------
    def connected(self) -> list[int]:
        """Peers with an established send channel right now."""
        with self._lock:
            return list(self._channels)

    def stats(self) -> dict[str, int]:
        """Connection-cache counters (for benchmarks and tests)."""
        with self._lock:
            out = dict(self._counts)
            out["open_peers"] = len(self._live)
            out["open_channels"] = len(self._channels)
            out["open_streams"] = sum(self._live.values())
        return out

    # -- data path ---------------------------------------------------------
    def send(self, dest: int, env: Envelope, payload: bytes) -> None:
        """Framed send; dials and (re-)establishes the channel as needed."""
        header = pack_header(env)
        while True:
            ch = self._channel_for(dest)
            with ch.lock:
                if ch.closing:
                    continue  # raced an eviction; fetch a fresh channel
                ch.last_used = time.monotonic()
                try:
                    send_frame(ch.sock, header, payload)
                    return
                except (ConnectionError, OSError) as exc:
                    if self._closed.is_set():
                        raise
                    if ch.closing:
                        continue  # evicted mid-wait; transparent re-dial
                    self._drop(dest, ch)
                    self.owner.report_peer_lost(
                        dest, f"send failed: {exc!r}"
                    )
                    raise RankFailedError(
                        f"send to rank {dest} failed: peer is dead "
                        f"({exc!r})", rank=dest,
                    ) from exc

    def ensure(self, peer: int) -> None:
        """Background-establish the channel to ``peer`` if absent.

        Called when a receive from ``peer`` is posted: the connection is
        how this rank *observes* the peer (EOF on crash, refused dial on
        death before first contact), so a recv-side rank must not stay
        blind just because it never sent.  Non-blocking: the dial runs
        on a short-lived daemon thread; failures surface through the
        failure detector, not the caller.
        """
        if peer == self.owner.world_rank or self._closed.is_set():
            return
        with self._lock:
            if peer in self._channels or peer in self._ensuring:
                return
            self._ensuring.add(peer)

        def _bg() -> None:
            try:
                self._channel_for(peer)
            except Exception:  # noqa: BLE001 - reported via the detector
                pass
            finally:
                with self._lock:
                    self._ensuring.discard(peer)

        threading.Thread(
            target=_bg, daemon=True,
            name=f"{self.label}-ensure-r{self.owner.world_rank}-to{peer}",
        ).start()

    # -- channel establishment --------------------------------------------
    def _channel_for(self, peer: int) -> _Channel:
        ch = self._channels.get(peer)
        if ch is not None and not ch.closing:
            return ch
        if self._closed.is_set():
            raise InternalError(
                f"{self.label}: send on closed transport"
            )
        with self._lock:
            dial_lock = self._dial_locks.setdefault(peer, threading.Lock())
        with dial_lock:
            ch = self._channels.get(peer)
            if ch is not None and not ch.closing:
                return ch
            if ch is not None:
                self._counts["redials"] += 1
            detector = self.owner.detector
            if detector is not None and peer in detector.failed_ranks():
                raise RankFailedError(
                    f"rank {peer} already declared dead; not dialing",
                    rank=peer,
                )
            try:
                sock = self._dial(peer)
            except (ConnectionError, TimeoutError, OSError) as exc:
                self.owner.report_peer_lost(
                    peer, f"dial failed: {exc!r}"
                )
                raise RankFailedError(
                    f"could not establish {self.label} connection to rank "
                    f"{peer}: {exc!r}", rank=peer,
                ) from exc
            try:
                if self.configure is not None:
                    self.configure(sock)
                sock.sendall(HELLO.pack(self.owner.world_rank))
            except (ConnectionError, OSError) as exc:
                _quiet_close(sock)
                self.owner.report_peer_lost(
                    peer, f"handshake failed: {exc!r}"
                )
                raise RankFailedError(
                    f"{self.label} handshake with rank {peer} failed "
                    f"({exc!r})", rank=peer,
                ) from exc
            return self._adopt(peer, sock, inbound=False)

    def _dial(self, peer: int) -> socket.socket:
        """Two-tier dial retry.

        Startup races (the peer's listener file/process does not exist
        yet — ``startup_errnos``) are retried until ``dial_timeout``;
        refused/reset dials only for :data:`_REFUSED_PATIENCE`, because
        a vanished listener means a dead peer (see module docstring).
        Anything else raises immediately.
        """
        start = time.monotonic()
        deadline = start + self.dial_timeout
        refused_deadline = start + min(_REFUSED_PATIENCE, self.dial_timeout)
        for attempt in itertools.count(1):
            try:
                return self.dialer(peer)
            except (ConnectionError, TimeoutError, OSError) as exc:
                err = getattr(exc, "errno", None)
                if err in self.startup_errnos:
                    limit = deadline
                elif (isinstance(exc, (ConnectionError, TimeoutError))
                        or err in _RETRYABLE_ERRNOS):
                    limit = refused_deadline
                else:
                    raise
                if time.monotonic() >= limit:
                    raise
                # Jitter keeps simultaneous dialers from re-colliding.
                delay = backoff(attempt, _DIAL_INITIAL_BACKOFF,
                                _DIAL_MAX_BACKOFF, random, jitter=(0.5, 1.0))
                time.sleep(max(0.0, min(delay, limit - time.monotonic())))

    def _adopt(
        self, peer: int, sock: socket.socket, *, inbound: bool
    ) -> _Channel:
        """Register a freshly established stream and start its reader."""
        ch = _Channel(peer, sock)
        with self._lock:
            if self._closed.is_set():
                _quiet_close(sock)
                raise InternalError(
                    f"{self.label}: transport closed during establishment"
                )
            current = self._channels.get(peer)
            if current is None or current.closing:
                self._channels[peer] = ch
                winner = ch
            else:
                # Simultaneous cross-dial: the established channel keeps
                # carrying our sends; the extra stream stays read-only
                # until the peer retires it.
                winner = current
            self._counts["accepts" if inbound else "dials"] += 1
            self._live[peer] = self._live.get(peer, 0) + 1
            self._counts["peak_peers"] = max(
                self._counts["peak_peers"], len(self._live)
            )
            self._counts["peak_streams"] = max(
                self._counts["peak_streams"], sum(self._live.values())
            )
            prev = self._draining.pop(peer, None)
            reader = threading.Thread(
                target=self._read_loop, args=(peer, ch, prev),
                name=f"{self.label}-read-r{self.owner.world_rank}"
                     f"-from{peer}", daemon=True,
            )
            ch.reader = reader
        reader.start()
        if winner is ch:
            self._maybe_evict(keep=peer)
        return winner

    # -- acceptor ----------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, _addr = self.listen_sock.accept()
            except OSError:
                return
            # A peer can die between connect() and its HELLO; a half-open
            # socket must not kill the acceptor (which would wedge every
            # later-arriving peer).
            try:
                if self.configure is not None:
                    self.configure(sock)
                (peer,) = HELLO.unpack(
                    recv_exact_into(sock, HELLO.size)
                )
            except (ConnectionError, OSError, struct.error) as exc:
                logger.warning(
                    "rank %d: dropping half-open inbound %s connection "
                    "(peer died mid-handshake: %r)",
                    self.owner.world_rank, self.label, exc,
                )
                _quiet_close(sock)
                continue
            try:
                self._adopt(peer, sock, inbound=True)
            except InternalError:
                return  # closed concurrently

    # -- readers -----------------------------------------------------------
    def _read_loop(
        self, peer: int, ch: _Channel, prev: threading.Thread | None
    ) -> None:
        # Ordering across re-dials: frames the peer pushed on a replaced
        # channel must be delivered before anything from this one.
        # ``prev`` is only ever the reader of a *draining* channel (BYE
        # already exchanged, EOF-bound), never of a live parallel stream
        # from a simultaneous cross-dial — so this join is short; the
        # timeout is a wedge guard, not a fast path.
        if prev is not None and prev.is_alive():
            prev.join(_READER_CHAIN_TIMEOUT)
        try:
            while not self._closed.is_set():
                env = unpack_header(recv_exact_into(ch.sock, HEADER_SIZE))
                if env.context == CONTROL_CONTEXT and env.tag == CTRL_BYE:
                    self._on_bye(peer, ch)
                    return
                payload = (
                    recv_exact_into(ch.sock, env.nbytes)
                    if env.nbytes else b""
                )
                self.owner._deliver_local(env, payload)
        except (ConnectionError, OSError) as exc:
            if self._closed.is_set() or ch.closing:
                # Our own teardown, or the drain-until-EOF tail of an
                # eviction we initiated: a clean connection end.
                _quiet_close(ch.sock)
                return
            self._drop(peer, ch)
            _quiet_close(ch.sock)
            self.owner.report_peer_lost(
                peer, f"connection lost mid-run: {exc!r}"
            )
        finally:
            with self._lock:
                left = self._live.get(peer, 1) - 1
                if left > 0:
                    self._live[peer] = left
                else:
                    self._live.pop(peer, None)

    def _on_bye(self, peer: int, ch: _Channel) -> None:
        """The peer is evicting this connection (not dying)."""
        with ch.lock:
            ch.closing = True
            self._drop(peer, ch)
            # Closing our end delivers the EOF the evictor's drain loop
            # is waiting on; anything we sent before this point was
            # already on the wire and will be read first.
            _quiet_close(ch.sock)
        with self._lock:
            self._counts["byes"] += 1
            if ch.reader is not None:
                self._draining[peer] = ch.reader

    # -- eviction ----------------------------------------------------------
    def _maybe_evict(self, keep: int) -> None:
        if not self.max_open:
            return
        while True:
            with self._lock:
                if len(self._channels) <= self.max_open:
                    return
                victims = [
                    c for p, c in self._channels.items()
                    if p != keep and not c.closing
                ]
                if not victims:
                    return
                victim = min(victims, key=lambda c: c.last_used)
            self._evict(victim)

    def _evict(self, ch: _Channel) -> None:
        """Cooperative half-close of the LRU channel.

        BYE, then ``SHUT_WR``, then *keep reading*: the peer drains our
        last frames, sees the BYE, closes its end — and only that EOF
        releases our reader (and the fd).  No frame in either direction
        is lost, which is what lets re-dial be transparent.
        """
        with ch.lock:
            if ch.closing:
                return
            ch.closing = True
            try:
                env = control_envelope(
                    CTRL_BYE, self.owner.world_rank, ch.peer
                )
                send_frame(ch.sock, pack_header(env), b"")
                ch.sock.shutdown(socket.SHUT_WR)
            except (ConnectionError, OSError):
                _quiet_close(ch.sock)  # peer is gone anyway
        self._drop(ch.peer, ch)
        with self._lock:
            self._counts["evictions"] += 1
            if ch.reader is not None:
                self._draining[ch.peer] = ch.reader

    # -- bookkeeping -------------------------------------------------------
    def _drop(self, peer: int, ch: _Channel) -> None:
        with self._lock:
            if self._channels.get(peer) is ch:
                del self._channels[peer]


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
