"""Shared-memory ring transport.

The intra-node fast path of real MPI libraries: each *directed* rank
pair owns a single-producer/single-consumer byte ring in a POSIX
shared-memory segment.  The writer copies `header+payload` frames in
(splitting at the wrap point); one reader thread per incoming ring polls
its ring and delivers frames to the matching engine.  No sockets, no
kernel round trips on the data path — only memcpy through the segment.

Ring layout (little-endian)::

    [ head : u64 ][ tail : u64 ][ data : capacity bytes ]

``head`` is advanced only by the reader, ``tail`` only by the writer;
8-byte aligned stores are effectively atomic on the platforms we target,
and the SPSC discipline means no further synchronization is needed.
Selected with ``ombpy-run --transport shm``.
"""

from __future__ import annotations

import struct
import threading
import time
from multiprocessing import shared_memory

from ...knobs import KNOBS
from ..exceptions import InternalError, RankError
from ..matching import Envelope
from .base import (
    CTRL_GOODBYE, HEADER_SIZE, Transport, control_envelope, pack_header,
    unpack_header_from,
)

_CTRL = struct.Struct("<QQ")
_WORD = struct.Struct("<Q")
CTRL_SIZE = _CTRL.size
DEFAULT_CAPACITY = KNOBS["OMBPY_SHM_CAPACITY"].default  # per directed pair


def segment_name(job_id: str, src: int, dst: int) -> str:
    return f"ombpy-shm-{job_id}-{src}-{dst}"


def _attach(name: str, create: bool, size: int = 0):
    shm = shared_memory.SharedMemory(
        name=name, create=create, size=size if create else 0
    )
    if not create:
        # CPython's resource tracker "owns" every attached segment and
        # unlinks it at process exit, racing the creator's cleanup; the
        # creator (launcher) is the sole owner, so unregister attachments.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


class _Ring:
    """One SPSC ring over a shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self._shm = shm
        self._buf = shm.buf
        self.capacity = len(self._buf) - CTRL_SIZE

    # -- control words -----------------------------------------------------
    def _load(self) -> tuple[int, int]:
        return _CTRL.unpack_from(self._buf, 0)

    def _store_head(self, head: int) -> None:
        _WORD.pack_into(self._buf, 0, head)

    def _store_tail(self, tail: int) -> None:
        _WORD.pack_into(self._buf, 8, tail)

    # -- producer -----------------------------------------------------------
    def write(self, frame, stop: threading.Event) -> None:
        """Copy bytes in (bytes or memoryview), blocking (with backoff)
        while the ring is full."""
        n = len(frame)
        if n >= self.capacity:
            raise InternalError(
                f"frame of {n} bytes exceeds ring capacity "
                f"{self.capacity}; raise OMBPY_SHM_CAPACITY"
            )
        spins = 0
        while True:
            head, tail = self._load()
            free = self.capacity - (tail - head)
            if free > n:  # keep one byte free to distinguish full/empty
                break
            spins += 1
            if spins > 100:
                time.sleep(50e-6)
            if stop.is_set():
                raise InternalError("shm transport closed during write")
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        self._buf[CTRL_SIZE + pos:CTRL_SIZE + pos + first] = frame[:first]
        if first < n:
            self._buf[CTRL_SIZE:CTRL_SIZE + n - first] = frame[first:]
        self._store_tail(tail + n)

    def try_write(self, frame: bytes) -> bool:
        """Non-blocking write; False if the ring lacks space right now.

        Used for control frames (heartbeats): blocking on a full ring
        whose reader is dead would wedge the failure-detector thread —
        the very thread meant to notice that death.
        """
        n = len(frame)
        head, tail = self._load()
        if self.capacity - (tail - head) <= n:
            return False
        pos = tail % self.capacity
        first = min(n, self.capacity - pos)
        self._buf[CTRL_SIZE + pos:CTRL_SIZE + pos + first] = frame[:first]
        if first < n:
            self._buf[CTRL_SIZE:CTRL_SIZE + n - first] = frame[first:]
        self._store_tail(tail + n)
        return True

    # -- consumer -----------------------------------------------------------
    def read_into(self, out: bytearray) -> int:
        """Drain the ring by appending onto ``out``; returns bytes read.

        Extending a caller-owned bytearray from memoryview slices of the
        segment copies each byte exactly once (ring -> accumulator), with
        no intermediate bytes objects even at the wrap point.
        """
        head, tail = self._load()
        n = tail - head
        if n == 0:
            return 0
        pos = head % self.capacity
        first = min(n, self.capacity - pos)
        out += self._buf[CTRL_SIZE + pos:CTRL_SIZE + pos + first]
        if first < n:
            out += self._buf[CTRL_SIZE:CTRL_SIZE + n - first]
        self._store_head(head + n)
        return n

    def read_available(self) -> bytes:
        """Drain whatever is currently in the ring (may be empty)."""
        out = bytearray()
        self.read_into(out)
        return bytes(out)

    def close(self) -> None:
        # Release the memoryview before closing the mapping.
        self._buf = None
        self._shm.close()


def intra_group_pairs(group_map) -> list[tuple[int, int]]:
    """Directed (src, dst) pairs that share a node group.

    The hybrid fabric only needs shm rings within a group; inter-group
    traffic rides the stream fabric, so a grouped launch creates
    O(sum g_i^2) segments instead of O(N^2).
    """
    out: list[tuple[int, int]] = []
    for g in range(group_map.n_groups):
        members = group_map.members(g)
        for src in members:
            for dst in members:
                if src != dst:
                    out.append((src, dst))
    return out


def create_job_segments(
    job_id: str,
    world_size: int,
    capacity: int = DEFAULT_CAPACITY,
    pairs: list[tuple[int, int]] | None = None,
) -> list[shared_memory.SharedMemory]:
    """Launcher-side: create the directed-pair ring segments.

    ``pairs`` restricts creation to the given directed (src, dst) pairs
    (used by grouped launches); the default is the full mesh.
    """
    if pairs is None:
        pairs = [
            (src, dst)
            for src in range(world_size)
            for dst in range(world_size)
            if src != dst
        ]
    segments = []
    for src, dst in pairs:
        shm = _attach(
            segment_name(job_id, src, dst), create=True,
            size=CTRL_SIZE + capacity,
        )
        shm.buf[:CTRL_SIZE] = _CTRL.pack(0, 0)
        segments.append(shm)
    return segments


def destroy_job_segments(
    segments: list[shared_memory.SharedMemory],
) -> None:
    """Launcher-side: unlink every segment (idempotent per segment)."""
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass


class ShmTransport(Transport):
    """Per-rank handle: outgoing rings to every peer + reader threads."""

    def __init__(
        self,
        world_rank: int,
        world_size: int,
        job_id: str,
        peers: list[int] | None = None,
    ) -> None:
        super().__init__(world_rank, world_size)
        self._closed = threading.Event()
        self._out: dict[int, _Ring] = {}
        self._in: dict[int, _Ring] = {}
        self._write_locks: dict[int, threading.Lock] = {}
        self._readers: list[threading.Thread] = []
        # ``peers`` restricts the rings attached (grouped/hybrid launches
        # only create intra-group segments); default is the full mesh.
        ring_peers = (
            list(peers) if peers is not None else list(range(world_size))
        )
        for peer in ring_peers:
            if peer == world_rank:
                continue
            self._out[peer] = _Ring(
                _attach(segment_name(job_id, world_rank, peer), False)
            )
            self._in[peer] = _Ring(
                _attach(segment_name(job_id, peer, world_rank), False)
            )
            self._write_locks[peer] = threading.Lock()

    def connected_peers(self) -> list[int]:
        """Shm channels exist from attach time: exactly the ring peers."""
        return sorted(self._out)

    def attach(self, engine) -> None:
        """Bind the engine, *then* start draining the rings.

        Peer processes can write into our rings the moment they come up
        (there is no rendezvous on shm); frames simply wait in shared
        memory until the readers start.  Starting the readers before the
        engine is bound would let an early frame hit an engine-less
        transport and kill the reader thread.
        """
        super().attach(engine)
        if self._readers:
            return
        for peer, ring in self._in.items():
            t = threading.Thread(
                target=self._read_loop, args=(ring,),
                name=f"shm-read-r{self.world_rank}-from{peer}", daemon=True,
            )
            t.start()
            self._readers.append(t)

    def _read_loop(self, ring: _Ring) -> None:
        # One reusable accumulator: the ring drains straight into it,
        # headers are unpacked in place, and consumed frames are trimmed
        # with an in-place `del` — the only per-message copy left is the
        # payload handed to the engine (which outlives the accumulator).
        pending = bytearray()
        spins = 0
        while not self._closed.is_set():
            if not ring.read_into(pending):
                spins += 1
                # Back off quickly: on oversubscribed hosts (ranks >
                # cores) spinning readers starve the senders they wait on.
                if spins > 50:
                    time.sleep(100e-6)
                continue
            spins = 0
            # Parse as many complete frames as are buffered.
            offset = 0
            while len(pending) - offset >= HEADER_SIZE:
                env = unpack_header_from(pending, offset)
                total = HEADER_SIZE + env.nbytes
                if len(pending) - offset < total:
                    break
                with memoryview(pending) as view:
                    payload = bytes(view[offset + HEADER_SIZE:offset + total])  # ombpy-lint: ignore[OMB301,OMB302]
                offset += total
                self._deliver_local(env, payload)
            if offset:
                del pending[:offset]

    def send(self, dest_world_rank: int, env: Envelope, payload: bytes) -> None:
        if dest_world_rank == self.world_rank:
            self._deliver_local(env, payload)
            return
        try:
            ring = self._out[dest_world_rank]
        except KeyError:
            raise RankError(
                f"no shm ring to rank {dest_world_rank}"
            ) from None
        header = pack_header(env)
        # Header and payload go in as separate ring writes under one lock
        # acquisition, so the byte stream stays contiguous without ever
        # concatenating them; large payloads are chunked through the ring
        # as zero-copy memoryview slices.
        with self._write_locks[dest_world_rank]:
            ring.write(header, self._closed)
            if payload:
                limit = ring.capacity // 2
                with memoryview(payload) as view:
                    for off in range(0, len(view), limit):
                        ring.write(view[off:off + limit], self._closed)

    def send_control(
        self, dest_world_rank: int, kind: int, payload: bytes = b""
    ) -> None:
        """Control frames use a non-blocking ring write.

        There is no EOF on shared memory, so heartbeats are the *only*
        liveness signal here; a full ring (reader slow or dead) simply
        skips this beat rather than blocking the detector thread.
        """
        ring = self._out.get(dest_world_rank)
        if ring is None or self._closed.is_set():
            return
        env = control_envelope(
            kind, self.world_rank, dest_world_rank, len(payload)
        )
        with self._write_locks[dest_world_rank]:
            ring.try_write(pack_header(env) + payload)

    def close(self) -> None:
        if self._closed.is_set():
            return
        for peer in list(self._out):
            self.send_control(peer, CTRL_GOODBYE)
        self._closed.set()
        for t in self._readers:
            t.join(timeout=2)
        for ring in list(self._out.values()) + list(self._in.values()):
            ring.close()
