"""Unix-domain-socket transport, on the lazy stream fabric.

Same framing and fabric as the TCP transport, but over ``AF_UNIX``
sockets — the lower-latency local path (no TCP/IP stack, no port
allocation), standing in for the shared-memory channels real MPI
libraries use intra-node.  Selected with ``ombpy-run --transport uds``.

UDS has no rendezvous step: a rank's address is its socket file, which
appears when the rank binds.  A dial can therefore race rank startup —
``ENOENT`` (file not there yet) is retried up to the full dial timeout,
while a *refused* connect keeps the short dead-peer patience the fabric
applies everywhere.
"""

from __future__ import annotations

import errno
import os
import socket
import tempfile

from ..exceptions import RankError
from ..fabric.stream import LazyStreamFabric
from ..matching import Envelope
from .base import Transport


def socket_dir(job_id: str) -> str:
    """Directory holding the job's rank sockets."""
    return os.path.join(tempfile.gettempdir(), f"ombpy-uds-{job_id}")


def socket_path(job_id: str, rank: int) -> str:
    return os.path.join(socket_dir(job_id), f"rank{rank}.sock")


class UdsTransport(Transport):
    """AF_UNIX transport for one rank (lazy connection cache)."""

    def __init__(self, world_rank: int, world_size: int, job_id: str) -> None:
        super().__init__(world_rank, world_size)
        self._job_id = job_id
        os.makedirs(socket_dir(job_id), exist_ok=True)
        self._path = socket_path(job_id, world_rank)
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass
        listen = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listen.bind(self._path)
        listen.listen(max(world_size, 8))
        self._fabric = LazyStreamFabric(
            self, listen, self._dial_peer, label="uds",
            startup_errnos=frozenset({errno.ENOENT}),
        )

    def establish_mesh(self, timeout: float = 60.0) -> None:
        """Start the acceptor; O(1) — peers are dialed on first send."""
        self._fabric.start()

    def _dial_peer(self, peer: int) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(socket_path(self._job_id, peer))
        except BaseException:
            sock.close()
            raise
        return sock

    # -- data path -------------------------------------------------------
    def send(self, dest_world_rank: int, env: Envelope, payload: bytes) -> None:
        if dest_world_rank == self.world_rank:
            self._deliver_local(env, payload)
            return
        if not 0 <= dest_world_rank < self.world_size:
            raise RankError(
                f"no route to rank {dest_world_rank} "
                f"(world size {self.world_size})"
            )
        self._fabric.send(dest_world_rank, env, payload)

    # -- fabric surface ---------------------------------------------------
    def ensure_peer(self, peer_world_rank: int) -> None:
        self._fabric.ensure(peer_world_rank)

    def connected_peers(self) -> list[int]:
        return self._fabric.connected()

    def connection_stats(self) -> dict[str, int]:
        """Connection-cache counters (dials, evictions, peak peers...)."""
        return self._fabric.stats()

    def close(self) -> None:
        # The fabric says goodbye to connected peers before tearing down.
        self._fabric.close()
        try:
            os.unlink(self._path)
        except OSError:
            pass
