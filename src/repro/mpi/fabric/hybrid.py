"""Hybrid shm + stream transport for grouped (multi-node-style) launches.

The scale-out analogue of an MPI library's intra-node/inter-node split:
ranks inside a node group talk over shared-memory rings (the fast path),
while traffic that crosses a group boundary rides the lazy UDS stream
fabric.  A grouped ``shm`` launch therefore opens

* ``2 * (group_size - 1)`` ring mappings per rank (intra-group mesh),
* one UDS listener, and
* at most ``n_groups - 1`` streams (the leader's worst case — the
  hierarchical collectives route inter-group traffic through leaders,
  so non-leaders usually open none),

instead of the ``O(N)`` per-rank mesh a flat launch would need — the fd
and segment budget the launcher's :func:`~repro.mpi.fabric.budget.
check_fd_budget` guard plans for.

Selected automatically by :func:`repro.mpi.world.init` when the
launcher exported both ``OMBPY_TRANSPORT=shm`` and ``OMBPY_GROUPS``.
"""

from __future__ import annotations

import errno
import os
import socket

from ..matching import Envelope
from ..transport.shm import ShmTransport
from ..transport.uds import socket_dir, socket_path
from .stream import LazyStreamFabric


class HybridTransport(ShmTransport):
    """Intra-group shm rings + lazy inter-group UDS streams."""

    def __init__(
        self, world_rank: int, world_size: int, job_id: str, group_map
    ) -> None:
        my_group = group_map.group_of(world_rank)
        super().__init__(
            world_rank, world_size, job_id,
            peers=list(group_map.members(my_group)),
        )
        self.group_map = group_map
        self._job_id = job_id
        os.makedirs(socket_dir(job_id), exist_ok=True)
        self._path = socket_path(job_id, world_rank)
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass
        listen = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listen.bind(self._path)
        listen.listen(max(group_map.n_groups, 8))
        self._fabric = LazyStreamFabric(
            self, listen, self._dial_peer, label="hybrid",
            startup_errnos=frozenset({errno.ENOENT}),
        )

    def establish_mesh(self, timeout: float = 60.0) -> None:
        """Start the stream acceptor; rings attach eagerly in __init__."""
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
        if dest_world_rank in self._out:
            super().send(dest_world_rank, env, payload)
            return
        if dest_world_rank == self.world_rank:
            self._deliver_local(env, payload)
            return
        self._fabric.send(dest_world_rank, env, payload)

    def send_control(
        self, dest_world_rank: int, kind: int, payload: bytes = b""
    ) -> None:
        if dest_world_rank in self._out:
            super().send_control(dest_world_rank, kind, payload)
            return
        # Inter-group control frames ride the stream like data; the base
        # implementation routes through self.send and never raises.
        from ..transport.base import Transport

        Transport.send_control(self, dest_world_rank, kind, payload)

    # -- fabric surface ---------------------------------------------------
    def ensure_peer(self, peer_world_rank: int) -> None:
        if (
            peer_world_rank != self.world_rank
            and peer_world_rank not in self._out
        ):
            self._fabric.ensure(peer_world_rank)

    def connected_peers(self) -> list[int]:
        return sorted(set(self._out) | set(self._fabric.connected()))

    def connection_stats(self) -> dict[str, int]:
        """Stream-fabric counters plus the eager shm ring count."""
        stats = self._fabric.stats()
        stats["shm_peers"] = len(self._out)
        return stats

    def close(self) -> None:
        if not self._closed.is_set():
            # Says goodbye to the connected stream peers first.
            self._fabric.close()
            try:
                os.unlink(self._path)
            except OSError:
                pass
        super().close()
