"""TCP transport for multi-process runs, on the lazy stream fabric.

Each rank binds a listening socket; the launcher distributes the full
``rank -> port`` map; connections are then established *on first send*
by :class:`~repro.mpi.fabric.stream.LazyStreamFabric` instead of the old
eager O(N²) mesh — ``establish_mesh`` just starts the acceptor and
returns.  TCP's in-order delivery per connection provides the per-sender
ordering the matching engine requires, and the fabric's reader chaining
preserves it across LRU eviction and re-dial.

Failure semantics are unchanged: an unexpected EOF / ``ECONNRESET`` on
an established connection is reported to the attached failure detector,
and a dial that stays refused is a dead peer (the port map is only
distributed after every rank reached ``listen``, so there is no
listener-startup race to wait out).
"""

from __future__ import annotations

import socket

from ..exceptions import RankError
from ..fabric.stream import LazyStreamFabric
from ..matching import Envelope
from .base import Transport

__all__ = ["TcpTransport"]


def _nodelay(sock: socket.socket) -> None:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class TcpTransport(Transport):
    """Localhost TCP transport for one rank (lazy connection cache)."""

    def __init__(
        self,
        world_rank: int,
        world_size: int,
        listen_sock: socket.socket,
        port_map: dict[int, int],
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(world_rank, world_size)
        self._host = host
        self._port_map = port_map
        self._fabric = LazyStreamFabric(
            self, listen_sock, self._dial_peer,
            label="tcp", configure=_nodelay,
        )

    # -- setup -----------------------------------------------------------
    @staticmethod
    def bind_ephemeral(host: str = "127.0.0.1") -> socket.socket:
        """Bind a listening socket on an OS-assigned port."""
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((host, 0))
        s.listen(128)
        return s

    def establish_mesh(self, timeout: float = 60.0) -> None:
        """Start the acceptor; O(1) — peers are dialed on first send."""
        self._fabric.start()

    def _dial_peer(self, peer: int) -> socket.socket:
        addr = (self._host, self._port_map[peer])
        return socket.create_connection(addr, timeout=10.0)

    # -- data path -------------------------------------------------------
    def send(self, dest_world_rank: int, env: Envelope, payload: bytes) -> None:
        if dest_world_rank == self.world_rank:
            self._deliver_local(env, payload)
            return
        if dest_world_rank not in self._port_map:
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
        # The fabric announces a clean departure (CTRL_GOODBYE) on every
        # established channel before tearing them down.
        self._fabric.close()
