"""Process topologies: Cartesian grids and node groups.

Stencil codes — the scientific workloads MPI bindings exist to serve —
arrange ranks on a grid and exchange halos with neighbours.  This module
provides the topology bookkeeping: rank <-> coordinate mapping, neighbour
shifts with optional periodic wrap-around, and sub-grid extraction.

It also owns the *node-group* model used by the scale-out fabric
(:mod:`repro.mpi.fabric`): a :class:`GroupMap` partitions the world into
contiguous rank blocks standing in for nodes.  Ranks inside a group are
assumed to share a cheap channel (SHM rings, or just locality), the
first rank of each group is its *leader*, and the two-level collectives
(:mod:`repro.mpi.collectives.hierarchy`) route inter-group traffic
through leaders only — the MVAPICH2 SMP-aware design the source paper
benchmarks against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

from ..knobs import read
from .comm import Comm
from .constants import PROC_NULL
from .exceptions import MPIError

#: Environment variable carrying the group spec to every rank process.
ENV_GROUPS = "OMBPY_GROUPS"


class TopologyError(MPIError):
    """Invalid topology construction or query."""


def dims_create(nnodes: int, ndims: int) -> list[int]:
    """Balanced grid dimensions for ``nnodes`` ranks (MPI_Dims_create).

    Produces non-increasing dimensions whose product is ``nnodes``, as
    close to a hypercube as the factorization allows.
    """
    if nnodes < 1 or ndims < 1:
        raise TopologyError(
            f"need nnodes >= 1 and ndims >= 1, got {nnodes}, {ndims}"
        )
    dims = [1] * ndims
    remaining = nnodes
    # Repeatedly peel the largest prime factor onto the smallest dim.
    factors: list[int] = []
    n = remaining
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        smallest = min(range(ndims), key=dims.__getitem__)
        dims[smallest] *= factor
    return sorted(dims, reverse=True)


@dataclass(frozen=True)
class CartTopology:
    """Geometry of a Cartesian grid (no communicator attached)."""

    dims: tuple[int, ...]
    periods: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise TopologyError("empty dimension list")
        if any(d < 1 for d in self.dims):
            raise TopologyError(f"non-positive dimension in {self.dims}")
        if len(self.periods) != len(self.dims):
            raise TopologyError(
                f"{len(self.periods)} periods for {len(self.dims)} dims"
            )

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def ndims(self) -> int:
        return len(self.dims)

    def coords(self, rank: int) -> tuple[int, ...]:
        """Row-major rank -> coordinates (MPI_Cart_coords)."""
        if not 0 <= rank < self.size:
            raise TopologyError(f"rank {rank} outside grid of {self.size}")
        out = []
        for extent in reversed(self.dims):
            out.append(rank % extent)
            rank //= extent
        return tuple(reversed(out))

    def rank(self, coords: Sequence[int]) -> int:
        """Coordinates -> rank (MPI_Cart_rank); wraps periodic dims."""
        if len(coords) != self.ndims:
            raise TopologyError(
                f"{len(coords)} coordinates for {self.ndims} dims"
            )
        rank = 0
        for dim, (c, extent, periodic) in enumerate(
            zip(coords, self.dims, self.periods)
        ):
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                raise TopologyError(
                    f"coordinate {c} outside non-periodic dim {dim} "
                    f"of extent {extent}"
                )
            rank = rank * extent + c
        return rank

    def shift(
        self, rank: int, direction: int, disp: int = 1
    ) -> tuple[int, int]:
        """(source, dest) ranks for a shift (MPI_Cart_shift).

        Off-grid neighbours in non-periodic dimensions are ``PROC_NULL``.
        """
        if not 0 <= direction < self.ndims:
            raise TopologyError(
                f"direction {direction} outside {self.ndims} dims"
            )
        base = list(self.coords(rank))

        def neighbour(offset: int) -> int:
            c = list(base)
            c[direction] += offset
            extent = self.dims[direction]
            if self.periods[direction]:
                c[direction] %= extent
            elif not 0 <= c[direction] < extent:
                return PROC_NULL
            return self.rank(c)

        return neighbour(-disp), neighbour(+disp)


class CartComm:
    """A communicator with Cartesian topology (MPI_Cart_create)."""

    def __init__(
        self,
        comm: Comm,
        dims: Sequence[int],
        periods: Sequence[bool] | None = None,
    ) -> None:
        topology = CartTopology(
            tuple(dims),
            tuple(periods) if periods is not None
            else tuple(False for _ in dims),
        )
        if topology.size > comm.size:
            raise TopologyError(
                f"grid of {topology.size} ranks exceeds communicator "
                f"size {comm.size}"
            )
        self.topology = topology
        # Ranks beyond the grid are excluded (MPI returns COMM_NULL).
        sub = comm.Split(
            0 if comm.rank < topology.size else -1, comm.rank
        )
        self._comm = sub  # None for excluded ranks

    @property
    def comm(self) -> Comm | None:
        """The grid communicator, or None if this rank is off-grid."""
        return self._comm

    @property
    def rank(self) -> int:
        self._check_member()
        assert self._comm is not None
        return self._comm.rank

    def _check_member(self) -> None:
        if self._comm is None:
            raise TopologyError("this rank is not part of the grid")

    def Get_coords(self, rank: int | None = None) -> tuple[int, ...]:
        self._check_member()
        return self.topology.coords(self.rank if rank is None else rank)

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        return self.topology.rank(coords)

    def Shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """(source, dest) for this rank's shift along ``direction``."""
        self._check_member()
        return self.topology.shift(self.rank, direction, disp)

    def neighbor_sendrecv(
        self,
        payload: bytes,
        direction: int,
        disp: int,
        tag: int,
        max_bytes: int,
    ) -> bytes:
        """Halo step: send ``disp``-ward, receive from the opposite side."""
        self._check_member()
        assert self._comm is not None
        source, dest = self.Shift(direction, disp)
        data, _st = self._comm.sendrecv_bytes(
            payload, dest, tag, source, tag, max_bytes
        )
        return data


# ---------------------------------------------------------------------------
# Node groups (scale-out fabric)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupMap:
    """Partition of the world into contiguous rank blocks ("nodes").

    Group ``g`` owns ranks ``[start(g), start(g) + sizes[g])``; its
    *leader* is the first rank of the block.  Contiguity is a deliberate
    restriction: it matches how launchers place ranks on nodes (block
    placement) and makes every query O(log G) bisection instead of a
    rank->group table that itself scales with N.
    """

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise TopologyError("empty group list")
        if any(s < 1 for s in self.sizes):
            raise TopologyError(f"non-positive group size in {self.sizes}")
        starts = []
        total = 0
        for s in self.sizes:
            starts.append(total)
            total += s
        object.__setattr__(self, "_starts", tuple(starts))

    # -- shape -----------------------------------------------------------
    @property
    def world_size(self) -> int:
        return sum(self.sizes)

    @property
    def n_groups(self) -> int:
        return len(self.sizes)

    @property
    def max_group_size(self) -> int:
        return max(self.sizes)

    # -- queries ---------------------------------------------------------
    def group_of(self, world_rank: int) -> int:
        """Index of the group owning ``world_rank``."""
        if not 0 <= world_rank < self.world_size:
            raise TopologyError(
                f"rank {world_rank} outside world of {self.world_size}"
            )
        return bisect.bisect_right(self._starts, world_rank) - 1

    def members(self, group: int) -> range:
        """World ranks of ``group``, in order."""
        if not 0 <= group < self.n_groups:
            raise TopologyError(
                f"group {group} outside {self.n_groups} groups"
            )
        start = self._starts[group]
        return range(start, start + self.sizes[group])

    def leader_of(self, group: int) -> int:
        """The group's leader: its first world rank."""
        return self.members(group)[0]

    def leaders(self) -> list[int]:
        """All group leaders, in group order."""
        return [self._starts[g] for g in range(self.n_groups)]

    def is_leader(self, world_rank: int) -> bool:
        return self.leader_of(self.group_of(world_rank)) == world_rank

    def spec(self) -> str:
        """Normalized spec string that round-trips through the parser."""
        if len(set(self.sizes)) == 1:
            return f"{self.n_groups}x{self.sizes[0]}"
        return ",".join(str(s) for s in self.sizes)


def parse_groups(spec: str, world_size: int) -> GroupMap:
    """Parse a ``--groups``/``OMBPY_GROUPS`` spec for ``world_size`` ranks.

    Accepted forms:

    * ``"GxS"`` — G groups of S ranks each; ``G*S`` must equal the world
      size (e.g. ``4x8`` for 32 ranks);
    * ``"a,b,c"`` — explicit per-group sizes summing to the world size;
    * ``"S"`` (plain integer) — groups of S ranks, last group ragged;
    * ``"auto"`` — near-square split (group size ≈ √N), the balance
      point where per-rank fd cost O(group_size + n_groups) is minimal.
    """
    text = spec.strip().lower()
    if world_size < 1:
        raise TopologyError(f"need world_size >= 1, got {world_size}")
    if not text:
        raise TopologyError("empty group spec")
    if text == "auto":
        gsize = max(1, math.isqrt(world_size))
        return parse_groups(str(gsize), world_size)
    try:
        if "x" in text:
            g_str, s_str = text.split("x")
            g, s = int(g_str), int(s_str)
            if g < 1 or s < 1:
                raise TopologyError(f"non-positive group shape {spec!r}")
            if g * s != world_size:
                raise TopologyError(
                    f"group spec {spec!r} covers {g * s} ranks but the "
                    f"world has {world_size}"
                )
            return GroupMap(tuple([s] * g))
        if "," in text:
            sizes = tuple(int(part) for part in text.split(","))
            if sum(sizes) != world_size:
                raise TopologyError(
                    f"group sizes {spec!r} sum to {sum(sizes)} but the "
                    f"world has {world_size}"
                )
            return GroupMap(sizes)
        gsize = int(text)
    except ValueError as exc:
        raise TopologyError(f"unparseable group spec {spec!r}") from exc
    if gsize < 1:
        raise TopologyError(f"non-positive group size in {spec!r}")
    gsize = min(gsize, world_size)
    full, rest = divmod(world_size, gsize)
    sizes = [gsize] * full + ([rest] if rest else [])
    return GroupMap(tuple(sizes))


def group_map_from_env(world_size: int) -> GroupMap | None:
    """The launch's group map, or ``None`` when running flat."""
    spec = (read(ENV_GROUPS) or "").strip()
    if not spec:
        return None
    return parse_groups(spec, world_size)
