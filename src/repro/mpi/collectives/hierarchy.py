"""Topology-aware two-level ("hierarchical") collectives.

When the launch declares node groups (``--groups``/``OMBPY_GROUPS``,
exposed as :class:`repro.mpi.topology.GroupMap` on the endpoint), a flat
collective wastes the topology: a 32-rank dissemination barrier crosses
group boundaries ``O(p log p)`` times even though intra-group hops are
cheap (SHM rings, or at least warm lazy-fabric channels) and inter-group
hops are the expensive ones.  The two-level decomposition here is the
MVAPICH2 SMP-aware design the source paper benchmarks against:

* **allreduce** — intra-group reduce to the leader, leader-level
  allreduce, intra-group bcast of the result;
* **bcast** — group representatives (the root for its own group, the
  leader elsewhere) relay across groups, then fan out inside;
* **barrier** — intra-group fan-in, leader-level barrier, intra-group
  release;
* **gather** — intra-group gather to the representative, one message
  per group to the root;
* **allgather** — intra-group gather, leader ring over concatenated
  group blocks, intra-group bcast of the assembled result.

Inter-group traffic therefore flows only between leaders: on the lazy
stream fabric a non-leader rank establishes connections only inside its
group, and a leader adds one per peer group — the O(group_size +
n_groups) connection bound the scaling tests assert.

Every algorithm is *value-identical* to its flat counterpart for exact
(integer/bitwise) commutative operations and associativity-equivalent
for floats (reduction order differs, as it already does between the
flat algorithms themselves).  Non-commutative operations never route
here — the entry points fall back to their order-preserving flat paths
first.

All phases of one collective share the instance's single ``ctag``: the
phases are strictly ordered per rank pair and the transports guarantee
per-sender FIFO, so frames cannot cross-match.
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from ..ops import Op
from .base import crecv, csend, ctag, rank_of, to_bytes, vrank_of

_UNSET = object()


# ---------------------------------------------------------------------------
# Partition discovery
# ---------------------------------------------------------------------------

def partition(comm: Comm) -> list[list[int]] | None:
    """The communicator's group partition, or ``None`` when flat.

    Returns the comm ranks bucketed by node group (each bucket sorted,
    buckets in group order), identical on every member rank.  ``None``
    when no group map is attached, the map does not cover every member,
    or the partition is degenerate (a single group, or all singletons) —
    cases where two-level algorithms reduce to the flat ones with extra
    hops.  Cached per communicator: the group map is fixed at launch.
    """
    cached = getattr(comm, "_hier_partition", _UNSET)
    if cached is not _UNSET:
        return cached
    part = _compute_partition(comm)
    comm._hier_partition = part
    return part


def _compute_partition(comm: Comm) -> list[list[int]] | None:
    gmap = comm.endpoint.group_map
    if gmap is None:
        return None
    from ..topology import TopologyError

    buckets: dict[int, list[int]] = {}
    try:
        for r in range(comm.size):
            gid = gmap.group_of(comm._world_ranks[r])
            buckets.setdefault(gid, []).append(r)
    except TopologyError:
        # A member outside the map (sub-communicator of a larger world
        # than the map covers, or a stale map): play it flat.
        return None
    if len(buckets) <= 1:
        return None
    part = [buckets[g] for g in sorted(buckets)]
    if all(len(g) == 1 for g in part):
        return None
    return part


def _my_group(part: list[list[int]], rank: int) -> list[int]:
    for members in part:
        if rank in members:
            return members
    raise AssertionError(f"rank {rank} missing from its own partition")


# ---------------------------------------------------------------------------
# Subset primitives (binomial trees over an explicit member list)
# ---------------------------------------------------------------------------
#
# Each operates on ``members`` — a small sorted list of comm ranks that
# includes the caller — entirely in index ("vrank") space, so the same
# code serves intra-group trees, leader-level trees, and representative
# relays.

def _sub_bcast(
    comm: Comm,
    members: list[int],
    root_rank: int,
    data: bytes | None,
    tag: int,
    nbytes: int,
) -> bytes:
    """Binomial broadcast from ``root_rank`` across ``members`` only."""
    m = len(members)
    if m == 1:
        assert data is not None
        return data
    root_idx = members.index(root_rank)
    my_v = vrank_of(members.index(comm.rank), root_idx, m)

    def member(v: int) -> int:
        return members[rank_of(v, root_idx, m)]

    mask = 1
    while mask < m:
        if my_v & mask:
            data = crecv(comm, member(my_v - mask), tag, nbytes)
            break
        mask <<= 1
    mask >>= 1
    assert data is not None
    while mask > 0:
        child_v = my_v + mask
        if child_v < m:
            csend(comm, member(child_v), tag, data)
        mask >>= 1
    return data


def _sub_reduce(
    comm: Comm,
    members: list[int],
    root_rank: int,
    acc: np.ndarray,
    op: Op,
    tag: int,
) -> np.ndarray | None:
    """Binomial reduction to ``root_rank``; ``None`` on non-roots."""
    m = len(members)
    if m == 1:
        return acc
    root_idx = members.index(root_rank)
    my_v = vrank_of(members.index(comm.rank), root_idx, m)

    def member(v: int) -> int:
        return members[rank_of(v, root_idx, m)]

    nbytes = acc.nbytes
    dtype = acc.dtype
    mask = 1
    while mask < m:
        if my_v & mask:
            csend(comm, member(my_v - mask), tag, to_bytes(acc))
            return None
        child_v = my_v | mask
        if child_v < m:
            peer = member(child_v)
            part = np.frombuffer(crecv(comm, peer, tag, nbytes), dtype=dtype)
            # Lower comm rank on the left: order-stable for the exact
            # ops, and matching the flat trees' convention elsewhere.
            if peer < comm.rank:
                acc = op(part, acc)
            else:
                acc = op(acc, part)
        mask <<= 1
    return acc


def _sub_gather(
    comm: Comm,
    members: list[int],
    root_rank: int,
    payload: bytes,
    tag: int,
) -> list[bytes] | None:
    """Binomial gather to ``root_rank``; blocks in member order there."""
    m = len(members)
    if m == 1:
        return [payload]
    root_idx = members.index(root_rank)
    my_v = vrank_of(members.index(comm.rank), root_idx, m)

    def member(v: int) -> int:
        return members[rank_of(v, root_idx, m)]

    block = len(payload)
    held: list[bytes] = [payload]
    mask = 1
    while mask < m:
        if my_v & mask:
            csend(comm, member(my_v - mask), tag, b"".join(held))
            return None
        child_v = my_v | mask
        if child_v < m:
            span = min(mask, m - child_v)
            data = crecv(comm, member(child_v), tag, span * block)
            held.extend(
                data[i * block:(i + 1) * block] for i in range(span)
            )
        mask <<= 1
    # held is in vrank order; restore member-index order.
    out: list[bytes] = [b""] * m
    for v, blk in enumerate(held):
        out[rank_of(v, root_idx, m)] = blk
    return out


# ---------------------------------------------------------------------------
# Two-level collectives
# ---------------------------------------------------------------------------

def hier_allreduce(
    comm: Comm, send: np.ndarray, op: Op, tag: int
) -> np.ndarray:
    """Intra-group reduce -> leader allreduce -> intra-group bcast."""
    part = partition(comm)
    assert part is not None, "hierarchical allreduce without a partition"
    members = _my_group(part, comm.rank)
    leaders = [g[0] for g in part]
    leader = members[0]

    acc = _sub_reduce(comm, members, leader, send.copy(), op, tag)
    if comm.rank == leader:
        assert acc is not None
        # Leader-level allreduce as reduce+bcast over the leader set:
        # 2·log2(G) rounds, every hop inter-group (unavoidable) and
        # leader-to-leader only (what keeps connection counts bounded).
        acc = _sub_reduce(comm, leaders, leaders[0], acc, op, tag)
        flat = _sub_bcast(
            comm, leaders, leaders[0],
            to_bytes(acc) if acc is not None else None, tag, send.nbytes,
        )
        result = flat
    else:
        result = None
    out = _sub_bcast(comm, members, leader, result, tag, send.nbytes)
    return np.frombuffer(out, dtype=send.dtype).copy()


def hier_bcast(
    comm: Comm,
    payload: bytes | None,
    root: int,
    tag: int,
    nbytes: int,
) -> bytes:
    """Representative relay across groups, then intra-group fan-out."""
    part = partition(comm)
    assert part is not None, "hierarchical bcast without a partition"
    members = _my_group(part, comm.rank)
    # One representative per group: the root speaks for its own group so
    # the payload never takes an extra intra-group hop there.
    reps = [root if root in g else g[0] for g in part]
    rep = root if root in members else members[0]

    data = payload
    if comm.rank == rep:
        data = _sub_bcast(comm, reps, root, data, tag, nbytes)
    return _sub_bcast(comm, members, rep, data, tag, nbytes)


def hier_barrier(comm: Comm, tag: int) -> None:
    """Intra-group fan-in -> leader barrier -> intra-group release."""
    part = partition(comm)
    assert part is not None, "hierarchical barrier without a partition"
    members = _my_group(part, comm.rank)
    leaders = [g[0] for g in part]
    leader = members[0]

    arrived = _sub_gather(comm, members, leader, b"", tag)
    if comm.rank == leader:
        assert arrived is not None
        _sub_gather(comm, leaders, leaders[0], b"", tag)
        _sub_bcast(comm, leaders, leaders[0], b"", tag, 0)
    _sub_bcast(comm, members, leader, b"", tag, 0)


def hier_gather(
    comm: Comm, payload: bytes, root: int, tag: int
) -> list[bytes] | None:
    """Intra-group gather to a representative, one message per group up."""
    part = partition(comm)
    assert part is not None, "hierarchical gather without a partition"
    members = _my_group(part, comm.rank)
    rep = root if root in members else members[0]
    block = len(payload)

    mine = _sub_gather(comm, members, rep, payload, tag)
    if comm.rank == rep and comm.rank != root:
        assert mine is not None
        csend(comm, root, tag, b"".join(mine))
        return None
    if comm.rank != root:
        return None

    out: list[bytes] = [b""] * comm.size
    for grp in part:
        grp_rep = root if root in grp else grp[0]
        if grp_rep == root:
            assert mine is not None
            blocks = mine
        else:
            data = crecv(comm, grp_rep, tag, len(grp) * block)
            blocks = [
                data[i * block:(i + 1) * block] for i in range(len(grp))
            ]
        for member_rank, blk in zip(grp, blocks):
            out[member_rank] = blk
    return out


def hier_allgather(
    comm: Comm, payload: bytes, tag: int
) -> list[bytes]:
    """Intra-group gather -> leader ring of group blocks -> fan-out."""
    part = partition(comm)
    assert part is not None, "hierarchical allgather without a partition"
    members = _my_group(part, comm.rank)
    leaders = [g[0] for g in part]
    leader = members[0]
    block = len(payload)
    size = comm.size

    mine = _sub_gather(comm, members, leader, payload, tag)
    if comm.rank == leader:
        assert mine is not None
        gid = leaders.index(leader)
        n_groups = len(part)
        # Ring over leaders with ragged per-group chunks; n_groups - 1
        # inter-group steps moving each group's block exactly G-1 times
        # (vs the flat ring's p-1 inter-group crossings per block).
        chunks: list[bytes | None] = [None] * n_groups
        chunks[gid] = b"".join(mine)
        right = leaders[(gid + 1) % n_groups]
        left = leaders[(gid - 1) % n_groups]
        for step in range(n_groups - 1):
            send_idx = (gid - step) % n_groups
            recv_idx = (gid - step - 1) % n_groups
            out_chunk = chunks[send_idx]
            assert out_chunk is not None
            # Post the receive before the send (deadlock-free around the
            # ring) and let the wire transfer overlap the local post.
            req = comm.irecv_bytes(left, tag, len(part[recv_idx]) * block)
            comm.isend_bytes(out_chunk, right, tag)
            req.wait()
            chunks[recv_idx] = req.payload()
        # Assemble the flat result in comm-rank order.
        flat_parts = [b""] * size
        for grp, chunk in zip(part, chunks):
            assert chunk is not None
            for i, member_rank in enumerate(grp):
                flat_parts[member_rank] = chunk[i * block:(i + 1) * block]
        flat = b"".join(flat_parts)
    else:
        flat = None
    flat = _sub_bcast(comm, members, leader, flat, tag, size * block)
    return [flat[i * block:(i + 1) * block] for i in range(size)]
