"""`repro.mpi.fabric` — the hierarchical scale-out fabric.

Laptop-scale MPI runtimes dial a full O(N²) eager mesh and treat the
communicator as flat; neither survives contact with hundreds of ranks.
This package replaces both assumptions:

* :mod:`~repro.mpi.fabric.stream` — a lazy, multiplexed connection
  cache for stream transports (TCP, UDS): one acceptor per rank, peers
  dialed on first send, an LRU-capped open-socket budget with a
  connection-level BYE handshake so eviction and transparent re-dial
  never reorder or lose frames.  ``establish_mesh`` becomes O(1); the
  steady state is O(active peers).
* :mod:`~repro.mpi.fabric.hybrid` — the node-group data path: ranks in
  the same group (``--groups``/``OMBPY_GROUPS``) talk over shared-memory
  rings, cross-group traffic rides the lazy UDS stream cache.  SHM
  segment count drops from N·(N-1) to Σ gᵢ·(gᵢ-1).
* :mod:`~repro.mpi.fabric.budget` — spawn-time fd budgeting against
  ``RLIMIT_NOFILE``, so an over-wide topology fails fast with the
  ``--groups`` remedy instead of an opaque ``EMFILE`` mid-dial.

The group *map* itself lives in :mod:`repro.mpi.topology`
(:class:`~repro.mpi.topology.GroupMap`); the two-level collectives that
exploit it live in :mod:`repro.mpi.collectives.hierarchy`.  See
``docs/scaling.md`` for the architecture tour.
"""

from .budget import FdBudget, check_fd_budget, plan_fd_budget
from .stream import LazyStreamFabric

__all__ = [
    "FdBudget",
    "LazyStreamFabric",
    "check_fd_budget",
    "plan_fd_budget",
]
