"""Algorithm selection for collectives.

Real MPI libraries (the paper uses MVAPICH2) switch collective algorithms
on message size and communicator size via tuning tables.  This module is a
small, inspectable version of such a table, with a global override hook the
ablation benchmarks use to force a particular algorithm across a sweep.
"""

from __future__ import annotations

import threading

from ...knobs import COLL_ALGORITHMS, raw

# Switch points (bytes), modelled on common MVAPICH2/MPICH defaults.
BCAST_SHORT_MSG = 16384          # binomial below, scatter+allgather above
ALLREDUCE_SHORT_MSG = 8192       # recursive doubling below, ring above
ALLGATHER_SHORT_MSG = 32768      # recursive doubling below, ring above
ALLTOALL_SHORT_MSG = 256         # Bruck below, pairwise above
REDUCE_SHORT_MSG = 16384         # binomial below, reduce-scatter+gather above
REDUCE_SCATTER_SHORT_MSG = 8192  # recursive halving below, pairwise above

_forced: dict[str, str] = {}
_lock = threading.Lock()
_ENV_NAMES = {op: f"OMBPY_COLL_{op.upper()}" for op in COLL_ALGORITHMS}


def force(op: str, algorithm: str | None) -> None:
    """Force (or clear, with None) the algorithm used for ``op``.

    Used by ablation benchmarks; also settable via the environment as
    ``OMBPY_COLL_<OP>=<algorithm>``, checked before any rank starts.
    """
    with _lock:
        if algorithm is None:
            _forced.pop(op, None)
        else:
            _forced[op] = algorithm


def forced(op: str) -> str | None:
    """Return the forced algorithm for ``op`` if any."""
    with _lock:
        if op in _forced:
            return _forced[op]
    return raw(_ENV_NAMES[op])


#: Collectives with a topology-aware two-level implementation
#: (:mod:`repro.mpi.collectives.hierarchy`).
HIERARCHICAL_OPS = frozenset(
    {"allreduce", "bcast", "barrier", "gather", "allgather"}
)


def pick(op: str, nbytes: int, size: int, groups=None) -> str:
    """Select the algorithm name for one collective invocation.

    ``groups`` is the communicator's effective group partition (from
    :func:`repro.mpi.collectives.hierarchy.partition`); when present and
    the op has a two-level implementation, the hierarchical algorithm
    wins over the size-based table — matching MVAPICH2, where SMP-aware
    collectives take precedence whenever the topology is known.  An
    explicit override (:func:`force` / ``OMBPY_COLL_<OP>``) still beats
    everything, so flat-vs-hierarchical ablations stay possible.
    """
    override = forced(op)
    if override is not None:
        if override == "hierarchical" and groups is None:
            # Forcing hierarchy without a usable group partition would
            # just crash in dispatch; fall through to the flat table.
            pass
        else:
            return override
    if groups is not None and op in HIERARCHICAL_OPS:
        return "hierarchical"
    if op == "bcast":
        if size <= 2 or nbytes <= BCAST_SHORT_MSG:
            return "binomial"
        return "scatter_allgather"
    if op == "allreduce":
        if nbytes <= ALLREDUCE_SHORT_MSG or size <= 2:
            return "recursive_doubling"
        return "ring"
    if op == "allgather":
        if nbytes * size <= ALLGATHER_SHORT_MSG:
            return "recursive_doubling"
        return "ring"
    if op == "alltoall":
        if nbytes <= ALLTOALL_SHORT_MSG and size > 2:
            return "bruck"
        return "pairwise"
    if op == "reduce":
        if nbytes <= REDUCE_SHORT_MSG or size <= 2:
            return "binomial"
        return "rabenseifner"
    if op == "reduce_scatter":
        if nbytes <= REDUCE_SCATTER_SHORT_MSG:
            return "recursive_halving"
        return "pairwise"
    if op == "gather":
        return "binomial"
    if op == "scatter":
        return "binomial"
    if op == "barrier":
        return "dissemination"
    if op == "scan":
        return "recursive_doubling"
    raise ValueError(f"unknown collective op {op!r}")


def available(op: str) -> tuple[str, ...]:
    """List the algorithms implemented for ``op`` (for ablations/tests)."""
    return COLL_ALGORITHMS[op]
