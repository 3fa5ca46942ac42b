"""MPI-style constants for the runtime.

These mirror the names users of MPI (and mpi4py) expect: wildcard
source/tag values, thread-support levels, predefined null handles, and
the bounds that the matching engine enforces.
"""

from __future__ import annotations

# Wildcards for point-to-point matching.
ANY_SOURCE = -1
ANY_TAG = -1

# Special process sentinel: operations addressed to PROC_NULL complete
# immediately and transfer no data (useful in shift patterns).
PROC_NULL = -2

# Rank returned for "not in this communicator/group".
UNDEFINED = -32766

# Root sentinel used by intercommunicator collectives (kept for API parity).
ROOT = -4

# Upper bound on user tags.  The MPI standard guarantees at least 32767;
# we allow the full non-negative int range but reserve a band of high tags
# for internal collective traffic (see collectives/base.py).
TAG_UB = 2**30 - 1

# Thread support levels (MPI_THREAD_*).  The paper's Allreduce 56-PPN
# discussion hinges on OMB initializing THREAD_SINGLE while mpi4py defaults
# to THREAD_MULTIPLE; the bindings layer reproduces that default.
THREAD_SINGLE = 0
THREAD_FUNNELED = 1
THREAD_SERIALIZED = 2
THREAD_MULTIPLE = 3

# Result of comparing two communicators/groups.
IDENT = 0
CONGRUENT = 1
SIMILAR = 2
UNEQUAL = 3

# Default maximum number of in-flight packets a transport buffers per peer
# before applying backpressure.
DEFAULT_TRANSPORT_WINDOW = 256

# Internal tag base for collective operations: user code must not send with
# tags at or above this value on the same communicator.
INTERNAL_TAG_BASE = 2**30

# mpi4py-compatible names for status fields.
ERR_CODE_SUCCESS = 0

