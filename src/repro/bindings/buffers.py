"""Buffer resolution for the upper-case (direct-buffer) methods.

mpi4py accepts, as a communication buffer: any object exporting the Python
buffer protocol (bytearray, memoryview, NumPy arrays with automatic MPI
datatype discovery), an explicit ``[buffer, datatype]`` or ``[buffer,
count, datatype]`` spec, or — when built CUDA-aware — any object exposing
``__cuda_array_interface__``.  This module performs that dispatch and
returns a uniform :class:`BufferSpec` the communication methods act on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..mpi import datatypes
from ..mpi.datatypes import Datatype
from ..mpi.exceptions import BufferError_, CountError


@dataclass(slots=True)
class BufferSpec:
    """A resolved communication buffer.

    Attributes
    ----------
    obj:
        The user object (kept for device write-back bookkeeping).
    view:
        Host byte view of the data.  For device arrays this aliases the
        simulated device memory — matching GPUDirect semantics where the
        NIC reads/writes device memory without host staging.
    nbytes:
        Bytes to communicate.
    datatype:
        The MPI datatype (discovered or explicit).
    kind:
        ``"host"`` or ``"device"``.
    library:
        Source library for device buffers (``cupy``/``pycuda``/``numba``).
    """

    obj: Any
    view: memoryview
    nbytes: int
    datatype: Datatype
    kind: str = "host"
    library: str | None = None

    @property
    def count(self) -> int:
        return self.nbytes // self.datatype.size

    def as_array(self) -> np.ndarray:
        """Typed NumPy view of the buffer (used by reductions)."""
        return np.frombuffer(self.view, dtype=self.datatype.to_numpy())

    def write(self, payload: bytes, offset: int = 0) -> None:
        """Copy received bytes into the buffer at a byte offset."""
        n = len(payload)
        if offset + n > self.nbytes:
            raise BufferError_(
                f"writing {n} bytes at offset {offset} overruns buffer of "
                f"{self.nbytes} bytes"
            )
        self.view[offset:offset + n] = payload

    def read(self) -> bytes:
        """Snapshot the buffer contents as wire bytes."""
        return bytes(self.view[:self.nbytes])

    def addr_range(self) -> tuple[int, int]:
        """Host address interval ``[lo, hi)`` of the communicated bytes.

        Used by the race sanitizer to detect overlapping pinned regions;
        empty buffers get the empty interval ``(0, 0)``.
        """
        if self.nbytes == 0:
            return (0, 0)
        base = int(
            np.frombuffer(self.view, dtype=np.uint8)
            .__array_interface__["data"][0]
        )
        return (base, base + self.nbytes)

    def checksum(self) -> int:
        """Adler-32 snapshot of the current contents (sanitizer pins)."""
        return zlib.adler32(self.view[:self.nbytes])

    def describe(self) -> str:
        """Short human-readable identity for diagnostics."""
        return (
            f"{type(self.obj).__name__}"
            f"({self.datatype.Get_name()}, {self.nbytes} bytes)"
        )


_DEVICE_LIBRARIES = {
    "cupy_sim": "cupy",
    "pycuda_sim": "pycuda",
    "numba_sim": "numba",
}


def _library_of(obj: Any) -> str | None:
    module = type(obj).__module__.rsplit(".", maxsplit=1)[-1]
    return _DEVICE_LIBRARIES.get(module, module)


def _resolve_device(obj: Any, writable: bool) -> BufferSpec:
    from ..gpu.cai import resolve_cai

    alloc, nbytes, np_dtype, _shape = resolve_cai(obj)
    datatype = datatypes.from_numpy_dtype(np_dtype)
    view = memoryview(alloc.backing)[:nbytes]
    return BufferSpec(
        obj, view, nbytes, datatype, kind="device", library=_library_of(obj)
    )


def resolve_buffer(spec: Any, writable: bool = False) -> BufferSpec:
    """Resolve a user buffer argument to a :class:`BufferSpec`.

    Accepted forms, mirroring mpi4py:

    * a buffer-provider or CUDA-array-interface object;
    * ``[buffer, datatype]`` with ``datatype`` a Datatype or MPI name;
    * ``[buffer, count, datatype]`` restricting to ``count`` elements.

    A plain ``np.ndarray`` (the common case) skips the spec and CUDA
    array interface probes (the simulated device arrays are not
    ndarrays) and maps its dtype through a dict keyed by ``np.dtype``.
    """
    obj = spec
    count: int | None = None
    datatype: Datatype | None = None
    array = type(obj) is np.ndarray
    if not array and isinstance(spec, (list, tuple)):
        if len(spec) == 2:
            obj, dt = spec
        elif len(spec) == 3:
            obj, count, dt = spec
            if count is not None and count < 0:
                raise CountError(f"negative element count {count}")
        else:
            raise BufferError_(
                f"buffer spec must be [buf, datatype] or "
                f"[buf, count, datatype]; got {len(spec)} items"
            )
        datatype = datatypes.lookup(dt) if isinstance(dt, str) else dt
        array = type(obj) is np.ndarray

    if not array and hasattr(obj, "__cuda_array_interface__"):
        resolved = _resolve_device(obj, writable)
    else:
        # Host buffer: one memoryview answers contiguity, writability
        # and size for every buffer provider, NumPy arrays included.
        try:
            view = memoryview(obj)
        except TypeError:
            raise BufferError_(
                f"{type(obj).__name__} does not support the buffer "
                "protocol and has no __cuda_array_interface__"
            ) from None
        except ValueError:
            # NumPy exports no buffer format for datetime64/timedelta64,
            # which have no MPI datatype either: raise DatatypeError.
            if isinstance(obj, np.ndarray):
                datatypes.from_numpy_dtype(obj.dtype)
            raise
        if not view.c_contiguous:
            raise BufferError_(
                f"only C-contiguous buffers can be communicated, got a "
                f"non-contiguous {type(obj).__name__} (make a contiguous "
                "copy first)"
            )
        if writable and view.readonly:
            raise BufferError_(
                f"{type(obj).__name__} is read-only but a writable receive "
                "buffer is required"
            )
        if array or isinstance(obj, np.ndarray):
            try:
                host_type = datatypes.NUMPY_DTYPE_TO_MPI[obj.dtype]
            except KeyError:  # byte-swapped or unmapped: match by name
                host_type = datatypes.from_numpy_dtype(obj.dtype)
        else:
            host_type = datatypes.BYTE
        try:
            flat = view.cast("B")
        except TypeError:
            raise BufferError_(
                f"{type(obj).__name__} of shape {view.shape} cannot be "
                "viewed as bytes"
            ) from None
        resolved = BufferSpec(obj, flat, view.nbytes, host_type)

    if datatype is not None:
        if resolved.nbytes % datatype.size != 0 and count is None:
            raise BufferError_(
                f"buffer of {resolved.nbytes} bytes is not a whole number "
                f"of {datatype.Get_name()} elements"
            )
        resolved.datatype = datatype
    if count is not None:
        dt = resolved.datatype
        want = count * dt.size
        if want > resolved.nbytes:
            raise CountError(
                f"count {count} x {dt.Get_name()} = {want} bytes exceeds "
                f"buffer of {resolved.nbytes} bytes"
            )
        resolved.view = resolved.view[:want]
        resolved.nbytes = want
    return resolved
