"""MPI datatypes and their mapping to NumPy dtypes.

The runtime moves raw bytes; datatypes exist so that (a) reductions know how
to reinterpret wire bytes as typed arrays, and (b) counts can be expressed in
elements rather than bytes, exactly as in MPI.  Only the basic C types the
paper's benchmarks use are predefined; :class:`Datatype` also supports simple
contiguous derived types via :meth:`Datatype.Create_contiguous`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DatatypeError


@dataclass(frozen=True)
class Datatype:
    """A fixed-size element type.

    Attributes
    ----------
    name:
        MPI-style name, e.g. ``"MPI_DOUBLE"``.
    np_dtype:
        The NumPy dtype used to view buffers of this type, or ``None`` for
        ``BYTE``-like raw types.
    size:
        Extent in bytes of one element.
    """

    name: str
    np_dtype: str | None
    size: int
    # Number of base elements a derived contiguous type packs together.
    count: int = field(default=1)

    def Get_size(self) -> int:
        """Return the size in bytes of one element of this type."""
        return self.size

    def Get_name(self) -> str:
        """Return the MPI-style name of this type."""
        return self.name

    def Create_contiguous(self, count: int) -> "Datatype":
        """Return a derived type equivalent to ``count`` contiguous elements."""
        if count < 0:
            raise DatatypeError(f"negative count {count} for contiguous type")
        return Datatype(
            name=f"{self.name}x{count}",
            np_dtype=self.np_dtype,
            size=self.size * count,
            count=self.count * count,
        )

    def to_numpy(self) -> np.dtype:
        """Return the NumPy dtype for this type (BYTE maps to uint8)."""
        return np.dtype(self.np_dtype if self.np_dtype is not None else "u1")


BYTE = Datatype("MPI_BYTE", None, 1)
CHAR = Datatype("MPI_CHAR", "i1", 1)
SIGNED_CHAR = Datatype("MPI_SIGNED_CHAR", "i1", 1)
UNSIGNED_CHAR = Datatype("MPI_UNSIGNED_CHAR", "u1", 1)
SHORT = Datatype("MPI_SHORT", "i2", 2)
UNSIGNED_SHORT = Datatype("MPI_UNSIGNED_SHORT", "u2", 2)
INT = Datatype("MPI_INT", "i4", 4)
UNSIGNED = Datatype("MPI_UNSIGNED", "u4", 4)
LONG = Datatype("MPI_LONG", "i8", 8)
UNSIGNED_LONG = Datatype("MPI_UNSIGNED_LONG", "u8", 8)
LONG_LONG = Datatype("MPI_LONG_LONG", "i8", 8)
FLOAT = Datatype("MPI_FLOAT", "f4", 4)
DOUBLE = Datatype("MPI_DOUBLE", "f8", 8)
C_BOOL = Datatype("MPI_C_BOOL", "?", 1)
COMPLEX = Datatype("MPI_C_FLOAT_COMPLEX", "c8", 8)
DOUBLE_COMPLEX = Datatype("MPI_C_DOUBLE_COMPLEX", "c16", 16)

# Pair types for MAXLOC/MINLOC; stored as structured dtypes.
FLOAT_INT = Datatype("MPI_FLOAT_INT", "f4,i4", 8)
DOUBLE_INT = Datatype("MPI_DOUBLE_INT", "f8,i4", 12)
LONG_INT = Datatype("MPI_LONG_INT", "i8,i4", 12)
TWO_INT = Datatype("MPI_2INT", "i4,i4", 8)

_PREDEFINED: dict[str, Datatype] = {
    t.name: t
    for t in (
        BYTE, CHAR, SIGNED_CHAR, UNSIGNED_CHAR, SHORT, UNSIGNED_SHORT,
        INT, UNSIGNED, LONG, UNSIGNED_LONG, LONG_LONG, FLOAT, DOUBLE,
        C_BOOL, COMPLEX, DOUBLE_COMPLEX, FLOAT_INT, DOUBLE_INT, LONG_INT,
        TWO_INT,
    )
}

_NUMPY_TO_MPI: dict[str, Datatype] = {
    "int8": SIGNED_CHAR,
    "uint8": UNSIGNED_CHAR,
    "int16": SHORT,
    "uint16": UNSIGNED_SHORT,
    "int32": INT,
    "uint32": UNSIGNED,
    "int64": LONG,
    "uint64": UNSIGNED_LONG,
    "float32": FLOAT,
    "float64": DOUBLE,
    "bool": C_BOOL,
    "complex64": COMPLEX,
    "complex128": DOUBLE_COMPLEX,
}

#: The same mapping keyed by native-byte-order ``np.dtype``, for an O(1)
#: lookup of an array's dtype; a miss falls back to
#: :func:`from_numpy_dtype`, which matches by name.
NUMPY_DTYPE_TO_MPI: dict[np.dtype, Datatype] = {
    np.dtype(name): dt for name, dt in _NUMPY_TO_MPI.items()
}


def lookup(name: str) -> Datatype:
    """Return a predefined datatype by its MPI name.

    Raises :class:`DatatypeError` for unknown names.
    """
    try:
        return _PREDEFINED[name]
    except KeyError:
        raise DatatypeError(f"unknown datatype {name!r}") from None


def from_numpy_dtype(dtype: np.dtype | str) -> Datatype:
    """Map a NumPy dtype to the matching MPI datatype.

    This is the "automatic MPI datatype discovery" step mpi4py performs when
    a bare NumPy array is passed to an upper-case communication method.
    """
    dt = np.dtype(dtype)
    try:
        return _NUMPY_TO_MPI[dt.name]
    except KeyError:
        raise DatatypeError(
            f"no MPI datatype matches numpy dtype {dt.name!r}"
        ) from None


def predefined_names() -> list[str]:
    """Return the names of all predefined datatypes (stable order)."""
    return sorted(_PREDEFINED)
