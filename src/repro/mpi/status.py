"""Receive-status object, the analogue of ``MPI_Status``.

Filled in by the matching engine on message delivery; exposes the actual
source, tag, and byte count of the matched message — needed by wildcard
receives and by ``Get_count`` in element units.
"""

from __future__ import annotations

from .constants import ANY_SOURCE, ANY_TAG
from .datatypes import Datatype
from .exceptions import DatatypeError


class Status:
    """Mutable status record for a completed (or probed) receive."""

    __slots__ = ("source", "tag", "count_bytes", "error", "cancelled")

    def __init__(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
        count_bytes: int = 0,
    ) -> None:
        self.source: int = source
        self.tag: int = tag
        self.count_bytes: int = count_bytes
        self.error: int = 0
        self.cancelled: bool = False

    def Get_source(self) -> int:
        """Return the rank that sent the matched message."""
        return self.source

    def Get_tag(self) -> int:
        """Return the tag of the matched message."""
        return self.tag

    def Get_error(self) -> int:
        """Return the error code recorded for this operation (0 = success)."""
        return self.error

    def Get_count(self, datatype: Datatype) -> int:
        """Return the received element count in units of ``datatype``.

        Raises :class:`DatatypeError` if the byte count is not a whole
        multiple of the datatype extent (MPI would return MPI_UNDEFINED).
        """
        extent = datatype.Get_size()
        if extent <= 0 or self.count_bytes % extent != 0:
            raise DatatypeError(
                f"received {self.count_bytes} bytes is not a multiple of "
                f"{datatype.Get_name()} extent {extent}"
            )
        return self.count_bytes // extent

    def Get_elements(self, datatype: Datatype) -> int:
        """Alias of :meth:`Get_count` for the basic types supported here."""
        return self.Get_count(datatype)

    def Is_cancelled(self) -> bool:
        """Return whether the matched operation was cancelled."""
        return self.cancelled

    def _fill(self, source: int, tag: int, count_bytes: int) -> None:
        """Populate from a matched envelope (runtime-internal)."""
        self.source = source
        self.tag = tag
        self.count_bytes = count_bytes
        self.error = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Status(source={self.source}, tag={self.tag}, "
            f"count_bytes={self.count_bytes})"
        )
