"""Service tuning knobs: the ``OMBPY_SERVICE_*`` environment.

Declared in :mod:`repro.knobs` and read once at service start, so a
malformed value fails fast naming the variable — a daemon must not come
up half-configured.  The matching ``ombpy-serve`` flags win.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backoff import backoff
from ..knobs import KNOBS, EnvConfig

ENV_QUEUE_DEPTH = "OMBPY_SERVICE_QUEUE_DEPTH"
ENV_DEADLINE = "OMBPY_SERVICE_DEADLINE_S"
ENV_RETRY_MAX = "OMBPY_SERVICE_RETRY_MAX"
ENV_DRAIN_GRACE = "OMBPY_SERVICE_DRAIN_GRACE_S"
ENV_RETRY_BACKOFF = "OMBPY_SERVICE_RETRY_BACKOFF_MS"

#: Retry backoff ceiling (see :func:`repro.backoff.backoff`).
RETRY_BACKOFF_CAP_S = 5.0


@dataclass(frozen=True)
class ServiceConfig(EnvConfig):
    """Validated service configuration (admission, deadlines, retries)."""

    _ENV = {
        "queue_depth": ENV_QUEUE_DEPTH,
        "default_deadline_s": ENV_DEADLINE,
        "retry_max": ENV_RETRY_MAX,
        "drain_grace_s": ENV_DRAIN_GRACE,
        "retry_backoff_ms": ENV_RETRY_BACKOFF,
    }

    queue_depth: int = KNOBS[ENV_QUEUE_DEPTH].default
    default_deadline_s: float = KNOBS[ENV_DEADLINE].default
    retry_max: int = KNOBS[ENV_RETRY_MAX].default
    drain_grace_s: float = KNOBS[ENV_DRAIN_GRACE].default
    retry_backoff_ms: float = KNOBS[ENV_RETRY_BACKOFF].default

    def retry_backoff_s(self, attempt: int) -> float:
        """Capped-exponential backoff before retry number ``attempt``."""
        return backoff(attempt, self.retry_backoff_ms / 1000.0,
                       RETRY_BACKOFF_CAP_S)
