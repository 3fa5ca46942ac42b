"""Campaign tuning knobs: the ``OMBPY_CAMPAIGN_*`` environment.

Declared in :mod:`repro.knobs` and read once at driver start, so a
malformed value fails fast naming the variable — a campaign must not
discover it hours into a sweep.  The matching ``ombpy-campaign`` flags
win.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..backoff import backoff
from ..knobs import KNOBS, EnvConfig

ENV_CONCURRENCY = "OMBPY_CAMPAIGN_CONCURRENCY"
ENV_CELL_TIMEOUT = "OMBPY_CAMPAIGN_CELL_TIMEOUT_S"
ENV_RETRY_MAX = "OMBPY_CAMPAIGN_RETRY_MAX"
ENV_RETRY_BACKOFF = "OMBPY_CAMPAIGN_RETRY_BACKOFF_MS"
ENV_QUARANTINE_AFTER = "OMBPY_CAMPAIGN_QUARANTINE_AFTER"

#: Retry backoff ceiling (see :func:`repro.backoff.backoff`).
RETRY_BACKOFF_CAP_S = 10.0


@dataclass(frozen=True)
class CampaignConfig(EnvConfig):
    """Validated campaign driver configuration."""

    _ENV = {
        "concurrency": ENV_CONCURRENCY,
        "cell_timeout_s": ENV_CELL_TIMEOUT,
        "retry_max": ENV_RETRY_MAX,
        "retry_backoff_ms": ENV_RETRY_BACKOFF,
        "quarantine_after": ENV_QUARANTINE_AFTER,
    }

    concurrency: int = KNOBS[ENV_CONCURRENCY].default
    cell_timeout_s: float = KNOBS[ENV_CELL_TIMEOUT].default
    retry_max: int = KNOBS[ENV_RETRY_MAX].default
    retry_backoff_ms: float = KNOBS[ENV_RETRY_BACKOFF].default
    quarantine_after: int = KNOBS[ENV_QUARANTINE_AFTER].default

    def retry_backoff_s(self, attempt: int,
                        rng: random.Random | None = None) -> float:
        """Capped-exponential backoff before retry number ``attempt``,
        with +/-50% jitter when ``rng`` is given (decorrelates retries
        of concurrently-failing cells)."""
        return backoff(attempt, self.retry_backoff_ms / 1000.0,
                       RETRY_BACKOFF_CAP_S, rng)
