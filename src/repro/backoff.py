"""Capped exponential backoff: the one retry-delay formula."""

from __future__ import annotations


def backoff(attempt: int, base: float, cap: float, rng=None,
            jitter: tuple[float, float] = (0.5, 1.5)) -> float:
    """Seconds to wait before retry number ``attempt``, counted from 1:
    ``min(cap, base * 2**(attempt - 1))``, scaled by a factor drawn
    uniformly from ``jitter`` when an ``rng`` (anything with
    ``uniform``, such as ``random`` or a ``random.Random``) is given."""
    # The exponent is clamped so a huge attempt cannot overflow a float.
    delay = min(cap, base * 2 ** min(max(0, attempt - 1), 64))
    if rng is not None:
        delay *= rng.uniform(*jitter)
    return delay
