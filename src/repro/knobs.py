"""The ``OMBPY_*`` environment: one typed, declarative table of knobs.

Every variable is declared once in :data:`KNOBS` and read through
:func:`read`, which parses ``os.environ`` at call time; a malformed or
out-of-range value raises ``ValueError`` naming the variable and what it
accepts.  A knob's scope says who reads it: ``rank`` knobs (user tuning)
and ``wiring`` knobs (set by ``ombpy-run`` for its ranks) are checked by
:func:`validate` before any rank starts; ``service``/``campaign`` knobs
are read once at driver start through :class:`EnvConfig`.
"""

from __future__ import annotations

import os
import pickle
import re
from dataclasses import dataclass

RANK = "rank"
WIRING = "wiring"
SERVICE = "service"
CAMPAIGN = "campaign"

#: The algorithms ``OMBPY_COLL_<OP>`` (and ``selector.force``) accept.
COLL_ALGORITHMS: dict[str, tuple[str, ...]] = {
    "bcast": ("binomial", "scatter_allgather", "linear", "hierarchical"),
    "allreduce": ("recursive_doubling", "ring", "reduce_bcast",
                  "hierarchical"),
    "allgather": ("recursive_doubling", "ring", "linear", "hierarchical"),
    "alltoall": ("bruck", "pairwise"),
    "reduce": ("binomial", "rabenseifner", "linear"),
    "reduce_scatter": ("recursive_halving", "pairwise"),
    "gather": ("binomial", "linear", "hierarchical"),
    "scatter": ("binomial", "linear"),
    "barrier": ("dissemination", "hierarchical"),
    "scan": ("recursive_doubling", "linear"),
}


@dataclass(frozen=True)
class Knob:
    """One environment variable: its type, default and accepted values.

    ``above``/``low``/``high`` bound numbers (exclusive, inclusive,
    inclusive); ``choices`` enumerates strings; ``pattern`` is a
    ``(regex, form)`` pair for structured strings.  Booleans are ``0``
    or ``1``.  An unset or empty variable means ``default``.
    """

    name: str
    type: type
    default: object
    doc: str
    scope: str = RANK
    above: float | None = None
    low: float | None = None
    high: float | None = None
    unit: str = ""
    choices: tuple[str, ...] = ()
    pattern: tuple[str, str] = ()

    def accepts(self) -> str:
        """What a valid value looks like, for error messages."""
        if self.type is bool:
            return "0 or 1"
        if self.choices:
            return "one of " + ", ".join(self.choices)
        if self.pattern:
            return self.pattern[1]
        if self.low is not None and self.high is not None:
            bound = f"in [{self.low:g}, {self.high:g}]"
        elif self.above is not None:
            bound = f"> {self.above:g}"
        elif self.low is not None:
            bound = f">= {self.low:g}"
        else:
            bound = ""
        unit = f" {self.unit}" if self.unit else ""
        if self.type is int:
            return f"an integer {bound}{unit}".rstrip()
        return f"{bound}{unit}" if bound else "a number"

    def check(self, value):
        """Return ``value`` if it is in range, else raise ``ValueError``."""
        if (
            (self.choices and value not in self.choices)
            or (self.pattern and not re.fullmatch(
                self.pattern[0], value.strip(), re.IGNORECASE))
            or (self.above is not None and not value > self.above)
            or (self.low is not None and not value >= self.low)
            or (self.high is not None and not value <= self.high)
        ):
            raise ValueError(
                f"{self.name} must be {self.accepts()}, got {value!r}"
            )
        return value

    def parse(self, raw: str | None):
        """The typed value of ``raw`` (``default`` when unset or empty)."""
        if not raw:
            return self.default
        try:
            if self.type is bool:
                return {"0": False, "1": True}[raw]
            return self.check(self.type(raw))
        except (KeyError, ValueError):
            raise ValueError(
                f"{self.name} must be {self.accepts()}, got {raw!r}"
            ) from None


_GROUP_SPEC = (r"auto|\d+|\d+x\d+|\d+(,\d+)+",
               "a group spec: auto, S, GxS or a,b,c")

KNOBS: dict[str, Knob] = {k.name: k for k in [
    # Failure detection, reliable delivery, ULFM recovery, fault injection.
    Knob("OMBPY_HB_INTERVAL", float, 0.5, "seconds between heartbeats",
         above=0, unit="s"),
    Knob("OMBPY_HB_TIMEOUT", float, 10.0,
         "heartbeat silence before a peer is declared dead",
         above=0, unit="s"),
    Knob("OMBPY_HB_DISABLE", bool, False, "1 disables the failure detector"),
    Knob("OMBPY_RELIABLE", bool, False,
         "1 arms the ack/retransmit delivery layer"),
    Knob("OMBPY_REL_RTO_MS", float, 50.0, "initial retransmit timeout",
         above=0, unit="ms"),
    Knob("OMBPY_REL_MAX_RETRIES", int, 8,
         "retransmits before the peer is escalated as failed", low=1),
    Knob("OMBPY_ULFM_TIMEOUT", float, 30.0,
         "per-round receive timeout of shrink/agree", above=0, unit="s"),
    Knob("OMBPY_FAULT_BACKSTOP_MS", float, None,
         "wall-time cap on a held (delayed) message; unset: the plan's",
         above=0, unit="ms"),
    # Fabric and topology.
    Knob("OMBPY_FABRIC_MAX_CONNS", int, 0,
         "open stream sockets per rank, LRU-evicted (0 = unlimited)", low=0),
    Knob("OMBPY_DIAL_TIMEOUT", float, 60.0,
         "overall deadline for dialing a peer that is still starting",
         above=0, unit="s"),
    Knob("OMBPY_SHM_CAPACITY", int, 1 << 20,
         "shm ring bytes per directed rank pair", low=4096, unit="bytes"),
    Knob("OMBPY_GROUPS", str, None,
         "node-group topology (what --groups sets)", pattern=_GROUP_SPEC),
    # Telemetry and bindings.
    Knob("OMBPY_METRICS", bool, False, "1 collects per-rank metrics"),
    Knob("OMBPY_TRACE", bool, False, "1 records per-rank spans"),
    Knob("OMBPY_TRACE_MAX_EVENTS", int, 200_000,
         "per-rank trace buffer bound", low=1),
    Knob("OMBPY_PICKLE_PROTOCOL", int, pickle.HIGHEST_PROTOCOL,
         "pickle protocol of the lower-case (object) API",
         low=0, high=pickle.HIGHEST_PROTOCOL),
    *(Knob(f"OMBPY_COLL_{op.upper()}", str, None,
           f"force the {op} algorithm", choices=algorithms)
      for op, algorithms in COLL_ALGORITHMS.items()),
    # Set by ombpy-run for its ranks.
    Knob("OMBPY_RANK", int, None, "this rank", WIRING, low=0),
    Knob("OMBPY_SIZE", int, None, "world size", WIRING, low=1),
    Knob("OMBPY_TRANSPORT", str, "tcp", "inter-process fabric", WIRING,
         choices=("tcp", "uds", "shm")),
    Knob("OMBPY_COORD", str, None, "tcp rendezvous host:port", WIRING),
    Knob("OMBPY_JOB", str, None, "uds/shm job id", WIRING),
    Knob("OMBPY_FAULTS", str, None, "fault plan path (--faults)", WIRING),
    Knob("OMBPY_FAULT_SEED", int, None, "chaos seed (--fault-seed)", WIRING),
    Knob("OMBPY_FAULT_LOG", str, None, "fault log base (--fault-log)",
         WIRING),
    Knob("OMBPY_TELEMETRY_OUT", str, None, "per-rank telemetry dump base",
         WIRING),
    Knob("OMBPY_SERVICE_CTRL", str, None, "service worker control socket",
         WIRING),
    # ombpy-serve.
    Knob("OMBPY_SERVICE_QUEUE_DEPTH", int, 64,
         "queued jobs before SUBMIT is REJECTED", SERVICE, low=1),
    Knob("OMBPY_SERVICE_DEADLINE_S", float, 120.0,
         "default per-job wall-clock deadline", SERVICE, above=0, unit="s"),
    Knob("OMBPY_SERVICE_RETRY_MAX", int, 1,
         "retry cap for rank-failure jobs", SERVICE, low=0),
    Knob("OMBPY_SERVICE_DRAIN_GRACE_S", float, 30.0,
         "seconds a drain waits for in-flight jobs", SERVICE,
         low=0, unit="s"),
    Knob("OMBPY_SERVICE_RETRY_BACKOFF_MS", float, 100.0,
         "initial retry backoff, doubling to 5 s", SERVICE,
         above=0, unit="ms"),
    # ombpy-campaign.
    Knob("OMBPY_CAMPAIGN_CONCURRENCY", int, 2,
         "cells executed concurrently", CAMPAIGN, low=1),
    Knob("OMBPY_CAMPAIGN_CELL_TIMEOUT_S", float, 120.0,
         "per-cell wall-clock timeout", CAMPAIGN, above=0, unit="s"),
    Knob("OMBPY_CAMPAIGN_RETRY_MAX", int, 2,
         "retries per cell within one driver run", CAMPAIGN, low=0),
    Knob("OMBPY_CAMPAIGN_RETRY_BACKOFF_MS", float, 250.0,
         "initial retry backoff, doubling to 10 s", CAMPAIGN,
         above=0, unit="ms"),
    Knob("OMBPY_CAMPAIGN_QUARANTINE_AFTER", int, 3,
         "journaled failures before a cell is quarantined", CAMPAIGN, low=1),
]}


def read(name: str):
    """The parsed value of knob ``name`` in the current environment."""
    return KNOBS[name].parse(os.environ.get(name))


def raw(name: str) -> str | None:
    """The unparsed value of knob ``name`` (``None`` when unset or empty).

    Only for per-call hot paths such as ``selector.forced``: the value
    was checked by :func:`validate` before any rank started.
    """
    return os.environ.get(name) or None


class EnvConfig:
    """Base of a dataclass whose fields (mapped to variables by ``_ENV``)
    are knobs; every field value, from a variable or a flag, is checked.
    """

    _ENV: dict[str, str] = {}

    def __post_init__(self) -> None:
        for field, name in self._ENV.items():
            KNOBS[name].check(getattr(self, field))

    @classmethod
    def from_env(cls, **overrides):
        """Build from the environment; ``overrides`` (CLI flags) win,
        and an overridden knob's variable is not read at all — a flag
        must beat even a malformed variable."""
        return cls(**{
            field: overrides[field] if overrides.get(field) is not None
            else read(name)
            for field, name in cls._ENV.items()
        })


def validate(environ=None) -> None:
    """Parse every ``rank`` and ``wiring`` knob set in ``environ``
    (default: ``os.environ``); raise ``ValueError`` on the first bad one."""
    env = os.environ if environ is None else environ
    for knob in KNOBS.values():
        if knob.scope in (RANK, WIRING):
            knob.parse(env.get(knob.name))
