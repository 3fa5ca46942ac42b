"""Shared pieces of the benchmark: message patterns, statistics, machine stamp.

Nothing here imports the program under test, so the driver can stamp a
result and fail cleanly even when the program's sources are missing.
"""

from __future__ import annotations

import math
import os
import platform
import random
import socket
import struct
import threading
import time

import numpy as np

_MASK = (1 << 64) - 1
_STAMP = struct.Struct("<Q")


def stamp(seed: int, seq: int) -> bytes:
    """8 bytes that identify message ``seq`` of a run seeded with ``seed``.

    A splitmix64 mix, so consecutive sequence numbers differ in every
    byte: a truncated message whose tail still holds the previous
    message's bytes cannot pass for the current one.
    """
    z = (seed * 0x9E3779B97F4A7C15 + seq + 1) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return _STAMP.pack(z ^ (z >> 31))


class Pattern:
    """Seeded contents of every ``nbytes`` message of a run.

    Message ``seq`` is a fixed seeded body with :func:`stamp` written
    over its first and last 8 bytes (an 8-byte message is the stamp).
    """

    def __init__(self, seed: int, nbytes: int) -> None:
        if nbytes < 8:
            raise ValueError(f"messages must be >= 8 bytes, got {nbytes}")
        self.seed = seed
        self.nbytes = nbytes
        rng = random.Random(f"{seed}:{nbytes}")
        self.body = np.frombuffer(rng.randbytes(nbytes), dtype=np.uint8)

    def new_buffer(self) -> np.ndarray:
        """A writable message buffer holding the body (stamps zeroed)."""
        buf = self.body.copy()
        buf[:8] = 0
        buf[-8:] = 0
        return buf

    def fill(self, buf: np.ndarray, seq: int) -> None:
        """Stamp a buffer from :meth:`new_buffer` as message ``seq``."""
        s = np.frombuffer(stamp(self.seed, seq), dtype=np.uint8)
        buf[:8] = s
        buf[-8:] = s

    def message(self, seq: int) -> bytes:
        """Message ``seq`` as an immutable bytes object."""
        buf = self.new_buffer()
        self.fill(buf, seq)
        return buf.tobytes()

    def check(self, data, seq: int) -> bool:
        """Whether ``data`` (any buffer) is exactly message ``seq``."""
        try:
            got = np.frombuffer(data, dtype=np.uint8)
        except (TypeError, ValueError):
            return False
        if got.size != self.nbytes:
            return False
        s = stamp(self.seed, seq)
        if got[:8].tobytes() != s or got[-8:].tobytes() != s:
            return False
        return bool(np.array_equal(got[8:-8], self.body[8:-8]))


# -- statistics ---------------------------------------------------------

#: Percentile levels a timing may be reported at.
LEVELS = (50.0, 90.0, 99.0, 99.9, 99.99)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    k = max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))
    return sorted_values[k]


def top_level(n: int) -> float:
    """The highest level in :data:`LEVELS` with >= 10 samples beyond it."""
    best = LEVELS[0]
    for p in LEVELS:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def summarize(samples) -> dict:
    """p50/p90/p99, the highest supported percentile, and the count."""
    vals = sorted(samples)
    top = top_level(len(vals))
    return {
        "n": len(vals),
        "p50": percentile(vals, 50.0),
        "p90": percentile(vals, 90.0),
        "p99": percentile(vals, 99.0),
        "top_p": top,
        "top": percentile(vals, top),
    }


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        return float("nan")
    mid = len(vals) // 2
    if len(vals) % 2:
        return vals[mid]
    return (vals[mid - 1] + vals[mid]) / 2.0


# -- placement ------------------------------------------------------------

def pin(index: int) -> None:
    """Bind the calling thread, and threads it starts, to one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


# -- machine stamp ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """nproc, CPU model, Python version and load average at start."""
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "loadavg": load,
    }


def batched_us(op, batch: int, batches: int) -> float:
    """Median over ``batches`` of the mean time of ``batch`` calls, in µs."""
    clock = time.perf_counter
    per = []
    for _ in range(batches):
        t0 = clock()
        for _ in range(batch):
            op()
        per.append((clock() - t0) / batch * 1e6)
    return median(per)


def _reference_op() -> int:
    total = 0
    for i in range(1000):
        total += i * i
    return total


def reference_us(batch: int = 5, batches: int = 5) -> float:
    """One fixed pure-Python loop of 1000 multiply-adds, in µs.

    The yardstick the workloads' timings are divided by.  It calls
    nothing of the program, so no program change moves it, while a
    shared host's changing CPU speed moves it as it moves the program.
    """
    _reference_op()
    return batched_us(_reference_op, batch, batches)


def event_floor_us(batch: int = 2000, batches: int = 9) -> float:
    """One ``threading.Event`` set + wait + clear, single thread."""
    ev = threading.Event()

    def op() -> None:
        ev.set()
        ev.wait()
        ev.clear()

    op()
    return batched_us(op, batch, batches)


def socketpair_floor_us(batch: int = 2000, batches: int = 9) -> float:
    """One 8-byte send + recv over a Unix socketpair, single thread."""
    a, b = socket.socketpair()
    msg = b"\0" * 8
    try:
        def op() -> None:
            a.send(msg)
            b.recv(8)

        op()
        return batched_us(op, batch, batches)
    finally:
        a.close()
        b.close()
