"""What each rank runs: closed-loop workload bodies with output checks.

Every workload is a closed loop on 2 ranks: rank 0 starts the next op
only after the previous one completed.  A run is one or two *passes*
(untraced, then traced).  A pass warms every phase up with a fixed
number of ops, then runs rounds of about ``CHUNK_S`` seconds per phase,
each running every phase once in a seeded order.  Load from other
tenants of a shared machine comes and goes within seconds; short,
interleaved chunks spread it over all phases alike.  Rank 0 plans each
round and sends the plan to rank 1 in one message before the round
starts.  Before each round, and once after the last, both ranks also
time a fixed pure-Python loop; each round records that reference and
where its samples start, so a round's timings can be divided by the
references taken just before and just after it, which cancels the
host's changing speed.

Every op is checked after its clock stops.  Messages carry
:class:`~common.Pattern` contents stamped with the op's sequence number;
allreduce results are compared with their closed-form sum.  A rank that
sees a wrong, short, duplicated or reordered message marks the op bad;
an exception ends the pass and leaves the rest of the plan unrun.  The
caller owns each rank's :class:`Tally`, so the accounting survives a
rank that dies mid-pass.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

from common import Pattern, pin, reference_us, stamp

TAG_PLAN = 1
TAG_ACK = 2
TAG_READY = 3
TAG_FIRST = 4
TAG_REF = 5
_TAG_PHASE = 10

#: Target length of one chunk (one phase within a round), in seconds.
#: Short, so that the CPU references that bracket a round were taken in
#: the same speed state of the host as the round's ops: on a shared host
#: that state held for seconds at a time, and with 0.25 s chunks a
#: round's ops and its reference often fell in different states.
CHUNK_S = 0.05
WINDOW = 64


class Tally:
    """One rank's record of a run: plan, completions, bad ops, samples."""

    def __init__(self) -> None:
        self.planned = 0          # ops rank 0 planned (0 on rank 1)
        self.completed = 0        # ops this rank finished, good or bad
        self.bad: list[int] = []  # sequence numbers that failed a check
        self.samples: dict[str, dict[str, list[float]]] = {}
        # Per pass, per round: {"ref": reference µs, "start": {phase:
        # index of the round's first sample}}.
        self.rounds: dict[str, list[dict]] = {}
        self.traced_ops = 0       # ops completed while spans were recorded
        self.error: str | None = None
        self.on_plan = None       # called with ``planned`` when it grows

    def plan(self, n: int) -> None:
        self.planned += n
        if self.on_plan is not None:
            self.on_plan(self.planned)

    def to_json(self) -> dict:
        return {
            "planned": self.planned, "completed": self.completed,
            "bad": self.bad, "samples": self.samples,
            "rounds": self.rounds,
            "traced_ops": self.traced_ops, "error": self.error,
        }


def account(planned: int, tallies) -> tuple[int, int]:
    """``(attempted, failed)`` over the ranks' :meth:`Tally.to_json` records.

    An op counts as good only when rank 0 completed it and no rank
    flagged it.  Everything else that was planned failed, including
    ops a dead rank never ran.  ``tallies`` holds None for a rank
    that left no record.
    """
    lead = tallies[0]
    if lead is None:
        return max(planned, 1), max(planned, 1)
    done = lead["completed"]
    bad = {s for t in tallies if t is not None for s in t["bad"] if s < done}
    planned = max(planned, lead["planned"], done, 1)
    return planned, planned - (done - len(bad))


# -- workloads ---------------------------------------------------------------

class PingPong:
    """Blocking ping-pong, one message in flight; a sample is RTT / 2."""

    # Both rank processes on one CPU (see ``pin_rank``).
    PIN = "shared"
    PHASES = (("native", 8), ("buffer", 8), ("pickle", 8),
              ("buffer", 65536), ("pickle", 65536))
    WARMUP = 50

    def __init__(self, rt, seed: int) -> None:
        from repro.bindings.comm_api import Comm as BindingsComm
        from repro.mpi.status import Status
        from repro.native.api import NativeComm, RegisteredBuffer

        self.rank = rt.rank
        self.peer = 1 - rt.rank
        self.bindings = BindingsComm(rt)
        self.native = NativeComm(rt)
        self.status = Status()
        self.state = []
        for api, nbytes in self.PHASES:
            pat = Pattern(seed, nbytes)
            send = pat.new_buffer()
            recv = np.zeros(nbytes, dtype=np.uint8)
            regs = (RegisteredBuffer(send), RegisteredBuffer(recv))
            self.state.append((api, nbytes, pat, send, recv, regs))

    def op(self, p: int, seq: int):
        api, nbytes, pat, send, recv, (sreg, rreg) = self.state[p]
        tag = _TAG_PHASE + p
        peer = self.peer
        b = self.bindings
        clock = time.perf_counter
        if self.rank == 0:
            if api == "pickle":
                obj = pat.message(seq)
                t0 = clock()
                b.send(obj, peer, tag)
                got = b.recv(peer, tag)
                dt = clock() - t0
                return dt / 2, isinstance(got, bytes) and pat.check(got, seq)
            pat.fill(send, seq)
            if api == "native":
                t0 = clock()
                self.native.send(sreg, nbytes, peer, tag)
                self.native.recv(rreg, nbytes, peer, tag)
                dt = clock() - t0
                return dt / 2, pat.check(recv, seq)
            st = self.status
            t0 = clock()
            b.Send(send, peer, tag)
            b.Recv(recv, peer, tag, st)
            dt = clock() - t0
            return dt / 2, st.count_bytes == nbytes and pat.check(recv, seq)
        # Rank 1 echoes what it received, then checks it.
        if api == "pickle":
            got = b.recv(peer, tag)
            b.send(got, peer, tag)
            return None, isinstance(got, bytes) and pat.check(got, seq)
        if api == "native":
            self.native.recv(rreg, nbytes, peer, tag)
            self.native.send(rreg, nbytes, peer, tag)
            return None, pat.check(recv, seq)
        st = self.status
        b.Recv(recv, peer, tag, st)
        b.Send(recv, peer, tag)
        return None, st.count_bytes == nbytes and pat.check(recv, seq)


class Stream:
    """osu_bw-style windows: 64 ``Isend`` then a 4-byte ack.

    Rank 1 pre-posts the window's receives and says so with a ready
    message before rank 0 starts the clock, so a sample covers exactly
    the 64 sends, their delivery and the ack.
    """

    # Unpinned: at 1 MiB rank 1's reader thread and app thread both
    # copy, and pinned to one CPU they made the bandwidth unsteady.
    PIN = None
    PHASES = (("buffer", 8), ("buffer", 1 << 20))
    WARMUP = 4

    def __init__(self, rt, seed: int) -> None:
        from repro.bindings.comm_api import Comm as BindingsComm
        from repro.mpi.status import Status

        self.rank = rt.rank
        self.peer = 1 - rt.rank
        self.seed = seed
        self.bindings = BindingsComm(rt)
        self.status = Status()
        self.ack = np.zeros(4, dtype=np.uint8)
        self.statuses = [Status() for _ in range(WINDOW)]
        self.state = []
        for _api, nbytes in self.PHASES:
            pat = Pattern(seed, nbytes)
            if self.rank == 0:
                bufs = [pat.new_buffer() for _ in range(WINDOW)]
            else:
                bufs = [np.zeros(nbytes, dtype=np.uint8)
                        for _ in range(WINDOW)]
            self.state.append((nbytes, pat, bufs))

    def op(self, p: int, seq: int):
        nbytes, pat, bufs = self.state[p]
        tag = _TAG_PHASE + p
        peer = self.peer
        b = self.bindings
        ack = self.ack
        ack_bytes = stamp(self.seed, seq)[:4]
        first = seq * WINDOW
        if self.rank == 0:
            for j, buf in enumerate(bufs):
                pat.fill(buf, first + j)
            st = self.status
            b.Recv(ack, peer, TAG_READY)
            t0 = time.perf_counter()
            reqs = [b.Isend(buf, peer, tag) for buf in bufs]
            for req in reqs:
                req.wait()
            b.Recv(ack, peer, TAG_ACK, st)
            dt = time.perf_counter() - t0
            return dt, st.count_bytes == 4 and ack.tobytes() == ack_bytes
        reqs = [b.Irecv(buf, peer, tag) for buf in bufs]
        b.Send(ack, peer, TAG_READY)
        for req, st in zip(reqs, self.statuses):
            req.Wait(st)
        ack[:] = np.frombuffer(ack_bytes, dtype=np.uint8)
        b.Send(ack, peer, TAG_ACK)
        del reqs  # frees the received payloads before the checks
        ok = all(
            st.count_bytes == nbytes and pat.check(buf, first + j)
            for j, (buf, st) in enumerate(zip(bufs, self.statuses))
        )
        return None, ok


class Allreduce:
    """``allreduce_array`` SUM of float64, checked against the exact sum.

    Rank r contributes seeded integers plus the op's sequence number,
    all exactly representable, so the sum has a closed form:
    ``sum_r base_r + size * seq``.
    """

    # Both rank threads on one CPU (see ``pin_rank``).
    PIN = "shared"
    PHASES = (("allreduce", 8), ("allreduce", 65536))
    WARMUP = 50

    def __init__(self, rt, seed: int) -> None:
        from repro.mpi.ops import SUM

        self.rt = rt
        self.rank = rt.rank
        self.size = rt.size
        self.op_sum = SUM
        self.state = []
        for _api, nbytes in self.PHASES:
            count = nbytes // 8
            bases = [
                np.array(random.Random(f"{seed}:{r}:{nbytes}").choices(
                    range(1 << 20), k=count), dtype=np.float64)
                for r in range(self.size)
            ]
            self.state.append(
                (bases[self.rank], np.sum(bases, axis=0),
                 np.empty(count, dtype=np.float64))
            )

    def op(self, p: int, seq: int):
        base, total, send = self.state[p]
        np.add(base, seq, out=send)
        t0 = time.perf_counter()
        out = self.rt.allreduce_array(send, self.op_sum)
        dt = time.perf_counter() - t0
        ok = out.shape == total.shape and bool(
            np.array_equal(out, total + self.size * seq)
        )
        return dt, ok


WORKLOADS = {"pingpong": PingPong, "stream": Stream, "allreduce": Allreduce}


def pin_rank(workload: str) -> None:
    """Place the calling rank's threads as its workload asks.

    Both ping-pong rank processes, with their reader threads, and both
    allreduce rank threads share one CPU: every handoff is then a
    switch on that CPU, never a wake-up of another, idle one.  On a
    shared host the time to wake an idle virtual CPU rose and fell with
    other tenants' load; with rank r on CPU r, ping-pong medians moved
    by a quarter between runs, and unpinned threads moved them by a
    third.
    """
    if WORKLOADS[workload].PIN == "shared":
        pin(0)


def phase_name(workload: str, p: int) -> str:
    api, nbytes = WORKLOADS[workload].PHASES[p]
    size = f"{nbytes // 1048576}MiB" if nbytes >= 1048576 else (
        f"{nbytes // 1024}KiB" if nbytes >= 1024 else f"{nbytes}B")
    return f"{api}_{size}"


# -- passes ------------------------------------------------------------------

def first_exchange(rt, workload: str) -> None:
    """The exchange that ends set-up: one round trip, or one allreduce."""
    if workload == "allreduce":
        from repro.mpi.ops import SUM

        rt.allreduce_array(np.ones(1), SUM)
        return
    if rt.rank == 0:
        rt.send_bytes(b"\0" * 8, 1, TAG_FIRST)
        rt.recv_bytes(1, TAG_FIRST, 8)
    else:
        rt.recv_bytes(0, TAG_FIRST, 8)
        rt.send_bytes(b"\0" * 8, 0, TAG_FIRST)


def _share_plan(rt, chunks):
    """Rank 0 sends a round's chunk plan (empty: the pass ends); every
    rank returns it.

    Each rank also times :func:`common.reference_us` on its own CPU, one
    rank after the other while the other waits, and the round's
    reference is their mean.  Returns ``(chunks, reference µs)``.
    """
    if rt.rank == 0:
        ref = reference_us()
        rt.send_bytes(json.dumps([chunks, ref]).encode(), 1, TAG_PLAN)
        payload, _status = rt.recv_bytes(1, TAG_REF, 64)
        return chunks, (ref + float(payload)) / 2
    payload, _status = rt.recv_bytes(0, TAG_PLAN, 1 << 20)
    chunks, lead_ref = json.loads(payload)
    ref = reference_us()
    rt.send_bytes(repr(ref).encode(), 0, TAG_REF)
    return chunks, (lead_ref + ref) / 2


def run_pass(wl, rt, workload: str, pass_name: str, seed: int,
             seconds: float, tally: Tally, traced: bool = False) -> None:
    """A warm-up, then planned rounds; every op into ``tally``.

    Rank 0 plans each round just before it runs, sizing the round's
    chunks from the wall time per op seen so far (checks and
    bookkeeping included) so the pass ends near ``seconds``.
    Exceptions (a dead peer, a timeout) end the pass: they are recorded
    in the tally and the unrun rest of the plan counts as failed.
    """
    rng = random.Random(f"{seed}:{pass_name}")
    n_phases = len(wl.PHASES)
    lead = rt.rank == 0
    if lead:
        tally.plan(wl.WARMUP * n_phases)
    samples = {phase_name(workload, p): [] for p in range(n_phases)}
    tally.samples[pass_name] = samples
    round_log = tally.rounds[pass_name] = []
    start = time.perf_counter()
    seq = tally.completed
    per_op: dict[int, float] = {}

    def run(p: int, count: int, keep) -> None:
        nonlocal seq
        t0 = time.perf_counter()
        for _ in range(count):
            dt, ok = wl.op(p, seq)
            if not ok:
                tally.bad.append(seq)
            if keep is not None and dt is not None:
                keep.append(dt * 1e6)
            seq += 1
            tally.completed += 1
            if traced:
                tally.traced_ops += 1
        per_op[p] = (time.perf_counter() - t0) / count

    order = list(range(n_phases))
    rng.shuffle(order)
    for p in order:
        run(p, wl.WARMUP, None)
    # Rank 0 alone decides how many rounds run: an empty plan ends the
    # pass, and its entry in the log holds the reference after the last
    # round.  A round is at least one op per phase, however long.
    left = max(1, round(seconds / sum(max(CHUNK_S, t)
                                      for t in per_op.values())))
    while True:
        chunks = None
        if lead:
            chunks = []
            if left:
                budget = max(seconds - (time.perf_counter() - start), 0.0)
                per_chunk = budget / left / n_phases
                rng.shuffle(order)
                chunks = [[p, max(1, int(per_chunk / per_op[p]))]
                          for p in order]
                tally.plan(sum(n for _p, n in chunks))
                left -= 1
        chunks, ref = _share_plan(rt, chunks)
        round_log.append({"ref": ref,
                          "start": {k: len(v) for k, v in samples.items()}})
        if not chunks:
            break
        for p, count in chunks:
            run(p, count, samples[phase_name(workload, p)])


def run_workload(workload: str, rt, seed: int, seconds: float, trace: bool,
                 tally: Tally, recorder=None) -> None:
    """Run the untraced pass and, with ``trace``, a traced pass after it.

    With ``trace`` each pass gets half of ``seconds``; ``recorder`` (a
    :class:`spans.SpanRecorder`) is installed between the passes.
    """
    wl = WORKLOADS[workload](rt, seed)
    try:
        if not trace:
            run_pass(wl, rt, workload, "untraced", seed, seconds, tally)
            return
        run_pass(wl, rt, workload, "untraced", seed, seconds / 2, tally)
        recorder.install(
            rt, bindings=getattr(wl, "bindings", None),
            native=getattr(wl, "native", None),
        )
        try:
            run_pass(wl, rt, workload, "traced", seed, seconds / 2, tally,
                     traced=True)
        finally:
            recorder.uninstall()
    except Exception as exc:  # noqa: BLE001 - the run reports it as failed
        tally.error = f"{type(exc).__name__}: {exc}"
        if type(exc).__name__ == "InjectedCrash":
            raise
        # Revoking the communicator wakes a peer blocked on this rank,
        # so it stops too instead of waiting out the job's deadline.
        try:
            rt.revoke()
        except Exception:  # noqa: BLE001 - best effort; peer may be gone
            pass
