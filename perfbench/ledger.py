"""The layer ledger: each layer's cost measured alone, on one thread.

Every entry is one self send + receive (or the matching-engine steps of
one) on a 1-rank inproc world, so no thread handoff is involved.  Each
entry reports the median per-op time over several batches and, from a
separate profiled pass, the exact number of Python and C calls one op
makes.  Times are also given as multiples of ``floor.event_us`` so two
machines can be compared.
"""

from __future__ import annotations

import sys

import numpy as np

from common import batched_us, event_floor_us, socketpair_floor_us

_TAG = 7

#: Ledger entries, in output order.
ENTRY_NAMES = (
    "matching.expected", "matching.unexpected", "comm.sendrecv_8B",
    "native.sendrecv_8B", "bindings.buffer_8B", "bindings.pickle_8B",
    "comm.sendrecv_64KiB", "bindings.buffer_64KiB", "bindings.pickle_64KiB",
    "telemetry.metrics_8B",
)
_CALL_EVENTS = frozenset({"call", "c_call"})


def count_calls(op, iterations: int = 64) -> float:
    """Python + C calls made by one ``op()`` (the call to ``op`` excluded)."""
    for _ in range(8):
        op()
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event in _CALL_EVENTS:
            calls += 1

    sys.setprofile(profiler)
    try:
        for _ in range(iterations):
            op()
    finally:
        sys.setprofile(None)
    # Each iteration's own call into ``op``, and the final setprofile().
    per_op = (calls - 1) / iterations - 1
    return int(per_op) if per_op == int(per_op) else per_op


def _world():
    from repro.mpi.comm import Comm, Endpoint
    from repro.mpi.group import Group
    from repro.mpi.transport.inproc import InprocFabric

    fabric = InprocFabric(1)
    endpoint = Endpoint(fabric.create_transport(0))
    return Comm(endpoint, Group([0]), context=0), fabric


def _entries(rt, tele_rt):
    """``(name, op)`` for every ledger entry, on 1-rank comms."""
    from repro.bindings.comm_api import Comm as BindingsComm
    from repro.mpi.matching import Envelope
    from repro.native.api import NativeComm, RegisteredBuffer

    engine = rt.endpoint.engine
    env8 = Envelope(0, 0, 0, _TAG, 8)
    msg8 = b"\x01" * 8

    def expected():
        ticket = engine.post_recv(0, 0, _TAG, 8)
        engine.deliver(env8, msg8)
        ticket.wait()

    def unexpected():
        engine.deliver(env8, msg8)
        engine.post_recv(0, 0, _TAG, 8)

    def comm_sendrecv(nbytes):
        msg = b"\x01" * nbytes

        def op():
            rt.isend_bytes(msg, 0, _TAG)
            rt.recv_bytes(0, _TAG, nbytes)
        return op

    native = NativeComm(rt)
    sreg = RegisteredBuffer(np.ones(8, dtype=np.uint8))
    rreg = RegisteredBuffer(np.zeros(8, dtype=np.uint8))

    def native_sendrecv():
        native.send(sreg, 8, 0, _TAG)
        native.recv(rreg, 8, 0, _TAG)

    def buffer_sendrecv(comm, nbytes):
        send = np.ones(nbytes, dtype=np.uint8)
        recv = np.zeros(nbytes, dtype=np.uint8)

        def op():
            comm.Send(send, 0, _TAG)
            comm.Recv(recv, 0, _TAG)
        return op

    def pickle_sendrecv(comm, nbytes):
        obj = b"\x01" * nbytes

        def op():
            comm.send(obj, 0, _TAG)
            comm.recv(0, _TAG)
        return op

    bindings = BindingsComm(rt)
    ops = (
        expected, unexpected, comm_sendrecv(8), native_sendrecv,
        buffer_sendrecv(bindings, 8), pickle_sendrecv(bindings, 8),
        comm_sendrecv(65536), buffer_sendrecv(bindings, 65536),
        pickle_sendrecv(bindings, 65536),
        buffer_sendrecv(BindingsComm(tele_rt), 8),
    )
    return zip(ENTRY_NAMES, ops)


def measure(batch: int = 400, batches: int = 9) -> dict[str, float]:
    """Run every ledger entry; returns metric name -> value."""
    from repro.telemetry import Telemetry, install_on_endpoint

    out: dict[str, float] = {}
    floor = event_floor_us()
    out["floor.event_us"] = floor
    sock = socketpair_floor_us()
    out["floor.socketpair_us"] = sock
    out["floor.socketpair_xfloor"] = sock / floor

    rt, fabric = _world()
    tele_rt, tele_fabric = _world()
    install_on_endpoint(tele_rt.endpoint, Telemetry(0, metrics=True))
    try:
        for name, op in _entries(rt, tele_rt):
            op()
            us = batched_us(op, batch, batches)
            out[f"{name}_us"] = us
            out[f"{name}_xfloor"] = us / floor
            out[f"{name}_calls"] = count_calls(op)
    finally:
        fabric.close()
        tele_fabric.close()
    return out
