"""Exact per-message call budgets for the point-to-point hot path.

Each op below is one self send + receive of 8 bytes on a 1-rank inproc
world (no thread handoff), counted with a profiler hook as Python
``call`` plus C ``c_call`` events.  Counts do not depend on machine
speed or load, so a budget holds on a noisy CI runner where a timing
gate could not: a change that adds per-message work fails here.

The budgets are counts on CPython 3.11 (the event stream differs
between interpreter versions).  Lower the budget when a change removes
calls, so the slack cannot be spent later unnoticed.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.bindings.comm_api import Comm as BindingsComm
from repro.mpi.comm import Comm, Endpoint
from repro.mpi.group import Group
from repro.mpi.matching import Envelope
from repro.mpi.transport.inproc import InprocFabric
from repro.native.api import NativeComm, RegisteredBuffer

#: op name -> calls allowed per self send + receive.
BUDGETS = {
    "matching": 14,   # post_recv + deliver + wait on the engine alone
    "comm": 28,       # Comm.isend_bytes + Comm.recv_bytes
    "native": 34,     # NativeComm.send + NativeComm.recv
    "buffer": 39,     # bindings Send + Recv of an 8-byte uint8 array
    "pickle": 39,     # bindings send + recv of an 8-byte bytes object
}

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="call budgets are counted on CPython 3.11",
)

_TAG = 7


def calls_per_op(op, iterations: int = 32) -> float:
    """Python + C calls made inside one ``op()``."""
    for _ in range(4):
        op()
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        for _ in range(iterations):
            op()
    finally:
        sys.setprofile(None)
    # Not counted: each iteration's call into op, and setprofile(None).
    return (calls - 1 - iterations) / iterations


@pytest.fixture(scope="module")
def world():
    fabric = InprocFabric(1)
    rt = Comm(Endpoint(fabric.create_transport(0)), Group([0]))
    yield rt
    fabric.close()


@pytest.fixture(scope="module")
def ops(world):
    engine = world.endpoint.engine
    env8 = Envelope(0, 0, 0, _TAG, 8)
    msg = b"\x01" * 8

    def matching():
        ticket = engine.post_recv(0, 0, _TAG, 8)
        engine.deliver(env8, msg)
        ticket.wait()

    def comm():
        world.isend_bytes(msg, 0, _TAG)
        world.recv_bytes(0, _TAG, 8)

    native = NativeComm(world)
    sreg = RegisteredBuffer(np.ones(8, dtype=np.uint8))
    rreg = RegisteredBuffer(np.zeros(8, dtype=np.uint8))

    def native_op():
        native.send(sreg, 8, 0, _TAG)
        native.recv(rreg, 8, 0, _TAG)

    bindings = BindingsComm(world)
    send = np.ones(8, dtype=np.uint8)
    recv = np.zeros(8, dtype=np.uint8)

    def buffer():
        bindings.Send(send, 0, _TAG)
        bindings.Recv(recv, 0, _TAG)

    def pickle_op():
        bindings.send(msg, 0, _TAG)
        assert bindings.recv(0, _TAG) == msg

    return {
        "matching": matching, "comm": comm, "native": native_op,
        "buffer": buffer, "pickle": pickle_op,
    }


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_calls_within_budget(ops, world, name):
    calls = calls_per_op(ops[name])
    assert calls <= BUDGETS[name], (
        f"{name}: {calls} calls per self send+recv, budget {BUDGETS[name]}"
    )
    # Every counted op received what it sent.
    engine = world.endpoint.engine
    assert engine.pending_unexpected() == 0
    assert engine.pending_posted() == 0


def test_buffer_api_costs_no_more_than_pickle(ops):
    # The paper's premise: the direct-buffer API does less per-call
    # Python work than the pickle API.
    assert calls_per_op(ops["buffer"]) <= calls_per_op(ops["pickle"])
