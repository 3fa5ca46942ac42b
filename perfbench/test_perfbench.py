"""Self-tests of the benchmark: its checks can fail, its arithmetic holds.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import bodies  # noqa: E402
from common import Pattern  # noqa: E402
from repro.faults import CrashSpec, FaultPlan  # noqa: E402
from repro.mpi.world import run_on_threads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SEED = 5


def pingpong_on_threads(plan=None, seconds=0.5):
    """The ping-pong body on 2 rank threads; returns (attempted, failed)."""
    tallies = [bodies.Tally(), bodies.Tally()]

    def body(comm):
        bodies.first_exchange(comm, "pingpong")
        bodies.run_workload("pingpong", comm, SEED, seconds, False,
                            tallies[comm.rank])

    run_on_threads(2, body, timeout=60, fault_plan=plan,
                   tolerate_crashes=True)
    records = [t.to_json() for t in tallies]
    return bodies.account(tallies[0].planned, records), tallies


def test_clean_run_has_no_failures():
    (attempted, failed), tallies = pingpong_on_threads()
    assert attempted > 100
    assert failed == 0
    # References bracket every round, and each round's samples follow
    # the previous round's; the closing entry starts no samples.
    lead = tallies[0]
    rounds = lead.rounds["untraced"]
    assert len(rounds) > 2 and min(r["ref"] for r in rounds) > 0
    for name, us in lead.samples["untraced"].items():
        starts = [r["start"][name] for r in rounds]
        assert starts == sorted(starts)
        assert starts[-2] < starts[-1] == len(us)


def test_duplicated_messages_fail_the_output_check():
    # A duplicate raises nowhere: only the sequence stamps notice it.
    plan = FaultPlan(seed=SEED, duplicate=0.01)
    (attempted, failed), tallies = pingpong_on_threads(plan)
    assert failed / attempted > 0
    assert all(t.error is None for t in tallies)


def test_truncated_messages_count_as_failed():
    plan = FaultPlan(seed=SEED, truncate=0.01)
    (attempted, failed), _tallies = pingpong_on_threads(plan)
    assert failed / attempted > 0


def test_crashed_rank_leaves_its_unrun_ops_failed():
    plan = FaultPlan(seed=SEED, crash=CrashSpec(rank=1, at_op=300,
                                                mode="raise"))
    (attempted, failed), tallies = pingpong_on_threads(plan)
    assert tallies[1].error.startswith("InjectedCrash")
    assert failed >= attempted - tallies[0].completed > 0


def test_pattern_rejects_short_and_stale_messages():
    pat = Pattern(SEED, 64)
    buf = pat.new_buffer()
    pat.fill(buf, 7)
    assert pat.check(buf, 7)
    assert not pat.check(buf, 8)
    assert not pat.check(buf[:32], 7)
    stale = buf.copy()
    pat.fill(buf, 8)
    stale[:32] = buf[:32]   # a truncated 8 over a buffer that held 7
    assert not pat.check(stale, 8)


def test_self_time_and_waiting_on_nested_spans_from_two_threads():
    rec = SpanRecorder()
    arrived = threading.Event()

    wait = rec.wrap("recv.wait", lambda: arrived.wait(5))

    def inner():
        time.sleep(0.02)
        wait()

    comm = rec.wrap("comm", inner)

    def outer():
        time.sleep(0.01)
        comm()

    bindings = rec.wrap("bindings", outer)
    deliver = rec.wrap("matching.deliver",
                       lambda: (time.sleep(0.06), arrived.set()))
    receiver = threading.Thread(target=bindings)
    sender = threading.Thread(target=deliver)
    receiver.start()
    sender.start()
    receiver.join(10)
    sender.join(10)
    assert not receiver.is_alive() and not sender.is_alive()

    done = {r[0]: r for r in rec.finished()}
    assert set(done) == {"bindings", "comm", "recv.wait",
                         "matching.deliver"}
    totals = rec.totals()["self_ns"]
    b, c, w, d = (done[k] for k in ("bindings", "comm", "recv.wait",
                                     "matching.deliver"))
    dur = {k: r[2] - r[1] for k, r in done.items()}
    # Self time is duration minus direct children, exactly.
    assert totals["bindings"] == dur["bindings"] - dur["comm"]
    assert totals["comm"] == dur["comm"] - dur["recv.wait"]
    assert totals["recv.wait"] == dur["recv.wait"]
    assert totals["matching.deliver"] == dur["matching.deliver"]
    # A thread's self times add up to its root span; the other thread's
    # span is a root of its own, not a child.
    assert sum(totals[k] for k in ("bindings", "comm", "recv.wait")) \
        == dur["bindings"]
    assert c[4] is b and w[4] is c and d[4] is None and b[4] is None
    assert b[5] != d[5]
    # Waiting is the blocked part: until the other thread delivered.
    ms = {k: v / 1e6 for k, v in totals.items()}
    assert 5 <= ms["bindings"] < 40
    assert 15 <= ms["comm"] < 60
    assert 15 <= ms["recv.wait"] < 60
    assert abs(w[2] - d[2]) < 20e6


def test_benchmark_json_names_every_metric_the_run_prints():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
