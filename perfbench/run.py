"""The repo benchmark: closed-loop workloads, a layer ledger and spans.

Run from the repository root::

    python3 perfbench/run.py --workload pingpong_uds --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics: the single-thread
layer ledger, then the workload again, untraced and traced, with spans
recorded around each layer's entry points.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it name every metric with its unit,
stamp the machine, and give each phase's sample count and percentiles.
``--workload all`` runs every workload untraced and prints all the
workload-named metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, BENCH)

from common import (  # noqa: E402
    event_floor_us, fingerprint, median, percentile, socketpair_floor_us,
    summarize,
)

#: Benchmark workload -> (body in bodies.py, fabric).  BENCHMARK.json
#: gates all but ``stream_uds``, whose 1 MiB phase is bimodal between
#: runs (see README.md).
WORKLOADS = {
    "pingpong_uds": ("pingpong", "uds"),
    "stream_uds": ("stream", "uds"),
    "allreduce_threads": ("allreduce", "threads"),
}
#: Set-up is timed this many times per run; the median is reported.
SETUP_PROBES = 9
#: The phase behind each end-to-end slot, per body (see README.md).
SLOTS = {
    "pingpong": ("buffer_8B", "buffer_64KiB", 1),
    "stream": ("buffer_8B", "buffer_1MiB", 64),
    "allreduce": ("allreduce_8B", "allreduce_64KiB", 1),
}
#: The gated end-to-end metrics every workload reports, with units.  The
#: ``_xref`` timings are in units of the in-run CPU reference (see
#: README.md); the same timings in µs are printed by name.
END_TO_END = {"small_p50_xref": "x", "large_p50_xref": "x", "setup_s": "s"}
RANKS = 2


# -- jobs --------------------------------------------------------------------

class Job:
    """What one launch left behind: per-rank results and exit codes."""

    def __init__(self, launched: float) -> None:
        self.launched = launched
        self.ranks: list[dict | None] = [None] * RANKS
        self.planned = 0
        self.exit_codes: list[int | None] = [None] * RANKS
        self.timed_out = False

    def read(self, out: str) -> None:
        for r in range(RANKS):
            path = os.path.join(out, f"rank{r}.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    self.ranks[r] = json.load(fh)
        plan = os.path.join(out, "plan.json")
        if os.path.exists(plan):
            with open(plan, encoding="utf-8") as fh:
                self.planned = json.load(fh)["planned"]

    def stamps(self) -> tuple[float, float] | None:
        """(ready, first-exchange) seconds after launch, slowest rank."""
        if any(r is None for r in self.ranks):
            return None
        ready = max(r["stamps"]["ready"] for r in self.ranks)
        first = max(r["stamps"]["first"] for r in self.ranks)
        return ready - self.launched, first - self.launched


def _job_dir(tag: str) -> str:
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=os.path.join(WORK, "jobs"))
    return os.path.relpath(path, WORK)


def _rank_env(extra: dict | None = None) -> dict[str, str]:
    env = {"PYTHONPATH": os.pathsep.join([SRC, BENCH]), "TMPDIR": "."}
    env.update(extra or {})
    return env


def _rank_cmd(body: str, out: str, args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(BENCH, "rank.py"),
            "--workload", body, "--out", out] + args


def run_uds_job(body: str, args: list[str], timeout: float) -> Job:
    """Launch 2 rank processes over uds and supervise them to the end."""
    from repro.mpi.launcher import spawn_ranks

    out = _job_dir(body)
    job = Job(time.monotonic())
    ranks = spawn_ranks(RANKS, _rank_cmd(body, out, args), transport="uds",
                        env_extra=_rank_env())
    try:
        deadline = job.launched + timeout
        while None in ranks.poll_exits():
            if time.monotonic() > deadline:
                job.timed_out = True
                break
            time.sleep(0.01)
    finally:
        ranks.cleanup()
    job.exit_codes = ranks.poll_exits()
    job.read(out)
    shutil.rmtree(out, ignore_errors=True)
    return job


def run_threads_probe(timeout: float) -> Job:
    """One cold set-up of the threads workload in a fresh process."""
    out = _job_dir("allreduce")
    job = Job(time.monotonic())
    env = dict(os.environ)
    env.update(_rank_env({"OMBPY_METRICS": "1"}))
    proc = subprocess.Popen(_rank_cmd("allreduce", out, ["--threads"]),
                            env=env)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        job.timed_out = True
        proc.kill()
        proc.wait()
    job.exit_codes = [proc.returncode] * RANKS
    job.read(out)
    shutil.rmtree(out, ignore_errors=True)
    return job


def run_threads_job(seed: int, seconds: float, trace: bool,
                    timeout: float) -> Job:
    """The allreduce workload on 2 rank threads of this process."""
    from bodies import Tally, first_exchange, pin_rank, run_workload
    from rank import max_rss_mib
    from repro.mpi.world import run_on_threads
    from spans import SpanRecorder

    job = Job(time.monotonic())
    tallies = [Tally() for _ in range(RANKS)]
    recorders = [SpanRecorder() if trace else None for _ in range(RANKS)]
    extra: dict[int, dict] = {}

    def body(comm):
        r = comm.rank
        pin_rank("allreduce")
        ready = time.monotonic()
        first_exchange(comm, "allreduce")
        first = time.monotonic()
        try:
            run_workload("allreduce", comm, seed, seconds, trace,
                         tallies[r], recorders[r])
        finally:
            extra[r] = {"stamps": {"ready": ready, "first": first},
                        "threads": threading.active_count()}

    os.environ["OMBPY_METRICS"] = "1"
    try:
        run_on_threads(RANKS, body, timeout=timeout)
    except Exception as exc:  # noqa: BLE001 - reported as failed ops
        print(f"# allreduce_threads: {type(exc).__name__}: {exc}",
              file=sys.stderr)
    finally:
        os.environ.pop("OMBPY_METRICS", None)
    for r in range(RANKS):
        if r not in extra:
            continue
        job.ranks[r] = dict(extra[r], tally=tallies[r].to_json(),
                            connections=0, max_rss_MiB=max_rss_mib())
        if trace:
            job.ranks[r]["spans"] = recorders[r].totals()
            recorders[r].write(
                f"{_spans_path('allreduce_threads')}-rank{r}.jsonl")
    job.planned = tallies[0].planned
    return job


def _spans_path(workload: str) -> str:
    """Path prefix of a workload's span files (one per rank)."""
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    return os.path.join(WORK, "spans", workload)


# -- one workload ------------------------------------------------------------

def setup_probes(workload: str) -> list[tuple[float, float]]:
    """Time SETUP_PROBES cold launches to the first exchange."""
    body, fabric = WORKLOADS[workload]
    out = []
    for _ in range(SETUP_PROBES):
        if fabric == "uds":
            job = run_uds_job(body, ["--setup-only"], timeout=60)
        else:
            job = run_threads_probe(timeout=60)
        stamps = job.stamps()
        if stamps is None:
            print(f"# {workload}: a set-up probe failed "
                  f"(exit codes {job.exit_codes})")
        else:
            out.append(stamps)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes plus one measured job; returns the raw record."""
    body, fabric = WORKLOADS[workload]
    probes = setup_probes(workload)
    timeout = 3 * seconds + 60
    if fabric == "uds":
        args = ["--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(trace))]
        if trace:
            args += ["--spans", os.path.relpath(_spans_path(workload), WORK)]
        job = run_uds_job(body, args, timeout)
    else:
        job = run_threads_job(seed, seconds, trace, timeout)
    return {"body": body, "probes": probes, "job": job}


def op_samples(job: Job, pass_name: str) -> dict[str, list[float]]:
    """Per-op µs samples per phase of one pass, in the order run.

    Where several ranks timed the same ops (the allreduce), a sample is
    the ops' mean over the ranks, as osu_allreduce averages its ranks.
    """
    per_rank = [r["tally"]["samples"].get(pass_name, {})
                for r in job.ranks if r is not None and "tally" in r]
    out = {}
    for name in (per_rank[0] if per_rank else {}):
        timed = [s[name] for s in per_rank if s.get(name)]
        if timed:
            out[name] = [sum(v) / len(v) for v in zip(*timed)]
    return out


def phase_stats(job: Job, pass_name: str) -> dict[str, dict]:
    """Percentiles per phase of one pass, in µs."""
    return {name: summarize(v)
            for name, v in op_samples(job, pass_name).items()}


def _rounds(job: Job, pass_name: str) -> list[dict]:
    """Rank 0's rounds of a pass; rank 0 times every workload's ops.

    The last entry holds the reference taken after the last round.
    """
    lead = job.ranks[0] or {}
    return lead["tally"]["rounds"][pass_name]


def round_ratio(job: Job, pass_name: str, phase: str) -> float:
    """A phase's p50 as a multiple of the CPU reference.

    Each round's samples of the phase give a p50, divided by the mean
    of the references taken just before and just after the round; the
    result is the median over the rounds, so a round the host slowed
    more than its references showed counts once.
    """
    samples = op_samples(job, pass_name)[phase]
    rounds = _rounds(job, pass_name)
    ratios = []
    for r, nxt in zip(rounds, rounds[1:]):
        seg = samples[r["start"][phase]:nxt["start"][phase]]
        if seg:
            ratios.append(percentile(sorted(seg), 50.0)
                          / ((r["ref"] + nxt["ref"]) / 2))
    return median(ratios)


def reference(job: Job, pass_name: str) -> float:
    """Median reference time of a pass's rounds, in µs."""
    return median([r["ref"] for r in _rounds(job, pass_name)])


def end_to_end(rec: dict, stats: dict) -> tuple[dict, dict]:
    """(gated slot metrics, workload-named metrics), values in units."""
    body = rec["body"]
    job = rec["job"]
    small, large, per = SLOTS[body]
    setup = median([s[1] for s in rec["probes"]]) if rec["probes"] else None
    slots = {
        "small_p50_xref": round_ratio(job, "untraced", small) / per,
        "large_p50_xref": round_ratio(job, "untraced", large) / per,
        "setup_s": setup,
    }
    if body == "pingpong":
        named = {
            "lat_native_8B_p50_us": stats["native_8B"]["p50"],
            "lat_buffer_8B_p50_us": stats["buffer_8B"]["p50"],
            "lat_pickle_8B_p50_us": stats["pickle_8B"]["p50"],
            "lat_buffer_8B_p90_us": stats["buffer_8B"]["p90"],
            "lat_buffer_64KiB_p50_us": stats["buffer_64KiB"]["p50"],
            "lat_pickle_64KiB_p50_us": stats["pickle_64KiB"]["p50"],
        }
    elif body == "stream":
        named = {
            "rate_8B_msgs_per_s": 64 / (stats["buffer_8B"]["p50"] / 1e6),
            "bw_1MiB_MBps": 64 * 1048576 / stats["buffer_1MiB"]["p50"],
        }
    else:
        named = {
            "allreduce_8B_p50_us": stats["allreduce_8B"]["p50"],
            "allreduce_8B_p90_us": stats["allreduce_8B"]["p90"],
            "allreduce_64KiB_p50_us": stats["allreduce_64KiB"]["p50"],
        }
    named["small_p50_us"] = stats[small]["p50"] / per
    named["large_p50_us"] = stats[large]["p50"] / per
    named["ref_us"] = reference(job, "untraced")
    named["setup_s"] = setup
    return slots, named


# -- per-layer metrics -------------------------------------------------------

SPAN_METRICS = (
    ("span.bindings.self_us", "bindings"),
    ("span.native.self_us", "native"),
    ("span.comm.self_us", "comm"),
    ("span.matching.post_us", "matching.post"),
    ("span.matching.deliver_us", "matching.deliver"),
    ("span.transport.send_us", "transport.send"),
    ("span.recv.wait_us", "recv.wait"),
    ("span.collectives.allreduce.self_us", "collectives.allreduce"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in output order."""
    from ledger import ENTRY_NAMES

    names = [("floor.event_us", "us"), ("floor.socketpair_us", "us"),
             ("floor.socketpair_xfloor", "x"), ("floor.ref_us", "us")]
    for entry in ENTRY_NAMES:
        names += [(f"{entry}_us", "us"), (f"{entry}_xfloor", "x"),
                  (f"{entry}_calls", "count")]
    names += [(name, "us") for name, _layer in SPAN_METRICS]
    names += [("span.collectives.msgs_per_call", "count"),
              ("trace.overhead_frac", "frac"),
              ("rank.threads", "count"), ("rank.connections", "count"),
              ("rank.max_rss_MiB", "MiB"),
              ("setup.spawn_s", "s"), ("setup.connect_s", "s")]
    return names


def per_layer(rec: dict, ledger_values: dict) -> dict:
    """Ledger, span, rank and set-up metrics of one traced run."""
    from spans import merge_totals

    job = rec["job"]
    small = SLOTS[rec["body"]][0]
    values = dict(ledger_values)
    ranks = [r for r in job.ranks if r is not None]
    totals = merge_totals(r["spans"] for r in ranks if "spans" in r)
    ops = sum(r["tally"]["traced_ops"] for r in ranks) or 1
    for name, layer in SPAN_METRICS:
        values[name] = totals["self_ns"][layer] / ops / 1000.0
    calls = totals["counts"]["collectives.allreduce"]
    values["span.collectives.msgs_per_call"] = (
        totals["coll_msgs"] / calls if calls else 0)
    values["floor.ref_us"] = reference(job, "untraced")
    values["trace.overhead_frac"] = (round_ratio(job, "traced", small)
                                     / round_ratio(job, "untraced", small)
                                     - 1.0)
    values["rank.threads"] = max(r["threads"] for r in ranks)
    values["rank.connections"] = max(r["connections"] for r in ranks)
    values["rank.max_rss_MiB"] = max(r["max_rss_MiB"] for r in ranks)
    probes = rec["probes"]
    values["setup.spawn_s"] = median([s[0] for s in probes]) if probes else None
    values["setup.connect_s"] = (
        median([s[1] - s[0] for s in probes]) if probes else None)
    return values


# -- output ------------------------------------------------------------------

NAMED_UNITS = {"rate_8B_msgs_per_s": "msg/s", "bw_1MiB_MBps": "MB/s",
               "setup_s": "s", "failed_frac": "frac"}
#: Named metrics every workload prints; ``--workload all`` prefixes them.
SHARED_NAMES = ("small_p50_us", "large_p50_us", "ref_us", "setup_s",
                "failed_frac")


def _unit(name: str) -> str:
    return NAMED_UNITS.get(name, "us")


def _describe(workload: str, stats: dict) -> None:
    for pass_name, phases in stats.items():
        for phase, s in phases.items():
            top = (f" p{s['top_p']:g}={s['top']:.2f}us"
                   if s["top_p"] > 99 else "")
            print(f"# {workload} {pass_name} {phase}: n={s['n']} "
                  f"p50={s['p50']:.2f}us p90={s['p90']:.2f}us "
                  f"p99={s['p99']:.2f}us{top}")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            ledger_values: dict | None = None):
    """Measure one workload; returns ``(attempted, failed, metrics, named)``.

    ``metrics`` maps every reported metric to ``(value, unit)``, the
    value None when the run could not measure it; ``named`` holds the
    workload-named metrics and ``failed_frac``.
    """
    from bodies import account

    rec = measure(workload, seed, seconds, trace)
    job = rec["job"]
    attempted, failed = account(
        job.planned, [r and r.get("tally") for r in job.ranks])
    for r, rank in enumerate(job.ranks):
        error = rank and rank.get("tally", {}).get("error")
        if error:
            print(f"# {workload} rank {r} error: {error}")
    if job.timed_out:
        print(f"# {workload}: job timed out; unrun ops count as failed")
    stats = {p: phase_stats(job, p) for p in ("untraced", "traced")}
    _describe(workload, {p: s for p, s in stats.items() if s})
    try:
        slots, named = end_to_end(rec, stats["untraced"])
        values = per_layer(rec, ledger_values) if trace else slots
    except KeyError:  # a phase or pass that never ran
        named, values = {}, {}
    named["failed_frac"] = failed / attempted
    for name, value in named.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"# {workload} {name} = {shown} {_unit(name)}")
    units = per_layer_names() if trace else END_TO_END.items()
    metrics = {name: (values.get(name), unit) for name, unit in units}
    return attempted, failed, metrics, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Closed-loop benchmark of the Python MPI runtime.")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    # A terminated run still reaches the ``finally`` that stops its ranks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(WORK, "jobs"), exist_ok=True)
    # Rank sockets live in the checkout, under a short relative path.
    os.chdir(WORK)
    os.environ["TMPDIR"] = "."
    tempfile.tempdir = "."

    stamp = fingerprint()
    stamp["floor.event_us"] = round(event_floor_us(), 3)
    stamp["floor.socketpair_us"] = round(socketpair_floor_us(), 3)
    print(f"# seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# machine " + json.dumps(stamp, sort_keys=True))

    if args.workload == "all":
        attempted = failed = 0
        named_all: dict[str, float] = {}
        for workload in WORKLOADS:
            a, f, _metrics, named = run_one(workload, args.seed,
                                            args.seconds, False)
            attempted += a
            failed += f
            for name, value in named.items():
                if name in SHARED_NAMES:
                    name = f"{workload}.{name}"
                named_all[name] = value
        metrics = {name: (value, _unit(name.rsplit(".", 1)[-1]))
                   for name, value in named_all.items()}
    else:
        ledger_values = None
        if args.trace:
            import ledger

            ledger_values = ledger.measure()
        attempted, failed, metrics, _named = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace),
            ledger_values)
    correct = failed == 0 and None not in (v for v, _u in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
