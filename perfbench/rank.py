"""One rank process of a workload, or one set-up probe.

``run.py`` starts this file; it is not meant to be run by hand.  Uds
workloads start two copies through the program's own launcher
(``repro.mpi.launcher.spawn_ranks``), which passes the rank and job in
the environment.  A set-up probe of the threads workload starts one
copy with ``--threads``: it builds the 2-thread world in-process.

Each copy writes ``rank<r>.json`` into ``--out``: monotonic-clock
stamps (process start, world ready, first exchange done), the rank's
:class:`bodies.Tally`, thread and connection counts, peak RSS and, for
a traced run, per-layer span totals.  Rank 0 also keeps ``plan.json``
current, so a job that dies still says how many ops it had planned.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def write_json(path: str, data) -> None:
    """Write ``data`` so a reader never sees a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def connections(world) -> int:
    stats = getattr(world.endpoint.transport.innermost(),
                    "connection_stats", None)
    return stats()["open_streams"] if stats is not None else 0


def threads_probe(out: str) -> int:
    """Set-up of the threads workload: 2 rank threads, first allreduce."""
    from bodies import first_exchange, pin_rank
    from repro.mpi.world import run_on_threads

    def body(comm):
        pin_rank("allreduce")
        ready = time.monotonic()
        first_exchange(comm, "allreduce")
        return {"ready": ready, "first": time.monotonic()}

    stamps = run_on_threads(2, body, timeout=60)
    for rank, st in enumerate(stamps):
        write_json(os.path.join(out, f"rank{rank}.json"),
                   {"rank": rank, "stamps": dict(st, start=T_START)})
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="path prefix for this rank's spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--threads", action="store_true")
    args = ap.parse_args(argv)

    if args.threads:
        return threads_probe(args.out)

    from bodies import Tally, first_exchange, pin_rank, run_workload
    from repro.mpi.world import init

    pin_rank(args.workload)
    world = init()
    ready = time.monotonic()
    rt = world.comm
    first_exchange(rt, args.workload)
    result = {"rank": rt.rank, "stamps": {
        "start": T_START, "ready": ready, "first": time.monotonic()}}
    path = os.path.join(args.out, f"rank{rt.rank}.json")
    if args.setup_only:
        write_json(path, result)
        world.finalize()
        return 0

    tally = Tally()
    if rt.rank == 0:
        plan_path = os.path.join(args.out, "plan.json")
        tally.on_plan = lambda n: write_json(plan_path, {"planned": n})
    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    try:
        run_workload(args.workload, rt, args.seed, args.seconds,
                     bool(args.trace), tally, recorder)
    finally:
        result.update(
            tally=tally.to_json(), threads=threading.active_count(),
            connections=connections(world), max_rss_MiB=max_rss_mib(),
        )
        if recorder is not None:
            result["spans"] = recorder.totals()
            if args.spans:
                recorder.write(f"{args.spans}-rank{rt.rank}.jsonl")
        write_json(path, result)
    if tally.error is not None:
        print(f"rank {rt.rank}: {tally.error}", file=sys.stderr)
        return 1
    rt.barrier()
    world.finalize()
    return 0


if __name__ == "__main__":
    sys.exit(main())
