"""``ombpy-run`` — the mpiexec analogue.

Spawns N copies of a Python program as OS processes, coordinates the TCP
rendezvous (each child reports its listening port; the launcher broadcasts
the full rank->port map), then *supervises* all ranks concurrently:

* the first non-zero exit triggers fail-fast — survivors get a short
  grace period (long enough for their failure detectors to raise
  ``RankFailedError`` and exit on their own), then are terminated;
* SIGINT/SIGTERM are propagated to every child rank;
* every child is reaped, and UDS socket dirs / SHM segments are cleaned
  up even when ranks were killed;
* on failure, per-rank exit codes and the first-failing rank are
  reported on stderr.

Chaos testing: ``--faults plan.json`` or ``--fault-seed N`` arms the
deterministic fault injector (:mod:`repro.faults`) inside every rank;
``--fault-log PATH`` makes each rank write its injected-event log to
``PATH.rank<r>`` so a failure can be replayed from its seed.

Usage::

    ombpy-run -n 4 python script.py [args...]
    ombpy-run -n 4 script.py        # 'python' is implied for .py files
    ombpy-run -n 2 --fault-seed 42 ombpy osu_latency
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from ..knobs import read, validate
from ..telemetry import ENV_METRICS, ENV_OUT, ENV_TRACE
from .exceptions import RANK_FAILED_EXIT
from .world import (
    ENV_COORD, ENV_FAULT_LOG, ENV_FAULT_SEED, ENV_FAULTS, ENV_JOB, ENV_RANK,
    ENV_SIZE, ENV_TRANSPORT,
)

#: Seconds between fail-fast trigger and forcible survivor termination —
#: enough for survivors' failure detectors (EOF-based, sub-second) to
#: raise RankFailedError and exit with their own diagnostics.
DEFAULT_FAILFAST_GRACE = 8.0

_POLL_INTERVAL = 0.05


def _coordinate(server: socket.socket, n: int, timeout: float) -> None:
    """Accept n rendezvous connections; broadcast the port map to all."""
    server.settimeout(timeout)
    conns: list[tuple[int, socket.socket]] = []
    port_map: dict[int, int] = {}
    try:
        while len(conns) < n:
            conn, _addr = server.accept()
            conn.settimeout(timeout)
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = conn.recv(4096)
                if not chunk:
                    raise ConnectionError("child closed during rendezvous")
                buf += chunk
            rank_s, port_s = buf.decode().split()
            port_map[int(rank_s)] = int(port_s)
            conns.append((int(rank_s), conn))
        payload = (json.dumps(port_map) + "\n").encode()
        for _rank, conn in conns:
            conn.sendall(payload)
    except OSError:
        # A dead child aborts the rendezvous; the supervisor notices the
        # child's exit and fail-fasts — don't let this thread die loudly.
        pass
    finally:
        for _rank, conn in conns:
            conn.close()


def _normalize_exit(rc: int) -> int:
    """Map a Popen returncode to a shell-style exit code (signals -> 128+N)."""
    return rc if rc >= 0 else 128 - rc


def _kill_all(procs: list[subprocess.Popen]) -> None:
    """Terminate, then kill, then reap every still-running child."""
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.terminate()
            except OSError:
                pass
    deadline = time.monotonic() + 2.0
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                except OSError:
                    pass
    for proc in procs:  # reap: no zombies left behind
        if proc.poll() is None:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass


def _supervise(
    procs: list[subprocess.Popen],
    timeout: float,
    grace: float,
    interrupted: threading.Event,
    failfast: bool = True,
) -> tuple[list[int | None], tuple[int, int] | None]:
    """Poll all ranks concurrently; fail-fast on the first non-zero exit.

    With ``failfast=False`` (the ``--recover`` mode) a rank failure does
    not doom its survivors: they are expected to shrink their
    communicator and finish, so supervision just keeps waiting (the
    global ``timeout`` still applies).

    Returns (per-rank exit codes, first failure as ``(rank, code)`` or
    None).  Raises ``subprocess.TimeoutExpired`` if the whole job exceeds
    ``timeout`` (children are killed first).
    """
    n = len(procs)
    start = time.monotonic()
    exit_codes: list[int | None] = [None] * n
    failures: list[tuple[int, int]] = []  # observed order, pre-termination
    late: list[tuple[int, int]] = []  # observed after we killed survivors
    kill_at: float | None = None
    forced = False

    while any(code is None for code in exit_codes):
        now = time.monotonic()
        for rank, proc in enumerate(procs):
            if exit_codes[rank] is None:
                rc = proc.poll()
                if rc is not None:
                    exit_codes[rank] = rc
                    if rc != 0:
                        failures.append((rank, rc))
                        if failfast and kill_at is None:
                            kill_at = now + grace
        if interrupted.is_set():
            _kill_all(procs)
            forced = True
            break
        if kill_at is not None and now >= kill_at:
            _kill_all(procs)
            forced = True
            break
        if now - start >= timeout:
            _kill_all(procs)
            raise subprocess.TimeoutExpired(
                cmd=procs[0].args, timeout=timeout
            )
        time.sleep(_POLL_INTERVAL)

    for rank, proc in enumerate(procs):
        if exit_codes[rank] is None:
            exit_codes[rank] = proc.poll()
            if exit_codes[rank] is None:
                exit_codes[rank] = proc.wait()
        rc = exit_codes[rank]
        if rc not in (0, None) and (rank, rc) not in failures:
            (late if forced else failures).append((rank, rc))
    return exit_codes, _attribute_failure(failures) or _attribute_failure(late)


def _attribute_failure(
    failures: list[tuple[int, int]],
) -> tuple[int, int] | None:
    """Pick the root-cause failure from exit codes in observed order.

    When one rank crashes, its survivors die moments later of
    ``RankFailedError`` (exit code :data:`RANK_FAILED_EXIT`) — often
    inside the same poll interval, where observation order is just rank
    order.  Those cascade casualties never outrank a failure with any
    other code, so the job is attributed to the rank that actually
    crashed.
    """
    for rank, rc in failures:
        if rc != RANK_FAILED_EXIT:
            return (rank, rc)
    return failures[0] if failures else None


def cleanup_job_resources(
    transport: str,
    job_id: str | None,
    shm_segments: list | None = None,
) -> None:
    """Remove a job's shared on-disk artifacts (UDS dirs, SHM segments).

    Idempotent and safe to call at any point after spawn — from the
    launcher's own teardown, from a daemon draining and restarting its
    rank pool (:mod:`repro.service`), or from both: a second call finds
    nothing left and does nothing.  This must not live only in an
    ``atexit``/``finally`` path, because a long-lived service drains and
    relaunches pools many times inside one process lifetime.
    """
    # A grouped shm launch is a hybrid: inter-group traffic rides UDS
    # streams, so its socket dir needs removing too (no-op when absent).
    if transport in ("uds", "shm") and job_id:
        import shutil

        from .transport.uds import socket_dir

        shutil.rmtree(socket_dir(job_id), ignore_errors=True)
    if shm_segments:
        from .transport.shm import destroy_job_segments

        destroy_job_segments(shm_segments)


class SpawnedRanks:
    """A live set of spawned rank processes plus their shared resources.

    Returned by :func:`spawn_ranks`.  The caller owns supervision (poll
    ``procs``, decide when the job is over) and must call
    :meth:`cleanup` when done; ``cleanup`` is idempotent, so calling it
    from both a drain path and a ``finally`` block is safe.
    """

    def __init__(
        self,
        procs: list[subprocess.Popen],
        transport: str,
        job_id: str | None,
        shm_segments: list | None,
        server: socket.socket | None,
        coordinator: threading.Thread | None,
    ) -> None:
        self.procs = procs
        self.transport = transport
        self.job_id = job_id
        self._shm_segments = shm_segments
        self._server = server
        self._coordinator = coordinator
        self._cleaned = False

    def poll_exits(self) -> list[int | None]:
        """Per-rank exit codes so far (None = still running)."""
        return [proc.poll() for proc in self.procs]

    def terminate(self) -> None:
        """Terminate, then kill, then reap every still-running rank."""
        _kill_all(self.procs)

    def cleanup(self) -> None:
        """Kill stragglers and remove every shared artifact (idempotent)."""
        _kill_all(self.procs)
        if self._coordinator is not None:
            self._coordinator.join(timeout=5)
            self._coordinator = None
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        if self._cleaned:
            return
        self._cleaned = True
        cleanup_job_resources(self.transport, self.job_id, self._shm_segments)
        self._shm_segments = None


def spawn_ranks(
    n: int,
    command: list[str],
    transport: str = "tcp",
    env_extra: dict[str, str] | None = None,
    rendezvous_timeout: float = 300.0,
    groups: str | None = None,
) -> SpawnedRanks:
    """Spawn ``command`` as ``n`` coordinated rank processes (no supervision).

    Sets up the transport rendezvous (TCP port-map coordinator, UDS job
    id, or pre-created SHM segments), exports the ``OMBPY_RANK``/
    ``OMBPY_SIZE`` environment per child, and returns a
    :class:`SpawnedRanks` handle.  This is the spawn half of
    :func:`launch`, shared with the persistent benchmark service
    (:mod:`repro.service`), which supervises the pool itself and keeps
    it warm across jobs.

    ``groups`` declares the node-group topology (``"GxS"``, ``"a,b,c"``,
    a group size, or ``"auto"`` — see :mod:`repro.mpi.topology`); the
    normalized spec is exported to every rank via ``OMBPY_GROUPS`` so
    the collectives go hierarchical, and on ``shm`` only intra-group
    ring segments are created (inter-group traffic rides the stream
    fabric).  Before anything is spawned the planned topology is checked
    against ``RLIMIT_NOFILE`` so an over-wide launch fails fast with a
    remedy instead of dying mid-rendezvous with ``EMFILE``.
    """
    if n < 1:
        raise ValueError(f"process count must be >= 1, got {n}")
    if not command:
        raise ValueError("no program given")
    if transport not in ("tcp", "uds", "shm"):
        raise ValueError(f"unknown transport {transport!r}")
    if command[0].endswith(".py"):
        command = [sys.executable] + command
    # Every rank would parse these knobs; check them once, here.
    validate({**os.environ, **(env_extra or {})})

    from .topology import ENV_GROUPS, parse_groups

    group_map = None
    groups_spec = groups or read(ENV_GROUPS)
    if groups_spec:
        group_map = parse_groups(groups_spec, n)

    # Fail fast on fd exhaustion: check the planned topology against the
    # soft RLIMIT_NOFILE before creating a single socket or segment.
    from .fabric import check_fd_budget

    check_fd_budget(n, transport, group_map)

    coordinator = None
    server = None
    shm_segments = None
    job_id = None
    coord_env: dict[str, str] = {ENV_TRANSPORT: transport}
    if group_map is not None:
        coord_env[ENV_GROUPS] = group_map.spec()
    if transport == "tcp":
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(n)
        coord_env[ENV_COORD] = f"127.0.0.1:{server.getsockname()[1]}"
        coordinator = threading.Thread(
            target=_coordinate, args=(server, n, rendezvous_timeout),
            daemon=True,
        )
        coordinator.start()
    else:
        job_id = f"{os.getpid()}-{os.urandom(4).hex()}"
        coord_env[ENV_JOB] = job_id
        if transport == "shm":
            from .transport.shm import create_job_segments, intra_group_pairs

            capacity = read("OMBPY_SHM_CAPACITY")
            pairs = None
            if group_map is not None and group_map.n_groups > 1:
                pairs = intra_group_pairs(group_map)
            shm_segments = create_job_segments(job_id, n, capacity, pairs)

    procs: list[subprocess.Popen] = []
    try:
        for rank in range(n):
            env = os.environ.copy()
            env[ENV_RANK] = str(rank)
            env[ENV_SIZE] = str(n)
            env.update(coord_env)
            if env_extra:
                env.update(env_extra)
            procs.append(subprocess.Popen(command, env=env))
    except Exception:
        handle = SpawnedRanks(
            procs, transport, job_id, shm_segments, server, coordinator
        )
        handle.cleanup()
        raise
    return SpawnedRanks(
        procs, transport, job_id, shm_segments, server, coordinator
    )


def launch(
    n: int,
    command: list[str],
    timeout: float = 300.0,
    env_extra: dict[str, str] | None = None,
    transport: str = "tcp",
    groups: str | None = None,
    faults: str | None = None,
    fault_seed: int | None = None,
    fault_log: str | None = None,
    failfast_grace: float = DEFAULT_FAILFAST_GRACE,
    reliable: bool = False,
    recover: bool = False,
    metrics: bool = False,
    metrics_out: str = "metrics.json",
    trace_out: str | None = None,
    exit_report: str | None = None,
) -> int:
    """Run ``command`` as ``n`` coordinated rank processes.

    ``transport`` selects the inter-process fabric: ``"tcp"`` (localhost
    mesh with a port-map rendezvous), ``"uds"`` (Unix-domain-socket
    mesh), or ``"shm"`` (shared-memory rings).

    ``groups`` declares the node-group topology (see
    :func:`spawn_ranks`): ranks in a group share the fast intra-group
    path, one leader per group carries inter-group traffic, and the
    collectives switch to their two-level hierarchical algorithms.

    ``faults``/``fault_seed``/``fault_log`` arm the deterministic fault
    injector in every rank (see :mod:`repro.faults`).  On any rank's
    non-zero exit the launcher fail-fasts: survivors get
    ``failfast_grace`` seconds to raise ``RankFailedError`` and exit
    with their own diagnostics, then are terminated; the returned exit
    code is the *first* failing rank's.

    ``reliable`` arms the ack/retransmit delivery layer
    (:mod:`repro.mpi.reliability`) in every rank.  ``recover`` switches
    supervision from fail-fast to fault-tolerant: a rank failure no
    longer dooms its survivors, and the job succeeds (exit 0) if *any*
    rank finishes cleanly — the contract for ULFM-style
    shrink-and-continue programs.

    ``metrics``/``trace_out`` arm per-rank telemetry
    (:mod:`repro.telemetry`) in every rank: each rank dumps its metrics
    (and, with ``trace_out``, its trace events) to a scratch file at
    finalize; after the job the launcher merges them into
    ``metrics_out`` (and ``trace_out`` — Chrome trace JSON, or JSONL
    when the path ends in ``.jsonl``) and prints the per-rank summary
    table on stderr.

    ``exit_report`` names a JSON file the launcher writes on *every*
    exit path (success, rank failure, timeout, interrupt) describing
    what happened — ``{schema, n, transport, exit_codes,
    first_failure, interrupted, timeout, elapsed_s, exit_code}`` — so
    a supervising driver (the campaign cold backend) can classify the
    failure mode without parsing stderr.
    """
    if failfast_grace < 0:
        raise ValueError(
            f"grace period must be >= 0 seconds, got {failfast_grace}"
        )

    feature_env: dict[str, str] = dict(env_extra or {})
    if faults is not None:
        feature_env[ENV_FAULTS] = os.path.abspath(faults)
    elif fault_seed is not None:
        feature_env[ENV_FAULT_SEED] = str(fault_seed)
    if fault_log is not None:
        feature_env[ENV_FAULT_LOG] = os.path.abspath(fault_log)
    if reliable:
        from .reliability import ENV_RELIABLE

        feature_env[ENV_RELIABLE] = "1"
    telemetry_base = None
    if metrics or trace_out is not None:
        import tempfile

        telemetry_base = os.path.join(
            tempfile.mkdtemp(prefix="ombpy-telemetry-"), "job"
        )
        feature_env[ENV_METRICS] = "1"
        feature_env[ENV_OUT] = telemetry_base
        if trace_out is not None:
            feature_env[ENV_TRACE] = "1"

    interrupted = threading.Event()
    old_handlers: dict[int, object] = {}
    procs: list[subprocess.Popen] = []
    start = time.monotonic()
    report: dict = {
        "schema": "ombpy-run-report/1",
        "n": n,
        "transport": transport,
        "exit_codes": None,
        "first_failure": None,
        "interrupted": False,
        "timeout": False,
        "elapsed_s": None,
        "exit_code": None,
    }

    def _forward_signal(signum, _frame):
        interrupted.set()
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signum)
                except OSError:
                    pass

    # Propagate SIGINT/SIGTERM to child ranks; only possible from the
    # main thread (tests may call launch() from workers — skip there).
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            old_handlers[signum] = signal.signal(signum, _forward_signal)
    except ValueError:
        old_handlers = {}

    handle = None
    try:
        handle = spawn_ranks(
            n, command, transport=transport, env_extra=feature_env,
            rendezvous_timeout=timeout, groups=groups,
        )
        procs.extend(handle.procs)

        exit_codes, first_failure = _supervise(
            procs, timeout, failfast_grace, interrupted,
            failfast=not recover,
        )
        report["exit_codes"] = [
            None if code is None else _normalize_exit(code)
            for code in exit_codes
        ]
        if first_failure is not None:
            report["first_failure"] = {
                "rank": first_failure[0],
                "exit_code": _normalize_exit(first_failure[1]),
            }
        if interrupted.is_set():
            report["exit_code"] = 130
            return 130
        if first_failure is None:
            report["exit_code"] = 0
            return 0
        if recover and any(code == 0 for code in exit_codes):
            survivors = sum(1 for code in exit_codes if code == 0)
            print(
                f"ombpy-run: recovered — rank {first_failure[0]} failed "
                f"but {survivors}/{n} rank(s) finished cleanly (--recover)",
                file=sys.stderr,
            )
            report["exit_code"] = 0
            return 0
        rank, rc = first_failure
        codes = [
            "?" if c is None else str(c) for c in exit_codes
        ]
        print(
            f"ombpy-run: rank {rank} failed first with code "
            f"{_normalize_exit(rc)}; per-rank exit codes: "
            f"[{', '.join(codes)}] (negative = killed by signal, "
            f"{RANK_FAILED_EXIT} = peer-failure cascade)",
            file=sys.stderr,
        )
        report["exit_code"] = _normalize_exit(rc)
        return report["exit_code"]
    except subprocess.TimeoutExpired:
        report["timeout"] = True
        report["exit_code"] = 124
        raise
    finally:
        # Whatever happened above (timeout, interrupt, exception), leave
        # no child process, socket dir, or SHM segment behind.
        if handle is not None:
            handle.cleanup()
        for signum, handler in old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        if telemetry_base is not None:
            _merge_telemetry(telemetry_base, n, metrics_out, trace_out)
        if exit_report is not None:
            report["interrupted"] = interrupted.is_set()
            report["elapsed_s"] = round(time.monotonic() - start, 3)
            _write_exit_report(exit_report, report)


def _write_exit_report(path: str, report: dict) -> None:
    """Atomically publish the supervision report (best-effort: a report
    that cannot be written must not turn a finished job into a crash)."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        print(f"ombpy-run: could not write exit report {path}: {exc}",
              file=sys.stderr)


def _merge_telemetry(
    base: str, n: int, metrics_out: str, trace_out: str | None
) -> None:
    """Merge per-rank dump files into the job artifacts (launcher side)."""
    import shutil

    from ..telemetry.export import (
        read_rank_dumps, render_summary, write_job_files,
    )

    dumps = read_rank_dumps(base, n)
    if dumps:
        write_job_files(dumps, metrics_out, trace_out)
        print(render_summary(dumps), end="", file=sys.stderr)
    else:
        print(
            "ombpy-run: no telemetry dumps found (did the ranks exit "
            "before World.finalize?)", file=sys.stderr,
        )
    shutil.rmtree(os.path.dirname(base), ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ombpy-run",
        description="Launch a Python MPI program on N local processes.",
    )
    parser.add_argument(
        "-n", "--np", type=int, required=True, dest="n",
        help="number of rank processes",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds before the whole job is killed",
    )
    parser.add_argument(
        "--transport", choices=("tcp", "uds", "shm"), default="tcp",
        help="inter-process fabric: localhost TCP mesh, Unix-domain "
        "sockets, or shared-memory rings",
    )
    parser.add_argument(
        "--groups", default=None, metavar="SPEC",
        help="node-group topology: 'GxS' (G groups of S ranks), "
        "'a,b,c' (explicit sizes), a plain group size, or 'auto' "
        "(~sqrt(n) per group); enables hierarchical two-level "
        "collectives and, on shm, intra-group-only ring segments",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="run every rank under the deterministic fault injector "
        "with this FaultPlan (see docs/resilience.md)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="shorthand: inject the default survivable chaos mix "
        "(message delays + slow-rank stalls) derived from SEED",
    )
    parser.add_argument(
        "--fault-log", default=None, metavar="PATH",
        help="each rank writes its injected-event log to PATH.rank<r> "
        "(identical across same-seed replays)",
    )
    parser.add_argument(
        "--grace", "--failfast-grace", type=float,
        default=DEFAULT_FAILFAST_GRACE, dest="failfast_grace",
        metavar="SECONDS",
        help="seconds survivors get to exit on their own after the "
        "first rank failure, before being terminated "
        "(--failfast-grace is accepted as an alias)",
    )
    parser.add_argument(
        "--reliable", action="store_true",
        help="run every rank with the ack/retransmit reliable-delivery "
        "layer (absorbs injected drops/duplicates/truncations)",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="fault-tolerant supervision: a rank failure does not kill "
        "the survivors, and the job succeeds if any rank finishes "
        "cleanly (for ULFM shrink-and-continue programs)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect per-rank metrics in every rank and merge them "
        "into a job-level metrics file after the run (plus a per-rank "
        "summary table on stderr)",
    )
    parser.add_argument(
        "--metrics-out", default="metrics.json", metavar="FILE",
        help="where to write the merged job metrics (default: "
        "metrics.json)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record per-rank MPI spans and message events and merge "
        "them into FILE: Chrome trace JSON (load in chrome://tracing "
        "or Perfetto; one pid per rank), or compact JSONL when FILE "
        "ends in .jsonl (implies --metrics)",
    )
    parser.add_argument(
        "--exit-report", default=None, metavar="FILE",
        help="write a JSON supervision report (per-rank exit codes, "
        "first failing rank, timeout/interrupt flags) to FILE on every "
        "exit path, for supervising drivers",
    )
    parser.add_argument(
        "command", nargs=argparse.REMAINDER,
        help="program and its arguments",
    )
    args = parser.parse_args(argv)
    try:
        return launch(
            args.n, args.command, timeout=args.timeout,
            transport=args.transport, groups=args.groups,
            faults=args.faults,
            fault_seed=args.fault_seed, fault_log=args.fault_log,
            failfast_grace=args.failfast_grace, reliable=args.reliable,
            recover=args.recover, metrics=args.metrics,
            metrics_out=args.metrics_out, trace_out=args.trace_out,
            exit_report=args.exit_report,
        )
    except subprocess.TimeoutExpired:
        print(
            f"ombpy-run: job exceeded the {args.timeout}s timeout; "
            "all ranks killed", file=sys.stderr,
        )
        return 124
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ombpy-run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
