"""Layer spans recorded from outside the program.

:class:`SpanRecorder` wraps the public methods of live runtime objects
(one rank's communicators, matching engine and transport) so each call
into a layer records a span: layer name, start, end, the enclosing span
on the same thread, and the thread.  Nothing in the program changes;
:meth:`SpanRecorder.uninstall` restores the original methods.

A span's self time is its duration minus the time its direct child
spans cover.  Waiting shows up as the self time of ``recv.wait``: the
blocking part of a receive that no deeper layer accounts for.
"""

from __future__ import annotations

import json
import threading
import time

# Record layout: [layer, start_ns, end_ns, child_ns, parent_record, tid]
_LAYER, _START, _END, _CHILD, _PARENT, _TID = range(6)

#: Layers reported per op, in output order.
LAYERS = (
    "bindings", "native", "comm", "matching.post", "matching.deliver",
    "transport.send", "recv.wait", "collectives.allreduce",
)

_COMM_METHODS = (
    "send_bytes", "isend_bytes", "recv_bytes", "irecv_bytes",
    "sendrecv_bytes",
)
_BINDINGS_METHODS = ("Send", "Recv", "Isend", "Irecv", "send", "recv")
_NATIVE_METHODS = ("send", "recv", "isend", "irecv")


class SpanRecorder:
    """In-memory span log for one rank."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._tls = threading.local()
        self._patched: list[tuple[object, str]] = []
        self._swapped: list[tuple[object, type]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, layer: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        records = self.records
        stack_of = self._stack
        clock = time.perf_counter_ns
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [layer, clock(), 0, 0, stack[-1] if stack else None,
                   ident()]
            records.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[_END] = end
                parent = rec[_PARENT]
                if parent is not None:
                    parent[_CHILD] += end - rec[_START]

        return traced

    # -- installation on live objects --------------------------------------
    def _patch(self, obj, layer: str, names) -> None:
        for name in names:
            setattr(obj, name, self.wrap(layer, getattr(obj, name)))
            self._patched.append((obj, name))

    def _swap_class(self, obj, methods: dict[str, str]) -> None:
        """Trace a ``__slots__`` object by moving it to a traced subclass."""
        base = type(obj)
        attrs: dict = {"__slots__": ()}
        for name, layer in methods.items():
            attrs[name] = self.wrap(layer, getattr(base, name))
        obj.__class__ = type("Traced" + base.__name__, (base,), attrs)
        self._swapped.append((obj, base))

    def install(self, rt, bindings=None, native=None) -> None:
        """Wrap the layer entry points reachable from runtime comm ``rt``."""
        endpoint = rt.endpoint
        engine = endpoint.engine
        self._patch(rt, "comm", _COMM_METHODS)
        self._patch(rt, "collectives.allreduce", ("allreduce_array",))
        self._patch(endpoint.transport, "transport.send", ("send",))
        self._patch(engine, "matching.deliver", ("deliver",))

        ticket_classes: dict[type, type] = {}
        post = engine.post_recv

        def post_recv(*args, **kwargs):
            # Receive tickets are born here; moving each to a traced
            # subclass records its blocking wait as ``recv.wait``.
            ticket = post(*args, **kwargs)
            base = type(ticket)
            traced = ticket_classes.get(base)
            if traced is None:
                traced = ticket_classes[base] = type(
                    "Traced" + base.__name__, (base,),
                    {"__slots__": (),
                     "wait": self.wrap("recv.wait", base.wait)},
                )
            ticket.__class__ = traced
            return ticket

        engine.post_recv = self.wrap("matching.post", post_recv)
        self._patched.append((engine, "post_recv"))

        if bindings is not None:
            self._patch(bindings, "bindings", _BINDINGS_METHODS)
            irecv = bindings.Irecv

            def traced_irecv(*args, **kwargs):
                req = irecv(*args, **kwargs)
                req.Wait = self.wrap("bindings", req.Wait)
                return req

            bindings.Irecv = traced_irecv
        if native is not None:
            self._swap_class(
                native, {name: "native" for name in _NATIVE_METHODS}
            )

    def uninstall(self) -> None:
        """Restore every wrapped method and swapped class."""
        for obj, name in reversed(self._patched):
            try:
                delattr(obj, name)
            except AttributeError:
                pass
        self._patched.clear()
        for obj, base in reversed(self._swapped):
            obj.__class__ = base
        self._swapped.clear()

    # -- analysis ----------------------------------------------------------
    def finished(self) -> list[list]:
        """Records whose call returned (a span still open has no end)."""
        return [r for r in self.records if r[_END]]

    def totals(self) -> dict:
        """Per-layer self time (ns) and span counts, plus collective sends.

        ``coll_msgs`` counts transport sends nested under a collective
        span: the messages collective calls put on the wire.
        """
        self_ns = {layer: 0 for layer in LAYERS}
        counts = {layer: 0 for layer in LAYERS}
        coll_msgs = 0
        for rec in self.finished():
            layer = rec[_LAYER]
            self_ns[layer] += rec[_END] - rec[_START] - rec[_CHILD]
            counts[layer] += 1
            if layer == "transport.send" and _inside(
                rec, "collectives.allreduce"
            ):
                coll_msgs += 1
        return {"self_ns": self_ns, "counts": counts, "coll_msgs": coll_msgs}

    def write(self, path: str) -> int:
        """Write finished spans as JSON lines; returns the number written.

        Each line is ``[id, parent_id, layer, start_ns, end_ns, self_ns,
        thread]``, with ``parent_id`` -1 for a root span.
        """
        done = self.finished()
        ids = {id(rec): i for i, rec in enumerate(done)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(done):
                parent = rec[_PARENT]
                fh.write(json.dumps([
                    i, ids.get(id(parent), -1) if parent else -1,
                    rec[_LAYER], rec[_START], rec[_END],
                    rec[_END] - rec[_START] - rec[_CHILD], rec[_TID],
                ]) + "\n")
        return len(done)


def _inside(rec, layer: str) -> bool:
    parent = rec[_PARENT]
    while parent is not None:
        if parent[_LAYER] == layer:
            return True
        parent = parent[_PARENT]
    return False


def merge_totals(parts) -> dict:
    """Sum :meth:`SpanRecorder.totals` dicts from several ranks."""
    out = {"self_ns": {layer: 0 for layer in LAYERS},
           "counts": {layer: 0 for layer in LAYERS}, "coll_msgs": 0}
    for part in parts:
        for key in ("self_ns", "counts"):
            for layer, value in part[key].items():
                out[key][layer] = out[key].get(layer, 0) + value
        out["coll_msgs"] += part["coll_msgs"]
    return out
