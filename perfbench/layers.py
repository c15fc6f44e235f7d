"""Outside-in span tracing of the program's layers.

The benchmark never edits the program: in a traced run it replaces the
public entry points of each layer (class methods, or the module-level
names the engines call) with timing wrappers, and restores the
originals afterwards.  Untraced runs install nothing.

A span is ``(name, start, end, parent)``; ``parent`` is the index of
the span that was open when it began.  Root spans are opened by the
benchmark itself around each engine round (sync) or each engine run
(async); calls outside a root span (set-up, teardown) are not
recorded.  Spans stay in memory and are written out when the
benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

ROOT = "fl.engine.round"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_record(s: Span) -> dict:
    """JSON-ready form of one span."""
    record = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
    if s.attrs:
        record["attrs"] = s.attrs
    return record


class Tracer:
    """In-memory span recorder for the benchmark's own thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def recording(self) -> bool:
        """Record only inside a root span, and only on the benchmark's
        thread (the transport's accept thread must not interleave)."""
        return bool(self._stack) and threading.get_ident() == self._thread

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)


# ----------------------------------------------------------------------
# Entry points.  Each row: (import path, attribute path, span name,
# attrs(args, kwargs, result) or None).  Engines bind
# ``train_clients_batched`` and ``verify_frame`` as module globals, so
# those are wrapped where the engines look them up.
# ----------------------------------------------------------------------
def _batched_clients(args, kwargs, out):
    return {"clients": len(out) if out else 0}


def _selected(args, kwargs, out):
    return {"selected": len(out)}


def _compressed(args, kwargs, out):
    grad = args[1] if len(args) > 1 else kwargs["grad"]
    return {"dense_nbytes": int(grad.size) * 4, "nbytes": int(out.num_bytes)}


def _uplink(args, kwargs, out):
    extra = kwargs.get("extra") or (args[4] if len(args) > 4 else None) or {}
    return {"frame_len": int(extra.get("frame_len", 0)), "delivered": bool(out.delivered)}


def _downlink(args, kwargs, out):
    return {"delivered": bool(out.delivered)}


ENTRY_POINTS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.nn.sequential", "Sequential.forward", "nn.forward", None),
    ("repro.nn.sequential", "Sequential.backward", "nn.backward", None),
    ("repro.nn.batched", "MultiClientTrainer.run", "nn.batched.run", _batched_clients),
    ("repro.fl.client", "Client.local_train", "fl.client.train", None),
    ("repro.fl.client", "Client.probe_delta", "fl.client.probe", None),
    ("repro.fl.sync_engine", "train_clients_batched", "fl.batched.train", _batched_clients),
    ("repro.fl.async_engine", "train_clients_batched", "fl.batched.train", _batched_clients),
    ("repro.core.adafl", "AdaFLSync.select", "core.select", _selected),
    ("repro.compression.dgc", "DGCCompressor.compress", "compression.compress", _compressed),
    ("repro.compression.dgc", "DGCCompressor.decompress", "compression.decompress", None),
    ("repro.transport.sockets", "RemoteCompressor.compress", "compression.compress", _compressed),
    ("repro.transport.sockets", "RemoteCompressor.decompress", "compression.decompress", None),
    ("repro.wire.frame", "Frame.to_bytes", "wire.encode", None),
    ("repro.fl.sync_engine", "verify_frame", "wire.verify", None),
    ("repro.fl.async_engine", "verify_frame", "wire.verify", None),
    ("repro.fl.server", "Server.evaluate", "fl.server.evaluate", None),
    ("repro.core.adafl", "AdaFLSync.aggregate", "fl.server.aggregate", None),
    ("repro.fl.baselines", "FedBuff.on_update", "fl.server.aggregate", None),
    ("repro.sim.kernel", "SimKernel.uplink", "sim.uplink", _uplink),
    ("repro.sim.kernel", "SimKernel.downlink", "sim.downlink", _downlink),
    ("repro.sim.kernel", "SimKernel.compute", "sim.compute", None),
    ("repro.transport.sockets", "SocketTransport.train", "transport.train", None),
    ("repro.transport.sockets", "SocketTransport.prefetch_train", "transport.prefetch", None),
    ("repro.transport.sockets", "SocketTransport.probe", "transport.probe", None),
    ("repro.transport.sockets", "SocketTransport.compress", "transport.compress", None),
    ("repro.transport.sockets", "SocketTransport.restore", "transport.restore", None),
    ("repro.transport.sockets", "SocketTransport.heartbeat", "transport.heartbeat", None),
]


def _wrap(tracer: Tracer, original: Callable, name: str, attrs: Callable | None):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.recording():
            return original(*args, **kwargs)
        index = tracer.begin(name)
        try:
            out = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if attrs is not None:
            tracer.spans[index].attrs = attrs(args, kwargs, out)
        return out

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point for the duration of the block."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, path, name, attrs in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Reduction: spans of one operation -> per-layer metrics
# ----------------------------------------------------------------------
PER_LAYER_UNITS: dict[str, str] = {
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.calls": "count",
    "nn.batched.run_ms": "ms",
    "nn.batched.clients_per_call": "clients",
    "fl.client.train_ms_per_client": "ms",
    "fl.client.train_self_ms": "ms",
    "fl.client.train_calls": "count",
    "fl.client.probe_ms": "ms",
    "fl.client.probe_calls": "count",
    "fl.batched.train_ms": "ms",
    "fl.batched.train_ms_per_client": "ms",
    "core.select_self_ms": "ms",
    "core.probe_yield": "ratio",
    "compression.compress_ms": "ms",
    "compression.decompress_ms": "ms",
    "compression.ratio": "ratio",
    "wire.encode_ms": "ms",
    "wire.verify_ms": "ms",
    "wire.uplink_frame_bytes": "bytes",
    "fl.server.evaluate_ms": "ms",
    "fl.server.evaluate_calls": "count",
    "fl.server.aggregate_ms": "ms",
    "sim.transfer_ms": "ms",
    "sim.dropped": "count",
    "sim.delivery_yield": "ratio",
    "transport.train_wait_ms": "ms",
    "transport.probe_wait_ms": "ms",
    "transport.compress_wait_ms": "ms",
    "transport.heartbeat_ms": "ms",
    "transport.rpc_calls": "count",
    "fl.engine.self_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# Counts must repeat exactly across runs of one seed (checked by the
# benchmark and its self-tests); the rest are times or time ratios.
COUNT_METRICS = (
    "nn.calls",
    "nn.batched.clients_per_call",
    "fl.client.train_calls",
    "fl.client.probe_calls",
    "core.probe_yield",
    "compression.ratio",
    "wire.uplink_frame_bytes",
    "fl.server.evaluate_calls",
    "sim.dropped",
    "sim.delivery_yield",
    "transport.rpc_calls",
)


def counts(layer: dict) -> dict:
    """The per-layer values that must repeat exactly for one seed."""
    return {name: layer[name] for name in COUNT_METRICS}


_RPC_SPANS = (
    "transport.train",
    "transport.prefetch",
    "transport.probe",
    "transport.compress",
    "transport.restore",
    "transport.heartbeat",
)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], updates: int, untraced_loop_s: float) -> dict:
    """Per-layer metrics of one traced operation.

    ``updates`` is the number of client updates the server aggregated;
    ``untraced_loop_s`` the round-loop wall time of the same operation
    run without wrappers (for ``trace.overhead``).
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    attr: dict[str, float] = defaultdict(float)
    probes_in_select = 0
    selected_after_probe = 0
    probe_children: dict[int, int] = defaultdict(int)
    for i, s in enumerate(spans):
        total[s.name] += s.duration
        count[s.name] += 1
        self_total[s.name] += own[i]
        for key, value in s.attrs.items():
            attr[f"{s.name}.{key}"] += value
        if s.name in ("fl.client.probe", "transport.probe") and s.parent >= 0:
            probe_children[s.parent] += 1
    for i, s in enumerate(spans):
        if s.name == "core.select" and probe_children.get(i):
            probes_in_select += probe_children[i]
            selected_after_probe += s.attrs["selected"]
    legs = count["sim.uplink"] + count["sim.downlink"]
    delivered_legs = attr["sim.uplink.delivered"] + attr["sim.downlink.delivered"]
    trained = (
        count["fl.client.train"]
        + attr["fl.batched.train.clients"]
        + count["transport.train"]
    )
    ms = 1e3
    roots = total[ROOT] + total["fl.engine.run"]
    root_self = self_total[ROOT] + self_total["fl.engine.run"]
    return {
        "nn.forward_ms": total["nn.forward"] * ms,
        "nn.backward_ms": total["nn.backward"] * ms,
        "nn.calls": count["nn.forward"] + count["nn.backward"],
        "nn.batched.run_ms": total["nn.batched.run"] * ms,
        "nn.batched.clients_per_call": _ratio(
            attr["nn.batched.run.clients"], count["nn.batched.run"]
        ),
        "fl.client.train_ms_per_client": _ratio(
            total["fl.client.train"] * ms, count["fl.client.train"]
        ),
        "fl.client.train_self_ms": self_total["fl.client.train"] * ms,
        "fl.client.train_calls": count["fl.client.train"],
        "fl.client.probe_ms": total["fl.client.probe"] * ms,
        "fl.client.probe_calls": count["fl.client.probe"],
        "fl.batched.train_ms": total["fl.batched.train"] * ms,
        "fl.batched.train_ms_per_client": _ratio(
            total["fl.batched.train"] * ms, attr["fl.batched.train.clients"]
        ),
        "core.select_self_ms": self_total["core.select"] * ms,
        "core.probe_yield": _ratio(selected_after_probe, probes_in_select),
        "compression.compress_ms": total["compression.compress"] * ms,
        "compression.decompress_ms": total["compression.decompress"] * ms,
        "compression.ratio": _ratio(
            attr["compression.compress.dense_nbytes"],
            attr["compression.compress.nbytes"],
        ),
        "wire.encode_ms": total["wire.encode"] * ms,
        "wire.verify_ms": total["wire.verify"] * ms,
        "wire.uplink_frame_bytes": int(attr["sim.uplink.frame_len"]),
        "fl.server.evaluate_ms": total["fl.server.evaluate"] * ms,
        "fl.server.evaluate_calls": count["fl.server.evaluate"],
        "fl.server.aggregate_ms": total["fl.server.aggregate"] * ms,
        "sim.transfer_ms": (
            total["sim.uplink"] + total["sim.downlink"] + total["sim.compute"]
        )
        * ms,
        "sim.dropped": int(legs - delivered_legs),
        "sim.delivery_yield": _ratio(updates, trained),
        "transport.train_wait_ms": (total["transport.train"] + total["transport.prefetch"])
        * ms,
        "transport.probe_wait_ms": total["transport.probe"] * ms,
        "transport.compress_wait_ms": total["transport.compress"] * ms,
        "transport.heartbeat_ms": total["transport.heartbeat"] * ms,
        "transport.rpc_calls": sum(count[n] for n in _RPC_SPANS),
        "fl.engine.self_ms": root_self * ms,
        "trace.coverage": _ratio(roots - root_self, roots),
        "trace.overhead": _ratio(roots, untraced_loop_s),
    }
