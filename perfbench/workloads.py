"""The benchmark's three workloads, built only from public builders.

Each workload is the paper's MnistCNN federation (10 clients, ``bench``
scale) driven a different way, so that every layer a later change may
touch does most of the work in one workload and little or none in
another:

* ``adafl_constrained`` — synchronous AdaFL on the ``constrained``
  straggler mix.  With a network model the engine trains serially
  (``Client.local_train``) and AdaFL probes every client each round.
* ``fedbuff_async`` — asynchronous FedBuff, no network model.  Every
  client's model arrives at the same instant, so training runs through
  the fused ``train_clients_batched`` kernel; no probe, no DGC.
* ``adafl_tcp`` — synchronous AdaFL, no network model, clients in two
  worker processes behind ``socket_session``.  Train, probe and
  compress are RPCs over CRC'd frames; the in-memory run of the same
  spec is its byte-identical reference.

One *operation* is a complete federated run from a fresh set-up.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.core.adafl import AdaFLSync
from repro.experiments.comparison import default_adafl_config
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.runner import FederationSpec, _federation_config, build_federation
from repro.experiments.socket_run import socket_session
from repro.experiments.sweep import NETWORK_PROFILES
from repro.fl.async_engine import AsyncEngine
from repro.fl.baselines import FedBuff
from repro.fl.metrics import RunResult
from repro.fl.sync_engine import SyncEngine
from repro.sim.trace import AGGREGATED, TraceSink

from layers import ROOT, Tracer, installed, layer_metrics

TCP_WORKERS = 2  # matches the 2-core host the benchmark was sized on


@dataclass(frozen=True)
class Workload:
    name: str
    scale: ExperimentScale
    open: Callable[[FederationSpec], AbstractContextManager]
    # Opens the in-memory run whose outputs this workload must equal
    # (the socket transport's byte-identical property), or None.
    reference: Callable[[FederationSpec], AbstractContextManager] | None = None


@contextmanager
def _adafl_constrained(spec: FederationSpec) -> Iterator[SyncEngine]:
    fed = build_federation(spec)
    network = NETWORK_PROFILES["constrained"](spec.scale.num_clients, spec.seed)
    yield SyncEngine(
        fed.server,
        fed.clients,
        AdaFLSync(default_adafl_config(spec.scale)),
        _federation_config(spec),
        network=network,
    )


@contextmanager
def _adafl_in_memory(spec: FederationSpec) -> Iterator[SyncEngine]:
    fed = build_federation(spec)
    yield SyncEngine(
        fed.server,
        fed.clients,
        AdaFLSync(default_adafl_config(spec.scale)),
        _federation_config(spec),
    )


@contextmanager
def _adafl_tcp(spec: FederationSpec) -> Iterator[SyncEngine]:
    strategy = AdaFLSync(default_adafl_config(spec.scale))
    with socket_session(spec, strategy, num_workers=TCP_WORKERS) as session:
        yield session.engine


@contextmanager
def _fedbuff_async(spec: FederationSpec) -> Iterator[AsyncEngine]:
    fed = build_federation(spec)
    yield AsyncEngine(
        fed.server,
        fed.clients,
        FedBuff(),
        # An async "round" is one update per client on average.
        _federation_config(
            spec, max_updates=spec.scale.num_rounds * spec.scale.num_clients
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("adafl_constrained", BENCH, _adafl_constrained),
        # 240 updates: enough for FedBuff's accuracy to settle across seeds.
        Workload(
            "fedbuff_async",
            dataclasses.replace(BENCH, num_rounds=24),
            _fedbuff_async,
        ),
        # 16 rounds: two operations fit the measured window, and the final
        # accuracy has settled across seeds.
        Workload(
            "adafl_tcp",
            dataclasses.replace(BENCH, num_rounds=16),
            _adafl_tcp,
            reference=_adafl_in_memory,
        ),
    )
}


# ----------------------------------------------------------------------
# One operation
# ----------------------------------------------------------------------
@dataclass
class OpResult:
    setup_s: float
    loop_s: float
    round_s: list[float]
    updates: int
    signature: tuple
    final_accuracy: float
    uplink_mb: float
    sim_time_s: float
    layer: dict = field(default_factory=dict)


def signature(result: RunResult) -> tuple:
    """The run's deterministic outputs: accuracy curve, uploads, bytes
    and simulated time, round by round (exact float reprs)."""
    return tuple(
        (
            r.round_index,
            repr(r.sim_time_s),
            r.num_uploads,
            r.bytes_up,
            r.bytes_down,
            tuple(r.participants),
            repr(r.accuracy),
            tuple(r.upload_sizes),
            r.dropped_uploads,
        )
        for r in result.records
    )


class _RoundClock(TraceSink):
    """Wall-clock stamp of every ``num_clients``-th aggregated update:
    an async "round" is one update from each client, on average."""

    def __init__(self, every: int):
        self.every = every
        self.stamps: list[float] = []
        self._updates = 0

    def emit(self, event) -> None:
        if event.type == AGGREGATED:
            self._updates += 1
            if self._updates % self.every == 0:
                self.stamps.append(time.perf_counter())


def _run_sync(engine: SyncEngine, tracer: Tracer | None) -> tuple[RunResult, list[float]]:
    result = engine.new_result()
    rounds = iter(engine.iter_rounds())
    round_s: list[float] = []
    while True:
        index = tracer.begin(ROOT) if tracer is not None else -1
        t0 = time.perf_counter()
        record = next(rounds, None)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(index)
        if record is None:
            break
        round_s.append(t1 - t0)
        result.records.append(record)
    return result, round_s


def _run_async(engine: AsyncEngine, tracer: Tracer | None) -> tuple[RunResult, list[float]]:
    clock = engine.trace.add_sink(_RoundClock(len(engine.clients)))
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.span("fl.engine.run"):
            result = engine.run()
    else:
        result = engine.run()
    stamps = [t0] + clock.stamps
    return result, [b - a for a, b in zip(stamps, stamps[1:])]


def run_op(
    workload: Workload, spec: FederationSpec, tracer: Tracer | None = None
) -> OpResult:
    """Set up and run one complete federation, timing each part."""
    t0 = time.perf_counter()
    with workload.open(spec) as engine:
        setup_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        if isinstance(engine, SyncEngine):
            result, round_s = _run_sync(engine, tracer)
        else:
            result, round_s = _run_async(engine, tracer)
        loop_s = time.perf_counter() - t1
    return OpResult(
        setup_s=setup_s,
        loop_s=loop_s,
        round_s=round_s,
        updates=result.total_uploads,
        signature=signature(result),
        final_accuracy=result.final_accuracy,
        uplink_mb=result.total_bytes_up / 1e6,
        sim_time_s=result.total_sim_time,
    )


def run_traced_op(
    workload: Workload, spec: FederationSpec, untraced_loop_s: float
) -> tuple[OpResult, Tracer]:
    """``run_op`` with every layer entry point wrapped; fills ``layer``."""
    tracer = Tracer()
    with installed(tracer):
        op = run_op(workload, spec, tracer)
    op.layer = layer_metrics(tracer.spans, op.updates, untraced_loop_s)
    return op, tracer


def setup_only(workload: Workload, spec: FederationSpec) -> float:
    """Seconds to build the workload's engine (then discard it)."""
    t0 = time.perf_counter()
    with workload.open(spec):
        return time.perf_counter() - t0


def reference_signature(workload: Workload, spec: FederationSpec) -> tuple | None:
    """Outputs of the in-memory run this workload must reproduce."""
    if workload.reference is None:
        return None
    with workload.reference(spec) as engine:
        return signature(engine.run())


def spec_for(workload: Workload, seed: int, scale: ExperimentScale | None = None) -> FederationSpec:
    return FederationSpec(scale=scale or workload.scale, seed=seed)
