"""The protocol-independent core of both FL engines.

:class:`~repro.fl.sync_engine.SyncEngine` (the §III-A barrier round)
and :class:`~repro.fl.async_engine.AsyncEngine` (the reactive event
loop) differ only in their protocol.  All clocking, RNG streams, and
transfer/compute accounting live in the :class:`~repro.sim.SimKernel`;
the engines emit the typed event stream (:mod:`repro.sim.trace`) and
read their records back from the attached
:class:`~repro.fl.metrics.MetricsReducer`, so metrics are a pure
reduction over the trace.  Everything else the two protocols share
lives here once:

* construction — the client population (the caller's clients, or a
  remote transport's facade), the update validator, the kernel with
  its trace and reducer, and the fused-trainer cache with its
  eviction watcher;
* crash-safe snapshots: :meth:`Engine.snapshot_state` and its
  counterpart :meth:`Engine.restore_state` (see :mod:`repro.fl.snapshot`);
* retry jitter streams, the transport-crash drop and the
  PeerGone-tolerant ACK/NACK;
* the ``run_start`` event, the model broadcast's frame accounting, the
  upload encoding and the corruption hook.

A subclass states what differs as class attributes — ``mode``, the
default downlink :class:`~repro.sim.RetryPolicy` and ``initial_extra``,
its loop state in snapshot form — plus :meth:`Engine.snapshot_extra`
and :meth:`Engine.restore_extra` for that state.  The calls to
``train_clients_batched`` and ``verify_frame`` stay in the protocol
modules: each engine looks them up as a module global there, which is
where profilers and tests wrap them.
"""

from __future__ import annotations

import numpy as np

from repro.fl.batched import forget_client
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import FederationConfig
from repro.fl.faults import FaultInjector
from repro.fl.metrics import MetricsReducer
from repro.fl.population import ClientPopulation
from repro.fl.server import Server
from repro.fl.snapshot import kernel_state, restore_kernel, save_snapshot
from repro.fl.strategy import AsyncStrategy, SyncStrategy
from repro.fl.validation import UpdateValidator
from repro.network.conditions import NetworkConditions
from repro.transport.base import PeerGone
from repro.sim import DROPPED, RUN_START, EventTrace, FaultPlan, RetryPolicy, SimKernel

__all__ = ["Engine"]


class Engine:
    """Construction, snapshot and upload plumbing shared by both engines.

    The positional parameter order is the synchronous engine's;
    :class:`~repro.fl.async_engine.AsyncEngine` keeps its own order
    and forwards.
    """

    # "sync" or "async": tags the run_start event and snapshots.
    mode: str = ""
    # Downlink retries when ``config.downlink_retry`` is unset.
    default_downlink_retry: RetryPolicy = RetryPolicy.single()
    # The protocol loop's state at the start of a run, in the form
    # ``snapshot_extra`` returns and ``restore_extra`` accepts.
    initial_extra: dict = {}

    def __init__(
        self,
        server: Server,
        clients: "list[Client] | ClientPopulation",
        strategy: "SyncStrategy | AsyncStrategy",
        config: FederationConfig,
        network: NetworkConditions | None = None,
        faults: FaultInjector | None = None,
        device_flops: np.ndarray | None = None,
        churn=None,
        chaos: FaultPlan | None = None,
        trace: EventTrace | None = None,
        snapshot_path=None,
        snapshot_every: int | None = None,
        on_snapshot=None,
        transport=None,
    ):
        # A remote transport owns the client processes; its population
        # facade replaces any clients argument.  In-memory transports
        # (None or InMemoryTransport) keep the historical path exactly.
        self._transport = transport
        self._remote = bool(transport is not None and getattr(transport, "remote", False))
        if self._remote:
            if snapshot_path is not None:
                raise ValueError(
                    "snapshots are not supported over a remote transport "
                    "(worker-side client state is not reachable)"
                )
            self.clients = ClientPopulation.ensure(transport.population())
        else:
            if clients is None or not len(clients):
                raise ValueError("need at least one client")
            # The engine resolves every client through the population
            # registry; a plain list becomes the always-live compat wrapper.
            self.clients = ClientPopulation.ensure(clients)
        self.server = server
        self.strategy = strategy
        self.config = config
        self.faults = faults if faults is not None else FaultInjector()
        # Availability churn (repro.network.churn); None = always on.
        self._churn = churn
        self._chaos = chaos
        if chaos is not None:
            chaos.bind(config.seed, len(self.clients))
        self._validator = (
            UpdateValidator(config.validation) if config.validation is not None else None
        )
        self._dl_policy = config.downlink_retry or self.default_downlink_retry
        self._ul_policy = config.uplink_retry or RetryPolicy.single()
        self._kernel = SimKernel(
            seed=config.seed,
            num_clients=len(self.clients),
            network=network,
            device_flops=device_flops,
            trace=trace,
        )
        self.network = self._kernel.network
        self.device_flops = self._kernel.device_flops
        self._rng = self._kernel.rng
        self._trace = self._kernel.trace
        self._reducer = self._trace.add_sink(MetricsReducer())
        if transport is not None:
            # Reconnect jitter draws from the kernel's named streams
            # and drops surface on the engine's trace bus.
            transport.bind_kernel(self._kernel, self._trace)
        self.snapshot_path = snapshot_path
        self.snapshot_every = snapshot_every if snapshot_every is not None else 1
        self._on_snapshot = on_snapshot
        self.restore_extra(self.initial_extra)
        # The fused trainer for the latest cohort (see repro.fl.batched).
        # Session-local: deliberately excluded from snapshot_state, a
        # resumed engine rebuilds on first use.
        self._batched_cache: dict = {}
        # The trainer holds references into client models; when the
        # registry evicts one of its clients those references go stale,
        # so the eviction watcher drops it.  Watchers are transient —
        # re-registered here on every (re)construction.
        self.clients.on_evict(self._on_client_evicted)

    def _on_client_evicted(self, cid: int) -> None:
        forget_client(self._batched_cache, cid)

    @property
    def sim_time_s(self) -> float:
        """Simulated seconds elapsed (the kernel clock)."""
        return self._kernel.now

    @property
    def trace(self) -> EventTrace:
        """The engine's telemetry bus (attach sinks before ``run``)."""
        return self._trace

    def _start_run(self) -> None:
        """Prepare the strategy and open a fresh run's trace."""
        self.strategy.prepare(self.server, self.clients)
        self._trace.emit(
            RUN_START,
            self.sim_time_s,
            mode=self.mode,
            method=self.strategy.name,
            num_clients=len(self.clients),
            model_bytes=self.strategy.encode_model(self.server).payload_nbytes,
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _write_snapshot(self) -> None:
        save_snapshot(self, self.snapshot_path)
        self._snapshot_written()
        if self._on_snapshot is not None:
            self._on_snapshot(self)

    def _snapshot_written(self) -> None:
        """Bookkeeping after a snapshot landed, before ``on_snapshot``."""

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this engine mid-run (pickle-safe)."""
        return {
            "mode": self.mode,
            "server": self.server,
            "clients": self.clients,
            "strategy": self.strategy,
            "config": self.config,
            "faults": self.faults,
            "chaos": self._chaos,
            "churn": self._churn,
            "network": self.network,
            "device_flops": self.device_flops,
            "validator": self._validator,
            "kernel": kernel_state(self._kernel),
            "trace_seq": self._trace._seq,
            "reducer": self._reducer,
            "extra": self.snapshot_extra(),
        }

    def restore_state(self, state: dict) -> None:
        """Counterpart of ``snapshot_state`` on a freshly built engine."""
        restore_kernel(self._kernel, state["kernel"])
        self._trace._seq = state["trace_seq"]
        # The constructor attached a fresh reducer; swap the snapshotted
        # one (which holds the already-closed records) back in.
        self._trace._sinks.remove(self._reducer)
        self._reducer = self._trace.add_sink(state["reducer"])
        self._validator = state["validator"]
        self.restore_extra(state["extra"])

    def snapshot_extra(self) -> dict:
        """The protocol loop's own state (see ``initial_extra``)."""
        raise NotImplementedError

    def restore_extra(self, extra: dict) -> None:
        """Engine-specific state counterpart of ``snapshot_extra``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def _retry_rng(self, cid: int, policy: RetryPolicy):
        """Jitter stream for retries; None keeps the schedule exact."""
        if policy.jitter_frac <= 0.0:
            return None
        return self._kernel.stream("retry", cid)

    @staticmethod
    def _out_of_attempts(policy: RetryPolicy, attempt: int) -> dict:
        """Drop data for a leg that used up ``policy``.

        Only a multi-attempt policy marks the drop terminal; the
        single-attempt default keeps the historical event shape.
        """
        if policy.max_attempts > 1:
            return {"terminal": True, "attempts": attempt}
        return {}

    def _model_downlink(self) -> tuple[int, dict]:
        """Charged bytes and event extras of one model broadcast.

        The charged bytes are the strategy's downlink size (frame
        payload plus any side channel); the full framed length rides
        in the event data.
        """
        model_frame = self.strategy.encode_model(self.server)
        nbytes = self.strategy.downlink_bytes(self.server)
        frame_len = len(model_frame) + (nbytes - model_frame.payload_nbytes)
        return nbytes, {"codec": "none", "frame_len": frame_len}

    def _encode_upload(self, client: Client, update: ClientUpdate, context, t: float):
        """Encode one trained update for the uplink.

        Runs the strategy's ``process_upload`` (``context`` is its
        protocol argument), stamps the update for replay screening and
        frames it.  Returns ``(packet, frame_bytes, up_extra)``, or
        None when the worker died before the upload was encoded
        (compression is a worker-side RPC for remote clients) and the
        client was dropped at ``t``.
        """
        try:
            packet = self.strategy.process_upload(client, update, context)
        except PeerGone as exc:
            self._drop_transport_crash(t, client.client_id, exc)
            return None
        if self._validator is not None:
            self._validator.stamp(update)
        if packet.subspace is not None:
            # Masked aggregation needs to know which coordinates the
            # delta actually covers (sub-model uploads).
            update.extras["subspace"] = packet.subspace
        up_extra = {"codec": packet.frame_codec, "frame_len": packet.wire_nbytes}
        return packet, packet.frame.to_bytes(), up_extra

    def _corrupt_upload(
        self, cid: int, delta: np.ndarray, frame_bytes: bytes
    ) -> tuple[np.ndarray, bytes]:
        """Apply the chaos plan's payload corruption to one delivery."""
        corruption = self._chaos.corruption if self._chaos is not None else None
        if corruption is None:
            return delta, frame_bytes
        delta, tampered = corruption.corrupt_upload(cid, delta, frame_bytes)
        return delta, frame_bytes if tampered is None else tampered

    def _drop_transport_crash(self, t: float, cid: int, exc: PeerGone) -> None:
        """Terminal drop: the owning worker process is unreachable."""
        self._trace.emit(
            DROPPED,
            t,
            cid,
            reason="crash",
            cause="transport",
            terminal=True,
            attempts=exc.attempts,
        )

    def _upload_result(self, client: Client, delivered: bool, context) -> None:
        """ACK/NACK the strategy, tolerating a dead remote peer.

        A NACK triggers AdaFL's residual restore — a worker RPC for
        remote clients.  If the worker died in the meantime the
        restore is moot (its residual state is gone with it); the
        death itself surfaces as drops through the liveness checks, so
        double-counting here would skew the taxonomy.
        """
        try:
            self.strategy.on_upload_result(client, delivered, context)
        except PeerGone:
            pass
