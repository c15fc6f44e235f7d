"""Asynchronous FL engine — a reactive protocol on :class:`repro.sim.SimKernel`.

Implements the asynchronous protocol of §III-A: every client loops
``download -> local train -> upload`` independently; the server reacts
to each arriving update (FedAsync applies it immediately with a
staleness-discounted weight, FedBuff buffers ``K`` of them).  Client
heterogeneity — the 3x-slower stragglers of the empirical study — is
expressed through per-client compute rates, and all transfer times
come from the per-client :class:`~repro.network.conditions.ClientNetwork`.

The engine's main loop drains the kernel's event queue up to the
simulation horizon; availability churn defers work while a device is
offline, dropout faults park it until the next model version, and
data-loss faults destroy delivered uploads in transit.  Every
occurrence is published on the trace bus, and results are read back
from the attached :class:`~repro.fl.metrics.MetricsReducer`.
Construction, snapshots and the upload plumbing are shared with the
synchronous engine in :mod:`repro.fl.engine`.

Chaos extensions (all off by default; the legacy event sequence and
trajectories stay bit-identical): a :class:`~repro.sim.FaultPlan`
crashes devices (losing in-progress training), corrupts uploaded
payloads, delays/duplicates uploads, and takes the server itself
offline; ``config.downlink_retry`` / ``config.uplink_retry`` replace
the hard-coded retry behaviour with :class:`~repro.sim.RetryPolicy`
schedules (the default downlink policy reproduces the historical
constant backoff exactly, but is now *capped* — a client whose model
broadcast fails ``max_attempts`` times is terminally dropped instead
of retrying forever); ``config.validation`` screens updates at the
server before they touch the model.  ``snapshot_path`` makes the run
crash-safe (see :mod:`repro.fl.snapshot`).

Staleness is measured in server model versions: an update trained from
version ``v`` arriving when the server is at ``V`` has staleness
``V - v``, exactly the quantity Eq. 4/5 gate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fl.batched import train_clients_batched
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import FederationConfig
from repro.fl.engine import Engine
from repro.fl.faults import FaultInjector
from repro.fl.metrics import RunResult
from repro.fl.population import ClientPopulation
from repro.fl.server import Server
from repro.fl.strategy import AsyncStrategy
from repro.fl.validation import verify_frame
from repro.network.conditions import NetworkConditions
from repro.transport.base import PeerGone
from repro.sim import (
    AGGREGATED,
    DROPPED,
    EVALUATED,
    EventTrace,
    FaultPlan,
    HALTED,
    RetryPolicy,
    RUN_END,
    WOKEN,
)

__all__ = ["AsyncEngine", "DOWNLINK_RETRY_BACKOFF"]

# After a lost model broadcast the client backs off for this fraction
# of the failed attempt's duration before re-requesting, so the retry
# lands at ``(1 + backoff) * duration`` after the original dispatch.
# Each retry re-rolls the link and is charged its own bytes.
DOWNLINK_RETRY_BACKOFF = 1.0

_MODEL_ARRIVAL = "model_arrival"
_MODEL_RETRY = "model_retry"
_UPDATE_ARRIVAL = "update_arrival"


@dataclass
class _InFlight:
    """An upload travelling to the server."""

    update: ClientUpdate
    delta: np.ndarray
    num_bytes: int
    base_version: int
    frame_bytes: bytes = b""


class AsyncEngine(Engine):
    """Runs an asynchronous federated training session."""

    mode = "async"
    # The historical downlink schedule as a policy: constant backoff,
    # one drop event per failed attempt — but capped so a dead link
    # cannot spin a client forever.
    default_downlink_retry = RetryPolicy(
        max_attempts=8, backoff_frac=DOWNLINK_RETRY_BACKOFF, multiplier=1.0
    )
    initial_extra = {"halted": [], "total_updates": 0, "last_snapshot_at": -1}

    def __init__(
        self,
        server: Server,
        clients: "list[Client] | ClientPopulation",
        strategy: AsyncStrategy,
        config: FederationConfig,
        network: NetworkConditions | None = None,
        device_flops: np.ndarray | None = None,
        churn=None,
        faults: FaultInjector | None = None,
        chaos: FaultPlan | None = None,
        trace: EventTrace | None = None,
        snapshot_path=None,
        snapshot_every: int | None = None,
        on_snapshot=None,
        transport=None,
    ):
        super().__init__(
            server, clients, strategy, config, network, faults, device_flops,
            churn, chaos, trace, snapshot_path, snapshot_every, on_snapshot,
            transport,
        )

    def snapshot_extra(self) -> dict:
        return {
            "halted": list(self._halted),
            "total_updates": self._total_updates,
            "last_snapshot_at": self._last_snapshot_at,
        }

    def restore_extra(self, extra: dict) -> None:
        self._halted = list(extra["halted"])
        self._total_updates = int(extra["total_updates"])
        self._last_snapshot_at = int(extra["last_snapshot_at"])

    def _snapshot_written(self) -> None:
        self._last_snapshot_at = self._total_updates

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Simulate until ``max_sim_time_s`` (or ``max_updates``) and report."""
        return self._run(resume=False)

    def resume(self) -> RunResult:
        """Finish a snapshotted run; the result covers the *whole* run."""
        return self._run(resume=True)

    def _run(self, resume: bool) -> RunResult:
        local_cfg = self.strategy.local_config(self.config.local)
        if not resume:
            self._start_run()
            # Boot the reactive loop: every client (or the capped
            # cohort at population scale) receives the initial model.
            for cid in self.clients.initial_ids(self.config.async_cohort):
                self._dispatch_model(cid)

        horizon = self.config.max_sim_time_s
        # A snapshot can land exactly at the update budget (the run
        # finished right after writing it); resuming such a run must
        # not process the still-queued in-flight arrivals.
        done = (
            self.config.max_updates is not None
            and self._total_updates >= self.config.max_updates
        )
        while not done:
            for event in self._kernel.queue.drain_until(horizon):
                if event.kind == _MODEL_ARRIVAL:
                    payloads = [event.payload]
                    if self.config.batched_compute:
                        # Opportunistic fusion: arrivals landing at the
                        # exact same instant are simultaneously-ready
                        # clients; pull them off the queue and train
                        # them through the batched kernel together.
                        queue = self._kernel.queue
                        while (
                            queue
                            and queue.peek().time == event.time
                            and queue.peek().kind == _MODEL_ARRIVAL
                        ):
                            payloads.append(queue.pop().payload)
                    self._on_model_arrivals(payloads, local_cfg)
                elif event.kind == _MODEL_RETRY:
                    self._dispatch_model(
                        event.payload["cid"],
                        forced=event.payload["forced"],
                        attempt=event.payload.get("attempt", 1),
                    )
                elif event.kind == _UPDATE_ARRIVAL:
                    self._on_update_arrival(event.payload)
                    if (
                        self.snapshot_path is not None
                        and self._total_updates > 0
                        and self._total_updates % self.snapshot_every == 0
                        and self._total_updates != self._last_snapshot_at
                    ):
                        self._write_snapshot()
                    if (
                        self.config.max_updates is not None
                        and self._total_updates >= self.config.max_updates
                    ):
                        done = True
                        break
                else:  # pragma: no cover - defensive
                    raise RuntimeError(f"unknown event kind {event.kind!r}")
            else:
                # Drained: either the queue is empty, or its head lies
                # beyond the simulation horizon.
                if self._kernel.queue:
                    break
                if self._halted and self._kernel.now <= horizon:
                    # Every in-flight client has halted: without a
                    # fresh update no global version change will ever
                    # wake them.  Force-train the longest-waiting one
                    # so the federation keeps making progress.
                    cid = self._halted.pop(0)
                    self._trace.emit(WOKEN, self._kernel.now, cid, cause="forced")
                    self._dispatch_model(cid, forced=True)
                    continue
                break

        self._trace.emit(RUN_END, self._kernel.now, updates=self._total_updates)
        return self._reducer.result()

    # ------------------------------------------------------------------
    def _dispatch_model(self, cid: int, forced: bool = False, attempt: int = 1) -> None:
        """Send the current global model to a client."""
        now = self._kernel.now
        outage = self._chaos.outage if self._chaos is not None else None
        if outage is not None and outage.is_down(now):
            # The server cannot broadcast while it is dark; the client
            # re-requests as soon as it comes back.
            resume = outage.next_up(now)
            self._trace.emit(HALTED, now, cid, cause="server_down", until=resume)
            self._kernel.queue.push(
                resume, _MODEL_RETRY, {"cid": cid, "forced": forced, "attempt": attempt}
            )
            return
        nbytes, down_extra = self._model_downlink()
        payload = {"cid": cid, "forced": forced}
        leg = self._kernel.downlink(cid, nbytes, now, extra=down_extra)
        if not leg.delivered:
            # Lost broadcast: back off, then retry from scratch.  The
            # failed attempt was already charged by the kernel.
            if self._dl_policy.exhausted(attempt):
                # Out of attempts: the client never receives a model
                # and sits the rest of the run out (terminal drop).
                self._trace.emit(
                    DROPPED,
                    now + leg.duration_s,
                    cid,
                    reason="downlink_lost",
                    terminal=True,
                    attempts=attempt,
                )
                return
            self._trace.emit(
                DROPPED,
                now + leg.duration_s,
                cid,
                reason="downlink_lost",
                attempt=attempt,
            )
            retry_at = (
                now
                + leg.duration_s
                + self._dl_policy.backoff_s(
                    attempt, leg.duration_s, self._retry_rng(cid, self._dl_policy)
                )
            )
            payload["attempt"] = attempt + 1
            self._kernel.queue.push(retry_at, _MODEL_RETRY, payload)
            return
        self._kernel.queue.push(now + leg.duration_s, _MODEL_ARRIVAL, payload)

    def _on_model_arrivals(self, payloads: list[dict], local_cfg) -> None:
        """Handle one or more same-instant model arrivals.

        Each payload is gated exactly as the serial handler gates it
        (churn, crashes, dropout faults, strategy halts — all
        deterministic, no shared-RNG draws); the survivors train
        together through the batched kernel when the cohort allows it,
        then complete their upload legs in arrival order so every
        shared-RNG draw happens in the serial sequence.
        """
        trainees: list[Client] = []
        for payload in payloads:
            client = self._gate_model_arrival(payload)
            if client is not None:
                trainees.append(client)
        if not trainees:
            return
        batched = None
        ids = [c.client_id for c in trainees]
        if len(trainees) > 1 and len(set(ids)) == len(ids) and not self._remote:
            batched = train_clients_batched(
                trainees,
                self.server.params,
                local_cfg,
                round_index=self.server.version,
                cache=self._batched_cache,
            )
        elif self._remote and len(trainees) > 1:
            # Remote analogue of the opportunistic fusion: pipeline the
            # burst's train requests so the owning worker processes run
            # in parallel; replies are consumed in serial order below.
            self._transport.prefetch_train(
                ids, self.server.params, self.server.version, {}
            )
        for client in trainees:
            if batched is not None:
                update = batched[client.client_id]
            else:
                try:
                    update = client.local_train(
                        self.server.params, local_cfg, round_index=self.server.version
                    )
                except PeerGone as exc:
                    # The owning worker process died: terminal for this
                    # client — no restart event will ever revive it.
                    self._drop_transport_crash(self._kernel.now, client.client_id, exc)
                    continue
            self._finish_model_arrival(client, update)
        # The arrival burst is fully processed: trim materialised
        # clients back to the retention cap (no-op when always-live).
        self.clients.evict_to_cap()

    def _gate_model_arrival(self, payload: dict) -> Client | None:
        """Admission control for one model arrival.

        Returns the client if it should train now, None if the arrival
        was deferred (churn/crash re-queue) or parked (fault/strategy
        halt).  Deterministic: no draws from the shared kernel RNG.
        """
        cid = payload["cid"]
        client = self.clients[cid]
        now = self._kernel.now
        if self._remote and cid in self._transport.down_cids():
            # The owning worker process is dead; the model arrival is
            # undeliverable and the client sits the rest of the run out
            # (UNCOUNTED, like a device that never came online).
            self._trace.emit(
                DROPPED, now, cid, reason="offline", cause="transport"
            )
            return None
        if payload.pop("resumed", False):
            self._trace.emit(WOKEN, now, cid, cause="online")
        if payload.pop("restarted", False):
            self._trace.emit(WOKEN, now, cid, cause="restart")
        if self._churn is not None and not self._churn.is_online(cid, now):
            # Device is offline: the work resumes (with a fresh model)
            # once it comes back.
            resume = self._churn.next_online(cid, now)
            self._trace.emit(HALTED, now, cid, cause="churn", until=resume)
            payload["resumed"] = True
            self._kernel.queue.push(resume, _MODEL_ARRIVAL, payload)
            return None
        crash = self._chaos.crash if self._chaos is not None else None
        if crash is not None and crash.is_down(cid, now):
            # The device is crashed right now; it restarts with the
            # model it already holds and picks the work back up.
            restart = crash.next_up(cid, now)
            self._trace.emit(HALTED, now, cid, cause="crash", until=restart)
            payload["restarted"] = True
            self._kernel.queue.push(restart, _MODEL_ARRIVAL, payload)
            return None
        if not payload["forced"] and not self.faults.available(
            cid, self.server.version
        ):
            # Dropout fault: the device is dark; park it until the next
            # global model version, like a strategy halt.
            self._trace.emit(HALTED, now, cid, cause="fault")
            client.halted = True
            self._halted.append(cid)
            return None
        if not payload["forced"] and not self.strategy.should_train(
            client, self.server, now
        ):
            # AdaFL halting: park the client until the next global
            # model version (paper §V, Q3 — halted clients save the
            # training *and* communication cost).
            self._trace.emit(HALTED, now, cid, cause="strategy")
            client.halted = True
            self._halted.append(cid)
            return None
        client.halted = False
        self.clients.note_seen((cid,), self.server.version)
        return client

    def _finish_model_arrival(self, client: Client, update: ClientUpdate) -> None:
        """Post-training half of a model arrival: compute/crash
        accounting, upload encoding, uplink legs, and re-queue."""
        cid = client.client_id
        now = self._kernel.now
        crash = self._chaos.crash if self._chaos is not None else None
        update.extras["base_params"] = self.server.params.copy()
        compute_s = self._kernel.compute(cid, update.flops, now)
        if crash is not None:
            crash_t = crash.crash_in(cid, now, now + compute_s)
            if crash_t is not None:
                # Crash mid-training: the in-progress work is lost; the
                # device refetches a fresh model once it restarts.
                restart = crash.next_up(cid, crash_t)
                self._trace.emit(DROPPED, crash_t, cid, reason="crash", until=restart)
                self._kernel.queue.push(
                    restart,
                    _MODEL_RETRY,
                    {"cid": cid, "forced": False, "attempt": 1},
                )
                return
        trained = now + compute_s
        encoded = self._encode_upload(client, update, trained, trained)
        if encoded is None:
            return
        packet, frame_bytes, up_extra = encoded
        delta = packet.delta
        nbytes = packet.nbytes

        # -- uplink (policy-driven retries; default is one attempt) --
        attempt = 1
        up_start = trained
        while True:
            leg = self._kernel.uplink(cid, nbytes, up_start, extra=up_extra)
            arrival = up_start + leg.duration_s
            if leg.delivered or self._ul_policy.exhausted(attempt):
                break
            self._trace.emit(
                DROPPED, arrival, cid, reason="uplink_lost", attempt=attempt
            )
            up_start = arrival + self._ul_policy.backoff_s(
                attempt, leg.duration_s, self._retry_rng(cid, self._ul_policy)
            )
            attempt += 1
        delivered = leg.delivered
        if not delivered:
            data = self._out_of_attempts(self._ul_policy, attempt)
            self._trace.emit(DROPPED, arrival, cid, reason="uplink_lost", **data)
        elif self.faults.upload_lost(cid, self._rng):
            # Data-loss fault: the update made it across the link but
            # is destroyed in transit.
            delivered = False
            self._trace.emit(DROPPED, arrival, cid, reason="fault")
        self._upload_result(client, delivered, trained)
        if delivered:
            stale = self._chaos.stale if self._chaos is not None else None
            duplicate = False
            if stale is not None:
                extra_delay, duplicate = stale.upload_effects(cid)
                arrival += extra_delay
            delta, frame_bytes = self._corrupt_upload(cid, delta, frame_bytes)
            inflight = _InFlight(
                update=update,
                delta=delta,
                num_bytes=nbytes,
                base_version=update.round_index,
                frame_bytes=frame_bytes,
            )
            self._kernel.queue.push(arrival, _UPDATE_ARRIVAL, inflight)
            if duplicate:
                # The transport delivered the same upload twice; the
                # copy shares the original's serial stamp, so the
                # validator (if any) refuses it on arrival.
                self._kernel.queue.push(arrival, _UPDATE_ARRIVAL, inflight)
        else:
            # Update lost in transit: client fetches a fresh model and
            # goes again (wasted compute, exactly as on real links).
            self._kernel.queue.push(
                arrival, _MODEL_ARRIVAL, {"cid": cid, "forced": False}
            )

    def _on_update_arrival(self, payload: _InFlight) -> None:
        now = self._kernel.now
        cid = payload.update.client_id
        outage = self._chaos.outage if self._chaos is not None else None
        if outage is not None and outage.is_down(now):
            # The update arrived at a dark server: it is lost, and the
            # client re-requests a model once the server returns.
            resume = outage.next_up(now)
            self._trace.emit(
                DROPPED, now, cid, reason="server_down", until=resume
            )
            self._kernel.queue.push(
                resume, _MODEL_RETRY, {"cid": cid, "forced": False, "attempt": 1}
            )
            return
        # Server receipt: the frame's CRC-32 is checked before the
        # payload is trusted — unconditionally, whatever the validation
        # config says (a damaged frame is never decodable).
        if payload.frame_bytes and verify_frame(payload.frame_bytes) is not None:
            self._trace.emit(DROPPED, now, cid, reason="corrupt_frame")
            self._dispatch_model(cid)
            return
        staleness = max(0, self.server.version - payload.base_version)
        if self._validator is not None:
            if self._validator.check_replay(payload.update) is not None:
                # A duplicate delivery: refuse it and stop — the
                # original already triggered the client's next cycle.
                self._trace.emit(DROPPED, now, cid, reason="stale", duplicate=True)
                return
            reason = self._validator.check_staleness(staleness)
            if reason is None:
                reason = self._validator.screen(payload.delta)
            if reason is not None:
                self._trace.emit(DROPPED, now, cid, reason=reason)
                self._dispatch_model(cid)
                return
        changed = self.strategy.on_update(
            self.server, payload.update, payload.delta, staleness
        )
        self._total_updates += 1
        self._trace.emit(
            AGGREGATED,
            now,
            cid,
            update=self._total_updates - 1,
            staleness=staleness,
            applied=bool(changed),
            nbytes=payload.num_bytes,
        )
        if self._total_updates % self.config.eval_every == 0:
            accuracy, loss = self.server.evaluate()
            self._trace.emit(EVALUATED, now, accuracy=accuracy, loss=loss)

        # The uploading client immediately receives the latest model.
        self._dispatch_model(cid)
        # A model change wakes any halted clients (they were waiting
        # for "the next global update").
        if changed and self._halted:
            woken, self._halted = self._halted, []
            for wid in woken:
                self._trace.emit(WOKEN, now, wid, cause="version")
                self._dispatch_model(wid)
