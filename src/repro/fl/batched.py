"""Engine glue for the batched multi-client compute kernel.

:func:`train_clients_batched` runs a cohort of clients through
:class:`repro.nn.batched.MultiClientTrainer` and rebuilds the exact
per-client :class:`~repro.fl.client.ClientUpdate` objects the serial
``Client.local_train`` loop would have produced — same deltas, same
losses, same SCAFFOLD control-variate evolution, bit for bit.

The function returns ``None`` whenever the cohort cannot be fused
(fewer than two clients, strategy kwargs beyond SCAFFOLD's
``server_control``, mixed scaffold/non-scaffold cohorts, or a model
outside the kernel's layer support); the engines then fall back to the
serial oracle path.

The engines pass a ``cache`` dict that holds one slot: the trainer for
the latest cohort.  A repeat cohort (FedBuff's fixed buffer, a full
participation round) reuses it; any other cohort replaces it, so the
cache never pins more than one cohort's parameter stacks.  A model the
kernel rejects is remembered per architecture, so the construction
cost of finding out is paid once, not per round.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fl.client import _TRAIN_FLOP_FACTOR, Client, ClientUpdate
from repro.fl.config import LocalTrainingConfig
from repro.nn.batched import MultiClientTrainer, UnsupportedModelError

__all__ = ["train_clients_batched", "forget_client"]

# Cache key of the single trainer slot: ``(cohort key, trainer)``.
_SLOT = "trainer"


def _architecture(cohort: list[Client]) -> frozenset:
    """The cohort's distinct layer-type sequences (negative-cache key)."""
    return frozenset(tuple(map(type, c._model.layers)) for c in cohort)


def forget_client(cache: dict, cid: int) -> None:
    """Drop the cached trainer if it references client ``cid``."""
    slot = cache.get(_SLOT)
    if slot is not None and cid in slot[0][0]:
        cache.pop(_SLOT, None)


def train_clients_batched(
    cohort: list[Client],
    global_params: np.ndarray,
    config: LocalTrainingConfig,
    round_index: int = 0,
    kwargs_by_cid: dict[int, dict[str, Any]] | None = None,
    cache: dict | None = None,
) -> dict[int, ClientUpdate] | None:
    """Fused local training for a cohort; ``None`` means fall back.

    ``kwargs_by_cid`` carries each client's ``client_train_kwargs`` from
    the strategy; only SCAFFOLD's ``server_control`` is batchable.  When
    a ``cache`` dict is supplied, the trainer (parameter stacks, scratch
    buffers, conv workspaces) is reused while the same cohort and
    config come back.
    """
    if len(cohort) < 2:
        return None
    kwargs_by_cid = kwargs_by_cid or {}
    controls: list[np.ndarray | None] = []
    for c in cohort:
        kw = kwargs_by_cid.get(c.client_id, {})
        if any(k != "server_control" for k in kw):
            return None
        controls.append(kw.get("server_control"))
    use_scaffold = controls[0] is not None
    if any((sc is not None) != use_scaffold for sc in controls):
        return None

    key = (tuple(c.client_id for c in cohort), config, use_scaffold)
    slot = cache.get(_SLOT) if cache is not None else None
    if slot is not None and slot[0] == key:
        trainer = slot[1]
    else:
        arch = _architecture(cohort)
        if cache is not None:
            if arch in cache:
                return None
            # Free the previous cohort's trainer before building this one.
            cache.pop(_SLOT, None)
        try:
            trainer = MultiClientTrainer(
                [c._model for c in cohort],
                [c.dataset.x for c in cohort],
                [c.dataset.y for c in cohort],
                [c._rng for c in cohort],
                local_epochs=config.local_epochs,
                batch_size=config.batch_size,
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
                prox_mu=config.prox_mu,
                max_batches=config.max_batches,
                use_corrections=use_scaffold,
            )
        except UnsupportedModelError:
            if cache is not None:
                cache[arch] = None
            return None
        if cache is not None:
            cache[_SLOT] = (key, trainer)

    corrections = None
    if use_scaffold:
        for c in cohort:
            if c.control_variate is None:
                c.control_variate = np.zeros_like(global_params)
        corrections = [
            sc - c.control_variate for c, sc in zip(cohort, controls)
        ]

    results = trainer.run(global_params, corrections=corrections)

    updates: dict[int, ClientUpdate] = {}
    for c, sc, res in zip(cohort, controls, results):
        local_params = c._model.get_flat_params()
        delta = local_params - global_params
        c.last_delta = delta
        extras: dict[str, Any] = {}
        if use_scaffold and res.steps > 0:
            # SCAFFOLD option II, exactly as in Client.local_train.
            new_control = (
                c.control_variate
                - sc
                + (global_params - local_params) / (res.steps * config.lr)
            )
            extras["control_delta"] = new_control - c.control_variate
            c.control_variate = new_control
        flops = _TRAIN_FLOP_FACTOR * c._model.flops_per_sample() * res.samples_seen
        updates[c.client_id] = ClientUpdate(
            client_id=c.client_id,
            round_index=round_index,
            num_samples=c.num_samples,
            delta=delta,
            train_loss=float(np.mean(res.losses)) if res.losses else 0.0,
            flops=flops,
            extras=extras,
        )
    return updates
