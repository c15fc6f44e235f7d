"""Batched multi-client training kernel.

Fuses K clients' local-SGD steps into single numpy calls: each step
stacks the K per-client minibatches into one ``(K*batch, ...)`` tensor
and runs ONE forward/backward through the model's layers, instead of K
independent ``Sequential`` passes.  Per-client parameters live in a
``(K, d)`` stacked flat buffer; each layer position runs over a
:class:`~repro.nn.layers.LayerStack` whose parameter stacks are views
carved out of that buffer, and the optimizer (SGD/momentum/weight-
decay/FedProx/SCAFFOLD corrections) runs as row-wise in-place ops on
the stack.

The per-layer forward/backward code is the same code a lone
``Sequential`` runs — there as the one-row stack — so the kernel is
**bit-identical** to the serial ``Client.local_train`` path as long as
rows stay independent (see docs/architecture.md, "Batched multi-client
kernel"):

* Per-row GEMMs run as 3-D stacked ``np.matmul`` calls whose slices
  are byte-for-byte the one-row operands, and BLAS computes each slice
  of a stacked matmul with the same kernel.
* Every cross-sample *reduction* (bias gradients, batch-norm
  statistics, loss means) runs per row on a slice whose shape and
  strides equal the one-row operand's, so summation order is
  unchanged.  Only elementwise ops and data movement are fused across
  rows.
* RNG draws stay on the per-client generators (shuffles on the
  client's rng, dropout masks on each layer's own rng) in the serial
  (epoch, step, layer) order, so every stream advances identically.

Models whose layers fall outside the supported set (or that a caller
hands inconsistent shards) raise :class:`UnsupportedModelError`; the
engines catch it and fall back to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LayerStack,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.normalization import BatchNorm2d, GroupNorm
from repro.nn.sequential import Sequential

__all__ = [
    "MultiClientTrainer",
    "TaskResult",
    "UnsupportedModelError",
    "supports",
]


class UnsupportedModelError(Exception):
    """The model (or shard layout) cannot run through the batched kernel."""


@dataclass
class TaskResult:
    """Per-client outcome of one fused local-training round."""

    losses: list[float] = field(default_factory=list)
    steps: int = 0
    samples_seen: int = 0


# ----------------------------------------------------------------------
# Layer support matrix
# ----------------------------------------------------------------------
def _signature(layer) -> tuple | None:
    """A hashable config tuple iff the layer type is batchable."""
    t = type(layer)
    if t is Linear:
        return ("linear", layer.in_features, layer.out_features,
                layer.bias is not None)
    if t is Conv2d:
        return ("conv", layer.in_channels, layer.out_channels,
                layer.kernel_size, layer.stride, layer.padding,
                layer.bias is not None)
    if t is MaxPool2d:
        return ("maxpool", layer.kernel_size, layer.stride)
    if t is AvgPool2d:
        return ("avgpool", layer.kernel_size, layer.stride)
    if t is GlobalAvgPool2d:
        return ("gap",)
    if t is ReLU:
        return ("relu",)
    if t is Tanh:
        return ("tanh",)
    if t is Dropout:
        return ("dropout", layer.rate)
    if t is Flatten:
        return ("flatten",)
    if t is BatchNorm2d:
        return ("bn", layer.num_channels, layer.momentum, layer.eps)
    if t is GroupNorm:
        return ("gn", layer.num_groups, layer.num_channels, layer.eps)
    return None


def supports(model: Sequential) -> bool:
    """Whether every layer of ``model`` has a batched implementation."""
    if len(model.output_shape) != 1:
        return False
    return all(_signature(layer) is not None for layer in model.layers)


def _carve(buf: np.ndarray, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """A (K,) + shape parameter view into the (K, d) stacked buffer."""
    size = 1
    for dim in shape:
        size *= dim
    view = buf[:, offset:offset + size].reshape((buf.shape[0],) + shape)
    if not np.shares_memory(view, buf):  # pragma: no cover - defensive
        raise UnsupportedModelError("stacked parameter carve copied")
    return view


# ----------------------------------------------------------------------
# The trainer
# ----------------------------------------------------------------------
class MultiClientTrainer:
    """Fused local SGD for K clients sharing one architecture.

    Construction validates that all models are architecturally
    identical and batchable, allocates the ``(K, d)`` parameter /
    gradient / optimizer-state stacks, and carves per-layer weight
    views.  :meth:`run` then executes one full local-training round
    (``local_epochs`` over every shard) and writes the resulting
    parameters and gradients back into the client models.

    Instances are reusable across rounds as long as the client models,
    datasets, and RNG objects stay the same (the engines key a cache on
    exactly that).
    """

    def __init__(
        self,
        models: list[Sequential],
        xs: list[np.ndarray],
        ys: list[np.ndarray],
        rngs: list[np.random.Generator],
        *,
        local_epochs: int,
        batch_size: int,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        prox_mu: float = 0.0,
        max_batches: int | None = None,
        use_corrections: bool = False,
    ):
        k = len(models)
        if k < 1 or not (len(xs) == len(ys) == len(rngs) == k):
            raise ValueError("models/xs/ys/rngs must be equal-length, K >= 1")
        if local_epochs < 1 or batch_size < 1 or lr <= 0:
            raise ValueError("invalid training hyperparameters")
        if not 0.0 <= momentum < 1.0 or weight_decay < 0.0 or prox_mu < 0.0:
            raise ValueError("invalid training hyperparameters")
        if max_batches is not None and max_batches < 1:
            raise ValueError("max_batches must be positive or None")

        ref = models[0]
        sigs = tuple(_signature(layer) for layer in ref.layers)
        if any(s is None for s in sigs) or len(ref.output_shape) != 1:
            raise UnsupportedModelError("model contains unbatchable layers")
        for model in models[1:]:
            if (
                tuple(_signature(layer) for layer in model.layers) != sigs
                or model.input_shape != ref.input_shape
                or model.num_params != ref.num_params
            ):
                raise UnsupportedModelError("client models differ")
        num_classes = ref.output_shape[0]
        for x, y in zip(xs, ys):
            if x.dtype != np.float64 or x.shape[1:] != ref.input_shape:
                raise UnsupportedModelError("shard features not float64/shape")
            if (
                x.shape[0] == 0
                or y.shape != (x.shape[0],)
                or not np.issubdtype(y.dtype, np.integer)
                or y.min() < 0
                or y.max() >= num_classes
            ):
                raise UnsupportedModelError("shard labels out of range")

        # Rows sorted by descending shard size (stable) so the active
        # set at any step is a prefix and equal-batch runs contiguous.
        self._order = sorted(range(k), key=lambda i: (-len(ys[i]), i))
        self._models = [models[i] for i in self._order]
        self._xs = [xs[i] for i in self._order]
        self._ys = [ys[i] for i in self._order]
        self._rngs = [rngs[i] for i in self._order]
        self._n = [len(y) for y in self._ys]

        self.k = k
        self.d = ref.num_params
        self.num_classes = num_classes
        self.local_epochs = local_epochs
        self.batch_size = batch_size
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.prox_mu = prox_mu
        self.use_corrections = use_corrections

        bs = batch_size
        self._steps = []
        for n in self._n:
            steps = -(-n // bs)
            if max_batches is not None:
                steps = min(steps, max_batches)
            self._steps.append(steps)
        self.max_steps = self._steps[0]

        self._P = np.empty((k, self.d), dtype=np.float64)
        self._G = np.zeros((k, self.d), dtype=np.float64)
        self._V = (np.zeros((k, self.d), dtype=np.float64)
                   if momentum > 0.0 else None)
        self._SP = (np.empty((k, self.d), dtype=np.float64)
                    if prox_mu > 0.0 else None)
        self._S = (np.empty((k, self.d), dtype=np.float64)
                   if weight_decay > 0.0 else None)
        self._SU = np.empty((k, self.d), dtype=np.float64)
        self._C = (np.empty((k, self.d), dtype=np.float64)
                   if use_corrections else None)

        # Step-level scratch (stacked minibatch, fused loss), pooled by
        # shape exactly like a layer position's.
        self._scratch = LayerStack(())
        self._scratch.training = True
        self._aranges: dict[int, np.ndarray] = {}

        # One K-row stack per layer position; the rows are the clients'
        # live layers, so dropout RNGs and batch-norm running stats
        # advance on the real per-client objects.
        self._layers = list(self._models[0].layers)
        self._stacks: list[LayerStack] = []
        offset = 0
        for li, layer in enumerate(self._layers):
            params, grads = [], []
            for p in layer.parameters():
                params.append(_carve(self._P, offset, p.data.shape))
                grads.append(_carve(self._G, offset, p.data.shape))
                offset += p.size
            st = LayerStack([m.layers[li] for m in self._models], params, grads)
            st.training = True
            self._stacks.append(st)
        if offset != self.d:
            raise UnsupportedModelError("parameter layout mismatch")

    # ------------------------------------------------------------------
    def _arange(self, n: int) -> np.ndarray:
        ar = self._aranges.get(n)
        if ar is None:
            ar = np.arange(n, dtype=np.intp)
            # reprolint: allow[R403] dict memo insert, not an ndarray scatter
            self._aranges[n] = ar
        return ar

    # ------------------------------------------------------------------
    def run(
        self,
        global_params: np.ndarray,
        corrections: list[np.ndarray] | None = None,
    ) -> list[TaskResult]:
        """One fused local-training round; returns per-client results
        in the ORIGINAL (caller) client order."""
        if global_params.shape != (self.d,):
            raise ValueError("global_params has wrong dimension")
        if self.use_corrections:
            if corrections is None or len(corrections) != self.k:
                raise ValueError("corrections required with use_corrections")
            for r in range(self.k):
                self._C[r, :] = corrections[self._order[r]]
        self._P[:, :] = global_params
        if self._V is not None:
            self._V.fill(0.0)

        losses: list[list[float]] = [[] for _ in range(self.k)]
        bs = self.batch_size
        for _ in range(self.local_epochs):
            perms = []
            for r in range(self.k):
                # Same shuffle draw as Dataset.batches: permute an
                # arange on the client's own generator.
                perm = np.arange(self._n[r], dtype=np.intp)
                self._rngs[r].shuffle(perm)
                perms.append(perm)
            for s in range(self.max_steps):
                m_act = 0
                while m_act < self.k and self._steps[m_act] > s:
                    m_act += 1
                a = 0
                while a < m_act:
                    bsz = min(bs, self._n[a] - s * bs)
                    b = a + 1
                    while b < m_act and min(bs, self._n[b] - s * bs) == bsz:
                        b += 1
                    self._train_step(a, b, bsz, s, perms, global_params,
                                     losses)
                    a = b

        results: list[TaskResult] = [TaskResult() for _ in range(self.k)]
        for r in range(self.k):
            self._models[r].set_flat_params(self._P[r])
            self._models[r].set_flat_grads(self._G[r])
            seen = min(self._n[r], self._steps[r] * bs)
            results[self._order[r]] = TaskResult(
                losses=losses[r],
                steps=self.local_epochs * self._steps[r],
                samples_seen=self.local_epochs * seen,
            )
        return results

    # ------------------------------------------------------------------
    def _train_step(self, a, b, bsz, s, perms, global_params, losses):
        m = b - a
        n_total = m * bsz
        bs = self.batch_size
        xb = self._scratch.buf("xb", (n_total,) + self._models[0].input_shape)
        yb = self._scratch.buf("yb", (n_total,), dtype=np.intp)
        for i in range(m):
            r = a + i
            idx = perms[r][s * bs:s * bs + bsz]
            np.take(self._xs[r], idx, axis=0, out=xb[i * bsz:(i + 1) * bsz])
            yb[i * bsz:(i + 1) * bsz] = self._ys[r][idx]

        self._G[a:b].fill(0.0)

        out = xb
        for layer, st in zip(self._layers, self._stacks):
            out = layer._forward(st, out, a, b, bsz)

        # Fused softmax cross-entropy: identical expression chain to
        # SoftmaxCrossEntropy, with per-client loss means.
        mx = self._scratch.buf("mx", (n_total, 1))
        np.max(out, axis=-1, keepdims=True, out=mx)
        shifted = self._scratch.buf("shifted", (n_total, self.num_classes))
        np.subtract(out, mx, out=shifted)
        expb = self._scratch.buf("expb", (n_total, self.num_classes))
        np.exp(shifted, out=expb)
        np.sum(expb, axis=-1, keepdims=True, out=mx)
        np.log(mx, out=mx)
        logp = self._scratch.buf("logp", (n_total, self.num_classes))
        np.subtract(shifted, mx, out=logp)
        ar = self._arange(n_total)
        picked = logp[ar, yb]
        for i in range(m):
            losses[a + i].append(float(-picked[i * bsz:(i + 1) * bsz].mean()))
        gl = self._scratch.buf("gl", (n_total, self.num_classes))
        np.exp(logp, out=gl)
        gl[ar, yb] -= 1.0
        gl /= bsz

        g = gl
        for li in range(len(self._layers) - 1, -1, -1):
            g = self._layers[li]._backward(self._stacks[li], g, a, b, bsz, li > 0)

        # Row-wise optimizer, in the exact serial op order:
        # prox -> scaffold -> weight decay -> momentum -> update.
        if self.prox_mu > 0.0:
            np.subtract(self._P[a:b], global_params[None, :],
                        out=self._SP[a:b])
            self._SP[a:b] *= self.prox_mu
            self._G[a:b] += self._SP[a:b]
        if self.use_corrections:
            self._G[a:b] += self._C[a:b]
        if self.weight_decay > 0.0:
            np.multiply(self._P[a:b], self.weight_decay, out=self._S[a:b])
            self._S[a:b] += self._G[a:b]
            upd = self._S
        else:
            upd = self._G
        if self._V is not None:
            self._V[a:b] *= self.momentum
            self._V[a:b] += upd[a:b]
            upd = self._V
        np.multiply(upd[a:b], self.lr, out=self._SU[a:b])
        self._P[a:b] -= self._SU[a:b]
