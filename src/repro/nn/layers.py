"""Layers with explicit forward/backward passes.

The package deliberately avoids a tape-based autograd: every layer
caches what it needs during ``forward`` and consumes it in
``backward``.  That keeps the memory profile predictable (important for
the embedded-device cost model in :mod:`repro.embedded`) and makes the
FLOP accounting per layer exact.

All layers share the :class:`Layer` interface:

``forward(x, training=False)``
    Run the layer, caching intermediates when ``training`` is true.
``backward(grad_out)``
    Given the loss gradient w.r.t. the layer output, accumulate
    parameter gradients into ``Parameter.grad`` and return the gradient
    w.r.t. the layer input.
``parameters()``
    The layer's trainable :class:`Parameter` objects, in a stable
    order.

Each layer type implements its arithmetic once, over a leading client
axis (:class:`LayerStack`): ``forward``/``backward`` run it as a
one-row stack, and :class:`repro.nn.batched.MultiClientTrainer` runs
the same code over K clients at once.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.nn import initializers
from repro.nn.conv_utils import ConvWorkspace, col2im, conv_output_size, im2col

__all__ = [
    "Parameter",
    "LayerStack",
    "Layer",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "Tanh",
    "Dropout",
    "Flatten",
    "ResidualBlock",
]


class Parameter:
    """A trainable tensor with an accompanying gradient buffer."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @classmethod
    def from_views(cls, name: str, data: np.ndarray, grad: np.ndarray) -> "Parameter":
        """Wrap existing arrays without copying or reallocating the grad.

        Used by :class:`repro.nn.sequential.Sequential` to expose its
        backing buffers as a single flat parameter.
        """
        if data.shape != grad.shape:
            raise ValueError("data and grad shapes must match")
        obj = cls.__new__(cls)
        obj.name = name
        obj.data = data
        obj.grad = grad
        return obj

    @property
    def size(self) -> int:
        """Number of scalar elements in the parameter."""
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the gradient buffer in place."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class LayerStack:
    """One layer position over a leading client axis.

    Every layer's arithmetic exists once, written against this object:
    ``rows`` are the live layer instances of K models (dropout RNGs and
    batch-norm running statistics are read and advanced on the row
    that owns them), ``params``/``grads`` are ``(K, ...)`` stacks of
    each :class:`Parameter` in :meth:`Layer.parameters` order, and one
    call covers the contiguous rows ``[a, b)`` with ``bsz`` samples per
    row stacked as ``((b - a) * bsz, ...)``.  A layer called on its own
    is the one-row case (:meth:`Layer.forward`); the fused trainer in
    :mod:`repro.nn.batched` builds K-row stacks over its parameter
    matrix.

    The stack also keeps what a training forward leaves for backward
    (``cache``) and the position's scratch.  Training buffers are
    pooled by shape, so steady-state training allocates nothing;
    evaluation allocates fresh arrays, so an eval pass neither pins
    its activations nor touches state a pending backward reads.  The
    im2col workspace is likewise kept per mode.
    """

    __slots__ = ("rows", "params", "grads", "training", "cache", "_pool", "_ws")

    def __init__(
        self,
        rows: Sequence[Layer],
        params: Sequence[np.ndarray] = (),
        grads: Sequence[np.ndarray] = (),
    ) -> None:
        self.rows = rows
        self.params = params
        self.grads = grads
        self.training = False
        self.cache = None
        self._pool: dict[tuple, np.ndarray] = {}
        self._ws = (ConvWorkspace(), ConvWorkspace())

    def buf(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Scratch array: pooled per ``(tag, shape)`` in training, fresh in eval."""
        if not self.training:
            return np.empty(shape, dtype=dtype)
        key = (tag, shape, dtype)
        buf = self._pool.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            # reprolint: allow[R403] dict memo insert, not an ndarray scatter
            self._pool[key] = buf
        return buf

    def like(self, tag: str, proto: np.ndarray) -> np.ndarray:
        """Scratch with the layout numpy's order-``K`` ufunc allocation
        gives over ``proto``: packed, keeping ``proto``'s stride order.
        Conv outputs are ``(N, oh, ow, oc)`` buffers viewed through
        ``transpose(0, 3, 1, 2)``; unary ops keep that layout, and
        downstream reductions (pooling means, normalisation
        statistics) sum in stride order, so the layout fixes the
        summation order."""
        if proto.flags.c_contiguous:
            return self.buf(tag, proto.shape)
        perm = sorted(range(proto.ndim), key=lambda axis: (-proto.strides[axis], axis))
        base = self.buf(tag, tuple(proto.shape[axis] for axis in perm))
        return base.transpose(np.argsort(perm))

    def workspace(self) -> ConvWorkspace:
        """The im2col workspace of the current mode."""
        return self._ws[self.training]

    def take(self) -> Any:
        """The training forward's cache, consumed by backward."""
        cache = self.cache
        if cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        self.cache = None
        return cache


class Layer:
    """Base class for all layers.

    Subclasses implement ``_forward(st, x, a, b, bsz)`` and
    ``_backward(st, g, a, b, bsz, need_input)`` over a
    :class:`LayerStack`; ``forward``/``backward`` run them on the
    layer's own parameters as a one-row stack.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        st = self._one_row()
        st.training = training
        return self._forward(st, x, 0, 1, x.shape[0])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """The input gradient; parameter gradients accumulate into
        ``Parameter.grad``.  The result may be layer scratch, valid
        until the layer's next call."""
        st = self._one_row()
        st.training = True
        return self._backward(st, grad_out, 0, 1, grad_out.shape[0], True)

    def _one_row(self) -> LayerStack:
        st = getattr(self, "_stack", None)
        if st is None:
            st = self._stack = LayerStack((self,))
        # Zero-copy (1, ...) views, taken per call because Sequential
        # rebinds ``Parameter.data`` onto its flat buffer.
        params = self.parameters()
        st.params = [p.data[None] for p in params]
        st.grads = [p.grad[None] for p in params]
        return st

    def _forward(self, st: LayerStack, x: np.ndarray, a: int, b: int,
                 bsz: int) -> np.ndarray:
        raise NotImplementedError

    def _backward(self, st: LayerStack, g: np.ndarray, a: int, b: int,
                  bsz: int, need_input: bool) -> np.ndarray | None:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters in a stable order (default: none)."""
        return []

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (excluding batch) this layer produces for ``input_shape``."""
        raise NotImplementedError

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Approximate multiply-accumulate count for one forward sample.

        The embedded-device cost model multiplies this by a
        backward-pass factor; layers without arithmetic return 0.
        """
        del input_shape
        return 0


class Linear(Layer):
    """Fully connected layer: ``y = x @ W.T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        name: str = "linear",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            f"{name}.weight",
            initializers.kaiming_uniform((out_features, in_features), rng),
        )
        self.bias = Parameter(f"{name}.bias", initializers.zeros((out_features,))) if bias else None

    def _forward(self, st, x, a, b, bsz):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        m = b - a
        x3 = x.reshape(m, bsz, self.in_features)
        o3 = st.buf("o3", (m, bsz, self.out_features))
        np.matmul(x3, st.params[0][a:b].transpose(0, 2, 1), out=o3)
        if self.bias is not None:
            o3 += st.params[1][a:b][:, None, :]
        if st.training:
            st.cache = x3
        return o3.reshape(m * bsz, self.out_features)

    def _backward(self, st, g, a, b, bsz, need_input):
        x3 = st.take()
        m = b - a
        g3 = g.reshape(m, bsz, self.out_features)
        wg = st.buf("wg", (m, self.out_features, self.in_features))
        np.matmul(g3.transpose(0, 2, 1), x3, out=wg)
        st.grads[0][a:b] += wg
        if self.bias is not None:
            bg = st.buf("bg", (m, self.out_features))
            # One stacked reduce: per output element it sums the same
            # ``bsz`` addends in the same order as a per-row
            # ``np.sum(g3[i], axis=0)``, so rows are independent.
            np.add.reduce(g3, axis=1, out=bg)
            st.grads[1][a:b] += bg
        if not need_input:
            return None
        gi = st.buf("gi", (m, bsz, self.in_features))
        np.matmul(g3, st.params[0][a:b], out=gi)
        return gi.reshape(m * bsz, self.in_features)

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.in_features,):
            raise ValueError(
                f"Linear expected input shape ({self.in_features},), got {input_shape}"
            )
        return (self.out_features,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return self.in_features * self.out_features


class Conv2d(Layer):
    """2-D convolution over (N, C, H, W) inputs via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "conv",
    ):
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(f"{name}.weight", initializers.kaiming_uniform(shape, rng))
        self.bias = Parameter(f"{name}.bias", initializers.zeros((out_channels,))) if bias else None

    def _forward(self, st, x, a, b, bsz):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        m = b - a
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        # Training and evaluation use separate workspaces, so an
        # interleaved eval pass cannot overwrite the cached columns.
        cols3 = im2col(x, k, k, s, p, st.workspace()).reshape(m, bsz * out_h * out_w, -1)
        o3 = st.buf("o3", (m, bsz * out_h * out_w, self.out_channels))
        w3 = st.params[0][a:b].reshape(m, self.out_channels, -1)
        np.matmul(cols3, w3.transpose(0, 2, 1), out=o3)
        if self.bias is not None:
            o3 += st.params[1][a:b][:, None, :]
        if st.training:
            st.cache = (cols3, x.shape)
        return o3.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)

    def _backward(self, st, g, a, b, bsz, need_input):
        cols3, x_shape = st.take()
        m = b - a
        k = self.kernel_size
        gm3 = g.transpose(0, 2, 3, 1).reshape(m, -1, self.out_channels)
        wg = st.buf("wg", (m, self.out_channels, cols3.shape[2]))
        np.matmul(gm3.transpose(0, 2, 1), cols3, out=wg)
        st.grads[0][a:b] += wg.reshape(m, self.out_channels, self.in_channels, k, k)
        if self.bias is not None:
            bg = st.buf("bg", (m, self.out_channels))
            # Stacked reduce, same per-element addend order as a
            # per-row sum (see Linear._backward).
            np.add.reduce(gm3, axis=1, out=bg)
            st.grads[1][a:b] += bg
        if not need_input:
            return None
        gc = st.buf("gc", cols3.shape)
        np.matmul(gm3, st.params[0][a:b].reshape(m, self.out_channels, -1), out=gc)
        return col2im(
            gc.reshape(-1, cols3.shape[2]), x_shape, k, k, self.stride,
            self.padding, st.workspace(),
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = self.in_channels * self.kernel_size * self.kernel_size
        return per_output * self.out_channels * out_h * out_w


class _Pool2d(Layer):
    """Square-window pooling; channels become extra batch entries so
    im2col windows stay single-channel."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def _windows(self, st, x):
        """``(N*C*out_h*out_w, k*k)`` windows and the output shape."""
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_shape = (n, c, conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0))
        return im2col(x.reshape(n * c, 1, h, w), k, k, s, 0, st.workspace()), out_shape

    def _scatter(self, st, gcols, x_shape):
        n, c, h, w = x_shape
        k = self.kernel_size
        grad_in = col2im(gcols, (n * c, 1, h, w), k, k, self.stride, 0, st.workspace())
        return grad_in.reshape(x_shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, 0)
        out_w = conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, out_h, out_w)


class MaxPool2d(_Pool2d):
    """Max pooling with a square window; window must tile exactly or floor."""

    def _forward(self, st, x, a, b, bsz):
        cols, out_shape = self._windows(st, x)
        ob = st.buf("ob", (cols.shape[0],))
        np.max(cols, axis=1, out=ob)
        if st.training:
            # The first maximal element per window takes the gradient,
            # so ties route it exactly once.
            first = st.buf("first", (cols.shape[0],), dtype=np.intp)
            np.argmax(cols, axis=1, out=first)
            st.cache = (first, x.shape)
        return ob.reshape(out_shape)

    def _backward(self, st, g, a, b, bsz, need_input):
        first, x_shape = st.take()
        if not need_input:
            return None
        window = self.kernel_size * self.kernel_size
        gcols = st.buf("gcols", (first.shape[0], window))
        gcols.fill(0.0)
        # reprolint: allow[R403] first-max scatter: one write per pooling window
        gcols[np.arange(first.shape[0], dtype=np.intp), first] = g.reshape(-1)
        return self._scatter(st, gcols, x_shape)


class AvgPool2d(_Pool2d):
    """Average pooling with a square window."""

    def _forward(self, st, x, a, b, bsz):
        cols, out_shape = self._windows(st, x)
        ob = st.buf("ob", (cols.shape[0],))
        np.mean(cols, axis=1, out=ob)
        if st.training:
            st.cache = x.shape
        return ob.reshape(out_shape)

    def _backward(self, st, g, a, b, bsz, need_input):
        x_shape = st.take()
        if not need_input:
            return None
        window = self.kernel_size * self.kernel_size
        gd = st.buf("gd", (g.size, 1))
        np.divide(g.reshape(-1, 1), window, out=gd)
        gcols = st.buf("gcols", (g.size, window))
        gcols[:, :] = gd
        return self._scatter(st, gcols, x_shape)


class GlobalAvgPool2d(Layer):
    """Average over the entire spatial extent, yielding (N, C)."""

    def _forward(self, st, x, a, b, bsz):
        ob = st.buf("ob", x.shape[:2])
        np.mean(x, axis=(2, 3), out=ob)
        if st.training:
            st.cache = x.shape
        return ob

    def _backward(self, st, g, a, b, bsz, need_input):
        n, c, h, w = st.take()
        if not need_input:
            return None
        sm = st.buf("sm", (n, c))
        np.divide(g, h * w, out=sm)
        gi = st.buf("gi", (n, c, h, w))
        gi[:, :, :, :] = sm[:, :, None, None]
        return gi

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, _, _ = input_shape
        return (c,)


class ReLU(Layer):
    """Rectified linear unit."""

    def _forward(self, st, x, a, b, bsz):
        if st.training:
            mask = st.buf("mask", x.shape, dtype=np.bool_)
            np.greater(x, 0, out=mask)
            st.cache = mask
        ob = st.like("ob", x)
        np.maximum(x, 0.0, out=ob)
        return ob

    def _backward(self, st, g, a, b, bsz, need_input):
        mask = st.take()
        if not need_input:
            return None
        gi = st.buf("gi", g.shape)
        np.multiply(g, mask, out=gi)
        return gi

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def _forward(self, st, x, a, b, bsz):
        ob = st.like("ob", x)
        np.tanh(x, out=ob)
        if st.training:
            st.cache = ob
        return ob

    def _backward(self, st, g, a, b, bsz, need_input):
        out = st.take()
        if not need_input:
            return None
        sq = st.buf("sq", g.shape)
        np.power(out, 2, out=sq)
        np.subtract(1.0, sq, out=sq)
        gi = st.buf("gi", g.shape)
        np.multiply(g, sq, out=gi)
        return gi

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time.

    The layer owns its RNG so that two clones of a model seeded
    identically draw identical masks — required for deterministic
    federated runs.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng

    def _forward(self, st, x, a, b, bsz):
        if not st.training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        mask = st.buf("mask", x.shape)
        for i in range(b - a):
            # Each row's mask comes off its own layer RNG, one draw
            # per step.
            mask[i * bsz:(i + 1) * bsz] = (
                st.rows[a + i]._rng.random((bsz,) + x.shape[1:]) < keep
            ) / keep
        ob = st.buf("ob", x.shape)
        np.multiply(x, mask, out=ob)
        st.cache = mask
        return ob

    def _backward(self, st, g, a, b, bsz, need_input):
        mask = st.cache
        st.cache = None
        if not need_input:
            return None
        if mask is None:  # rate 0: the forward was the identity
            return g
        gi = st.buf("gi", g.shape)
        np.multiply(g, mask, out=gi)
        return gi

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Flatten(Layer):
    """Reshape (N, ...) to (N, -1)."""

    def _forward(self, st, x, a, b, bsz):
        if st.training:
            st.cache = x.shape
        return x.reshape(x.shape[0], -1)

    def _backward(self, st, g, a, b, bsz, need_input):
        shape = st.take()
        return g.reshape(shape) if need_input else None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class ResidualBlock(Layer):
    """Two 3x3 same-padding convolutions with an identity skip.

    This is the building block of :func:`repro.nn.models.build_resnet_mini`,
    the depth-reduced stand-in for the paper's ResNet-50.
    """

    def __init__(self, channels: int, rng: np.random.Generator, name: str = "res"):
        self.conv1 = Conv2d(channels, channels, 3, rng, padding=1, name=f"{name}.conv1")
        self.relu1 = ReLU()
        self.conv2 = Conv2d(channels, channels, 3, rng, padding=1, name=f"{name}.conv2")
        self.relu2 = ReLU()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self.conv1.forward(x, training)
        out = self.relu1.forward(out, training)
        out = self.conv2.forward(out, training)
        return self.relu2.forward(out + x, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_out)
        grad_branch = self.conv2.backward(grad)
        grad_branch = self.relu1.backward(grad_branch)
        grad_branch = self.conv1.backward(grad_branch)
        return grad_branch + grad

    def parameters(self) -> list[Parameter]:
        return self.conv1.parameters() + self.conv2.parameters()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        mid = self.conv1.output_shape(input_shape)
        return self.conv1.flops(input_shape) + self.conv2.flops(mid)
