"""Normalisation layers.

``BatchNorm2d`` follows the standard formulation (Ioffe & Szegedy)
with exact backward-pass gradients and running statistics for
evaluation.  Note for federated use: the learnable affine parameters
(gamma, beta) participate in ``Sequential.get_flat_params`` and are
therefore aggregated like any weight, while the running mean/var are
*local buffers* that stay on each replica — the FedBN convention,
which is also what keeps flat-parameter round-trips architecture-pure.

``GroupNorm`` is the FL-preferred alternative: it normalises per
sample (no cross-batch statistics at all), so nothing desynchronises
between replicas and evaluation behaves identically to training.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer, Parameter

__all__ = ["BatchNorm2d", "GroupNorm"]


class _AffineNorm(Layer):
    """The per-channel affine ``gamma * x_hat + beta`` both
    normalisations end in, with one ``(gamma, beta)`` pair per row."""

    gamma: Parameter
    beta: Parameter
    num_channels: int

    def _affine(self, st, x_hat, layout, a, b, bsz):
        # ``ob`` takes ``layout``'s strides, which a permuted layout
        # cannot fold into a 5-D row view; apply each row's affine on
        # its own slice instead.
        ob = st.like("ob", layout)
        gamma, beta = st.params
        for i in range(b - a):
            rows = slice(i * bsz, (i + 1) * bsz)
            out = ob[rows]
            np.multiply(x_hat[rows], gamma[a + i][None, :, None, None], out=out)
            out += beta[a + i][None, :, None, None]
        return ob

    def _affine_grads(self, st, g, x_hat, a, b, bsz, need_input):
        """Accumulate the gamma/beta gradients; when the input gradient
        is needed, return ``g * gamma`` (the gradient at ``x_hat``)."""
        m = b - a
        n, c, h, w = x_hat.shape
        prod = st.buf("prod", x_hat.shape)
        np.multiply(g, x_hat, out=prod)
        gs = st.buf("gs", (m, c))
        bs = st.buf("bs", (m, c))
        for i in range(m):
            rows = slice(i * bsz, (i + 1) * bsz)
            np.sum(prod[rows], axis=(0, 2, 3), out=gs[i])
            np.sum(g[rows], axis=(0, 2, 3), out=bs[i])
        st.grads[0][a:b] += gs
        st.grads[1][a:b] += bs
        if not need_input:
            return None
        gb = st.buf("gb", x_hat.shape)
        np.multiply(g.reshape(m, bsz, c, h, w), st.params[0][a:b][:, None, :, None, None],
                    out=gb.reshape(m, bsz, c, h, w))
        return gb

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c = input_shape[0]
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        c, h, w = input_shape
        return 4 * c * h * w  # normalise + scale + shift, per element


class BatchNorm2d(_AffineNorm):
    """Batch normalisation over (N, C, H, W) activations."""

    def __init__(self, num_channels: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "bn"):
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.num_channels = num_channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_channels, dtype=np.float64))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_channels, dtype=np.float64))
        # Local buffers (not part of the trainable parameter vector).
        self.running_mean = np.zeros(num_channels, dtype=np.float64)
        self.running_var = np.ones(num_channels, dtype=np.float64)

    def _forward(self, st, x, a, b, bsz):
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_channels}, H, W), got {x.shape}"
            )
        m = b - a
        n, c, h, w = x.shape
        invs = st.buf("invs", (m, c))
        xh = st.buf("xh", (n, c, h, w))
        for i in range(m):
            row = st.rows[a + i]
            xs = x[i * bsz:(i + 1) * bsz]
            if st.training:
                mean = xs.mean(axis=(0, 2, 3))
                var = xs.var(axis=(0, 2, 3))
                # In-place EMA (same evaluation order as the rebinding
                # form → bit-identical); these buffers stay layer-local
                # and must never become views into a flat parameter
                # buffer (the FedBN convention).
                row.running_mean *= 1.0 - self.momentum
                row.running_mean += self.momentum * mean
                row.running_var *= 1.0 - self.momentum
                row.running_var += self.momentum * var
            else:
                mean = row.running_mean
                var = row.running_var
            invs[i, :] = 1.0 / np.sqrt(var + self.eps)
            np.subtract(xs, mean[None, :, None, None],
                        out=xh[i * bsz:(i + 1) * bsz])
        xh5 = xh.reshape(m, bsz, c, h, w)
        xh5 *= invs[:, None, :, None, None]
        if st.training:
            st.cache = (xh, invs)
        # The output keeps the input's layout (permuted after a conv).
        return self._affine(st, xh, x, a, b, bsz)

    def _backward(self, st, g, a, b, bsz, need_input):
        xh, invs = st.take()
        m = b - a
        n, c, h, w = xh.shape
        gb = self._affine_grads(st, g, xh, a, b, bsz, need_input)
        if gb is None:
            return None
        gb5 = gb.reshape(m, bsz, c, h, w)
        sg = st.buf("sg", (m, c))
        sgx = st.buf("sgx", (m, c))
        prod = st.buf("prod", xh.shape)
        np.multiply(gb, xh, out=prod)
        for i in range(m):
            np.sum(gb[i * bsz:(i + 1) * bsz], axis=(0, 2, 3), out=sg[i])
            np.sum(prod[i * bsz:(i + 1) * bsz], axis=(0, 2, 3), out=sgx[i])
        count = bsz * h * w  # elements per channel
        sg /= count
        gi = st.buf("gi", (n, c, h, w))
        gi5 = gi.reshape(m, bsz, c, h, w)
        # ``x_hat * sum_gx / count`` parses left to right: multiply by
        # the undivided sum first, then divide the product.
        np.multiply(xh.reshape(m, bsz, c, h, w), sgx[:, None, :, None, None], out=gi5)
        gi /= count
        np.subtract(gb5, sg[:, None, :, None, None], out=gb5)
        np.subtract(gb5, gi5, out=gi5)
        gi5 *= invs[:, None, :, None, None]
        return gi


class GroupNorm(_AffineNorm):
    """Group normalisation over (N, C, H, W) activations (Wu & He).

    Channels are split into ``num_groups`` groups; each sample's group
    is normalised independently, so there is no batch coupling and no
    train/eval mode distinction — the property that makes GroupNorm the
    normalisation of choice in federated learning.  Being per-sample,
    the statistics run over the whole stacked batch at once; only the
    affine parameters differ by row.
    """

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5,
                 name: str = "gn"):
        if num_groups <= 0 or num_channels <= 0:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels ({num_channels}) must be divisible by "
                f"num_groups ({num_groups})"
            )
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(f"{name}.gamma", np.ones(num_channels, dtype=np.float64))
        self.beta = Parameter(f"{name}.beta", np.zeros(num_channels, dtype=np.float64))

    def _grouped(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        return x.reshape(n, self.num_groups, c // self.num_groups, h, w)

    def _forward(self, st, x, a, b, bsz):
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expected (N, {self.num_channels}, H, W), got {x.shape}"
            )
        grouped = self._grouped(x)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(x.shape)
        if st.training:
            st.cache = (x_hat, inv_std)
        return self._affine(st, x_hat, x_hat, a, b, bsz)

    def _backward(self, st, g, a, b, bsz, need_input):
        x_hat, inv_std = st.take()
        gb = self._affine_grads(st, g, x_hat, a, b, bsz, need_input)
        if gb is None:
            return None
        n, c, h, w = x_hat.shape
        count = (c // self.num_groups) * h * w  # elements per group
        g_grouped = self._grouped(gb)
        x_hat_grouped = self._grouped(x_hat)
        sum_g = g_grouped.sum(axis=(2, 3, 4), keepdims=True)
        sum_gx = (g_grouped * x_hat_grouped).sum(axis=(2, 3, 4), keepdims=True)
        grad_grouped = inv_std * (
            g_grouped - sum_g / count - x_hat_grouped * sum_gx / count
        )
        return grad_grouped.reshape(x_hat.shape)
