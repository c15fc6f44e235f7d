"""im2col / col2im helpers for convolution and pooling layers.

Convolutions in :mod:`repro.nn` are implemented as a single matrix
multiplication over an *im2col* expansion of the input.  On a CPU this
is the standard way to get BLAS-speed convolutions out of numpy, and it
keeps the backward pass a plain transposed matmul plus a *col2im*
scatter.

Both helpers accept an optional :class:`ConvWorkspace`.  The im2col
expansion and the col2im scatter target are the two largest
allocations in the training inner loop; a workspace caches them keyed
on the call geometry, so steady-state training (fixed batch shape)
performs zero large allocations per batch.  Workspace-backed calls
return views into the workspace: the result is only valid until the
next call that reuses the same workspace.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_output_size", "im2col", "col2im", "ConvWorkspace"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution collapses dimension: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


class ConvWorkspace:
    """Reusable im2col/col2im scratch buffers for one call geometry.

    Holds the three big intermediates of an im2col convolution:

    * ``cols``     — (N*out_h*out_w, C*kh*kw) column matrix,
    * ``pad_in``   — zero-padded input copy (forward, padding > 0),
    * ``pad_out``  — col2im scatter target.

    Buffers are (re)allocated whenever the geometry key changes and
    reused verbatim otherwise, so a layer training on a fixed batch
    shape touches the allocator only once.  ``pad_in`` keeps its zero
    border across calls: only the interior is rewritten.
    """

    __slots__ = ("_key", "_cols", "_pad_in", "_pad_out")

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._cols: np.ndarray | None = None
        self._pad_in: np.ndarray | None = None
        self._pad_out: np.ndarray | None = None

    def _prepare(
        self,
        x_shape: tuple[int, int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        dtype: np.dtype,
    ) -> tuple[int, int]:
        """Ensure buffers exist for this geometry; return (out_h, out_w)."""
        n, c, h, w = x_shape
        out_h = conv_output_size(h, kernel_h, stride, padding)
        out_w = conv_output_size(w, kernel_w, stride, padding)
        key = (x_shape, kernel_h, kernel_w, stride, padding, np.dtype(dtype))
        if key != self._key:
            self._key = key
            self._cols = np.empty(
                (n * out_h * out_w, c * kernel_h * kernel_w), dtype=dtype
            )
            padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
            self._pad_in = np.zeros(padded_shape, dtype=dtype) if padding > 0 else None
            self._pad_out = np.empty(padded_shape, dtype=dtype)
        return out_h, out_w


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    workspace: ConvWorkspace | None = None,
) -> np.ndarray:
    """Expand ``x`` of shape (N, C, H, W) into convolution columns.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h *
    kernel_w)`` where each row is one receptive field, laid out so that
    ``cols @ weights.reshape(out_c, -1).T`` computes the convolution.

    Every value is written once, straight into the column matrix.
    Overlapping windows (convolutions) are one ``np.copyto`` from a
    zero-cost strided view of all receptive fields; non-overlapping
    ones (pooling) are ``kernel_h * kernel_w`` strided slice copies,
    which beat the single copy there because its innermost runs are
    only ``kernel_w`` long.  Both move the same values, so the choice
    is made by geometry alone.

    With a ``workspace`` the returned array is the workspace's cached
    column buffer (valid until the next same-workspace call); without
    one, fresh arrays are allocated.
    """
    n, c, h, w = x.shape
    ws = workspace if workspace is not None else ConvWorkspace()
    out_h, out_w = ws._prepare(x.shape, kernel_h, kernel_w, stride, padding, x.dtype)
    if padding > 0:
        # The border was zeroed at allocation and is never written
        # afterwards; only the interior needs refreshing.
        ws._pad_in[:, :, padding:-padding, padding:-padding] = x
        x = ws._pad_in
    cols = ws._cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    if stride >= kernel_h and stride >= kernel_w:
        for i in range(kernel_h):
            i_max = i + stride * out_h
            for j in range(kernel_w):
                j_max = j + stride * out_w
                cols[:, :, :, :, i, j] = (
                    x[:, :, i:i_max:stride, j:j_max:stride].transpose(0, 2, 3, 1)
                )
    else:
        sn, sc, sh, sw = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x, shape=cols.shape,
            strides=(sn, stride * sh, stride * sw, sc, sh, sw),
        )
        np.copyto(cols, windows)
    return ws._cols


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    workspace: ConvWorkspace | None = None,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image.

    Overlapping receptive fields accumulate, which is exactly the
    gradient of the im2col gather — so this implements the backward
    pass of convolution with respect to its input.  The target is
    zero-filled and accumulated in fixed ``(i, j)`` order, so sums
    (and the absorption of signed zeros) do not depend on the batch
    a row belongs to.

    With a ``workspace`` the result is (a view into) the workspace's
    cached scatter buffer, valid until the next same-workspace call.
    """
    n, c, h, w = x_shape
    ws = workspace if workspace is not None else ConvWorkspace()
    out_h, out_w = ws._prepare(x_shape, kernel_h, kernel_w, stride, padding, cols.dtype)
    padded = ws._pad_out
    padded.fill(0.0)
    cols = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
