"""Tests for im2col / col2im."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.conv_utils import ConvWorkspace, col2im, conv_output_size, im2col
from repro.nn.layers import AvgPool2d, Conv2d, Dropout, Linear, MaxPool2d
from repro.nn.normalization import BatchNorm2d, GroupNorm

# Layers whose training forward caches state for backward:
# name -> (factory, training/eval input shape).
CACHING_LAYERS = {
    "Conv2d": (lambda: Conv2d(2, 3, 3, np.random.default_rng(1), padding=1), (2, 2, 5, 5)),
    "MaxPool2d": (lambda: MaxPool2d(2), (2, 2, 6, 6)),
    "AvgPool2d": (lambda: AvgPool2d(2), (2, 2, 6, 6)),
    "BatchNorm2d": (lambda: BatchNorm2d(2), (2, 2, 5, 5)),
    "GroupNorm": (lambda: GroupNorm(2, 2), (2, 2, 5, 5)),
    "Dropout": (lambda: Dropout(0.5, np.random.default_rng(3)), (2, 2, 5, 5)),
    "Linear": (lambda: Linear(6, 3, np.random.default_rng(1)), (4, 6)),
}


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(28, 5, 1, 0) == 24

    def test_with_padding(self):
        assert conv_output_size(14, 5, 1, 2) == 14  # same padding

    def test_with_stride(self):
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_collapse_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_identity_kernel_1x1(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        cols = im2col(x, 1, 1)
        assert cols.shape == (2 * 16, 3)
        np.testing.assert_allclose(
            cols.reshape(2, 4, 4, 3).transpose(0, 3, 1, 2), x
        )

    def test_shape_full_kernel(self, rng):
        x = rng.normal(size=(1, 2, 3, 3))
        cols = im2col(x, 3, 3)
        assert cols.shape == (1, 2 * 9)
        np.testing.assert_allclose(cols.ravel(), x.ravel())

    def test_known_window_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2)
        # First window is the top-left 2x2 patch.
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        # Last window is the bottom-right 2x2 patch.
        np.testing.assert_allclose(cols[-1], [10, 11, 14, 15])

    def test_stride_skips_windows(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2, stride=2)
        assert cols.shape == (4, 4)
        np.testing.assert_allclose(cols[1], [2, 3, 6, 7])

    def test_padding_zeros_border(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, 3, 3, padding=1)
        # Central window sees all four ones.
        assert cols.sum() == 4 * 4  # each input pixel appears in 4 windows


class TestCol2Im:
    def test_adjointness(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(2, 3, 5, 5))
        cols = im2col(x, 3, 3, stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        back = col2im(y, x.shape, 3, 3, stride=1, padding=1)
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-9

    def test_roundtrip_counts_overlaps(self):
        x = np.ones((1, 1, 3, 3))
        cols = im2col(x, 2, 2)
        back = col2im(cols, x.shape, 2, 2)
        # Corner pixels belong to 1 window, edges to 2, center to 4.
        expected = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float)
        np.testing.assert_allclose(back[0, 0], expected)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        size=st.integers(3, 8),
        kernel=st.integers(1, 3),
        padding=st.integers(0, 2),
    )
    def test_adjointness_property(self, n, c, size, kernel, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, c, size, size))
        cols = im2col(x, kernel, kernel, 1, padding)
        y = rng.normal(size=cols.shape)
        back = col2im(y, x.shape, kernel, kernel, 1, padding)
        assert abs(np.sum(cols * y) - np.sum(x * back)) < 1e-8


class TestConvWorkspace:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_im2col_matches_allocating_path(self, rng, padding):
        ws = ConvWorkspace()
        x = rng.normal(size=(2, 3, 6, 6))
        np.testing.assert_array_equal(
            im2col(x, 3, 3, 1, padding, ws), im2col(x, 3, 3, 1, padding)
        )

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_col2im_matches_allocating_path(self, rng, padding):
        ws = ConvWorkspace()
        x_shape = (2, 3, 6, 6)
        cols_shape = im2col(np.zeros(x_shape), 3, 3, 1, padding).shape
        y = rng.normal(size=cols_shape)
        np.testing.assert_array_equal(
            col2im(y, x_shape, 3, 3, 1, padding, ws),
            col2im(y, x_shape, 3, 3, 1, padding),
        )

    def test_buffers_reused_across_same_shape_calls(self, rng):
        ws = ConvWorkspace()
        x = rng.normal(size=(2, 3, 6, 6))
        first = im2col(x, 3, 3, 1, 1, ws)
        second = im2col(rng.normal(size=x.shape), 3, 3, 1, 1, ws)
        assert first is second  # steady state: zero new allocations

    def test_shape_change_reallocates_and_stays_correct(self, rng):
        ws = ConvWorkspace()
        a = rng.normal(size=(2, 3, 6, 6))
        b = rng.normal(size=(4, 3, 8, 8))
        im2col(a, 3, 3, 1, 1, ws)
        np.testing.assert_array_equal(im2col(b, 3, 3, 1, 1, ws), im2col(b, 3, 3, 1, 1))
        # Back to the first geometry: correct after the realloc churn.
        np.testing.assert_array_equal(im2col(a, 3, 3, 1, 1, ws), im2col(a, 3, 3, 1, 1))

    def test_pad_border_stays_zero_across_reuse(self, rng):
        # The padded-input border is zeroed only at allocation; reuse
        # must not leak previous batches into the border.
        ws = ConvWorkspace()
        for _ in range(3):
            x = rng.normal(size=(1, 2, 4, 4))
            np.testing.assert_array_equal(
                im2col(x, 3, 3, 1, 2, ws), im2col(x, 3, 3, 1, 2)
            )

    def test_workspace_steady_state_in_training_loop(self, rng):
        """Conv2d forward/backward with workspaces == fresh-allocation math."""
        conv_ws = Conv2d(3, 4, 3, np.random.default_rng(0), padding=1)
        conv_ref = Conv2d(3, 4, 3, np.random.default_rng(0), padding=1)
        for step in range(3):
            x = rng.normal(size=(2, 3, 6, 6))
            grad_out = rng.normal(size=(2, 4, 6, 6))
            out = conv_ws.forward(x, training=True)
            grad_in = conv_ws.backward(grad_out)

            cols = im2col(x, 3, 3, 1, 1)
            w_mat = conv_ref.weight.data.reshape(4, -1)
            ref_out = (cols @ w_mat.T + conv_ref.bias.data).reshape(
                2, 6, 6, 4
            ).transpose(0, 3, 1, 2)
            np.testing.assert_array_equal(out, ref_out)

            grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, 4)
            ref_grad_in = col2im(grad_mat @ w_mat, x.shape, 3, 3, 1, 1)
            np.testing.assert_array_equal(grad_in, ref_grad_in)
            conv_ref.weight.grad += (grad_mat.T @ cols).reshape(
                conv_ref.weight.data.shape
            )
            np.testing.assert_array_equal(conv_ws.weight.grad, conv_ref.weight.grad)

    @pytest.mark.parametrize("name", sorted(CACHING_LAYERS))
    def test_eval_forward_between_train_forward_and_backward(self, rng, name):
        # An evaluation pass (same shape) must not clobber anything a
        # pending backward reads: cached columns, masks, activations,
        # normalisation statistics.  Evaluation therefore gets its own
        # workspace and fresh scratch, and never writes the cache.
        make, shape = CACHING_LAYERS[name]
        x_train = rng.normal(size=shape)
        x_eval = rng.normal(size=shape)

        def train_step(layer, interleave):
            grad_out = np.random.default_rng(2).normal(
                size=layer.forward(x_train, training=True).shape
            )
            if interleave:
                layer.forward(x_eval, training=False)
            return layer.backward(grad_out).copy()

        ref, got = make(), make()
        expected = train_step(ref, interleave=False)
        np.testing.assert_array_equal(train_step(got, interleave=True), expected)
        for p_ref, p_got in zip(ref.parameters(), got.parameters()):
            np.testing.assert_array_equal(p_got.grad, p_ref.grad)
