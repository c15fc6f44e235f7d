"""Golden per-layer oracle: every layer's numbers, pinned bit for bit.

``data/layer_golden.npz`` holds, for each case below, what the layer
produced when the file was generated: eval forward outputs before and
after training, two training steps' forward outputs and input
gradients (the second on a smaller, partial batch), the parameter
gradients those two steps accumulated, batch-norm running statistics,
and the dropout RNG state (as its next draws).

The model builders and the pinned federated trajectories never touch
BatchNorm, GroupNorm, AvgPool, global average pooling, Tanh or
Dropout, so for those layers this file is the only behavioural
oracle.  It is evidence, not a cache: regenerate it
(``python -m tests.nn.regen_layer_golden``) only for an intentional
change of layer numerics, never to make a refactor pass.

Inputs come in two memory layouts: C-contiguous, and the permuted
``(N, H, W, C).transpose(0, 3, 1, 2)`` layout a convolution emits.
Reductions sum in stride order, so the layout is part of the
contract.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ResidualBlock,
    Tanh,
)
from repro.nn.models import build_mnist_cnn, build_resnet_mini, build_vgg_mini
from repro.nn.normalization import BatchNorm2d, GroupNorm

GOLDEN_PATH = Path(__file__).parent / "data" / "layer_golden.npz"

# Full batch, then a partial last batch.
N_FULL, N_PART, N_EVAL = 5, 3, 3


def _init() -> np.random.Generator:
    return np.random.default_rng(1234)


def _image(rng, n, shape, permuted):
    c, h, w = shape
    if permuted:
        return rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    return rng.normal(size=(n, c, h, w))


def _ties(rng, n, shape, permuted):
    # Small integers: pooling windows with several equal maxima.
    return np.round(_image(rng, n, shape, permuted))


# name -> (layer factory, per-sample input shape, input layout, input fn)
LAYER_CASES = {
    "linear": (lambda: Linear(12, 5, _init()), (12,), False, None),
    "linear_nobias": (lambda: Linear(12, 5, _init(), bias=False), (12,), False, None),
    "conv_k3_pad1": (lambda: Conv2d(3, 4, 3, _init(), padding=1), (3, 6, 6), False, None),
    "conv_k5_s2_pad2": (
        lambda: Conv2d(2, 3, 5, _init(), stride=2, padding=2), (2, 9, 9), False, None,
    ),
    "conv_nobias_permuted": (
        lambda: Conv2d(4, 2, 3, _init(), bias=False), (4, 6, 6), True, None,
    ),
    "maxpool2_permuted": (lambda: MaxPool2d(2), (3, 6, 6), True, None),
    "maxpool2_ties": (lambda: MaxPool2d(2), (2, 6, 6), False, _ties),
    "maxpool3_s2_overlap": (lambda: MaxPool2d(3, stride=2), (2, 7, 7), False, _ties),
    "avgpool2_permuted": (lambda: AvgPool2d(2), (3, 6, 6), True, None),
    "avgpool3_s2_overlap": (lambda: AvgPool2d(3, stride=2), (2, 7, 7), False, None),
    "gap": (lambda: GlobalAvgPool2d(), (3, 5, 5), False, None),
    "gap_permuted": (lambda: GlobalAvgPool2d(), (3, 5, 5), True, None),
    "relu_2d": (lambda: ReLU(), (7,), False, None),
    "relu_permuted": (lambda: ReLU(), (3, 4, 4), True, None),
    "tanh_permuted": (lambda: Tanh(), (3, 4, 4), True, None),
    "dropout_permuted": (
        lambda: Dropout(0.3, np.random.default_rng(17)), (3, 4, 4), True, None,
    ),
    "dropout_2d": (lambda: Dropout(0.5, np.random.default_rng(5)), (9,), False, None),
    "dropout_rate0": (lambda: Dropout(0.0, np.random.default_rng(5)), (9,), False, None),
    "flatten_permuted": (lambda: Flatten(), (3, 4, 4), True, None),
    "bn": (lambda: BatchNorm2d(4), (4, 5, 5), False, None),
    "bn_permuted": (lambda: BatchNorm2d(4, momentum=0.2), (4, 5, 5), True, None),
    "gn": (lambda: GroupNorm(2, 4), (4, 5, 5), False, None),
    "gn_permuted": (lambda: GroupNorm(2, 4), (4, 5, 5), True, None),
    "residual_block": (lambda: ResidualBlock(3, _init()), (3, 5, 5), True, None),
}

# name -> (model factory, per-sample input shape)
MODEL_CASES = {
    "resnet_mini": (
        lambda: build_resnet_mini((3, 8, 8), num_classes=4, width=4, seed=3), (3, 8, 8),
    ),
    "resnet_mini_gap": (
        lambda: build_resnet_mini((3, 8, 8), num_classes=4, width=4, seed=3, head="gap"),
        (3, 8, 8),
    ),
    "mnist_cnn": (
        lambda: build_mnist_cnn((1, 8, 8), num_classes=4, channels=(3, 4), hidden=8, seed=5),
        (1, 8, 8),
    ),
    "vgg_mini": (
        lambda: build_vgg_mini((3, 8, 8), num_classes=4, widths=(4, 6), hidden=8, seed=6),
        (3, 8, 8),
    ),
}

CASES = sorted(LAYER_CASES) + sorted(MODEL_CASES)


def _inputs(rng, n, shape, permuted, make):
    if make is not None:
        return make(rng, n, shape, permuted)
    if len(shape) == 3:
        return _image(rng, n, shape, permuted)
    return rng.normal(size=(n,) + shape)


def _drive(fwd, bwd, make_x) -> dict[str, np.ndarray]:
    """Eval, two training steps (full then partial batch), eval again."""
    rng = np.random.default_rng(99)
    x_eval = make_x(rng, N_EVAL)
    got = {"eval_before": fwd(x_eval, False).copy()}
    for step, n in (("step1", N_FULL), ("step2", N_PART)):
        x = make_x(rng, n)
        out = fwd(x, True).copy()
        grad_out = rng.normal(size=out.shape)
        got[f"{step}_out"] = out
        got[f"{step}_grad_in"] = bwd(grad_out).copy()
    got["eval_after"] = fwd(x_eval, False).copy()
    return got


def _state(layer, got: dict[str, np.ndarray], prefix: str = "") -> None:
    for p in layer.parameters():
        got[f"{prefix}grad.{p.name}"] = p.grad.copy()
    if hasattr(layer, "running_mean"):
        got[f"{prefix}running_mean"] = layer.running_mean.copy()
        got[f"{prefix}running_var"] = layer.running_var.copy()
    if hasattr(layer, "_rng"):
        got[f"{prefix}rng_next"] = layer._rng.random(4)


def run_case(name: str) -> dict[str, np.ndarray]:
    """Every pinned array of one case, computed by the current code."""
    if name in LAYER_CASES:
        factory, shape, permuted, make = LAYER_CASES[name]
        layer = factory()
        got = _drive(
            layer.forward, layer.backward,
            lambda rng, n: _inputs(rng, n, shape, permuted, make),
        )
        _state(layer, got)
        return got
    factory, shape = MODEL_CASES[name]
    model = factory()
    got = _drive(
        model.forward, model.backward,
        lambda rng, n: _inputs(rng, n, shape, False, None),
    )
    got["flat_grads"] = model.get_flat_grads().copy()
    for i, layer in enumerate(model.layers):
        _state(layer, got, prefix=f"layer{i}.")
    return got


def load_golden() -> dict[str, np.ndarray]:
    with np.load(GOLDEN_PATH) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def golden() -> dict[str, np.ndarray]:
    return load_golden()


@pytest.mark.parametrize("name", CASES)
def test_layer_matches_golden(name: str, golden) -> None:
    got = run_case(name)
    expected = {
        key.split("/", 1)[1]: value
        for key, value in golden.items()
        if key.split("/", 1)[0] == name
    }
    assert sorted(got) == sorted(expected), name
    for key, value in expected.items():
        assert got[key].shape == value.shape, (name, key)
        assert np.array_equal(got[key], value), (name, key)


def test_golden_covers_every_case(golden) -> None:
    assert {key.split("/", 1)[0] for key in golden} == set(CASES)
