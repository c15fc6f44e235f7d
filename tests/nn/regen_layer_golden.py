"""Regenerate the committed per-layer golden oracle.

Usage::

    PYTHONPATH=src python -m tests.nn.regen_layer_golden

Reruns every case of ``test_layer_golden.py``
(:data:`~tests.nn.test_layer_golden.CASES`) and overwrites
``data/layer_golden.npz``.  Only do this after an *intentional* change
of layer numerics — the file is the oracle a refactor of ``repro.nn``
is checked against, not a cache.
"""

import numpy as np

from tests.nn.test_layer_golden import CASES, GOLDEN_PATH, run_case


def main() -> None:
    arrays = {}
    for name in CASES:
        for key, value in run_case(name).items():
            arrays[f"{name}/{key}"] = value
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, **arrays)
    print(f"wrote {len(arrays)} arrays for {len(CASES)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
