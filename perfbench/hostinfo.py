"""Host fingerprint and a fixed calibration kernel.

Every benchmark result carries these so that a change of host (core
count, CPU, numpy/BLAS build, BLAS thread settings) can be told apart
from a change of code.  The BLAS thread variables are only *read*: the
benchmark measures the program as shipped, oversubscription included.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Calibration: a fixed float64 matmul plus an elementwise pass, timed as
# the median of many repeats (BLAS threads included, as in the program).
_CALIB_N = 192
_CALIB_REPEATS = 40


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository
    (git is kept from searching the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources: identifies the code version
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def calibration_ms() -> float:
    """Median wall time of the fixed numpy kernel, in milliseconds."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((_CALIB_N, _CALIB_N))
    b = rng.standard_normal((_CALIB_N, _CALIB_N))
    samples = []
    for _ in range(_CALIB_REPEATS):
        t0 = time.perf_counter()
        c = a @ b
        np.maximum(c, 0.0, out=c)
        c.sum()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def fingerprint(root: Path) -> dict:
    """Everything about the host and checkout a result depends on."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src" / "repro"),
        "calibration_ms": calibration_ms(),
    }
