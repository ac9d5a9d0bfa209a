"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BANDEDGE_WORKERS",
)


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    for line in packed:
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def _blas(section: dict) -> dict:
    return {
        key: section.get(key)
        for key in ("name", "version", "openblas configuration")
        if key in section
    }


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    from bandedge import pipeline

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(deps.get("blas", {})),
        "lapack": _blas(deps.get("lapack", {})),
        "workers": pipeline.worker_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": git_commit(root),
        "seed": seed,
    }
