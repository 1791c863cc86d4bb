"""Environment record attached to every benchmark report."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout at root, read from .git without running
    git; "unknown" when root is not a checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(root: Path, seed: int, blas_threads: str) -> dict:
    """blas_threads is the OPENBLAS_NUM_THREADS the workload processes get."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": blas_threads,
        "seed": seed,
        "git_commit": _git_commit(root),
    }
