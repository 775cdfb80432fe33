"""What is recorded beside the metrics: machine noise and provenance.

Noise is recorded, never folded into a metric: the one-minute load average,
the CPU steal time the kernel reports (read-only, from /proc/stat) and a
fixed-work calibration probe timed here, so that a slow set of runs can be
told apart from a slow program.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    for name in BLAS_PIN_VARS:
        os.environ[name] = "1"


def load_average() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def steal_seconds() -> float | None:
    """Cumulative steal time of all CPUs, from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def calibration_probe_s() -> float:
    """Time a fixed amount of pure-Python work (about 10 ms on an idle core)."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


class NoiseProbe:
    """Noise figures around one repeat: probe and load before, steal across it."""

    def __init__(self):
        self.probe_s = calibration_probe_s()
        self.load = load_average()
        self.steal = steal_seconds()
        self.start = time.perf_counter()

    def finish(self) -> dict:
        steal = steal_seconds()
        return {
            "probe_s": self.probe_s,
            "loadavg_1m": self.load,
            "steal_s": None if steal is None or self.steal is None else steal - self.steal,
            "wall_s": time.perf_counter() - self.start,
        }


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path, workload: str, seed: int) -> dict:
    """Where a result came from: code version, machine, libraries, inputs."""
    import numpy

    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() else None
    dirty = None
    if sha is not None:
        dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no"))
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PIN_VARS},
        "workload": workload,
        "seed": seed,
    }
