"""Small filesystem helpers: crash-safe writes, ID claims, advisory locking."""

from __future__ import annotations

import fcntl
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place.

    A killed writer never leaves a partial file at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def claim_numbered_dir(root: Path, prefix: str, first: int) -> int:
    """Create ``root/<prefix><n>`` for the smallest free n >= first; return n.

    mkdir either creates the directory or fails, so two processes that start
    from the same n never both claim it.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    n = first
    while True:
        try:
            (root / f"{prefix}{n}").mkdir()
            return n
        except FileExistsError:
            n += 1


_BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def single_threaded_blas_env():
    """Pin BLAS thread-count env vars to 1 while spawning child processes.

    Children inherit the pinned environment, making their numeric output
    independent of the parent's thread configuration; the parent's env is
    restored on exit.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_ENV_VARS}
    os.environ.update({name: "1" for name in _BLAS_ENV_VARS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@contextmanager
def reaped_resource_tracker():
    """Stop multiprocessing's resource tracker on exit if the block started it.

    Spawning a child starts the tracker.  Left running, it outlives this
    process as an orphan until whoever adopts it reaps it, so a command's
    process group lingers after the command exits.  Every semaphore and
    shared memory block the block created must be released by its end:
    stopping the tracker unlinks whatever is still registered with it (and
    warns of a leak), and a later release would start a new tracker.

    The tracker's ``_fd`` and ``_stop`` are CPython internals, so this is
    best-effort: where they are missing, the tracker is left to exit on its
    own rather than failing the block.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    started_here = stop is not None and getattr(tracker, "_fd", 0) is None
    try:
        yield
    finally:
        if started_here:
            stop()


@contextmanager
def exclusive_lock(lock_path: Path):
    """Block until an exclusive advisory lock on ``lock_path`` is held."""
    lock_path = Path(lock_path)
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)
