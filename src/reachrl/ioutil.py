"""The workspace file codec, crash-safe writes, ID claims, advisory locking.

Every workspace CSV and JSON file but ``policy.json`` is written by
``csv_text`` or ``json_text`` and read by ``csv_rows`` or ``read_json``, which
raise CorruptDataError naming the file on anything they would not write.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import CorruptDataError


def _cell(value):
    if isinstance(value, float):  # repr(np.float64(0.5)) is "np.float64(0.5)" in numpy 2
        return repr(float(value))
    return "" if value is None else value


def csv_text(header, rows) -> str:
    """One header line, then one line per row; floats as repr, None as empty."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def csv_rows(text: str, header, types, source: str) -> list[list]:
    """The rows of ``text`` under ``header``, cell i converted by ``types[i]``.

    Blank lines are skipped.  A different header, a row of another width or
    a cell its type rejects raises CorruptDataError naming ``source`` and
    the line.
    """
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        found = next(reader, [])
        if found != list(header):
            raise CorruptDataError(f"{source}: line 1: unexpected header {found!r}")
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise CorruptDataError(
                    f"{source}: line {reader.line_num} has {len(cells)} fields, "
                    f"expected {len(header)}"
                )
            rows.append([cast(cell) for cast, cell in zip(types, cells)])
    except (csv.Error, ValueError) as err:
        raise CorruptDataError(f"{source}: line {reader.line_num}: {err}") from None
    return rows


def json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def read_json(path: Path):
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CorruptDataError(f"{path}: {err.msg} at byte offset {err.pos}") from None
    except UnicodeDecodeError as err:
        raise CorruptDataError(f"{path}: not UTF-8 at byte offset {err.start}") from None


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
