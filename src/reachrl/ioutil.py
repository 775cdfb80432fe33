"""The workspace file codec, crash-safe writes, ID claims, advisory locking,
and the spawned-worker runner.

Every workspace CSV and JSON file but ``policy.json`` is written by
``csv_text`` or ``json_text`` and read by ``read_text`` and ``csv_rows``, or
``read_json``, which raise CorruptDataError naming the file on anything they
would not write.
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

from .errors import CorruptDataError, ReachError


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


def read_text(path: Path) -> str:
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise CorruptDataError(f"{path}: not UTF-8 at byte offset {err.start}") from None


def read_json(path: Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise CorruptDataError(f"{path}: {err.msg} at byte offset {err.pos}") from None


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
    warns of a leak), and a later release would start a new tracker.  The
    only children spawned are ``run_in_workers``'s, which talk to the parent
    over pipes alone and so register nothing with it.

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


_parent = None  # in a worker of run_in_workers, its pipe to the parent, set before any job


def ask_parent(*payload):
    """Call from inside a ``run_in_workers`` job, so that no task takes a channel
    parameter: send ``payload`` to the parent and return its answer."""
    _parent.send(("ask", payload))
    return _parent.recv()


def _worker(conn, task) -> None:
    """Run ``task(*args)`` for each ``args`` the parent sends until None; send
    ("end", result), or ("error", (exception, traceback text)) and stop."""
    global _parent
    _parent = conn
    while (args := conn.recv()) is not None:
        try:
            result = task(*args)
        except Exception as err:
            import traceback

            conn.send(("error", (err, traceback.format_exc())))
            return
        conn.send(("end", result))


def run_in_workers(task, jobs: list[tuple], parallel: int):
    """Run ``task(*job)`` for each job in at most ``parallel`` spawned workers.

    Jobs go out in order, over one pipe per worker; the workers run with
    single-threaded BLAS, and ``task`` and the jobs must pickle.  Yields
    ``(i, "ask", payload, reply)`` when job i calls ``ask_parent(*payload)``,
    which blocks it until ``reply(answer)``, and ``(i, "end", result, None)``
    when it returns.  A job's exception is re-raised here, chained to the
    worker's traceback; a worker that exits mid-job raises ReachError.  The
    workers are stopped and joined on every exit path, and the resource
    tracker is stopped if spawning them started it.
    """
    from multiprocessing import get_context
    from multiprocessing.connection import wait

    ctx = get_context("spawn")
    queue = enumerate(jobs)
    workers = []
    running = {}  # connection -> index of the job it runs

    def hand_out(conn):
        i, args = next(queue, (None, None))
        conn.send(args)
        if args is not None:
            running[conn] = i

    with reaped_resource_tracker():
        try:
            with single_threaded_blas_env():
                for _ in range(min(parallel, len(jobs))):
                    conn, child_conn = ctx.Pipe()
                    proc = ctx.Process(target=_worker, args=(child_conn, task))
                    proc.start()
                    child_conn.close()
                    workers.append((proc, conn))
                    hand_out(conn)
            while running:
                for conn in wait(list(running)):
                    i = running[conn]
                    try:
                        kind, payload = conn.recv()
                    except (EOFError, ConnectionResetError):  # reset: it left a message unread
                        raise ReachError(f"the worker running job {i} exited") from None
                    if kind == "error":
                        err, text = payload
                        raise err from Exception(f"in job {i}, in its worker:\n{text}")
                    if kind == "end":
                        del running[conn]
                        hand_out(conn)
                    yield i, kind, payload, (conn.send if kind == "ask" else None)
        except BaseException:
            for proc, _ in workers:
                proc.terminate()
            raise
        finally:
            for proc, conn in workers:
                conn.close()
                proc.join()


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
