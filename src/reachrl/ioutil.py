"""The workspace file codec, crash-safe writes, ID claims, advisory locking,
and the forked-worker runner.

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
import re
import signal
import tempfile
from contextlib import contextmanager
from pathlib import Path

from . import BLAS_THREAD_VARS
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


def numbered_dirs(root: Path, prefix: str) -> list[int]:
    """The sorted n of every directory ``root/<prefix><n>``."""
    root = Path(root)
    if not root.is_dir():
        return []
    pattern = re.escape(prefix) + r"(\d+)"
    return sorted(
        int(match.group(1))
        for child in root.iterdir()
        if (match := re.fullmatch(pattern, child.name)) and child.is_dir()
    )


def claim_numbered_dir(root: Path, prefix: str) -> int:
    """Create ``root/<prefix><n>`` for the smallest free n past the largest
    existing one (1 in an empty root); return n.

    mkdir either creates the directory or fails, so two processes that start
    from the same n never both claim it.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    n = max(numbered_dirs(root, prefix), default=0) + 1
    while True:
        try:
            (root / f"{prefix}{n}").mkdir()
            return n
        except FileExistsError:
            n += 1


@contextmanager
def single_threaded_blas_env():
    """Pin BLAS thread-count env vars to 1 while spawning child processes.

    Children inherit the pinned environment, making their numeric output
    independent of the parent's thread configuration; the parent's env is
    restored on exit.
    """
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


_parent = None  # in a worker of run_in_workers, its pipe to the parent, set before any job


def ask_parent(*payload):
    """Call from inside a ``run_in_workers`` job, so that no task takes a channel
    parameter: send ``payload`` to the parent and return its answer."""
    _parent.send(("ask", payload))
    return _parent.recv()


def _worker(conn, task, inherited) -> None:
    """Run ``task(*args)`` for each ``args`` the parent sends until None; send
    ("end", result), or ("error", (exception, traceback text)) and stop.

    First have the kernel kill this worker when the parent dies, and close
    ``inherited``, the parent's ends of the pipes forked into it, so that
    the parent holds the only other end of ``conn``.
    """
    import ctypes
    from multiprocessing import parent_process

    global _parent
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(1, signal.SIGKILL) != 0:  # 1 is PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent_process().pid:  # the parent died before that
        os._exit(1)
    for end in inherited:
        end.close()
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
    """Run ``task(*job)`` for each job in at most ``parallel`` forked workers.

    A worker starts with this process's modules and BLAS settings, so the
    files a job returns do not depend on ``parallel``.  A fork copies only
    the calling thread, so this process should run no other: ``reachrl``
    commands pin BLAS to one thread before numpy loads.  Jobs go out in
    order, over one pipe per worker, and must pickle.  A job returns data
    and writes nothing: the caller writes what it returns, and a worker
    dies with this process, so a killed caller leaves no file and no
    process behind.  Yields ``(i, "ask", payload, reply)`` when job i calls
    ``ask_parent(*payload)``, which blocks it until ``reply(answer)``, and
    ``(i, "end", result, None)`` when it returns.  A job's exception is
    re-raised here, chained to the worker's traceback; a worker that exits
    before or during its job raises ReachError.  The workers are stopped
    and joined on every exit path.
    """
    from multiprocessing import get_context
    from multiprocessing.connection import wait

    ctx = get_context("fork")
    queue = enumerate(jobs)
    workers = []
    running = {}  # connection -> index of the job it runs

    def hand_out(conn):
        i, args = next(queue, (None, None))
        try:
            conn.send(args)
        except OSError:  # a broken pipe or a reset: the worker has exited
            raise ReachError(f"the worker running job {i} exited") from None
        if args is not None:
            running[conn] = i

    try:
        for _ in range(min(parallel, len(jobs))):
            conn, child_conn = ctx.Pipe()
            inherited = [parent_end for _, parent_end in workers] + [conn]
            proc = ctx.Process(target=_worker, args=(child_conn, task, inherited))
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
