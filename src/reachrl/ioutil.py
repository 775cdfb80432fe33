"""The workspace file codec, crash-safe writes, ID claims, advisory locking,
and the forked-worker runner.

Every workspace CSV is written by ``csv_text`` and read against its schema
by ``csv_rows``; every JSON file but ``policy.json`` is written by
``json_text`` and read by ``read_json`` and ``schema.checked_fields``.  They
raise CorruptDataError naming the file (and a CSV's line) on anything its
writer would not write.  ``agents.policy_from_json`` reads ``policy.json``.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import os
import re
import reprlib
import signal
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from .errors import CorruptDataError, WorkerExited
from .schema import checked


def _cell(value):
    if isinstance(value, float):  # repr(np.float64(0.5)) is "np.float64(0.5)" in numpy 2
        return repr(float(value))
    return "" if value is None else value


def csv_text(header, rows) -> str:
    """One header line, then one line per row; floats as repr, None as empty,
    and every cell quoted in a row with a carriage return, which ends a line."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quoting = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    for row in rows:
        cells = [_cell(value) for value in row]
        (quoting if any("\r" in cell for cell in cells if isinstance(cell, str)) else writer).writerow(cells)
    return buffer.getvalue()


def csv_rows(text: str, columns, source: str) -> list[list]:
    """The rows of ``text`` under ``columns``, a schema of ``(name, kind,
    domain)`` entries that the header names in order: each cell as
    ``schema.checked`` reads its text.

    A different header, a row of another width or a bad cell raises
    CorruptDataError naming ``source`` and the line.
    """
    header = [name for name, _, _ in columns]
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        found = next(reader, [])
        if found != header:
            raise CorruptDataError(f"{source}: line 1: unexpected header {reprlib.repr(found)}")
        for cells in reader:
            where = f"{source}: line {reader.line_num}"
            if len(cells) != len(header):
                raise CorruptDataError(f"{where} has {len(cells)} fields, expected {len(header)}")
            rows.append([checked(name, cell, kind, domain, where, parse=True)
                         for (name, kind, domain), cell in zip(columns, cells)])
    except csv.Error as err:
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


_parent = None  # in a worker of run_in_workers, its pipe to the parent, set before any job


def ask_parent(*payload):
    """Call from inside a ``run_in_workers`` job, so that no task takes a channel
    parameter: send ``payload`` to the parent and return its answer."""
    _parent.send(("ask", payload))
    return _parent.recv()


def _worker(conn, task, jobs, inherited) -> None:
    """Run ``task(*jobs[i])`` for each index i the parent sends until None;
    send ("end", result), or ("error", (exception, traceback text)) and stop.

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
    while (i := conn.recv()) is not None:
        try:
            result = task(*jobs[i])
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
    commands pin BLAS to one thread before numpy loads.  Job indices go out
    in order, over one pipe per worker.  A worker reads job i as it was when
    the worker was forked, so a job need not pickle; its result and its
    exceptions must.  A job returns data and writes nothing: the caller
    writes what it returns, and a worker dies with this process, so a killed
    caller leaves no file and no process behind.  Yields ``(i, "ask",
    payload, reply)`` when job i calls ``ask_parent(*payload)``, which blocks
    it until ``reply(answer)``, and ``(i, "end", result, None)`` when it
    returns.  A job's exception is re-raised here, chained to the worker's
    traceback; a worker that exits before or during its job raises
    WorkerExited.  The workers are stopped and joined on every exit path.
    """
    from multiprocessing import get_context
    from multiprocessing.connection import wait

    ctx = get_context("fork")
    queue = iter(range(len(jobs)))
    workers = []
    running = {}  # connection -> index of the job it runs, and when it got it

    def hand_out(conn):
        i = next(queue, None)
        try:
            conn.send(i)
        except OSError:  # a broken pipe or a reset: the worker has exited
            raise WorkerExited(i, 0.0) from None
        if i is not None:
            running[conn] = i, time.perf_counter()

    try:
        for _ in range(min(parallel, len(jobs))):
            conn, child_conn = ctx.Pipe()
            inherited = [parent_end for _, parent_end in workers] + [conn]
            proc = ctx.Process(target=_worker, args=(child_conn, task, jobs, inherited))
            proc.start()
            child_conn.close()
            workers.append((proc, conn))
            hand_out(conn)
        while running:
            for conn in wait(list(running)):
                i, start = running[conn]
                try:
                    kind, payload = conn.recv()
                except (EOFError, ConnectionResetError):  # reset: it left a message unread
                    raise WorkerExited(i, time.perf_counter() - start) from None
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
