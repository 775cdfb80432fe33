"""Experiment bookkeeping: IDs, multi-seed orchestration, on-disk layout.

The filesystem is the registry: a workspace directory holds one
``exp_<id>/`` directory per experiment, each with a ``config.json`` and one
``seed_<k>/`` directory per seed run.  There is no hidden state anywhere.

    <workspace>/
      exp_1/
        config.json
        seed_0/training_log.csv
        seed_0/policy.json
        seed_0/run_meta.json
      benchmark.csv

An experiment runs once: its status goes Created -> Running -> Complete or
Failed, and ``run_experiment`` refuses any status but Created, so a seed
directory only ever holds the files of its one run.

New experiment IDs are max(existing) + 1 (1 for an empty workspace), so an
ID is only ever reused if the experiment with the largest ID is deleted.  The
ID is claimed by creating ``exp_<id>/``; if another command got there first,
the next free ID is taken instead.
The command process writes every file under ``exp_<id>/``: a seed run's
forked worker only trains and returns its files' text, and the parent
writes them as the run ends, ``run_meta.json`` last.  A worker dies with a
killed command and leaves nothing behind.  This module is also the
package's one reader of the seed files: the completed-seeds filter, the
policies and the training logs.
"""

from __future__ import annotations

import sys
import time
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

from .agents import (
    SUPPORTED_ALGOS,
    PolicyArtifact,
    TrainingLog,
    make_algo_config,
    policy_from_json,
    policy_to_json,
    train,
    training_log_from_csv,
    training_log_to_csv,
)
from .envs import registered_env_ids, registry_lookup
from .errors import CorruptDataError, LifecycleError, ValidationError, WorkerExited
from .ioutil import (
    atomic_write_text,
    claim_numbered_dir,
    json_text,
    read_json,
    read_text,
    run_in_workers,
)

STATUS_CREATED = "Created"
STATUS_RUNNING = "Running"
STATUS_COMPLETE = "Complete"
STATUS_FAILED = "Failed"
STATUSES = (STATUS_CREATED, STATUS_RUNNING, STATUS_COMPLETE, STATUS_FAILED)

@dataclass
class ExperimentRecord:
    exp_id: int
    algo: str
    env_id: str
    n_timesteps: int
    n_seeds: int
    base_seed: int
    hyperparams: dict
    created_at: str
    status: str
    extras: dict = field(default_factory=dict)  # unknown keys, preserved on rewrite


# Each field's type, which config.json must hold: exp_id is an int, hyperparams a dict.
_RECORD_FIELDS = {
    name: kind for name, kind in get_type_hints(ExperimentRecord).items() if name != "extras"
}


@dataclass
class SeedRun:
    k: int
    status: str  # "complete" or "failed" from run_meta.json, "missing" without one
    wall_time_s: float = 0.0


def exp_dir(workspace: Path, exp_id: int) -> Path:
    return Path(workspace) / f"exp_{exp_id}"


def seed_dir(workspace: Path, exp_id: int, k: int) -> Path:
    return exp_dir(workspace, exp_id) / f"seed_{k}"


def record_to_json(record: ExperimentRecord) -> str:
    doc = {name: getattr(record, name) for name in _RECORD_FIELDS}
    doc.update(record.extras)
    return json_text(doc)


def save_record(workspace: Path, record: ExperimentRecord) -> None:
    atomic_write_text(exp_dir(workspace, record.exp_id) / "config.json", record_to_json(record))


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _read_fields(path: Path, types: dict) -> dict:
    """The JSON object at ``path``, in which each field named in ``types``
    holds a value of its type: a float field may hold an int, and a bool is
    neither."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise CorruptDataError(f"{path}: not a JSON object")
    missing = [name for name in types if name not in doc]
    if missing:
        raise CorruptDataError(f"{path}: missing fields {missing}")
    for name, kind in types.items():
        value = doc[name]
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise CorruptDataError(f"{path}: bad {name} {value!r}: not {_JSON_TYPES[kind]}")
    return doc


def _check(path: Path, doc: dict, checks: dict) -> None:
    """CorruptDataError naming the first field of ``checks``, {name: (ok, why)}, not ok."""
    for name, (ok, why) in checks.items():
        if not ok:
            raise CorruptDataError(f"{path}: bad {name} {doc[name]!r}: {why}")


def load_experiment(workspace: Path, exp_id: int) -> ExperimentRecord:
    """Reconstruct a record from its config.json (round-trip identity); a
    field whose value no experiment can hold is CorruptDataError."""
    path = exp_dir(workspace, exp_id) / "config.json"
    if not path.is_file():
        raise ValidationError(f"no experiment {exp_id} in workspace {workspace}")
    doc = _read_fields(path, _RECORD_FIELDS)
    _check(path, doc, {
        "exp_id": (doc["exp_id"] == exp_id, f"not its directory's ID {exp_id}"),
        "n_seeds": (doc["n_seeds"] >= 1, "not at least 1"),
        "n_timesteps": (doc["n_timesteps"] >= 1, "not at least 1"),
        "base_seed": (doc["base_seed"] >= 0, "not at least 0"),
        "status": (doc["status"] in STATUSES, f"not one of {', '.join(STATUSES)}"),
        "algo": (doc["algo"] in SUPPORTED_ALGOS, f"not one of {', '.join(SUPPORTED_ALGOS)}"),
        "env_id": (doc["env_id"] in registered_env_ids(), "not a registered env ID"),
    })
    known = {name: doc[name] for name in _RECORD_FIELDS}
    extras = {k: v for k, v in doc.items() if k not in _RECORD_FIELDS}
    return ExperimentRecord(**known, extras=extras)


def create_experiment(
    workspace: Path,
    algo: str,
    env_id: str,
    n_timesteps: int,
    n_seeds: int,
    base_seed: int = 0,
    hyperparams: dict | None = None,
) -> ExperimentRecord:
    """Validate, assign the next ID and persist config.json, which holds each
    given hyperparameter as the config read it.  Validation happens before
    any directory is created."""
    algo = algo.lower()
    registry_lookup(env_id)
    config = make_algo_config(algo, n_timesteps, hyperparams)  # raises on bad algo/hyperparams
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    if base_seed < 0:
        raise ValidationError(f"base_seed must be >= 0, got {base_seed}")
    exp_id = claim_numbered_dir(workspace, "exp_")
    record = ExperimentRecord(
        exp_id=exp_id,
        algo=algo,
        env_id=env_id,
        n_timesteps=config.n_timesteps,
        n_seeds=int(n_seeds),
        base_seed=int(base_seed),
        hyperparams={name: getattr(config, name) for name in hyperparams or {}},
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        status=STATUS_CREATED,
    )
    save_record(workspace, record)
    return record


def _run_seed(algo: str, env_id: str, seed: int, hyperparams: dict, n_timesteps: int) -> dict:
    """Train one seed run and return its files as {name: text}, in the order
    they are written: ``training_log.csv``, ``policy.json`` if training
    completed, ``run_meta.json`` last.  It opens no path.

    Any exception from training is recorded: ``training_log.csv`` holds the
    partial log of a NumericError, else no rows, and ``run_meta.json`` has
    status "failed" and the error text.
    """
    config = make_algo_config(algo, n_timesteps, hyperparams)
    start = time.perf_counter()
    error = None
    try:
        artifact, log = train(algo, env_id, seed, config)
    except Exception as err:
        artifact, log = None, (getattr(err, "training_log", None) or TrainingLog())
        error = f"{type(err).__name__}: {err}"
    meta = {"seed": seed, "wall_time_s": time.perf_counter() - start,
            "status": "complete" if error is None else "failed"}
    if error is not None:
        meta["error"] = error
    files = {"training_log.csv": training_log_to_csv(log)}
    if artifact is not None:
        files["policy.json"] = policy_to_json(artifact)
    files["run_meta.json"] = json_text(meta)
    return files


def run_experiment(workspace: Path, exp_id: int, parallelism: int = 1) -> ExperimentRecord:
    """Run all seed runs (seeds base_seed + k), at most ``parallelism`` at once.

    Only a Created experiment runs; any other status raises LifecycleError
    before anything is written.

    Artifacts are byte-identical regardless of the schedule.  The experiment
    ends Complete iff every seed run returns a policy; a failed run marks it
    Failed but the other runs still complete.  An exception from a seed run,
    or from writing its files, also leaves it Failed, then propagates; when
    a worker dies, each seed not yet written gets a "failed" ``run_meta.json``
    first, its error "stopped: ..." for all but the dead worker's seed.
    """
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    record = load_experiment(workspace, exp_id)
    if record.status != STATUS_CREATED:
        raise LifecycleError(f"experiment {exp_id} is {record.status}; only a Created one can run")
    record.status = STATUS_RUNNING
    save_record(workspace, record)
    jobs = [
        (record.algo, record.env_id, record.base_seed + k, record.hyperparams, record.n_timesteps)
        for k in range(record.n_seeds)
    ]
    record.status = STATUS_FAILED
    written = {}  # k -> whether its run trained a policy
    try:
        # Every seed runs in a worker forked from this process, with its BLAS
        # settings, so the files do not depend on ``parallelism``.
        with closing(run_in_workers(_run_seed, jobs, parallelism)) as runs:
            for k, _, files, _ in runs:
                for name, text in files.items():
                    atomic_write_text(seed_dir(workspace, exp_id, k) / name, text)
                written[k] = "policy.json" in files
        if sum(written.values()) == record.n_seeds:
            record.status = STATUS_COMPLETE
    except WorkerExited as err:
        error = f"{type(err).__name__}: {err}"
        for k in sorted(set(range(record.n_seeds)) - set(written)):
            meta = {"seed": jobs[k][2], "wall_time_s": err.seconds if k == err.job else 0.0,
                    "status": "failed", "error": error if k == err.job else f"stopped: {error}"}
            atomic_write_text(seed_dir(workspace, exp_id, k) / "run_meta.json", json_text(meta))
        raise
    finally:
        save_record(workspace, record)
    return record


def seed_runs(workspace: Path, record: ExperimentRecord) -> list[SeedRun]:
    """Each seed run's status and wall time, from its run_meta.json; a
    status but "complete" or "failed", or a wall time that is not a finite
    number of at least 0, is CorruptDataError."""
    runs = []
    for k in range(record.n_seeds):
        path = seed_dir(workspace, record.exp_id, k) / "run_meta.json"
        if not path.is_file():
            runs.append(SeedRun(k, "missing"))
            continue
        meta = _read_fields(path, {"status": str, "wall_time_s": float})
        _check(path, meta, {
            "status": (meta["status"] in ("complete", "failed"), "not one of complete, failed"),
            "wall_time_s": (0 <= meta["wall_time_s"] <= sys.float_info.max,
                            "not a finite number of at least 0"),
        })
        runs.append(SeedRun(k, meta["status"], float(meta["wall_time_s"])))
    return runs


def completed_seeds(exp_id: int, runs: list[SeedRun]) -> list[int]:
    """The k of every seed run that completed; ValidationError if none did."""
    completed = [run.k for run in runs if run.status == "complete"]
    if not completed:
        raise ValidationError(f"experiment {exp_id} has no completed seed runs")
    return completed


def load_seed_policy(workspace: Path, exp_id: int, k: int) -> PolicyArtifact:
    """The trained policy of seed run k; read as bytes, so non-UTF-8 is invalid."""
    path = seed_dir(workspace, exp_id, k) / "policy.json"
    return policy_from_json(path.read_bytes(), str(path))


def load_training_log(workspace: Path, exp_id: int, k: int) -> TrainingLog:
    """The training log of seed run k."""
    path = seed_dir(workspace, exp_id, k) / "training_log.csv"
    return training_log_from_csv(read_text(path), str(path))
