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

import time
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .agents import (
    PolicyArtifact,
    TrainingLog,
    make_algo_config,
    policy_from_json,
    policy_to_json,
    train,
    training_log_from_csv,
    training_log_to_csv,
)
from .envs import registry_lookup
from .errors import CorruptDataError, LifecycleError, ValidationError
from .ioutil import (
    atomic_write_text,
    claim_numbered_dir,
    json_text,
    numbered_dirs,
    read_json,
    read_text,
    run_in_workers,
)

STATUS_CREATED = "Created"
STATUS_RUNNING = "Running"
STATUS_COMPLETE = "Complete"
STATUS_FAILED = "Failed"

_RECORD_FIELDS = (
    "exp_id", "algo", "env_id", "n_timesteps", "n_seeds",
    "base_seed", "hyperparams", "created_at", "status",
)


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


@dataclass
class SeedRun:
    k: int
    status: str  # "complete" or "failed" from run_meta.json, "missing" without one
    wall_time_s: float = 0.0


def exp_dir(workspace: Path, exp_id: int) -> Path:
    return Path(workspace) / f"exp_{exp_id}"


def seed_dir(workspace: Path, exp_id: int, k: int) -> Path:
    return exp_dir(workspace, exp_id) / f"seed_{k}"


def list_experiment_ids(workspace: Path) -> list[int]:
    return numbered_dirs(workspace, "exp_")


def record_to_json(record: ExperimentRecord) -> str:
    doc = {name: getattr(record, name) for name in _RECORD_FIELDS}
    doc.update(record.extras)
    return json_text(doc)


def save_record(workspace: Path, record: ExperimentRecord) -> None:
    atomic_write_text(exp_dir(workspace, record.exp_id) / "config.json", record_to_json(record))


def _read_fields(path: Path, fields: tuple[str, ...]) -> dict:
    """The JSON object at ``path``, which must hold every name in ``fields``."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise CorruptDataError(f"{path}: not a JSON object")
    missing = [name for name in fields if name not in doc]
    if missing:
        raise CorruptDataError(f"{path}: missing fields {missing}")
    return doc


def load_experiment(workspace: Path, exp_id: int) -> ExperimentRecord:
    """Reconstruct a record from its config.json (round-trip identity)."""
    path = exp_dir(workspace, exp_id) / "config.json"
    if not path.is_file():
        raise ValidationError(f"no experiment {exp_id} in workspace {workspace}")
    doc = _read_fields(path, _RECORD_FIELDS)
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
    """Validate, assign the next ID and persist config.json.

    Validation happens before any directory is created.
    """
    algo = algo.lower()
    hyperparams = dict(hyperparams or {})
    registry_lookup(env_id)
    make_algo_config(algo, n_timesteps, hyperparams)  # raises on bad algo/hyperparams
    if n_seeds < 1:
        raise ValidationError(f"n_seeds must be >= 1, got {n_seeds}")
    exp_id = claim_numbered_dir(workspace, "exp_")
    record = ExperimentRecord(
        exp_id=exp_id,
        algo=algo,
        env_id=env_id,
        n_timesteps=int(n_timesteps),
        n_seeds=int(n_seeds),
        base_seed=int(base_seed),
        hyperparams=hyperparams,
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
        status = "complete"
    except Exception as err:
        artifact, log = None, (getattr(err, "training_log", None) or TrainingLog())
        status = "failed"
        error = f"{type(err).__name__}: {err}"
    meta = {"seed": seed, "wall_time_s": time.perf_counter() - start, "status": status}
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
    or from writing its files, also leaves it Failed, then propagates.
    """
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    record = load_experiment(workspace, exp_id)
    if record.status != STATUS_CREATED:
        raise LifecycleError(f"experiment {exp_id} is {record.status}; only a Created one can run")
    record.status = STATUS_RUNNING
    save_record(workspace, record)
    jobs = [
        (record.algo, record.env_id, int(record.base_seed) + k, record.hyperparams,
         int(record.n_timesteps))
        for k in range(record.n_seeds)
    ]
    record.status = STATUS_FAILED
    try:
        trained = 0
        # Every seed runs in a worker forked from this process, with its BLAS
        # settings, so the files do not depend on ``parallelism``.
        with closing(run_in_workers(_run_seed, jobs, parallelism)) as runs:
            for k, _, files, _ in runs:
                for name, text in files.items():
                    atomic_write_text(seed_dir(workspace, exp_id, k) / name, text)
                trained += "policy.json" in files
        if trained == record.n_seeds:
            record.status = STATUS_COMPLETE
    finally:
        save_record(workspace, record)
    return record


def seed_runs(workspace: Path, record: ExperimentRecord) -> list[SeedRun]:
    """Each seed run's status and wall time, from its run_meta.json."""
    runs = []
    for k in range(record.n_seeds):
        path = seed_dir(workspace, record.exp_id, k) / "run_meta.json"
        if not path.is_file():
            runs.append(SeedRun(k, "missing"))
            continue
        meta = _read_fields(path, ("status", "wall_time_s"))
        try:
            runs.append(SeedRun(k, str(meta["status"]), float(meta["wall_time_s"])))
        except (TypeError, ValueError):
            raise CorruptDataError(f"{path}: bad wall_time_s {meta['wall_time_s']!r}") from None
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
