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

New experiment IDs are max(existing) + 1 (1 for an empty workspace), so an
ID is only ever reused if the experiment with the largest ID is deleted.  The
ID is claimed by creating ``exp_<id>/``; if another command got there first,
the next free ID is taken instead.
Seed runs are isolated (threads of control share nothing mutable); the
orchestrator is the single writer of config.json.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .agents import (
    TrainingLog,
    make_algo_config,
    policy_to_json,
    train,
    training_log_to_csv,
)
from .envs import registry_lookup
from .errors import CorruptDataError, LifecycleError, ValidationError
from .ioutil import (
    atomic_write_text,
    claim_numbered_dir,
    json_text,
    read_json,
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
    workspace = Path(workspace)
    if not workspace.is_dir():
        return []
    ids = []
    for child in workspace.iterdir():
        match = re.fullmatch(r"exp_(\d+)", child.name)
        if match and child.is_dir():
            ids.append(int(match.group(1)))
    return sorted(ids)


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
    existing = list_experiment_ids(workspace)
    exp_id = claim_numbered_dir(workspace, "exp_", (existing[-1] + 1) if existing else 1)
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


def _run_seed_task(exp_dir_str: str, k: int) -> dict:
    """Train one seed run; module-level so spawned workers can unpickle it.

    Any exception from training is recorded: ``training_log.csv`` (the partial
    log of a NumericError, else empty) and ``run_meta.json`` with status
    "failed" and the error text.
    """
    directory = Path(exp_dir_str)
    doc = read_json(directory / "config.json")
    seed = int(doc["base_seed"]) + k
    config = make_algo_config(doc["algo"], int(doc["n_timesteps"]), doc["hyperparams"])
    run_dir = directory / f"seed_{k}"
    start = time.perf_counter()
    error = None
    try:
        artifact, log = train(doc["algo"], doc["env_id"], seed, config)
        status = "complete"
    except Exception as err:
        artifact, log = None, (getattr(err, "training_log", None) or TrainingLog())
        status = "failed"
        error = f"{type(err).__name__}: {err}"
    wall = time.perf_counter() - start
    atomic_write_text(run_dir / "training_log.csv", training_log_to_csv(log))
    if artifact is not None:
        atomic_write_text(run_dir / "policy.json", policy_to_json(artifact))
    meta = {"seed": seed, "wall_time_s": wall, "status": status}
    if error is not None:
        meta["error"] = error
    atomic_write_text(run_dir / "run_meta.json", json_text(meta))
    return {"k": k, "status": status, "wall_time_s": wall}


def _run_seed_tasks(directory: str, n_seeds: int, parallelism: int) -> list[dict]:
    """Execute every seed run in a spawned worker; single-threaded BLAS there makes
    the artifacts independent of ``parallelism`` and of this process's threads."""
    jobs = [(directory, k) for k in range(n_seeds)]
    return [result for _, _, result, _ in run_in_workers(_run_seed_task, jobs, parallelism)]


def run_experiment(
    workspace: Path, exp_id: int, parallelism: int = 1, overwrite: bool = False
) -> ExperimentRecord:
    """Run all seed runs (seeds base_seed + k), at most ``parallelism`` at once.

    Artifacts are byte-identical regardless of the schedule.  The experiment
    ends Complete iff every seed run finishes; a failed run marks it Failed
    but the other runs still complete.  An exception from the seed runs also
    leaves it Failed, then propagates.
    """
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    record = load_experiment(workspace, exp_id)
    if record.status == STATUS_COMPLETE and not overwrite:
        raise LifecycleError(
            f"experiment {exp_id} is already Complete; pass overwrite to rerun"
        )
    record.status = STATUS_RUNNING
    save_record(workspace, record)
    record.status = STATUS_FAILED
    try:
        results = _run_seed_tasks(str(exp_dir(workspace, exp_id)), record.n_seeds, parallelism)
        if all(r["status"] == "complete" for r in results):
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
