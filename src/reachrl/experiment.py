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
ID is only ever reused if the experiment with the largest ID is deleted.
Seed runs are isolated (threads of control share nothing mutable); the
orchestrator is the single writer of config.json.
"""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from multiprocessing import get_context
from pathlib import Path

from .agents import (
    TrainingLog,
    make_algo_config,
    policy_to_json,
    train,
    training_log_to_csv,
)
from .envs import registry_lookup
from .errors import CorruptDataError, LifecycleError, NumericError, ValidationError
from .ioutil import atomic_write_text, single_threaded_blas_env

DEFAULT_WORKSPACE = "experiments"

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
    return json.dumps(doc, indent=2) + "\n"


def save_record(workspace: Path, record: ExperimentRecord) -> None:
    atomic_write_text(exp_dir(workspace, record.exp_id) / "config.json", record_to_json(record))


def load_experiment(workspace: Path, exp_id: int) -> ExperimentRecord:
    """Reconstruct a record from its config.json (round-trip identity)."""
    path = exp_dir(workspace, exp_id) / "config.json"
    if not path.is_file():
        raise ValidationError(f"no experiment {exp_id} in workspace {workspace}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise CorruptDataError(f"{path}: {err.msg} at byte offset {err.pos}") from None
    missing = [name for name in _RECORD_FIELDS if name not in doc]
    if missing:
        raise CorruptDataError(f"{path}: missing fields {missing}")
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
    record = ExperimentRecord(
        exp_id=(existing[-1] + 1) if existing else 1,
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
    """Train one seed run; module-level so process pools can pickle it."""
    directory = Path(exp_dir_str)
    doc = json.loads((directory / "config.json").read_text(encoding="utf-8"))
    seed = int(doc["base_seed"]) + k
    config = make_algo_config(doc["algo"], int(doc["n_timesteps"]), doc["hyperparams"])
    run_dir = directory / f"seed_{k}"
    start = time.perf_counter()
    try:
        artifact, log = train(doc["algo"], doc["env_id"], seed, config)
        status = "complete"
    except NumericError as err:
        artifact, log = None, (err.training_log or TrainingLog())
        status = "failed"
    wall = time.perf_counter() - start
    atomic_write_text(run_dir / "training_log.csv", training_log_to_csv(log))
    if artifact is not None:
        atomic_write_text(run_dir / "policy.json", policy_to_json(artifact))
    meta = {"seed": seed, "wall_time_s": wall, "status": status}
    atomic_write_text(run_dir / "run_meta.json", json.dumps(meta, indent=2) + "\n")
    return {"k": k, "status": status, "wall_time_s": wall}


def _run_seed_tasks(directory: str, n_seeds: int, parallelism: int) -> list[dict]:
    """Execute every seed run in a freshly spawned child process.

    Children get single-threaded BLAS, so the artifacts are bitwise
    independent of ``parallelism`` and of the parent's thread configuration.
    """
    with single_threaded_blas_env():
        with ProcessPoolExecutor(
            max_workers=parallelism, mp_context=get_context("spawn")
        ) as pool:
            futures = [pool.submit(_run_seed_task, directory, k) for k in range(n_seeds)]
            return [f.result() for f in futures]


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


def seed_run_statuses(workspace: Path, exp_id: int) -> dict[int, str]:
    """Per-seed status from run_meta.json; missing runs map to 'missing'."""
    record = load_experiment(workspace, exp_id)
    statuses = {}
    for k in range(record.n_seeds):
        meta_path = seed_dir(workspace, exp_id, k) / "run_meta.json"
        if meta_path.is_file():
            statuses[k] = json.loads(meta_path.read_text(encoding="utf-8"))["status"]
        else:
            statuses[k] = "missing"
    return statuses


def total_train_walltime(workspace: Path, exp_id: int) -> float:
    """Sum of per-seed wall times, seconds (0.0 for runs without metadata)."""
    record = load_experiment(workspace, exp_id)
    total = 0.0
    for k in range(record.n_seeds):
        meta_path = seed_dir(workspace, exp_id, k) / "run_meta.json"
        if meta_path.is_file():
            total += float(json.loads(meta_path.read_text(encoding="utf-8"))["wall_time_s"])
    return total
