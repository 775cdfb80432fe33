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

import reprlib
import time
from contextlib import closing
from dataclasses import dataclass, field, make_dataclass
from datetime import datetime, timezone
from pathlib import Path

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
from .schema import checked, checked_fields

STATUS_CREATED = "Created"
STATUS_RUNNING = "Running"
STATUS_COMPLETE = "Complete"
STATUS_FAILED = "Failed"
STATUSES = (STATUS_CREATED, STATUS_RUNNING, STATUS_COMPLETE, STATUS_FAILED)

# config.json's fields and the record that holds them; its reader also checks
# that exp_id is its directory's and that algo's config reads hyperparams as recorded.
RECORD_FIELDS = (
    ("exp_id", int, "[1, inf)"), ("algo", str, SUPPORTED_ALGOS),
    ("env_id", str, registered_env_ids()), ("n_timesteps", int, "[1, inf)"),
    ("n_seeds", int, "[1, inf)"), ("base_seed", int, "[0, inf)"), ("hyperparams", dict, None),
    ("created_at", str, None), ("status", str, STATUSES),
)
ExperimentRecord = make_dataclass("ExperimentRecord", [
    *((name, kind) for name, kind, _ in RECORD_FIELDS),
    ("extras", dict, field(default_factory=dict)),  # unknown keys, preserved on rewrite
], namespace={"__module__": __name__})
# run_meta.json's fields; its reader also checks that a seed is base_seed + k.
RUN_META_FIELDS = (
    ("seed", int, "[0, inf)"), ("status", str, ("complete", "failed")),
    ("wall_time_s", float, "[0, inf)"),
)


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
    doc = {name: getattr(record, name) for name, _, _ in RECORD_FIELDS}
    doc.update(record.extras)
    return json_text(doc)


def save_record(workspace: Path, record: ExperimentRecord) -> None:
    atomic_write_text(exp_dir(workspace, record.exp_id) / "config.json", record_to_json(record))


def load_experiment(workspace: Path, exp_id: int) -> ExperimentRecord:
    """Reconstruct a record from its config.json (round-trip identity); a
    field whose value no experiment can hold is CorruptDataError."""
    path = exp_dir(workspace, exp_id) / "config.json"
    if not path.is_file():
        raise ValidationError(f"no experiment {exp_id} in workspace {workspace}")
    doc = read_json(path)
    known = checked_fields(doc, RECORD_FIELDS, path)
    if known["exp_id"] != exp_id:
        raise CorruptDataError(f"{path}: bad exp_id {known['exp_id']!r}: not its directory's ID {exp_id}")
    hyperparams = known["hyperparams"]
    try:  # as create_experiment records them: each as the config reads it
        config = make_algo_config(known["algo"], known["n_timesteps"], hyperparams)
        if {name: getattr(config, name) for name in hyperparams} != hyperparams:
            raise ValidationError("text or a number the config reads otherwise")
    except ValidationError as err:
        raise CorruptDataError(f"{path}: bad hyperparams {reprlib.repr(hyperparams)}: not valid: {err}") from None
    extras = {k: v for k, v in doc.items() if k not in known}
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
    n_seeds = checked("n_seeds", n_seeds, int, "[1, inf)")
    base_seed = checked("base_seed", base_seed, int, "[0, inf)")
    exp_id = claim_numbered_dir(workspace, "exp_")
    record = ExperimentRecord(
        exp_id=exp_id,
        algo=algo,
        env_id=env_id,
        n_timesteps=config.n_timesteps,
        n_seeds=n_seeds,
        base_seed=base_seed,
        hyperparams={name: getattr(config, name) for name in hyperparams or {}},
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        status=STATUS_CREATED,
    )
    save_record(workspace, record)
    return record


def run_meta_json(seed: int, wall_time_s: float, error: str | None = None) -> str:
    """A seed run's ``run_meta.json``: status "complete", or "failed" with its error."""
    meta = {"seed": seed, "wall_time_s": wall_time_s, "status": "complete" if error is None else "failed"}
    return json_text(meta if error is None else {**meta, "error": error})


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
    files = {"training_log.csv": training_log_to_csv(log)}
    if artifact is not None:
        files["policy.json"] = policy_to_json(artifact)
    files["run_meta.json"] = run_meta_json(seed, time.perf_counter() - start, error)
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
    checked("parallelism", parallelism, int, "[1, inf)")
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
            dead = k == err.job
            meta = run_meta_json(jobs[k][2], err.seconds if dead else 0.0,
                                 error if dead else f"stopped: {error}")
            atomic_write_text(seed_dir(workspace, exp_id, k) / "run_meta.json", meta)
        raise
    finally:
        save_record(workspace, record)
    return record


def seed_runs(workspace: Path, record: ExperimentRecord) -> list[SeedRun]:
    """Each seed run's status and wall time, from its run_meta.json, whose
    fields ``RUN_META_FIELDS`` checks."""
    runs = []
    for k in range(record.n_seeds):
        path = seed_dir(workspace, record.exp_id, k) / "run_meta.json"
        if not path.is_file():
            runs.append(SeedRun(k, "missing"))
            continue
        meta = checked_fields(read_json(path), RUN_META_FIELDS, path)
        if meta["seed"] != record.base_seed + k:
            raise CorruptDataError(f"{path}: bad seed {meta['seed']!r}: not {record.base_seed + k}")
        runs.append(SeedRun(k, meta["status"], meta["wall_time_s"]))
    return runs


def completed_seeds(exp_id: int, runs: list[SeedRun]) -> list[int]:
    """The k of every seed run that completed; ValidationError if none did."""
    completed = [run.k for run in runs if run.status == "complete"]
    if not completed:
        raise ValidationError(f"experiment {exp_id} has no completed seed runs")
    return completed


def load_seed_policy(workspace: Path, exp_id: int, k: int) -> PolicyArtifact:
    """The trained policy of seed run k, read as bytes that must be UTF-8."""
    path = seed_dir(workspace, exp_id, k) / "policy.json"
    return policy_from_json(path.read_bytes(), str(path))


def load_training_log(workspace: Path, exp_id: int, k: int) -> TrainingLog:
    """The training log of seed run k."""
    path = seed_dir(workspace, exp_id, k) / "training_log.csv"
    return training_log_from_csv(read_text(path), str(path))
