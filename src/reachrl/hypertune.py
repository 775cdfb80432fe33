"""Hyperparameter studies: random search with median pruning.

A study samples trial configs from a search space, trains each trial while
reporting the mean deterministic evaluation return (higher is better) at
evenly spaced checkpoints, and prunes a trial whose checkpoint value falls
strictly below the median of prior trials at the same checkpoint.  Studies
are deterministic given their seed, whatever their parallelism.

The configs are drawn up front, in trial order.  With ``parallel`` P > 1
the trials run in P forked workers (``ioutil.run_in_workers``), handed out
in trial order, each worker blocking at every checkpoint report until the
parent answers continue or prune.
The parent answers trial i's report through the same decision function as
the in-process loop, and only once it would read what the sequential study
reads: at once when i is below ``min_trials_before_prune`` (too few priors
to prune against), else once every trial j < i has ended.  A trial having
reported that checkpoint is not enough, since a trial that raises
NumericError later drops out of the priors.  Trial 0 never waits, so the
gate cannot deadlock, and ``trials.csv`` and ``best_config.json`` are
byte-identical for every P.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import EVAL_SEED_OFFSET, make_algo_config, train
from .errors import NumericError, ValidationError
from .ioutil import (
    ask_parent,
    atomic_write_text,
    claim_numbered_dir,
    csv_text,
    json_text,
    run_in_workers,
)

MIN_TRIALS_BEFORE_PRUNE = 5


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValidationError(f"LogUniform needs 0 < lo < hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValidationError(f"Uniform needs lo < hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class Categorical:
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValidationError("Categorical needs at least one value")


SearchSpace = dict


def default_space(algo: str) -> SearchSpace:
    if algo == "ppo":
        return {
            "lr": LogUniform(1e-5, 1e-2),
            "gamma": Categorical((0.95, 0.99, 0.999)),
            "clip_range": Uniform(0.1, 0.3),
            "rollout_len": Categorical((512, 1024, 2048)),
        }
    if algo == "td3":
        return {
            "lr": LogUniform(1e-5, 1e-2),
            "tau": Uniform(0.001, 0.02),
            "policy_noise": Uniform(0.1, 0.5),
        }
    raise ValidationError(f"no default search space for algo {algo!r}")


def sample_config(space: SearchSpace, rng: np.random.Generator) -> dict:
    """Draw one configuration; deterministic given the generator state."""
    config = {}
    for name, dim in space.items():
        if isinstance(dim, LogUniform):
            config[name] = float(np.exp(rng.uniform(np.log(dim.lo), np.log(dim.hi))))
        elif isinstance(dim, Uniform):
            config[name] = float(rng.uniform(dim.lo, dim.hi))
        elif isinstance(dim, Categorical):
            config[name] = dim.values[int(rng.integers(len(dim.values)))]
        else:
            raise ValidationError(f"unknown dimension type for {name!r}: {dim!r}")
    return config


def should_prune(
    prior_values: list[float],
    current_value: float,
    min_trials_before_prune: int = MIN_TRIALS_BEFORE_PRUNE,
) -> bool:
    """Median rule: prune iff enough prior trials reported at this checkpoint
    and the current value is strictly below their median."""
    if len(prior_values) < min_trials_before_prune:
        return False
    return current_value < statistics.median(prior_values)


TRIAL_RUNNING = "Running"
TRIAL_PRUNED = "Pruned"
TRIAL_COMPLETE = "Complete"
TRIAL_FAILED = "Failed"


@dataclass
class Trial:
    trial_id: int
    config: dict
    intermediate_values: list = field(default_factory=list)  # (step, value)
    final_value: float | None = None
    state: str = TRIAL_RUNNING
    pruned_at_step: int | None = None

    def value_at(self, step: int) -> float | None:
        for s, v in self.intermediate_values:
            if s == step:
                return v
        return None


@dataclass
class StudyReport:
    study_id: int
    study_dir: Path
    trials: list
    best: Trial


def checkpoint_schedule(total_timesteps: int, checkpoints: int) -> list[int]:
    if checkpoints < 1:
        raise ValidationError(f"checkpoints must be >= 1, got {checkpoints}")
    if total_timesteps < checkpoints:
        raise ValidationError(
            f"timesteps_per_trial {total_timesteps} < checkpoints {checkpoints}"
        )
    return [round(total_timesteps * (j + 1) / checkpoints) for j in range(checkpoints)]


def checkpoint_eval_return(artifact, env_id: str, seed: int, n_eval_episodes: int = 20) -> float:
    """The checkpoint metric: mean deterministic evaluation return."""
    from .evaluation import evaluate_policy

    records = evaluate_policy(
        artifact, env_id, n_eval_episodes, deterministic=True,
        seed=seed + EVAL_SEED_OFFSET,
    )
    return float(np.mean([r.episode_return for r in records]))


def checkpointed_training(
    algo: str,
    env_id: str,
    seed: int,
    hyperparams: dict,
    checkpoint_steps: list[int],
    n_eval_episodes: int = 20,
    report=None,
):
    """Train to the last checkpoint, evaluating at each one.

    With ``report``, calls ``report(step, mean_eval_return)`` at each
    checkpoint and stops early when it returns False.  Returns (policy
    artifact, training log, [(step, mean_eval_return)]).
    """
    config = make_algo_config(algo, n_timesteps=checkpoint_steps[-1], hyperparams=hyperparams)
    values = []

    def on_checkpoint(step, artifact):
        values.append((step, checkpoint_eval_return(artifact, env_id, seed, n_eval_episodes)))
        return report is None or report(*values[-1])

    artifact, log = train(algo, env_id, seed, config, tuple(checkpoint_steps), on_checkpoint)
    return artifact, log, values


def training_trial_runner(
    algo: str,
    env_id: str,
    seed: int,
    trial_config: dict,
    checkpoint_steps: list[int],
    report,
    n_eval_episodes: int = 20,
) -> float | None:
    """Default trial runner: real training with checkpoint evaluations.

    Calls ``report(step, mean_eval_return)`` at each checkpoint; stops early
    (returning None) when report asks for it.  Returns the final checkpoint's
    value when the trial runs to completion.
    """
    *_, values = checkpointed_training(
        algo, env_id, seed, trial_config, checkpoint_steps, n_eval_episodes, report
    )
    return dict(values).get(checkpoint_steps[-1])


def trials_to_csv(trials: list[Trial], dimension_names: list[str]) -> str:
    return csv_text(
        ["trial_id", "state", "final_value", *dimension_names, "pruned_at_step"],
        (
            [t.trial_id, t.state, t.final_value, *[t.config[name] for name in dimension_names],
             t.pruned_at_step]
            for t in trials
        ),
    )


def _decide(
    trials: list[Trial], min_trials_before_prune: int, trial_id: int, step: int, value: float
) -> bool:
    """Record trial ``trial_id``'s checkpoint value; True continues it, False prunes it.

    The priors are the values at ``step`` of the earlier trials that did not
    fail, so the answer is final only once those trials have ended, or when
    there are too few of them to prune against.
    """
    trial = trials[trial_id]
    trial.intermediate_values.append((step, value))
    priors = [
        v
        for other in trials[:trial_id]
        if other.state != TRIAL_FAILED and (v := other.value_at(step)) is not None
    ]
    if should_prune(priors, value, min_trials_before_prune):
        trial.state = TRIAL_PRUNED
        trial.pruned_at_step = step
        return False
    return True


def _run_trial(run_args: tuple, trial_id: int, config: dict, report) -> tuple[float | None, bool]:
    """Run one trial with seed ``seed + 1 + trial_id``; returns its final
    value and whether it raised NumericError."""
    trial_runner, algo, env_id, seed, steps = run_args
    try:
        return trial_runner(algo, env_id, seed + 1 + trial_id, config, steps, report), False
    except NumericError:
        return None, True


def _end_trial(trial: Trial, final: float | None, failed: bool) -> None:
    if failed:
        trial.state = TRIAL_FAILED
        trial.final_value = None
    elif trial.state != TRIAL_PRUNED:
        trial.state = TRIAL_COMPLETE
        trial.final_value = None if final is None else float(final)


def _run_trials_in_workers(
    trials: list[Trial], min_trials_before_prune: int, parallel: int, run_args: tuple
) -> None:
    """Run the trials in forked workers behind the gate of the module docstring."""
    jobs = [(run_args, trial.trial_id, trial.config, ask_parent) for trial in trials]
    unended = set(range(len(trials)))
    pending = {}  # trial id -> (reply, step, value) awaiting a decision
    for trial_id, kind, payload, reply in run_in_workers(_run_trial, jobs, parallel):
        if kind == "ask":
            pending[trial_id] = (reply, *payload)
        else:
            _end_trial(trials[trial_id], *payload)
            unended.discard(trial_id)
        oldest = min(unended, default=None)
        for trial_id in sorted(pending):
            # The gate: too few priors to prune, or every earlier trial has ended.
            if trial_id < min_trials_before_prune or trial_id == oldest:
                reply, step, value = pending.pop(trial_id)
                reply(_decide(trials, min_trials_before_prune, trial_id, step, value))


def run_study(
    workspace: Path,
    algo: str,
    env_id: str,
    space: SearchSpace,
    n_trials: int,
    timesteps_per_trial: int,
    checkpoints: int = 4,
    seed: int = 0,
    trial_runner=training_trial_runner,
    min_trials_before_prune: int = MIN_TRIALS_BEFORE_PRUNE,
    parallel: int = 1,
) -> StudyReport:
    """Run a study and write trials.csv plus best_config.json.

    Trial i trains with seed ``seed + 1 + i``.  ``parallel`` 1 runs the
    trials one after another in this process; more runs them in that many
    workers forked from it, which needs a ``trial_runner`` that pickles (a
    module-level function).  The workers keep this process's BLAS settings,
    so the files are byte-identical across ``parallel``.
    """
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    if parallel < 1:
        raise ValidationError(f"parallel must be >= 1, got {parallel}")
    if min_trials_before_prune < 1:  # the median rule needs a prior trial
        raise ValidationError(
            f"min_trials_before_prune must be >= 1, got {min_trials_before_prune}"
        )
    steps = checkpoint_schedule(timesteps_per_trial, checkpoints)
    sampler = np.random.default_rng(seed)
    trials = [Trial(trial_id=i, config=sample_config(space, sampler)) for i in range(n_trials)]

    run_args = (trial_runner, algo, env_id, seed, steps)
    if parallel == 1:
        for trial in trials:
            report = functools.partial(_decide, trials, min_trials_before_prune, trial.trial_id)
            _end_trial(trial, *_run_trial(run_args, trial.trial_id, trial.config, report))
    else:
        _run_trials_in_workers(trials, min_trials_before_prune, parallel, run_args)

    complete = [t for t in trials if t.state == TRIAL_COMPLETE and t.final_value is not None]
    if not complete:
        raise ValidationError("no completed trial in study")
    best = max(complete, key=lambda t: t.final_value)

    studies_root = Path(workspace) / "studies"
    study_id = claim_numbered_dir(studies_root, "study_")
    study_dir = studies_root / f"study_{study_id}"
    atomic_write_text(study_dir / "trials.csv", trials_to_csv(trials, list(space)))
    atomic_write_text(study_dir / "best_config.json", json_text(best.config))
    return StudyReport(study_id=study_id, study_dir=study_dir, trials=trials, best=best)
