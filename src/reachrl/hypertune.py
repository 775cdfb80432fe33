"""Hyperparameter studies: random search with median pruning.

A study samples trial configs from a search space, trains each trial while
reporting the mean deterministic evaluation return (higher is better) at
evenly spaced checkpoints, and prunes a trial whose checkpoint value falls
strictly below the median of prior trials at the same checkpoint.  Studies
run sequentially and are deterministic given their seed.
"""

from __future__ import annotations

import csv
import io
import json
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import EVAL_SEED_OFFSET, make_algo_config, train
from .errors import NumericError, ValidationError
from .ioutil import atomic_write_text, claim_numbered_dir

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
):
    """Train to the last checkpoint, evaluating at each one (no pruning).

    Returns (policy artifact, training log, [(step, mean_eval_return)]).
    Module-level so process pools can run seeds concurrently.
    """
    config = make_algo_config(algo, n_timesteps=checkpoint_steps[-1], hyperparams=hyperparams)
    values = []

    def on_checkpoint(step, artifact):
        values.append((step, checkpoint_eval_return(artifact, env_id, seed, n_eval_episodes)))
        return True

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
    config = make_algo_config(algo, n_timesteps=checkpoint_steps[-1], hyperparams=trial_config)
    values = {}

    def on_checkpoint(step, artifact):
        value = checkpoint_eval_return(artifact, env_id, seed, n_eval_episodes)
        values[step] = value
        return report(step, value)

    train(algo, env_id, seed, config, tuple(checkpoint_steps), on_checkpoint)
    last = checkpoint_steps[-1]
    return values.get(last)


def _next_study_id(studies_root: Path) -> int:
    if not studies_root.is_dir():
        return 1
    ids = [
        int(m.group(1))
        for child in studies_root.iterdir()
        if (m := re.fullmatch(r"study_(\d+)", child.name)) and child.is_dir()
    ]
    return max(ids, default=0) + 1


def trials_to_csv(trials: list[Trial], dimension_names: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["trial_id", "state", "final_value", *dimension_names, "pruned_at_step"])
    for t in trials:
        writer.writerow(
            [
                t.trial_id,
                t.state,
                "" if t.final_value is None else repr(float(t.final_value)),
                *[t.config[name] for name in dimension_names],
                "" if t.pruned_at_step is None else t.pruned_at_step,
            ]
        )
    return buffer.getvalue()


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
) -> StudyReport:
    """Run a sequential study and write trials.csv plus best_config.json."""
    if n_trials < 1:
        raise ValidationError(f"n_trials must be >= 1, got {n_trials}")
    steps = checkpoint_schedule(timesteps_per_trial, checkpoints)
    sampler = np.random.default_rng(seed)
    trials: list[Trial] = []

    for trial_id in range(n_trials):
        trial = Trial(trial_id=trial_id, config=sample_config(space, sampler))

        def report(step, value, trial=trial):
            trial.intermediate_values.append((step, value))
            priors = [
                v
                for other in trials
                if other.state != TRIAL_FAILED and (v := other.value_at(step)) is not None
            ]
            if should_prune(priors, value, min_trials_before_prune):
                trial.state = TRIAL_PRUNED
                trial.pruned_at_step = step
                return False
            return True

        try:
            final = trial_runner(algo, env_id, seed + 1 + trial_id, trial.config, steps, report)
        except NumericError:
            trial.state = TRIAL_FAILED
            trial.final_value = None
        else:
            if trial.state != TRIAL_PRUNED:
                trial.state = TRIAL_COMPLETE
                trial.final_value = None if final is None else float(final)
        trials.append(trial)

    complete = [t for t in trials if t.state == TRIAL_COMPLETE and t.final_value is not None]
    if not complete:
        raise ValidationError("no completed trial in study")
    best = max(complete, key=lambda t: t.final_value)

    studies_root = Path(workspace) / "studies"
    study_id = claim_numbered_dir(studies_root, "study_", _next_study_id(studies_root))
    study_dir = studies_root / f"study_{study_id}"
    atomic_write_text(study_dir / "trials.csv", trials_to_csv(trials, list(space)))
    atomic_write_text(
        study_dir / "best_config.json", json.dumps(best.config, indent=2) + "\n"
    )
    return StudyReport(study_id=study_id, study_dir=study_dir, trials=trials, best=best)
