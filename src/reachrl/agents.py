"""Training entry points shared by every algorithm.

One integer seed fully determines a run; the trainer derives its streams
from it with fixed offsets: env seed = s, network init seed = s + 1000,
action/exploration noise seed = s + 2000 (evaluation envs use s + 3000).

A trainer owns its env, nets and rngs exclusively, so runs with different
seeds can execute concurrently with zero shared mutable state.  It only
acts and observes: ``train`` is the one training loop, which steps every
trainer through ``envs.run_episodes`` with ``TrainingLog.add`` as its
episode callback, hands the trainer each step, and then runs the
checkpoints due at that step.

The PPO and TD3 modules are imported on first use, so loading and
evaluating a policy loads no trainer.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import make_env, run_episodes
from .errors import NumericError, ValidationError
from .nets import LOG_STD_MAX, LOG_STD_MIN, Mlp, mlp_forward, mlp_from_dict, mlp_to_dict

NET_SEED_OFFSET = 1000
NOISE_SEED_OFFSET = 2000
EVAL_SEED_OFFSET = 3000

SUPPORTED_ALGOS = ("ppo", "td3", "random")

TRAINING_LOG_HEADER = ("timestep", "episode", "episode_return", "episode_final_distance_m")


@dataclass
class LogRow:
    timestep: int
    episode: int
    episode_return: float
    episode_final_distance_m: float


@dataclass
class TrainingLog:
    """One row per completed training episode, timesteps strictly increasing."""

    rows: list[LogRow] = field(default_factory=list)

    def add(self, timestep, episode, episode_return, final_distance):
        self.rows.append(LogRow(int(timestep), int(episode), float(episode_return), float(final_distance)))


# The codec is imported on first use: list-envs loads this module, not csv.
def training_log_to_csv(log: TrainingLog) -> str:
    from .ioutil import csv_text

    return csv_text(
        TRAINING_LOG_HEADER,
        ((r.timestep, r.episode, r.episode_return, r.episode_final_distance_m) for r in log.rows),
    )


def training_log_from_csv(text: str, source: str = "training_log.csv") -> TrainingLog:
    from .ioutil import csv_rows

    log = TrainingLog()
    for row in csv_rows(text, TRAINING_LOG_HEADER, (int, int, float, float), source):
        log.add(*row)
    return log


def hp(default, domain: str):
    """A config field: its default, whose type is the field's, and its domain, such as "(0, 1]"."""
    return field(default=default, metadata={"domain": domain})


def _checked(name: str, value, kind: type, domain: str):
    """``value``, or the number a string or a numpy scalar stands for, as a
    ``kind``.  ValidationError if there is none (a bool, text, a fraction for
    an int) or it is outside ``domain``, as NaN and infinities are: no domain
    is closed at infinity."""
    number = value
    if isinstance(value, str):
        with suppress(ValueError):  # the int it spells, else the float
            number = float(value)
            number = int(value)
    if isinstance(number, (int, float, np.integer, np.floating)) and not isinstance(number, bool):
        with suppress(OverflowError):  # float(10**400); int() keeps an int exact
            if kind is float or float(number).is_integer():
                number = kind(number)
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    if not (type(number) is kind and (lo < number if domain[0] == "(" else lo <= number)
            and (number < hi if domain[-1] == ")" else number <= hi)):
        wanted = "an integer" if kind is int else "a number"
        raise ValidationError(f"{name} must be {wanted} in {domain}, got {value!r}")
    return number


@dataclass
class AlgoConfig:
    """The random baseline's config and the base of the others: construction
    replaces each value with its ``_checked`` form, as its field's ``hp`` says."""

    n_timesteps: int = hp(100_000, "[1, inf)")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = _checked(f.name, getattr(self, f.name), type(f.default), f.metadata["domain"])
            setattr(self, f.name, value)


@dataclass
class PolicyArtifact:
    """A trained policy in serialisable form.

    kind "gaussian": action ~ N(net(obs), exp(log_std)); deterministic = mean.
    kind "tanh": action = tanh(net(obs)) (deterministic actor).
    kind "random": uniform in [-1, 1]; deterministic = zero action.
    """

    kind: str
    net: Mlp | None = None
    log_std: np.ndarray | None = None
    n_actions: int = 0

    def draw_noise(
        self, deterministic: bool, rng: np.random.Generator | None, shape: tuple
    ) -> np.ndarray | None:
        """Action noise of ``shape`` (last axis: actions), or None if none is drawn.

        Values are drawn in C order, so one (episodes, steps, n_actions) block
        holds the stream that an episode-by-episode loop consumes.
        """
        if deterministic or self.kind == "tanh":
            return None
        if self.kind == "random":
            return rng.uniform(-1.0, 1.0, size=shape)
        return rng.standard_normal(shape)

    def act_with_noise(self, obs, noise: np.ndarray | None):
        """Action for one observation, or a row per observation of a batch."""
        if self.kind == "random":
            return np.zeros(np.shape(obs)[:-1] + (self.n_actions,)) if noise is None else noise
        out = mlp_forward(self.net, obs)
        if self.kind == "tanh":
            return np.tanh(out)
        return out if noise is None else out + np.exp(self.log_std) * noise


def policy_to_dict(policy: PolicyArtifact) -> dict:
    doc = {"kind": policy.kind}
    if policy.net is not None:
        doc.update(mlp_to_dict(policy.net))
    else:
        doc.update({"layer_shapes": [], "weights": [], "biases": []})
    doc["log_std"] = [] if policy.log_std is None else policy.log_std.tolist()
    if policy.kind == "random":
        doc["n_actions"] = policy.n_actions
    return doc


def policy_from_dict(doc: dict) -> PolicyArtifact:
    kind = doc.get("kind", "gaussian")
    if kind == "random":
        return PolicyArtifact(kind=kind, n_actions=int(doc["n_actions"]))
    if kind not in ("gaussian", "tanh"):
        raise ValidationError(f"unknown policy kind {kind!r}")
    net = mlp_from_dict(doc)
    log_std = np.asarray(doc["log_std"], dtype=float) if kind == "gaussian" else None
    if log_std is not None and log_std.shape != (net.out_dim,):
        raise ValidationError(f"log_std of shape {log_std.shape} for {net.out_dim} actions")
    if log_std is not None and not ((LOG_STD_MIN <= log_std) & (log_std <= LOG_STD_MAX)).all():
        raise ValidationError(f"log_std {log_std.tolist()} outside [{LOG_STD_MIN}, {LOG_STD_MAX}]")
    return PolicyArtifact(kind=kind, net=net, log_std=log_std, n_actions=net.out_dim)


def policy_to_json(policy: PolicyArtifact) -> str:
    return json.dumps(policy_to_dict(policy)) + "\n"


def policy_from_json(text: str | bytes, source: str = "text") -> PolicyArtifact:
    """The policy ``policy_to_json`` wrote; anything else raises ValidationError."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValidationError(f"a JSON {type(doc).__name__}, not an object")
        return policy_from_dict(doc)
    except (KeyError, TypeError, ValueError, ValidationError) as err:  # decode errors too
        raise ValidationError(f"{source} is not a valid policy: {err!r}") from None


def _algo(algo: str) -> tuple[type, type]:
    """The config class and the trainer of ``algo``; the one place an unknown
    algo is rejected.  A trainer takes ``(env, config, seed)`` and has
    ``act(obs)``, ``observe(step, obs, action, result)``, which learns from
    a step once its action ran, and ``artifact()``."""
    if algo == "ppo":
        from .ppo import PpoConfig, PpoTrainer

        return PpoConfig, PpoTrainer
    if algo == "td3":
        from .td3 import Td3Config, Td3Trainer

        return Td3Config, Td3Trainer
    if algo == "random":
        return AlgoConfig, RandomTrainer
    raise ValidationError(f"unknown algo {algo!r}; supported: {', '.join(SUPPORTED_ALGOS)}")


def make_algo_config(algo: str, n_timesteps: int, hyperparams: dict | None = None):
    """Build an algorithm config from defaults plus overrides, which its ``hp`` table checks."""
    cls, _ = _algo(algo)
    hyperparams = hyperparams or {}
    if "n_timesteps" in hyperparams:
        raise ValidationError("n_timesteps is set by the experiment, not a hyperparameter")
    unknown = sorted(set(hyperparams) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValidationError(
            f"unknown hyperparameters for {algo}: {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(cls.__dataclass_fields__))}"
        )
    return cls(n_timesteps=n_timesteps, **hyperparams)


class RandomTrainer:
    """The random baseline: uniform actions in [-1, 1], and nothing to learn."""

    def __init__(self, env, config: AlgoConfig, seed: int):
        self.env = env
        self.rng = np.random.default_rng(seed + NOISE_SEED_OFFSET)

    def artifact(self):
        return PolicyArtifact(kind="random", n_actions=self.env.config.n_joints)

    def act(self, obs):
        return self.rng.uniform(-1.0, 1.0, size=self.env.config.n_joints)

    def observe(self, step, obs, action, result):
        pass


def train(
    algo: str,
    env_id: str,
    seed: int,
    config,
    checkpoint_steps: tuple[int, ...] = (),
    checkpoint_fn: Callable[[int, PolicyArtifact], bool] | None = None,
) -> tuple[PolicyArtifact, TrainingLog]:
    """Run one fully deterministic training run and return its artifacts.

    Each of the ``config.n_timesteps`` steps goes to ``trainer.observe``
    once its action ran.  Then ``checkpoint_fn(step, policy)`` fires for
    each step in ``checkpoint_steps`` that has come, so it scores the policy
    that training would return if it stopped there (for PPO, after the
    update at a rollout's end); returning False stops the run early (used
    by the hyperparameter study pruner).  Raises NumericError with the
    partial log attached if training diverges.
    """
    _, Trainer = _algo(algo.lower())
    log = TrainingLog()
    trainer = Trainer(make_env(env_id, seed=seed), config, seed)
    pending = sorted(checkpoint_steps) if checkpoint_fn is not None else []
    # Local: a stream stored on the trainer would hold trainer.act, a cycle.
    steps = run_episodes(trainer.env, trainer.act, log.add, config.n_timesteps)
    try:
        for step, obs, action, result in steps:
            trainer.observe(step, obs, action, result)
            while pending and step >= pending[0]:
                if not checkpoint_fn(pending.pop(0), trainer.artifact()):
                    return trainer.artifact(), log
    except NumericError as err:
        err.training_log = log
        raise
    return trainer.artifact(), log
