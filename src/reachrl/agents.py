"""Training entry points shared by every algorithm.

One integer seed fully determines a run; the trainer derives its streams
from it with fixed offsets: env seed = s, network init seed = s + 1000,
action/exploration noise seed = s + 2000 (evaluation envs use s + 3000).

A trainer owns its env, nets and rngs exclusively, so runs with different
seeds can execute concurrently with zero shared mutable state.  Every
trainer steps through ``envs.run_episodes`` with ``TrainingLog.add`` as its
episode callback, and calls ``on_step(s)`` once it has used step s.

The PPO and TD3 modules are imported on first use, so loading and
evaluating a policy loads no trainer.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import make_env, registry_lookup, run_episodes
from .errors import NumericError, ValidationError
from .nets import Mlp, mlp_forward, mlp_from_dict, mlp_to_dict

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


@dataclass
class RandomConfig:
    """The random-action baseline has no knobs beyond the step budget."""

    n_timesteps: int = 100_000

    def __post_init__(self):
        if self.n_timesteps < 1:
            raise ValidationError(f"n_timesteps must be >= 1, got {self.n_timesteps}")


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
    return PolicyArtifact(kind=kind, net=net, log_std=log_std, n_actions=net.out_dim)


def policy_to_json(policy: PolicyArtifact) -> str:
    return json.dumps(policy_to_dict(policy)) + "\n"


def policy_from_json(text: str | bytes, source: str = "text") -> PolicyArtifact:
    """The policy ``policy_to_json`` wrote; anything else raises ValidationError."""
    try:
        return policy_from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError, ValidationError) as err:  # decode errors too
        raise ValidationError(f"{source} is not a valid policy: {err!r}") from None


def make_algo_config(algo: str, n_timesteps: int, hyperparams: dict | None = None):
    """Build an algorithm config from defaults plus hyperparameter overrides."""
    if algo not in SUPPORTED_ALGOS:
        raise ValidationError(
            f"unknown algo {algo!r}; supported: {', '.join(SUPPORTED_ALGOS)}"
        )
    if algo == "ppo":
        from .ppo import PpoConfig as cls
    elif algo == "td3":
        from .td3 import Td3Config as cls
    else:
        cls = RandomConfig
    hyperparams = dict(hyperparams or {})
    if "n_timesteps" in hyperparams:
        raise ValidationError("n_timesteps is set by the experiment, not a hyperparameter")
    valid = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(hyperparams) - set(valid))
    if unknown:
        raise ValidationError(
            f"unknown hyperparameters for {algo}: {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(valid))}"
        )
    coerced = {}
    for name, value in hyperparams.items():
        coerced[name] = int(value) if valid[name] == "int" else float(value)
    return cls(n_timesteps=n_timesteps, **coerced)


def _train_random(env, config: RandomConfig, seed: int, log, on_step):
    rng = np.random.default_rng(seed + NOISE_SEED_OFFSET)
    act_dim = env.config.n_joints
    act = lambda obs: rng.uniform(-1.0, 1.0, size=act_dim)
    for step, *_ in run_episodes(env, act, log.add, config.n_timesteps):
        if not on_step(step):
            break


def train(
    algo: str,
    env_id: str,
    seed: int,
    config=None,
    checkpoint_steps: tuple[int, ...] = (),
    checkpoint_fn: Callable[[int, PolicyArtifact], bool] | None = None,
) -> tuple[PolicyArtifact, TrainingLog]:
    """Run one fully deterministic training run and return its artifacts.

    ``checkpoint_fn(step, policy)`` fires for each step in
    ``checkpoint_steps`` once training has used that step, so it scores the
    policy that training would return if it stopped there (for PPO, after
    the update at a rollout's end); returning False stops the run early
    (used by the hyperparameter study pruner).  Raises NumericError with the
    partial log attached if training diverges.
    """
    algo = algo.lower()
    if algo not in SUPPORTED_ALGOS:
        raise ValidationError(
            f"unknown algo {algo!r}; supported: {', '.join(SUPPORTED_ALGOS)}"
        )
    registry_lookup(env_id)
    if config is None:
        config = make_algo_config(algo, n_timesteps=100_000)
    log = TrainingLog()
    env = make_env(env_id, seed=seed)
    if algo == "random":
        artifact = lambda: PolicyArtifact(kind="random", n_actions=env.config.n_joints)
    else:
        if algo == "ppo":
            from .ppo import PpoTrainer as Trainer
        else:
            from .td3 import Td3Trainer as Trainer
        trainer = Trainer(env, config, seed)
        artifact = trainer.artifact
    pending = sorted(checkpoint_steps) if checkpoint_fn is not None else []

    def on_step(step):
        while pending and step >= pending[0]:
            if not checkpoint_fn(pending.pop(0), artifact()):
                return False
        return True

    try:
        if algo == "random":
            _train_random(env, config, seed, log, on_step)
        else:
            trainer.train(log, on_step)
    except NumericError as err:
        err.training_log = log
        raise
    return artifact(), log
