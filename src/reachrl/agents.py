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

The PPO and TD3 modules are imported on first use, so reading a config and
loading and evaluating a policy load no trainer.
"""

from __future__ import annotations

import dataclasses
import json
import reprlib
from dataclasses import dataclass, field, make_dataclass
from typing import Callable

import numpy as np

from .envs import make_env, run_episodes
from .errors import CorruptDataError, NumericError, ValidationError
from .nets import LOG_STD_MAX, LOG_STD_MIN, Mlp, mlp_forward, mlp_from_dict, mlp_to_dict
from .schema import checked

NET_SEED_OFFSET = 1000
NOISE_SEED_OFFSET = 2000
EVAL_SEED_OFFSET = 3000
HIDDEN_SIZES = (64, 64)  # every trainer's nets: two tanh layers of 64

POLICY_KINDS = ("gaussian", "tanh", "random")

# training_log.csv's columns and the row that holds them; its reader also
# checks that episodes count 1, 2, ... and that timesteps strictly increase.
TRAINING_LOG_COLUMNS = (
    ("timestep", int, "[1, inf)"), ("episode", int, "[1, inf)"),
    ("episode_return", float, "(-inf, inf)"), ("episode_final_distance_m", float, "[0, inf)"),
)
LogRow = make_dataclass("LogRow", [(name, kind) for name, kind, _ in TRAINING_LOG_COLUMNS],
                        namespace={"__module__": __name__})  # so that a row pickles


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
        [name for name, _, _ in TRAINING_LOG_COLUMNS],
        ((r.timestep, r.episode, r.episode_return, r.episode_final_distance_m) for r in log.rows),
    )


def training_log_from_csv(text: str, source: str = "training_log.csv") -> TrainingLog:
    from .ioutil import csv_rows

    log = TrainingLog()
    for n, (timestep, episode, *rest) in enumerate(csv_rows(text, TRAINING_LOG_COLUMNS, source), 1):
        if episode != n:  # on line n + 1, after the header
            raise CorruptDataError(f"{source}: line {n + 1}: bad episode {episode!r}: not {n}")
        if log.rows and timestep <= (last := log.rows[-1].timestep):
            raise CorruptDataError(f"{source}: line {n + 1}: bad timestep {timestep!r}: not above {last}")
        log.rows.append(LogRow(timestep, episode, *rest))
    return log


def hp(default, domain: str):
    """A config field: its default, whose type is the field's, and its domain, such as "(0, 1]"."""
    return field(default=default, metadata={"domain": domain})


@dataclass
class AlgoConfig:
    """The random baseline's config and the base of the others: construction
    replaces each value with its ``schema.checked`` form, as its field's
    ``hp`` says, reading text as the number it spells."""

    n_timesteps: int = hp(100_000, "[1, inf)")

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = checked(f.name, getattr(self, f.name), type(f.default), f.metadata["domain"], parse=True)
            setattr(self, f.name, value)


@dataclass
class PpoConfig(AlgoConfig):
    rollout_len: int = hp(2048, "[1, inf)")
    minibatch_size: int = hp(64, "[1, inf)")
    n_epochs: int = hp(10, "[1, inf)")
    lr: float = hp(3e-4, "(0, inf)")
    gamma: float = hp(0.99, "(0, 1]")
    gae_lambda: float = hp(0.95, "[0, 1]")
    clip_range: float = hp(0.2, "(0, inf)")
    ent_coef: float = hp(0.0, "[0, inf)")
    vf_coef: float = hp(0.5, "[0, inf)")
    max_grad_norm: float = hp(0.5, "(0, inf)")

    def __post_init__(self):
        super().__post_init__()
        if self.rollout_len % self.minibatch_size != 0:
            raise ValidationError(
                f"rollout_len {self.rollout_len} not divisible by "
                f"minibatch_size {self.minibatch_size}"
            )


@dataclass
class Td3Config(AlgoConfig):
    buffer_size: int = hp(100_000, "[1, inf)")
    batch_size: int = hp(256, "[1, inf)")
    learning_starts: int = hp(1_000, "[0, inf)")
    policy_delay: int = hp(2, "[1, inf)")
    lr: float = hp(1e-3, "(0, inf)")
    gamma: float = hp(0.99, "[0, 1]")
    tau: float = hp(0.005, "(0, 1]")
    policy_noise: float = hp(0.2, "[0, inf)")
    noise_clip: float = hp(0.5, "[0, inf)")
    explore_noise: float = hp(0.1, "[0, inf)")

    def __post_init__(self):
        super().__post_init__()
        if self.buffer_size < self.batch_size:
            raise ValidationError(
                f"buffer_size {self.buffer_size} < batch_size {self.batch_size}"
            )


_CONFIGS = {"ppo": PpoConfig, "td3": Td3Config, "random": AlgoConfig}
SUPPORTED_ALGOS = tuple(_CONFIGS)


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


def policy_to_json(policy: PolicyArtifact) -> str:
    doc = {"kind": policy.kind}
    if policy.net is not None:
        doc.update(mlp_to_dict(policy.net))
    else:
        doc.update({"layer_shapes": [], "weights": [], "biases": []})
    doc["log_std"] = [] if policy.log_std is None else policy.log_std.tolist()
    if policy.kind == "random":
        doc["n_actions"] = policy.n_actions
    return json.dumps(doc) + "\n"


def policy_from_json(text: str | bytes, source: str = "text") -> PolicyArtifact:
    """The policy ``policy_to_json`` wrote, each field as ``schema.checked``
    reads it: a random policy has ``n_actions``, the others a net, and a
    Gaussian one ``log_std`` per action.  Bytes must be UTF-8.  Anything else
    raises ValidationError."""
    try:
        # Strict: json.loads would take bytes in UTF-16 or UTF-32 too.
        doc = checked("policy", json.loads(text.decode() if isinstance(text, bytes) else text), dict)
        kind = checked("kind", doc.get("kind"), str, POLICY_KINDS)
        if kind == "random":
            return PolicyArtifact(kind, n_actions=checked("n_actions", doc.get("n_actions"), int, "[1, inf)"))
        net, log_std = mlp_from_dict(doc), None
        if kind == "gaussian":
            log_std = checked("log_std", doc["log_std"], np.dtype(float), f"[{LOG_STD_MIN}, {LOG_STD_MAX}]")
            if log_std.shape != (net.out_dim,):
                raise ValidationError(f"log_std of shape {log_std.shape} for {net.out_dim} actions")
        return PolicyArtifact(kind=kind, net=net, log_std=log_std, n_actions=net.out_dim)
    except UnicodeDecodeError as err:  # its repr holds the whole input
        raise ValidationError(f"{source} is not a valid policy: not UTF-8 at byte offset {err.start}") from None
    except (KeyError, TypeError, ValueError, ValidationError) as err:  # JSON errors too
        raise ValidationError(f"{source} is not a valid policy: {err!r}") from None


def make_algo_config(algo: str, n_timesteps: int, hyperparams: dict | None = None):
    """Build an algorithm config from defaults plus overrides, which its ``hp`` table checks."""
    cls = _CONFIGS[checked("algo", algo, str, SUPPORTED_ALGOS)]
    hyperparams = hyperparams or {}
    if "n_timesteps" in hyperparams:
        raise ValidationError("n_timesteps is set by the experiment, not a hyperparameter")
    unknown = sorted(set(hyperparams) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValidationError(
            f"unknown hyperparameters for {algo}: {reprlib.repr(unknown)}; "
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

    A trainer takes ``(env, config, seed)`` and has ``act(obs)``, ``observe(step,
    obs, action, result)`` and ``artifact()``; its module loads only here.
    """
    algo = checked("algo", algo.lower(), str, SUPPORTED_ALGOS)
    if algo == "ppo":
        from .ppo import PpoTrainer as Trainer
    elif algo == "td3":
        from .td3 import Td3Trainer as Trainer
    else:
        Trainer = RandomTrainer
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
