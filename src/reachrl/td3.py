"""Twin-delayed DDPG: twin critics, target policy smoothing, delayed actor.

Off-policy trainer over the reach-env interface.  The actor squashes its MLP
output through tanh so actions live in [-1, 1]; critics take the
concatenated (observation, action) vector.  The trainer steps through
``envs.run_episodes`` and updates before ``on_step`` sees the step.  Episodes
end only by time limit, so every target bootstraps, r + gamma * min(Q1', Q2'),
and the buffer keeps no done flag (Pardo et al., ICML 2018).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .agents import NET_SEED_OFFSET, NOISE_SEED_OFFSET, PolicyArtifact
from .envs import run_episodes
from .errors import NumericError, ValidationError
from .nets import (
    Mlp,
    adam_init,
    adam_step,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
)
from .ppo import HIDDEN_SIZES


@dataclass
class Td3Config:
    n_timesteps: int = 100_000
    buffer_size: int = 100_000
    batch_size: int = 256
    learning_starts: int = 1_000
    policy_delay: int = 2
    lr: float = 1e-3
    gamma: float = 0.99
    tau: float = 0.005
    policy_noise: float = 0.2
    noise_clip: float = 0.5
    explore_noise: float = 0.1

    def __post_init__(self):
        if self.buffer_size < self.batch_size:
            raise ValidationError(
                f"buffer_size {self.buffer_size} < batch_size {self.batch_size}"
            )
        if not 0.0 < self.tau <= 1.0:
            raise ValidationError(f"tau must be in (0, 1], got {self.tau}")
        if self.policy_delay < 1:
            raise ValidationError(f"policy_delay must be >= 1, got {self.policy_delay}")
        if self.n_timesteps < 1:
            raise ValidationError(f"n_timesteps must be >= 1, got {self.n_timesteps}")


class ReplayBuffer:
    """Fixed-capacity ring of transitions; sampling touches filled slots only."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        self.observations = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, act_dim))
        self.rewards = np.zeros(capacity)
        self.next_observations = np.zeros((capacity, obs_dim))
        self.size = 0
        self.cursor = 0

    def push(self, obs, action, reward, next_obs):
        i = self.cursor
        self.observations[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_observations[i] = next_obs
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        idx = rng.integers(0, self.size, size=batch_size)
        return {
            "observations": self.observations[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_observations": self.next_observations[idx],
        }


@dataclass
class Td3Nets:
    actor: Mlp
    critic1: Mlp
    critic2: Mlp
    actor_target: Mlp
    critic1_target: Mlp
    critic2_target: Mlp


def make_td3_nets(obs_dim: int, act_dim: int, rng: np.random.Generator) -> Td3Nets:
    actor = mlp_init([obs_dim, *HIDDEN_SIZES, act_dim], rng)
    critic1 = mlp_init([obs_dim + act_dim, *HIDDEN_SIZES, 1], rng)
    critic2 = mlp_init([obs_dim + act_dim, *HIDDEN_SIZES, 1], rng)
    return Td3Nets(
        actor=actor,
        critic1=critic1,
        critic2=critic2,
        actor_target=copy.deepcopy(actor),
        critic1_target=copy.deepcopy(critic1),
        critic2_target=copy.deepcopy(critic2),
    )


def actor_action(actor: Mlp, obs: np.ndarray) -> np.ndarray:
    return np.tanh(mlp_forward(actor, obs))


def polyak_update(online: Mlp, target: Mlp, tau: float) -> None:
    for src, dst in zip(online.params(), target.params()):
        dst *= 1.0 - tau
        dst += tau * src


@dataclass
class Td3UpdateReport:
    critic_loss: float
    actor_loss: float | None  # None on non-delayed steps


def td3_update(
    nets: Td3Nets,
    buffer: ReplayBuffer,
    config: Td3Config,
    step: int,
    rng: np.random.Generator,
    update_count: int,
    critic_adam,
    actor_adam,
) -> Td3UpdateReport:
    """One TD3 gradient step; the actor and targets move every policy_delay."""
    if buffer.size < config.batch_size or step < config.learning_starts:
        raise ValidationError(
            f"update requires buffer.size >= {config.batch_size} and "
            f"step >= {config.learning_starts} (got {buffer.size}, {step})"
        )
    batch = buffer.sample(config.batch_size, rng)
    obs = batch["observations"]
    n = len(obs)

    noise = np.clip(
        rng.normal(0.0, config.policy_noise, size=batch["actions"].shape),
        -config.noise_clip, config.noise_clip,
    )
    next_action = np.clip(
        np.tanh(mlp_forward(nets.actor_target, batch["next_observations"])) + noise,
        -1.0, 1.0,
    )
    next_in = np.concatenate([batch["next_observations"], next_action], axis=1)
    q1_t = mlp_forward(nets.critic1_target, next_in)[:, 0]
    q2_t = mlp_forward(nets.critic2_target, next_in)[:, 0]
    target = batch["rewards"] + config.gamma * np.minimum(q1_t, q2_t)

    critic_in = np.concatenate([obs, batch["actions"]], axis=1)
    q1, cache1 = mlp_forward_cached(nets.critic1, critic_in)
    q2, cache2 = mlp_forward_cached(nets.critic2, critic_in)
    q1, q2 = q1[:, 0], q2[:, 0]
    loss1 = float(np.mean((q1 - target) ** 2))
    loss2 = float(np.mean((q2 - target) ** 2))
    if not np.isfinite(loss1 + loss2):
        raise NumericError(f"non-finite critic loss: {loss1}, {loss2}")
    w1, b1, _ = mlp_backward_cached(nets.critic1, cache1, (2.0 * (q1 - target) / n)[:, None])
    w2, b2, _ = mlp_backward_cached(nets.critic2, cache2, (2.0 * (q2 - target) / n)[:, None])
    critic_params = nets.critic1.params() + nets.critic2.params()
    adam_step(critic_params, w1 + b1 + w2 + b2, critic_adam)

    actor_loss = None
    if update_count % config.policy_delay == 0:
        raw, actor_cache = mlp_forward_cached(nets.actor, obs)
        action = np.tanh(raw)
        q_in = np.concatenate([obs, action], axis=1)
        q_val, q_cache = mlp_forward_cached(nets.critic1, q_in)
        actor_loss = -float(np.mean(q_val))
        _, _, input_grad = mlp_backward_cached(
            nets.critic1, q_cache, np.full((n, 1), -1.0 / n)
        )
        action_grad = input_grad[:, obs.shape[1]:] * (1.0 - action**2)
        aw, ab, _ = mlp_backward_cached(nets.actor, actor_cache, action_grad)
        adam_step(nets.actor.params(), aw + ab, actor_adam)
        polyak_update(nets.actor, nets.actor_target, config.tau)
        polyak_update(nets.critic1, nets.critic1_target, config.tau)
        polyak_update(nets.critic2, nets.critic2_target, config.tau)

    return Td3UpdateReport(critic_loss=loss1 + loss2, actor_loss=actor_loss)


class Td3Trainer:
    """Owns the env, nets, replay buffer and rngs for one seed run."""

    def __init__(self, env, config: Td3Config, seed: int):
        self.env = env
        self.config = config
        obs_dim = env.config.obs_dim()
        act_dim = env.config.n_joints
        net_rng = np.random.default_rng(seed + NET_SEED_OFFSET)
        self.nets = make_td3_nets(obs_dim, act_dim, net_rng)
        self.noise_rng = np.random.default_rng(seed + NOISE_SEED_OFFSET)
        self.buffer = ReplayBuffer(config.buffer_size, obs_dim, act_dim)
        self.critic_adam = adam_init(
            self.nets.critic1.params() + self.nets.critic2.params(), config.lr
        )
        self.actor_adam = adam_init(self.nets.actor.params(), config.lr)
        self.global_step = 0
        self.update_count = 0

    def artifact(self):
        """The current actor, as a copy that later updates leave alone."""
        return PolicyArtifact(
            kind="tanh", net=copy.deepcopy(self.nets.actor), log_std=None,
            n_actions=self.env.config.n_joints,
        )

    def act(self, obs):
        """Uniform actions before learning_starts, then the actor's plus
        Gaussian exploration noise, clipped to [-1, 1]."""
        size = self.env.config.n_joints
        if self.global_step < self.config.learning_starts:
            return self.noise_rng.uniform(-1.0, 1.0, size=size)
        noise = self.noise_rng.normal(0.0, self.config.explore_noise, size=size)
        return np.clip(actor_action(self.nets.actor, obs) + noise, -1.0, 1.0)

    def train(self, log, on_step):
        """Step, store and update until n_timesteps; ``on_step(step)`` runs
        after each step's update, and returning False stops training."""
        cfg = self.config
        for step, obs, action, result in run_episodes(self.env, self.act, log.add, cfg.n_timesteps):
            self.global_step = step
            self.buffer.push(obs, action, result.reward, result.observation)
            if step >= cfg.learning_starts and self.buffer.size >= cfg.batch_size:
                self.update_count += 1
                td3_update(
                    self.nets, self.buffer, cfg, step, self.noise_rng, self.update_count,
                    self.critic_adam, self.actor_adam,
                )
            if not on_step(step):
                return
