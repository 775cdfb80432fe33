"""Twin-delayed DDPG: twin critics, target policy smoothing, delayed actor.

Off-policy trainer over the reach-env interface.  The actor squashes its MLP
output through tanh so actions live in [-1, 1]; critics take the
concatenated (observation, action) vector.  ``agents.train`` drives the
steps, and the trainer stores and learns from each before its checkpoints.
Episodes end only by time limit, so every target bootstraps, r + gamma *
min(Q1', Q2'), and the buffer keeps no done flag (Pardo et al., ICML 2018).

TD3 trains in ``nets.DTYPE``, float32, as PPO does: its nets, Adam moments,
replay buffer and batches are float32, which makes its batch-256 update
about 1.7x faster than in float64.  The weights are drawn in float64 and
rounded, and the noise is drawn in float64 from the same streams, so the
RNG draws are those of a float64 run; the env gets float64 actions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import HIDDEN_SIZES, NET_SEED_OFFSET, NOISE_SEED_OFFSET, PolicyArtifact, Td3Config
from .errors import NumericError, ValidationError
from .nets import (
    DTYPE,
    Mlp,
    adam_init,
    adam_step,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    pack,
)


class ReplayBuffer:
    """Fixed-capacity ring of transitions; sampling touches filled slots only."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        self.observations = np.zeros((capacity, obs_dim), dtype=DTYPE)
        self.actions = np.zeros((capacity, act_dim), dtype=DTYPE)
        self.rewards = np.zeros(capacity, dtype=DTYPE)
        self.next_observations = np.zeros((capacity, obs_dim), dtype=DTYPE)
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
            "observations": self.observations.take(idx, axis=0),
            "actions": self.actions.take(idx, axis=0),
            "rewards": self.rewards.take(idx),
            "next_observations": self.next_observations.take(idx, axis=0),
        }


@dataclass
class Td3Nets:
    """Online and target nets.  The actor and the twin ``critics`` are one
    optimiser group each, and each has a target vector the target nets view."""

    actor: Mlp
    critic1: Mlp
    critic2: Mlp
    critics: np.ndarray
    actor_target: Mlp
    critic1_target: Mlp
    critic2_target: Mlp
    critics_target: np.ndarray


def make_td3_nets(obs_dim: int, act_dim: int, rng: np.random.Generator) -> Td3Nets:
    """Nets drawn in float64, in the order actor, critic1, critic2, then
    rounded to ``DTYPE``."""
    actor, critic1, critic2 = [
        mlp_init([obs_dim, *HIDDEN_SIZES, act_dim], rng),
        mlp_init([obs_dim + act_dim, *HIDDEN_SIZES, 1], rng),
        mlp_init([obs_dim + act_dim, *HIDDEN_SIZES, 1], rng),
    ]
    pack([actor], DTYPE)
    critics = pack([critic1, critic2], DTYPE)
    targets = [critic1.copy(), critic2.copy()]
    return Td3Nets(actor, critic1, critic2, critics, actor.copy(), *targets, pack(targets))


def actor_action(actor: Mlp, obs: np.ndarray) -> np.ndarray:
    return np.tanh(mlp_forward(actor, obs))


def polyak_update(online: np.ndarray, target: np.ndarray, tau: float) -> None:
    target *= 1.0 - tau
    target += tau * online


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
    ).astype(DTYPE)
    next_action = np.clip(
        np.tanh(mlp_forward(nets.actor_target, batch["next_observations"])) + noise,
        -1.0, 1.0,
    )
    next_in = np.concatenate([batch["next_observations"], next_action], axis=1)
    q1_t = mlp_forward(nets.critic1_target, next_in)[:, 0]
    q2_t = mlp_forward(nets.critic2_target, next_in)[:, 0]
    target = batch["rewards"] + config.gamma * np.minimum(q1_t, q2_t)

    critic_in = np.concatenate([obs, batch["actions"]], axis=1)
    critic_grads, losses = np.empty_like(nets.critics), []
    # The twin critics have one shape, so each gradient is one row of the halved vector.
    for critic, grads in zip((nets.critic1, nets.critic2), critic_grads.reshape(2, -1)):
        q, cache = mlp_forward_cached(critic, critic_in)
        err = q[:, 0] - target
        losses.append(float(np.mean(err**2)))
        mlp_backward_cached(critic, cache, (2.0 * err / n)[:, None], grads, input_grad=False)
    if not np.isfinite(sum(losses)):
        raise NumericError(f"non-finite critic loss: {losses}")
    adam_step(nets.critics, critic_grads, critic_adam)

    actor_loss = None
    if update_count % config.policy_delay == 0:
        raw, actor_cache = mlp_forward_cached(nets.actor, obs)
        action = np.tanh(raw)
        q_in = np.concatenate([obs, action], axis=1)
        q_val, q_cache = mlp_forward_cached(nets.critic1, q_in)
        actor_loss = -float(np.mean(q_val))
        q_grad = np.full((n, 1), -1.0 / n, dtype=DTYPE)
        input_grad = mlp_backward_cached(nets.critic1, q_cache, q_grad)
        action_grad = input_grad[:, obs.shape[1]:] * (1.0 - action**2)
        actor_grads = np.empty_like(nets.actor.params)
        mlp_backward_cached(nets.actor, actor_cache, action_grad, actor_grads, input_grad=False)
        adam_step(nets.actor.params, actor_grads, actor_adam)
        polyak_update(nets.actor.params, nets.actor_target.params, config.tau)
        polyak_update(nets.critics, nets.critics_target, config.tau)

    return Td3UpdateReport(critic_loss=sum(losses), actor_loss=actor_loss)


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
        self.critic_adam = adam_init(self.nets.critics, config.lr)
        self.actor_adam = adam_init(self.nets.actor.params, config.lr)
        self.global_step = 0
        self.update_count = 0

    def artifact(self):
        """The current actor, as a copy that later updates leave alone."""
        return PolicyArtifact(
            kind="tanh", net=self.nets.actor.copy(), log_std=None,
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

    def observe(self, step, obs, action, result):
        """Store the transition, then update once learning has started."""
        cfg = self.config
        self.global_step = step
        self.buffer.push(obs, action, result.reward, result.observation)
        if step >= cfg.learning_starts and self.buffer.size >= cfg.batch_size:
            self.update_count += 1
            td3_update(
                self.nets, self.buffer, cfg, step, self.noise_rng, self.update_count,
                self.critic_adam, self.actor_adam,
            )
