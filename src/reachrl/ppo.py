"""Proximal policy optimization: clipped surrogate objective with GAE.

On-policy trainer over the reach-env interface.  The Gaussian policy uses a
state-independent learnable log standard deviation; policy net, log_std and
value net share a single Adam optimizer, and the global gradient norm is
clipped before every step.  Rollouts are consecutive slices of one
``envs.run_episodes`` stream per ``train`` call; an episode may span two.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .agents import NET_SEED_OFFSET, NOISE_SEED_OFFSET, PolicyArtifact
from .envs import run_episodes
from .errors import NumericError, ValidationError
from .nets import (
    GaussianHead,
    Mlp,
    adam_init,
    adam_step,
    clip_grad_norm,
    gaussian_entropy,
    gaussian_log_prob,
    gaussian_sample,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
)

HIDDEN_SIZES = (64, 64)


@dataclass
class PpoConfig:
    n_timesteps: int = 100_000
    rollout_len: int = 2048
    minibatch_size: int = 64
    n_epochs: int = 10
    lr: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    ent_coef: float = 0.0
    vf_coef: float = 0.5
    max_grad_norm: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValidationError(f"gae_lambda must be in [0, 1], got {self.gae_lambda}")
        if self.clip_range <= 0:
            raise ValidationError(f"clip_range must be positive, got {self.clip_range}")
        if self.rollout_len % self.minibatch_size != 0:
            raise ValidationError(
                f"rollout_len {self.rollout_len} not divisible by "
                f"minibatch_size {self.minibatch_size}"
            )
        if self.n_timesteps < 1:
            raise ValidationError(f"n_timesteps must be >= 1, got {self.n_timesteps}")


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    next_value: float,
    dones: np.ndarray,
    gamma: float,
    gae_lambda: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and the matching value targets.

    delta_t = r_t + gamma * V_{t+1} * (1 - done_t) - V_t
    A_t     = delta_t + gamma * lambda * (1 - done_t) * A_{t+1}
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    if not rewards.shape == values.shape == dones.shape:
        raise ValidationError(
            f"mismatched rollout lengths: rewards {rewards.shape}, "
            f"values {values.shape}, dones {dones.shape}"
        )
    n = len(rewards)
    advantages = np.zeros(n)
    last = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        v_next = next_value if t == n - 1 else values[t + 1]
        delta = rewards[t] + gamma * v_next * nonterminal - values[t]
        last = delta + gamma * gae_lambda * nonterminal * last
        advantages[t] = last
    return advantages, advantages + values


@dataclass
class RolloutBatch:
    observations: np.ndarray  # (T, obs_dim)
    actions: np.ndarray  # (T, act_dim)
    log_probs: np.ndarray  # (T,)
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    next_value: float


@dataclass
class PpoUpdateReport:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float


def ppo_loss_and_grads(
    policy: Mlp,
    head: GaussianHead,
    value_net: Mlp,
    observations: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: PpoConfig,
) -> tuple[PpoUpdateReport, list[np.ndarray]]:
    """Losses and exact gradients for one minibatch (advantages pre-normalised).

    The gradient list is ordered like [policy params..., log_std, value params...].
    """
    n = len(observations)
    eps = config.clip_range

    mean, policy_cache = mlp_forward_cached(policy, observations)
    std = np.exp(head.log_std)
    log_probs = gaussian_log_prob(mean, head.log_std, actions)
    ratio = np.exp(log_probs - old_log_probs)
    clipped_ratio = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    unclipped_obj = ratio * advantages
    clipped_obj = clipped_ratio * advantages
    policy_loss = -float(np.mean(np.minimum(unclipped_obj, clipped_obj)))
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > eps))
    entropy = gaussian_entropy(head.log_std)

    # Gradient flows only through samples where the unclipped branch is active.
    active = unclipped_obj <= clipped_obj
    d_log_prob = np.where(active, -ratio * advantages, 0.0) / n
    z = (actions - mean) / std
    mean_grad = d_log_prob[:, None] * (z / std)
    log_std_grad = (d_log_prob[:, None] * (z**2 - 1.0)).sum(axis=0)
    log_std_grad -= config.ent_coef  # d(-ent_coef * entropy)/d log_std = -ent_coef
    pw, pb, _ = mlp_backward_cached(policy, policy_cache, mean_grad)

    v, value_cache = mlp_forward_cached(value_net, observations)
    v = v[:, 0]
    value_loss = float(np.mean((v - returns) ** 2))
    v_grad = (config.vf_coef * 2.0 * (v - returns) / n)[:, None]
    vw, vb, _ = mlp_backward_cached(value_net, value_cache, v_grad)

    total = policy_loss + config.vf_coef * value_loss - config.ent_coef * entropy
    if not np.isfinite(total):
        raise NumericError(f"non-finite PPO loss: {total}")

    grads = pw + pb + [log_std_grad] + vw + vb
    report = PpoUpdateReport(policy_loss, value_loss, entropy, clip_fraction)
    return report, grads


def ppo_update(
    policy: Mlp,
    head: GaussianHead,
    value_net: Mlp,
    batch: RolloutBatch,
    config: PpoConfig,
    adam,
    rng: np.random.Generator,
) -> PpoUpdateReport:
    """Run n_epochs of shuffled minibatch updates on one rollout batch."""
    advantages, returns = compute_gae(
        batch.rewards, batch.values, batch.next_value, batch.dones,
        config.gamma, config.gae_lambda,
    )
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    params = policy.params() + [head.log_std] + value_net.params()
    n = len(batch.rewards)
    reports = []
    for _ in range(config.n_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.minibatch_size):
            idx = perm[start : start + config.minibatch_size]
            report, grads = ppo_loss_and_grads(
                policy, head, value_net,
                batch.observations[idx], batch.actions[idx],
                batch.log_probs[idx], advantages[idx], returns[idx],
                config,
            )
            clip_grad_norm(grads, config.max_grad_norm)
            adam_step(params, grads, adam)
            head.clamp()
            reports.append(report)
    return PpoUpdateReport(
        policy_loss=float(np.mean([r.policy_loss for r in reports])),
        value_loss=float(np.mean([r.value_loss for r in reports])),
        entropy=float(np.mean([r.entropy for r in reports])),
        clip_fraction=float(np.mean([r.clip_fraction for r in reports])),
    )


class PpoTrainer:
    """Owns the env, the nets and the rngs for one seed run."""

    def __init__(self, env, config: PpoConfig, seed: int):
        self.env = env
        self.config = config
        obs_dim = env.config.obs_dim()
        act_dim = env.config.n_joints
        net_rng = np.random.default_rng(seed + NET_SEED_OFFSET)
        self.policy = mlp_init([obs_dim, *HIDDEN_SIZES, act_dim], net_rng)
        self.value_net = mlp_init([obs_dim, *HIDDEN_SIZES, 1], net_rng)
        self.head = GaussianHead(np.zeros(act_dim))
        self.sampler = np.random.default_rng(seed + NOISE_SEED_OFFSET)
        params = self.policy.params() + [self.head.log_std] + self.value_net.params()
        self.adam = adam_init(params, config.lr)

    def artifact(self):
        """The current policy, as a copy that later updates leave alone."""
        return PolicyArtifact(
            kind="gaussian", net=copy.deepcopy(self.policy), log_std=self.head.log_std.copy(),
            n_actions=self.env.config.n_joints,
        )

    def act(self, obs):
        """Sample an action; its log probability waits for collect_rollout."""
        mean = mlp_forward(self.policy, obs)
        action, self._log_prob = gaussian_sample(mean, self.head.log_std, self.sampler)
        return action

    def collect_rollout(self, steps, n_steps: int, on_step=None) -> RolloutBatch | None:
        """Take the next n_steps transitions from ``steps``, a ``run_episodes``
        stream driven by ``self.act``; None if ``on_step`` stopped it.

        ``on_step`` sees every step but the last, which ``train`` reports after
        the update.  Episode ends are time limits, not true terminals, so the
        final reward of each episode is augmented with gamma * V(final
        observation); the done flag still cuts the GAE recursion at the reset
        boundary.  Without this bootstrap the value function treats the
        horizon as death and learning on the reach task is unreliable.
        """
        obs_buf, act_buf, logp_buf, rew_buf, done_buf, val_buf = [], [], [], [], [], []
        for i, (step, obs, action, result) in enumerate(islice(steps, n_steps), start=1):
            obs_buf.append(obs)
            act_buf.append(action)
            logp_buf.append(self._log_prob)
            val_buf.append(float(mlp_forward(self.value_net, obs)[0]))
            reward = result.reward
            if result.done:
                reward += self.config.gamma * float(mlp_forward(self.value_net, result.observation)[0])
            rew_buf.append(reward)
            done_buf.append(result.done)
            if i < n_steps and on_step is not None and not on_step(step):
                return None
        return RolloutBatch(
            observations=np.array(obs_buf),
            actions=np.array(act_buf),
            log_probs=np.array(logp_buf),
            rewards=np.array(rew_buf),
            dones=np.array(done_buf, dtype=float),
            values=np.array(val_buf),
            # Masked by the done flag when the rollout ends on a horizon.
            next_value=float(mlp_forward(self.value_net, result.observation)[0]),
        )

    def train(self, log, on_step):
        """Roll out and update until n_timesteps; ``on_step(step)`` runs once
        step is used, so at a rollout's end after its update, and returning
        False stops training.

        The step stream is local to this call: a stream stored on the trainer
        would hold ``self.act`` and so the trainer itself, a reference cycle.
        """
        cfg = self.config
        steps = run_episodes(self.env, self.act, log.add, cfg.n_timesteps)
        for start in range(0, cfg.n_timesteps, cfg.rollout_len):
            n_steps = min(cfg.rollout_len, cfg.n_timesteps - start)
            batch = self.collect_rollout(steps, n_steps, on_step)
            if batch is None:
                return
            ppo_update(self.policy, self.head, self.value_net, batch, cfg, self.adam, self.sampler)
            if not on_step(start + n_steps):
                return
