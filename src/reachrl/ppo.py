"""Proximal policy optimization: clipped surrogate objective with GAE.

On-policy trainer over the reach-env interface.  The Gaussian policy uses a
state-independent learnable log standard deviation; policy net, log_std and
value net are one parameter vector under a single Adam optimizer, and the
global gradient norm is clipped before every step.  ``agents.train`` drives
the steps; the trainer records each one and updates at a rollout's end,
every ``rollout_len`` steps and at ``n_timesteps``, so an episode may span
two rollouts.

A rollout step does only the work that must run in order: the policy
forward, the noise draw and the env step.  The values and log
probabilities wait for the rollout's end, when one row-exact
``mlp_forward_rows`` pass and one ``gaussian_log_prob`` call give every
row the bits a per-step call would; nothing changes the nets or
``log_std`` during a rollout, so training is unchanged bit for bit.

PPO trains in ``nets.DTYPE`` (float32), as TD3 does; the weights and the
noise are drawn in float64 as before, the env gets float64 actions and GAE
runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .agents import HIDDEN_SIZES, NET_SEED_OFFSET, NOISE_SEED_OFFSET, PolicyArtifact, PpoConfig
from .errors import NumericError, ValidationError
from .nets import (
    DTYPE,
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
    mlp_forward_rows,
    mlp_init,
    pack,
)


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
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()  # floats add faster
    last = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - d[t]
        v_next = next_value if t == n - 1 else v[t + 1]
        delta = r[t] + gamma * v_next * nonterminal - v[t]
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


class PpoUpdateReport(NamedTuple):
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
    grads: np.ndarray | None = None,
) -> tuple[PpoUpdateReport, np.ndarray]:
    """Losses and exact gradients for one minibatch (advantages pre-normalised).

    The gradient vector is laid out like the group: policy, log_std, value
    net.  It is written in full into ``grads`` if given, else a new vector.
    """
    n = len(observations)
    p, a = policy.params.size, head.log_std.size
    if grads is None:
        grads = np.empty(p + a + value_net.params.size, policy.params.dtype)

    mean, policy_cache = mlp_forward_cached(policy, observations)
    ratio = np.exp(gaussian_log_prob(mean, head.log_std, actions) - old_log_probs)
    clipped_ratio = ratio.clip(1.0 - config.clip_range, 1.0 + config.clip_range)
    clip_fraction = np.count_nonzero(clipped_ratio != ratio) / n
    unclipped_obj = ratio * advantages
    clipped_obj = clipped_ratio * advantages
    # Gradient flows only through samples where the unclipped branch is active.
    active = unclipped_obj <= clipped_obj
    policy_loss = -float(np.minimum(unclipped_obj, clipped_obj).sum()) / n
    entropy = gaussian_entropy(head.log_std)

    # d(loss)/d(log_prob) is -ratio * A / n where active; the mean's gradient
    # is that times z / std, and log_std's sums it times (z**2 - 1).
    d_log_prob = np.where(active, unclipped_obj, 0.0) * (-1.0 / n)
    inv_std = np.exp(-head.log_std)
    z = (actions - mean) * inv_std
    mean_grad = d_log_prob[:, None] * (z * inv_std)
    np.matmul(d_log_prob, z * z - 1.0, out=grads[p : p + a])
    grads[p : p + a] -= config.ent_coef  # d(-ent_coef * entropy)/d log_std = -ent_coef
    mlp_backward_cached(policy, policy_cache, mean_grad, grads[:p], input_grad=False)

    v, value_cache = mlp_forward_cached(value_net, observations)
    err = v[:, 0] - returns
    value_loss = float((err * err).sum()) / n
    err *= config.vf_coef * 2.0 / n
    mlp_backward_cached(value_net, value_cache, err[:, None], grads[p + a :], input_grad=False)

    total = policy_loss + config.vf_coef * value_loss - config.ent_coef * entropy
    if not np.isfinite(total):
        raise NumericError(f"non-finite PPO loss: {total}")

    return PpoUpdateReport(policy_loss, value_loss, entropy, clip_fraction), grads


def ppo_update(
    policy: Mlp,
    head: GaussianHead,
    value_net: Mlp,
    params: np.ndarray,
    batch: RolloutBatch,
    config: PpoConfig,
    adam,
    rng: np.random.Generator,
) -> PpoUpdateReport:
    """Run n_epochs of shuffled minibatch updates on one rollout batch;
    ``params`` is the group vector the three parts are views into.  The
    batch is cast to its dtype once and gathered once per epoch, and every
    minibatch writes its gradient into one buffer."""
    advantages, returns = compute_gae(
        batch.rewards, batch.values, batch.next_value, batch.dones,
        config.gamma, config.gae_lambda,
    )
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    columns = [np.asarray(c, params.dtype) for c in
               (batch.observations, batch.actions, batch.log_probs, advantages, returns)]
    grads = np.empty_like(params)
    n, size = len(advantages), config.minibatch_size
    reports = []
    for _ in range(config.n_epochs):
        perm = rng.permutation(n)
        shuffled = [c[perm] for c in columns]
        for start in range(0, n, size):
            report, _ = ppo_loss_and_grads(
                policy, head, value_net, *(c[start : start + size] for c in shuffled), config, grads,
            )
            clip_grad_norm(grads, config.max_grad_norm)
            adam_step(params, grads, adam)
            head.clamp()
            reports.append(report)
    return PpoUpdateReport(*(float(np.mean(column)) for column in zip(*reports)))


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
        self.head = GaussianHead(np.zeros(act_dim, DTYPE))
        self.sampler = np.random.default_rng(seed + NOISE_SEED_OFFSET)
        self.params = pack([self.policy, self.head, self.value_net], DTYPE)
        self.adam = adam_init(self.params, config.lr)
        self._steps = []  # (obs, action, mean, reward, done) of each step of this rollout
        self._finals = []  # each horizon's final observation, then the rollout's last

    def artifact(self):
        """The current policy, as a copy that later updates leave alone."""
        return PolicyArtifact(
            kind="gaussian", net=self.policy.copy(), log_std=self.head.log_std.copy(),
            n_actions=self.env.config.n_joints,
        )

    def act(self, obs):
        """Sample an action from the policy at ``obs``; its mean waits in
        ``self._mean`` for ``observe``."""
        self._mean = mlp_forward(self.policy, obs)
        return gaussian_sample(self._mean, self.head.log_std, self.sampler)

    def observe(self, step, obs, action, result):
        """Record the step; at a rollout's end, update on the rollout."""
        self._steps.append((obs, action, self._mean, result.reward, result.done))
        if result.done:
            self._finals.append(result.observation)
        cfg = self.config
        if step % cfg.rollout_len == 0 or step == cfg.n_timesteps:
            self._finals.append(result.observation)
            ppo_update(self.policy, self.head, self.value_net, self.params,
                       self.collect_rollout(), cfg, self.adam, self.sampler)

    def collect_rollout(self) -> RolloutBatch:
        """The batch of the steps recorded since the last one, which it clears;
        ``observe`` calls it once it has recorded a rollout's last observation.

        Episode ends are time limits, not true terminals, so the final reward
        of each episode is augmented with gamma * V(final observation); the
        done flag still cuts the GAE recursion at the reset boundary.
        Without this bootstrap the value function treats the horizon as
        death and learning on the reach task is unreliable.

        One ``mlp_forward_rows`` pass computes the values, the bootstraps and
        ``next_value``, and one ``gaussian_log_prob`` call the log
        probabilities; each row has the bits of its per-step call, and the
        bootstrap is the same two float operations, so the batch is the one
        a per-step rollout would build.
        """
        observations, actions, means, rewards, dones = zip(*self._steps)
        # Rows: each step's observation, each horizon's final one, the last.
        n = len(observations)
        rows = np.array(observations + tuple(self._finals))
        self._steps, self._finals = [], []
        values = mlp_forward_rows(self.value_net, rows)[:, 0].astype(float)
        rewards, dones = np.array(rewards), np.array(dones)
        rewards[dones] += self.config.gamma * values[n:-1]
        actions = np.array(actions)
        return RolloutBatch(
            observations=rows[:n],
            actions=actions,
            log_probs=gaussian_log_prob(np.array(means), self.head.log_std, actions),
            rewards=rewards,
            dones=dones.astype(float),
            values=values[:n],
            # Masked by the done flag when the rollout ends on a horizon.
            next_value=float(values[-1]),
        )
