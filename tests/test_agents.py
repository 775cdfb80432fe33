import dataclasses
import gc
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachrl.agents import (
    AlgoConfig,
    PolicyArtifact,
    TrainingLog,
    make_algo_config,
    policy_from_json,
    policy_to_json,
    train,
    training_log_from_csv,
    training_log_to_csv,
)
from reachrl.envs import make_env, registry_lookup, run_episodes
from reachrl.errors import ValidationError
from reachrl.ioutil import json_text
from reachrl.nets import LOG_STD_MIN, GaussianHead, gaussian_log_prob, mlp_forward, mlp_init
from reachrl import nets as nets_module, ppo, td3
from reachrl.ppo import (
    PpoConfig,
    PpoTrainer,
    compute_gae,
    ppo_loss_and_grads,
)
from reachrl.td3 import (
    ReplayBuffer, Td3Config, Td3Trainer, make_td3_nets, polyak_update, td3_update,
)
from reachrl.nets import adam_init


# ---------------------------------------------------------------- GAE

def test_gae_single_terminal_step():
    adv, rets = compute_gae([1.0], [0.0], 0.0, [1.0], gamma=0.7, gae_lambda=0.3)
    np.testing.assert_array_equal(adv, [1.0])
    np.testing.assert_array_equal(rets, [1.0])


def test_gae_hand_recursion():
    adv, _ = compute_gae([1.0, 1.0], [0.0, 0.0], 0.0, [0.0, 0.0], gamma=0.5, gae_lambda=0.5)
    np.testing.assert_allclose(adv, [1.25, 1.0], atol=1e-15)


def brute_force_returns(rewards, dones, next_value, gamma):
    """Literal discounted sums, cut at episode boundaries."""
    n = len(rewards)
    out = np.zeros(n)
    for t in range(n):
        acc = 0.0
        discount = 1.0
        terminated = False
        for j in range(t, n):
            acc += discount * rewards[j]
            if dones[j]:
                terminated = True
                break
            discount *= gamma
        if not terminated:
            acc += discount * next_value
        out[t] = acc
    return out


def random_rollout(rng, n):
    rewards = rng.normal(size=n)
    values = rng.normal(size=n)
    dones = (rng.uniform(size=n) < 0.15).astype(float)
    next_value = float(rng.normal())
    return rewards, values, dones, next_value


def test_gae_lambda_one_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 64))
        rewards, values, dones, next_value = random_rollout(rng, n)
        gamma = float(rng.uniform(0.5, 1.0))
        adv, rets = compute_gae(rewards, values, next_value, dones, gamma, 1.0)
        expected = brute_force_returns(rewards, dones, next_value, gamma)
        np.testing.assert_allclose(rets, expected, atol=1e-10)


def test_gae_lambda_zero_is_one_step():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 64))
        rewards, values, dones, next_value = random_rollout(rng, n)
        gamma = float(rng.uniform(0.5, 1.0))
        adv, _ = compute_gae(rewards, values, next_value, dones, gamma, 0.0)
        v_next = np.append(values[1:], next_value)
        delta = rewards + gamma * v_next * (1.0 - dones) - values
        np.testing.assert_array_equal(adv, delta)


def test_gae_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        compute_gae([1.0, 2.0], [0.0], 0.0, [0.0, 0.0], 0.9, 0.9)


# ---------------------------------------------------------------- PPO

def small_ppo_nets(obs_dim=3, act_dim=2, seed=0):
    rng = np.random.default_rng(seed)
    policy = mlp_init([obs_dim, 8, act_dim], rng)
    value_net = mlp_init([obs_dim, 8, 1], rng)
    head = GaussianHead(np.zeros(act_dim))
    return policy, head, value_net


def observed_batch(trainer, n_steps, results=None):
    """The batch that ``trainer`` passes to its update once it has observed
    ``n_steps`` steps that end a rollout; the update does not run.  Each
    step's result is appended to ``results``, if given."""
    batches = []
    with mock.patch.object(ppo, "ppo_update", lambda *args: batches.append(args[4])):
        for step, *transition in run_episodes(trainer.env, trainer.act, TrainingLog().add, n_steps):
            trainer.observe(step, *transition)
            if results is not None:
                results.append(transition[-1])
    [batch] = batches
    return batch


def test_ppo_log_prob_bookkeeping_exact():
    # 150 steps cross a horizon and end mid-episode; 200 end on a horizon.
    for n_steps in (150, 200):
        env = make_env("reach-planar-v1", seed=0)
        config = PpoConfig(n_timesteps=n_steps, rollout_len=n_steps, minibatch_size=n_steps)
        trainer = PpoTrainer(env, config, seed=0)
        results = []
        batch = observed_batch(trainer, n_steps, results)
        assert len(batch.rewards) == n_steps and batch.dones.sum() == n_steps // 100

        def value(obs):
            return float(mlp_forward(trainer.value_net, obs)[0])

        for i, result in enumerate(results):
            mean = mlp_forward(trainer.policy, batch.observations[i])
            lp = gaussian_log_prob(mean, trainer.head.log_std, batch.actions[i])
            assert lp == batch.log_probs[i]
            assert value(batch.observations[i]) == batch.values[i]
            reward = result.reward
            if result.done:
                reward += config.gamma * value(result.observation)
            assert reward == batch.rewards[i]
            assert float(result.done) == batch.dones[i]
        assert value(results[-1].observation) == batch.next_value


def test_ppo_run_stopped_inside_a_rollout_skips_its_update():
    config = PpoConfig(n_timesteps=150, rollout_len=150, minibatch_size=150)
    artifact, log = train("ppo", "reach-planar-v1", 0, config,
                          checkpoint_steps=(120,), checkpoint_fn=lambda step, policy: False)
    untrained = PpoTrainer(make_env("reach-planar-v1", seed=0), config, 0).artifact()
    assert policy_to_json(artifact) == policy_to_json(untrained)
    assert log.rows[-1].timestep == 100


def test_ppo_ratio_one_on_first_minibatch():
    env = make_env("reach-planar-v1", seed=1)
    trainer = PpoTrainer(env, PpoConfig(n_timesteps=64, rollout_len=64, minibatch_size=64), seed=1)
    batch = observed_batch(trainer, 64)
    mean = mlp_forward(trainer.policy, batch.observations)
    lp_new = gaussian_log_prob(mean, trainer.head.log_std, batch.actions)
    ratio = np.exp(lp_new - batch.log_probs)
    assert np.max(np.abs(ratio - 1.0)) < 1e-12


def test_ppo_identity_policy_zero_loss_after_normalisation():
    policy, head, value_net = small_ppo_nets()
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(8, 3))
    actions = rng.normal(size=(8, 2))
    mean = mlp_forward(policy, obs)
    old_lp = gaussian_log_prob(mean, head.log_std, actions)
    adv = rng.normal(size=8)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    report, _ = ppo_loss_and_grads(
        policy, head, value_net, obs, actions, old_lp, adv, rng.normal(size=8),
        PpoConfig(),
    )
    assert report.clip_fraction == 0.0
    assert report.policy_loss == pytest.approx(-float(adv.mean()), abs=1e-12)
    assert abs(report.policy_loss) < 1e-12


def test_ppo_clipped_branch_kills_policy_gradient():
    policy, head, value_net = small_ppo_nets()
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(1, 3))
    actions = rng.normal(size=(1, 2))
    mean = mlp_forward(policy, obs)
    # Force ratio = exp(lp_new - old) well above 1 + clip_range, with A > 0.
    old_lp = gaussian_log_prob(mean, head.log_std, actions) - 1.0
    report, grads = ppo_loss_and_grads(
        policy, head, value_net, obs, actions, old_lp,
        np.array([2.0]), np.array([0.0]), PpoConfig(clip_range=0.2),
    )
    n_policy = policy.params.size + head.log_std.size  # policy params plus log_std
    np.testing.assert_array_equal(grads[:n_policy], np.zeros(n_policy))
    assert report.clip_fraction == 1.0


def test_ppo_loss_matches_scalar_recomputation():
    policy, head, value_net = small_ppo_nets(seed=5)
    head.log_std[:] = [0.1, -0.2]
    rng = np.random.default_rng(6)
    obs = rng.normal(size=(4, 3))
    actions = rng.normal(size=(4, 2))
    old_lp = rng.normal(size=4)
    adv = rng.normal(size=4)
    rets = rng.normal(size=4)
    config = PpoConfig(clip_range=0.2, vf_coef=0.5, ent_coef=0.01)
    report, _ = ppo_loss_and_grads(
        policy, head, value_net, obs, actions, old_lp, adv, rets, config
    )

    # Independent recomputation with plain Python scalars.
    policy_terms, value_terms = [], []
    for i in range(4):
        mean = mlp_forward(policy, obs[i])
        lp = 0.0
        for j in range(2):
            sigma = math.exp(head.log_std[j])
            z = (actions[i, j] - mean[j]) / sigma
            lp += -0.5 * z * z - head.log_std[j] - 0.5 * math.log(2 * math.pi)
        ratio = math.exp(lp - old_lp[i])
        clipped = min(max(ratio, 0.8), 1.2)
        policy_terms.append(min(ratio * adv[i], clipped * adv[i]))
        v = float(mlp_forward(value_net, obs[i])[0])
        value_terms.append((v - rets[i]) ** 2)
    assert report.policy_loss == pytest.approx(-sum(policy_terms) / 4, abs=1e-10)
    assert report.value_loss == pytest.approx(sum(value_terms) / 4, abs=1e-10)
    entropy = sum(head.log_std[j] + 0.5 * math.log(2 * math.pi * math.e) for j in range(2))
    assert report.entropy == pytest.approx(entropy, abs=1e-12)


def test_ppo_gradient_norm_clipped():
    env = make_env("reach-planar-v1", seed=4)
    config = PpoConfig(n_timesteps=128, rollout_len=128, minibatch_size=32, n_epochs=1, max_grad_norm=0.5)
    trainer = PpoTrainer(env, config, seed=4)
    batch = observed_batch(trainer, 128)
    from reachrl.ppo import compute_gae as gae
    from reachrl.nets import clip_grad_norm

    adv, rets = gae(batch.rewards, batch.values, batch.next_value, batch.dones, 0.99, 0.95)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    _, grads = ppo_loss_and_grads(
        trainer.policy, trainer.head, trainer.value_net,
        batch.observations, batch.actions, batch.log_probs, adv, rets, config,
    )
    clip_grad_norm(grads, config.max_grad_norm, [grads.size])
    norm = math.sqrt(float(np.sum(grads * grads)))
    assert norm <= config.max_grad_norm + 1e-12


def test_ppo_config_invariants():
    with pytest.raises(ValidationError):
        PpoConfig(rollout_len=100, minibatch_size=64)
    with pytest.raises(ValidationError):
        PpoConfig(gamma=0.0)
    with pytest.raises(ValidationError):
        PpoConfig(gae_lambda=1.5)


# ---------------------------------------------------------------- replay buffer

@given(capacity=st.integers(1, 40), n=st.integers(1, 120))
@settings(max_examples=100, deadline=None)
def test_replay_ring_semantics(capacity, n):
    buffer = ReplayBuffer(capacity, obs_dim=1, act_dim=1)
    for i in range(n):
        buffer.push([float(i)], [0.0], 0.0, [0.0])
    assert buffer.size == min(n, capacity)
    stored = {int(v) for v in buffer.observations[: buffer.size, 0]}
    assert stored == set(range(max(0, n - capacity), n))


def test_replay_sample_only_touches_filled_slots():
    buffer = ReplayBuffer(100, obs_dim=1, act_dim=1)
    for i in range(7):
        buffer.push([float(i + 1)], [0.0], 0.0, [0.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        batch = buffer.sample(32, rng)
        assert np.all(batch["observations"][:, 0] >= 1.0)


# ---------------------------------------------------------------- TD3

def scripted_buffer(obs_dim, act_dim, n=400, seed=0):
    rng = np.random.default_rng(seed)
    buffer = ReplayBuffer(1000, obs_dim, act_dim)
    for _ in range(n):
        buffer.push(
            rng.normal(size=obs_dim), rng.uniform(-1, 1, size=act_dim),
            float(rng.normal()), rng.normal(size=obs_dim),
        )
    return buffer


def test_td3_tau_one_copies_online_to_target():
    nets = make_td3_nets(3, 2, np.random.default_rng(0))
    config = Td3Config(tau=1.0, policy_delay=1, batch_size=32, learning_starts=0, buffer_size=1000)
    buffer = scripted_buffer(3, 2)
    critic_adam = adam_init(nets.critics, config.lr)
    actor_adam = adam_init(nets.actor.params, config.lr)
    td3_update(nets, buffer, config, step=10, rng=np.random.default_rng(1),
               update_count=1, critic_adam=critic_adam, actor_adam=actor_adam)
    for online, target in [
        (nets.actor, nets.actor_target),
        (nets.critic1, nets.critic1_target),
        (nets.critic2, nets.critic2_target),
    ]:
        np.testing.assert_array_equal(online.params, target.params)


def test_td3_gamma_zero_target_is_reward():
    nets = make_td3_nets(3, 2, np.random.default_rng(2))
    config = Td3Config(gamma=0.0, batch_size=16, learning_starts=0, buffer_size=1000)
    buffer = scripted_buffer(3, 2, seed=3)
    # Clone the generator to recover which indices the update will sample.
    idx = np.random.default_rng(7).integers(0, buffer.size, size=16)
    critic_in = np.concatenate([buffer.observations[idx], buffer.actions[idx]], axis=1)
    q1 = mlp_forward(nets.critic1, critic_in)[:, 0]
    q2 = mlp_forward(nets.critic2, critic_in)[:, 0]
    y = buffer.rewards[idx]
    expected = float(np.mean((q1 - y) ** 2) + np.mean((q2 - y) ** 2))
    critic_adam = adam_init(nets.critics, config.lr)
    actor_adam = adam_init(nets.actor.params, config.lr)
    report = td3_update(nets, buffer, config, step=10, rng=np.random.default_rng(7),
                        update_count=1, critic_adam=critic_adam, actor_adam=actor_adam)
    assert report.critic_loss == pytest.approx(expected, abs=1e-12)


def test_td3_horizon_transition_bootstraps():
    # Episodes end only by time limit, so the horizon step's target keeps
    # gamma * min(Q1', Q2') of the final observation.
    env = make_env("reach-planar-v1", seed=0)
    rng = np.random.default_rng(1)
    *_, (_, obs, action, result) = run_episodes(
        env, lambda obs: rng.uniform(-1, 1, size=2), lambda *episode: None, env.config.episode_len
    )
    assert result.done
    nets = make_td3_nets(env.config.obs_dim(), 2, np.random.default_rng(2))
    config = Td3Config(gamma=0.9, batch_size=1, learning_starts=0, buffer_size=1)
    buffer = ReplayBuffer(1, env.config.obs_dim(), 2)
    buffer.push(obs, action, result.reward, result.observation)
    # Clone the generator to recover the target-policy noise the update draws.
    clone = np.random.default_rng(7)
    clone.integers(0, 1, size=1)
    noise = np.clip(
        clone.normal(0.0, config.policy_noise, size=(1, 2)), -config.noise_clip, config.noise_clip
    )
    next_obs = result.observation[None]
    next_action = np.clip(np.tanh(mlp_forward(nets.actor_target, next_obs)) + noise, -1.0, 1.0)
    next_in = np.concatenate([next_obs, next_action], axis=1)
    q_next = min(mlp_forward(critic, next_in)[0, 0] for critic in (nets.critic1_target, nets.critic2_target))
    target = result.reward + config.gamma * q_next
    critic_in = np.concatenate([obs, action])[None]
    expected = sum((mlp_forward(critic, critic_in)[0, 0] - target) ** 2 for critic in (nets.critic1, nets.critic2))
    critic_adam = adam_init(nets.critics, config.lr)
    actor_adam = adam_init(nets.actor.params, config.lr)
    report = td3_update(nets, buffer, config, step=10, rng=np.random.default_rng(7),
                        update_count=1, critic_adam=critic_adam, actor_adam=actor_adam)
    assert report.critic_loss == pytest.approx(expected, rel=1e-12)


def test_td3_underfull_buffer_rejected():
    nets = make_td3_nets(3, 2, np.random.default_rng(4))
    config = Td3Config(batch_size=64, learning_starts=0, buffer_size=1000)
    buffer = scripted_buffer(3, 2, n=10)
    critic_adam = adam_init(nets.critics, config.lr)
    actor_adam = adam_init(nets.actor.params, config.lr)
    with pytest.raises(ValidationError):
        td3_update(nets, buffer, config, step=10, rng=np.random.default_rng(0),
                   update_count=1, critic_adam=critic_adam, actor_adam=actor_adam)


def test_td3_updates_deterministic():
    def run():
        nets = make_td3_nets(3, 2, np.random.default_rng(5))
        config = Td3Config(batch_size=32, learning_starts=0, buffer_size=1000)
        buffer = scripted_buffer(3, 2, seed=6)
        rng = np.random.default_rng(8)
        critic_adam = adam_init(nets.critics, config.lr)
        actor_adam = adam_init(nets.actor.params, config.lr)
        losses = []
        for u in range(1, 11):
            report = td3_update(nets, buffer, config, step=100, rng=rng,
                                update_count=u, critic_adam=critic_adam, actor_adam=actor_adam)
            losses.append((report.critic_loss, report.actor_loss))
        return losses

    assert run() == run()


@pytest.mark.parametrize("tau", [1.0, 0.005])
def test_polyak_on_a_group_vector_is_bitwise_the_per_array_average(tau):
    nets = make_td3_nets(3, 2, np.random.default_rng(9))
    nets.critics += np.random.default_rng(10).normal(size=nets.critics.shape)
    def arrays(*critics):
        return [a.copy() for c in critics for a in (*c.weights, *c.biases)]

    online = arrays(nets.critic1, nets.critic2)
    target = arrays(nets.critic1_target, nets.critic2_target)
    for src, dst in zip(online, target):
        dst *= 1.0 - tau
        dst += tau * src
    polyak_update(nets.critics, nets.critics_target, tau)
    assert np.array_equal(nets.critics_target, np.concatenate([a.ravel() for a in target]))
    if tau == 1.0:
        assert np.array_equal(nets.critics_target, nets.critics)


def test_td3_groups_are_views_and_targets_start_as_copies():
    nets = make_td3_nets(3, 2, np.random.default_rng(11))
    split = nets.critic1.params.size
    assert np.shares_memory(nets.critic1.weights[0], nets.critics[:split])
    assert np.shares_memory(nets.critic2.biases[-1], nets.critics[split:])
    assert np.shares_memory(nets.critic2_target.weights[0], nets.critics_target)
    assert np.array_equal(nets.critics_target, nets.critics)
    assert np.array_equal(nets.actor_target.params, nets.actor.params)
    assert not np.shares_memory(nets.critics_target, nets.critics)
    assert not np.shares_memory(nets.actor_target.params, nets.actor.params)


def test_td3_trains_in_float32(monkeypatch):
    # Guards against a silent upcast, such as an np.float64 scalar under
    # NEP 50 or float64 smoothing noise: it keeps determinism and loses speed.
    real_update, real_layers, calls, arrays = td3.td3_update, nets_module._layers, [], []
    monkeypatch.setattr(td3, "td3_update", lambda *args: calls.append(args) or real_update(*args))
    config = Td3Config(n_timesteps=120, buffer_size=100, batch_size=16, learning_starts=60)
    train("td3", "reach-planar-v1", seed=0, config=config)
    nets, buffer, config, step, rng, _, critic_adam, actor_adam = calls[-1]

    def recording(fn):
        def record(*args, **kwargs):
            arrays.extend(a for a in args if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return record

    def layers(net, h, cache):
        out = real_layers(net, h, cache)
        arrays.extend(cache)
        return out

    for name in ("mlp_forward", "mlp_forward_cached", "mlp_backward_cached"):
        monkeypatch.setattr(td3, name, recording(getattr(td3, name)))
    monkeypatch.setattr(nets_module, "_layers", layers)
    # Update count 0 runs the delayed actor and target step too.
    real_update(nets, buffer, config, step, rng, 0, critic_adam, actor_adam)
    assert len(arrays) > 30
    groups = [nets.critics, nets.critics_target, nets.actor.params, nets.actor_target.params]
    moments = [m for adam in (critic_adam, actor_adam) for m in (adam.first_moment, adam.second_moment)]
    stored = [buffer.observations, buffer.actions, buffer.rewards, buffer.next_observations]
    assert {a.dtype for a in [*groups, *moments, *stored, *arrays]} == {np.dtype(np.float32)}


# ---------------------------------------------------------------- train()

def test_random_agent_episode_count():
    config = make_algo_config("random", 1000)
    _, log = train("random", "reach-v1", seed=0, config=config)
    assert len(log.rows) == 10
    assert [r.episode for r in log.rows] == list(range(1, 11))
    assert all(b.timestep > a.timestep for a, b in zip(log.rows, log.rows[1:]))


def test_train_unknown_algo_rejected():
    with pytest.raises(ValidationError):
        train("sacx", "reach-v1", 0, make_algo_config("random", 100))


def test_train_ppo_deterministic_log_bytes():
    config = PpoConfig(n_timesteps=512, rollout_len=128, minibatch_size=32, n_epochs=2)
    _, log_a = train("ppo", "reach-planar-v1", seed=3, config=config)
    _, log_b = train("ppo", "reach-planar-v1", seed=3, config=config)
    assert training_log_to_csv(log_a).encode() == training_log_to_csv(log_b).encode()
    assert len(log_a.rows) == 5


def test_train_td3_deterministic_log_bytes():
    config = Td3Config(n_timesteps=400, buffer_size=1000, batch_size=32, learning_starts=100)
    artifact_a, log_a = train("td3", "reach-planar-v1", seed=2, config=config)
    artifact_b, log_b = train("td3", "reach-planar-v1", seed=2, config=config)
    assert training_log_to_csv(log_a) == training_log_to_csv(log_b)
    assert policy_to_json(artifact_a) == policy_to_json(artifact_b)


def test_training_log_csv_round_trip():
    log = TrainingLog()
    log.add(100, 1, -12.3456789012345, 0.04321)
    log.add(200, 2, 0.0, 1e-7)
    text = training_log_to_csv(log)
    assert text.startswith("timestep,episode,episode_return,episode_final_distance_m\n")
    assert "\r" not in text
    restored = training_log_from_csv(text)
    assert restored == log
    assert training_log_to_csv(restored) == text


def test_policy_artifact_round_trip_and_act():
    config = PpoConfig(n_timesteps=128, rollout_len=64, minibatch_size=32, n_epochs=1)
    artifact, _ = train("ppo", "reach-planar-v1", seed=1, config=config)
    text = policy_to_json(artifact)
    assert "dtype" not in json.loads(text)  # float64 files keep their bytes
    restored = policy_from_json(text)
    assert policy_to_json(restored) == text
    obs = np.zeros(5)
    np.testing.assert_array_equal(
        artifact.act_with_noise(obs, None), restored.act_with_noise(obs, None)
    )


def test_float32_actor_round_trips_through_policy_json():
    config = Td3Config(n_timesteps=120, buffer_size=100, batch_size=16, learning_starts=60)
    artifact, _ = train("td3", "reach-planar-v1", seed=1, config=config)
    doc = json.loads(policy_to_json(artifact))
    assert doc["dtype"] == "float32"
    restored = policy_from_json(json.dumps(doc))
    assert restored.net.params.dtype == np.float32
    assert restored.net.params.tobytes() == artifact.net.params.tobytes()
    obs = np.random.default_rng(0).normal(size=(7, 5))
    for x in (obs, obs[0]):
        assert np.array_equal(restored.act_with_noise(x, None), artifact.act_with_noise(x, None))
    del doc["dtype"]  # a file without the key is float64
    assert policy_from_json(json.dumps(doc)).net.params.dtype == np.float64


def test_random_policy_artifact():
    artifact = PolicyArtifact(kind="random", n_actions=2)
    restored = policy_from_json(policy_to_json(artifact))
    assert restored.draw_noise(True, None, (2,)) is None
    np.testing.assert_array_equal(restored.act_with_noise(np.zeros(5), None), np.zeros(2))
    noise = restored.draw_noise(False, np.random.default_rng(0), (2,))
    sampled = restored.act_with_noise(np.zeros(5), noise)
    assert sampled.shape == (2,) and np.all(np.abs(sampled) <= 1.0)


@pytest.mark.parametrize("tamper", [
    lambda doc: doc.update(log_std=doc["log_std"][:1]),  # log_std not one per action
    lambda doc: doc.update(log_std=[]),
    lambda doc: doc["weights"].pop(),
    lambda doc: doc["weights"][1].append(0.5),
    lambda doc: doc.update(kind="beta"),
    lambda doc: doc.pop("biases"),
    lambda doc: doc["weights"][0].__setitem__(3, math.nan),
    lambda doc: doc["biases"][1].__setitem__(0, math.inf),
    lambda doc: doc.update(dtype="float32") or doc["weights"][1].__setitem__(0, 1e300),
    lambda doc: doc.update(log_std=[1e308, 0.0]),
    lambda doc: doc.update(log_std=[math.nan, 0.0]),
    lambda doc: doc.update(log_std=[LOG_STD_MIN - 1.0, 0.0]),
    lambda doc: doc.update(dtype="float16"),
    lambda doc: doc.update(dtype=["float64"]),
    lambda doc: doc.pop("kind"),
    lambda doc: doc.update(layer_shapes=[[5, 4], [4, 2.5]]),
    lambda doc: doc.update(layer_shapes=[[5, 4], [4, True]]),
    lambda doc: doc.update(layer_shapes=[[5, 4, 1], [4, 2]]),
    lambda doc: doc["weights"][0].__setitem__(0, "0.5"),
    lambda doc: doc.update(kind="random", n_actions=2.7),
    lambda doc: doc.update(kind="random", n_actions=True),
    lambda doc: doc.update(kind="random", n_actions=0),
    lambda doc: doc.update(kind="random"),  # without n_actions
])
def test_policy_from_json_rejects_a_tampered_policy(tamper):
    net = mlp_init([5, 4, 2], np.random.default_rng(0))
    artifact = PolicyArtifact("gaussian", net=net, log_std=np.zeros(2), n_actions=2)
    doc = json.loads(policy_to_json(artifact))
    tamper(doc)
    with pytest.raises(ValidationError):
        policy_from_json(json.dumps(doc))


def test_policy_from_json_rejects_text_that_is_not_json():
    with pytest.raises(ValidationError):
        policy_from_json('{"kind": "gaussian", "layer_')


@pytest.mark.parametrize("text", ["[]", '"policy"', "3", "null"])
def test_policy_from_json_rejects_a_document_that_is_not_an_object(text):
    with pytest.raises(ValidationError):
        policy_from_json(text)


def test_make_algo_config_rejects_unknown_hyperparameter():
    with pytest.raises(ValidationError):
        make_algo_config("ppo", 1000, {"learning_rate": 1e-3})
    config = make_algo_config("ppo", 1000, {"lr": 0.001, "rollout_len": 512})
    assert config.lr == 0.001
    assert config.rollout_len == 512
    assert isinstance(config.rollout_len, int)
    config = make_algo_config("ppo", 1000, {"lr": np.float32(1e-3), "rollout_len": np.int64(512)})
    assert (config.lr, config.rollout_len) == (float(np.float32(1e-3)), 512)
    assert (type(config.lr), type(config.rollout_len)) == (float, int)


CONFIG_FIELDS = [
    (algo, f)
    for algo, cls in (("random", AlgoConfig), ("ppo", PpoConfig), ("td3", Td3Config))
    for f in dataclasses.fields(cls)
]
ODD_VALUES = [0, -1, 0.5, 2.7, 1e-3, math.nan, math.inf, -math.inf, 10**400, 2**53 + 1,
              True, False, None, "", "abc", "nan", "-inf", "1e3", "2.7", " 7 ", str(10**400),
              np.int64(512), np.int32(-1), np.uint8(7), np.float32(1e-3), np.float32(2.5),
              np.float64(64.0), np.float32(np.nan), np.bool_(True), np.bool_(False)]


@given(
    value=st.one_of(
        st.sampled_from(ODD_VALUES),
        st.integers(-5, 5000),
        st.floats(),  # NaN and infinities included
        st.one_of(st.integers(-5, 5000), st.floats()).map(str),  # as --hp passes them
        st.text(max_size=6),
    ),
)
@settings(max_examples=300, deadline=None)
def test_config_table_reads_every_field_exactly_or_rejects_it(value):
    # In every field of every algorithm, a value either raises ValidationError
    # or lands as the number it is, in the field's type, and a JSON round trip
    # of the record rebuilds the same config.
    for algo, f in CONFIG_FIELDS:
        try:
            if f.name == "n_timesteps":
                config = make_algo_config(algo, value)
            else:
                config = make_algo_config(algo, 1000, {f.name: value})
        except ValidationError:
            continue
        got = getattr(config, f.name)
        assert type(got) is type(f.default) and not isinstance(value, (bool, np.bool_))
        assert -math.inf < got < math.inf  # NaN fails this too
        if isinstance(value, str):
            assert got == float(value) or str(got) == value.strip()
        else:
            assert got == (float(value) if type(got) is float else value)  # an int exactly
        record = {g.name: getattr(config, g.name) for g in dataclasses.fields(config)}
        recorded = json.loads(json_text(record))
        assert recorded == record
        n_timesteps = recorded.pop("n_timesteps")
        assert make_algo_config(algo, n_timesteps, recorded) == config


def test_ppo_checkpoint_at_rollout_end_scores_updated_policy():
    config = PpoConfig(n_timesteps=512, rollout_len=512, minibatch_size=64, n_epochs=2)
    seen = {}

    def checkpoint(step, artifact):
        seen[step] = policy_to_json(artifact)
        return True

    artifact, _ = train("ppo", "reach-planar-v1", 3, config,
                        checkpoint_steps=(512,), checkpoint_fn=checkpoint)
    assert seen == {512: policy_to_json(artifact)}


def checkpointed(algo, config, steps):
    """The final policy of a run and, per step of ``steps``, its checkpoint's, as JSON."""
    seen = {}

    def checkpoint(step, artifact):
        seen[step] = policy_to_json(artifact)
        return True

    artifact, _ = train(algo, "reach-planar-v1", 0, config,
                        checkpoint_steps=steps, checkpoint_fn=checkpoint)
    return policy_to_json(artifact), seen


def test_ppo_checkpoint_inside_a_rollout_scores_the_last_update():
    config = PpoConfig(n_timesteps=128, rollout_len=64, minibatch_size=32, n_epochs=1)
    final, seen = checkpointed("ppo", config, (96, 128))
    after_first_update, _ = checkpointed("ppo", dataclasses.replace(config, n_timesteps=64), ())
    assert seen[96] == after_first_update
    assert seen[128] == final != seen[96]


def test_td3_checkpoint_scores_the_actor_after_that_steps_update():
    config = Td3Config(n_timesteps=60, buffer_size=64, batch_size=16, learning_starts=50)
    _, seen = checkpointed("td3", config, (54, 55))
    trained_to_55, _ = checkpointed("td3", dataclasses.replace(config, n_timesteps=55), ())
    assert seen[55] == trained_to_55 != seen[54]  # the update at 55 moved the actor


@pytest.mark.parametrize("algo, config", [
    ("ppo", PpoConfig(n_timesteps=128, rollout_len=64, minibatch_size=32, n_epochs=1)),
    ("td3", Td3Config(n_timesteps=96, buffer_size=96, batch_size=16, learning_starts=32)),
])
def test_kept_checkpoint_artifact_is_unchanged_by_later_training(algo, config):
    kept = []

    def checkpoint(step, artifact):
        kept.append((artifact, policy_to_json(artifact)))
        return True

    final, _ = train(algo, "reach-planar-v1", 0, config,
                     checkpoint_steps=(64,), checkpoint_fn=checkpoint)
    [(artifact, text)] = kept
    assert policy_to_json(final) != text  # training moved on after the checkpoint
    assert policy_to_json(artifact) == text


def test_no_trainer_outlives_train():
    configs = {
        "ppo": PpoConfig(n_timesteps=128, rollout_len=64, minibatch_size=32, n_epochs=1),
        "td3": Td3Config(n_timesteps=64, buffer_size=64, batch_size=16, learning_starts=32),
    }
    gc.collect()
    gc.disable()
    try:
        for algo, config in configs.items():
            train(algo, "reach-planar-v1", 0, config,
                  checkpoint_steps=(32, 64), checkpoint_fn=lambda step, artifact: True)
        alive = [o for o in gc.get_objects() if isinstance(o, (PpoTrainer, Td3Trainer))]
    finally:
        gc.enable()
    assert alive == []


def test_checkpoint_callback_fires_and_can_stop():
    seen = []

    def checkpoint(step, artifact):
        seen.append(step)
        return step < 600

    config = make_algo_config("random", 1000)
    _, log = train("random", "reach-planar-v1", 0, config,
                   checkpoint_steps=(300, 600, 900), checkpoint_fn=checkpoint)
    assert seen == [300, 600]
    assert log.rows[-1].timestep == 600
