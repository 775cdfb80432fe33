import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachrl.arm import ArmModel, JointSpec
from reachrl.envs import (
    ActionMode,
    EnvConfig,
    ObsMode,
    RewardType,
    compose_observation,
    compute_reward,
    config_to_json,
    decode_action,
    make_env,
    registered_env_ids,
    registry_lookup,
    run_episodes,
    success_flags,
)
from reachrl.errors import LifecycleError, ValidationError


def test_registry_v1():
    config = registry_lookup("reach-v1")
    assert config.action_mode is ActionMode.RELATIVE_JOINT
    assert config.obs_mode is ObsMode.JOINTS_GOAL
    assert config.reward_type is RewardType.DENSE_SQUARED
    assert config.arm.n_joints == 6


def test_registry_v8():
    config = registry_lookup("reach-v8")
    assert config.action_mode is ActionMode.ABSOLUTE_JOINT
    assert config.obs_mode is ObsMode.JOINTS_GOAL_VECTOR
    assert config.reward_type is RewardType.SPARSE


def test_registry_planar_twins():
    config = registry_lookup("reach-planar-v1")
    assert config.arm.n_joints == 2
    assert config.reward_type is RewardType.DENSE_SQUARED
    assert config.goal_box[0][2] == config.goal_box[1][2] == 0.0


def test_registry_unknown_id_lists_valid_ids():
    with pytest.raises(ValidationError) as excinfo:
        registry_lookup("reach-v99")
    message = str(excinfo.value)
    for i in range(1, 9):
        assert f"reach-v{i}" in message


def test_reset_same_seed_identical():
    env = make_env("reach-v1")
    obs_a = env.reset(seed=42)
    goal_a = env.goal.copy()
    obs_b = env.reset(seed=42)
    assert np.array_equal(obs_a, obs_b)
    assert np.array_equal(goal_a, env.goal)


def test_reset_different_seeds_differ():
    env = make_env("reach-v1")
    differing = 0
    for k in range(100):
        env.reset(seed=2 * k + 1)
        goal_a = env.goal.copy()
        env.reset(seed=2 * k + 2)
        if not np.array_equal(goal_a, env.goal):
            differing += 1
    assert differing >= 99


def test_reset_distance_matches_norm():
    env = make_env("reach-v3", seed=5)
    env.reset(seed=5)
    assert env.prev_distance == pytest.approx(
        np.linalg.norm(env.ee - env.goal), abs=0
    )


def test_decode_relative_zero_action():
    config = registry_lookup("reach-v1")
    command = decode_action(config, np.zeros(6), np.zeros(6))
    np.testing.assert_array_equal(command, np.zeros(6))


def test_decode_relative_scales_by_max_step():
    config = registry_lookup("reach-v1")
    command = decode_action(config, np.ones(6), np.zeros(6))
    np.testing.assert_allclose(command, np.full(6, 0.05))


def test_decode_absolute_steers_to_midrange():
    config = registry_lookup("reach-v5")
    arm = config.arm
    midpoints = 0.5 * (arm.lower_limits + arm.upper_limits)
    home = np.zeros(6)
    command = decode_action(config, np.zeros(6), home)
    np.testing.assert_allclose(command, midpoints - home, atol=1e-15)


def test_decode_clamps_out_of_range_components():
    config = registry_lookup("reach-v1")
    command = decode_action(config, np.full(6, 3.0), np.zeros(6))
    np.testing.assert_allclose(command, np.full(6, 0.05))


def test_decode_rejects_wrong_length():
    with pytest.raises(ValidationError):
        decode_action(registry_lookup("reach-v1"), np.zeros(3), np.zeros(6))
    with pytest.raises(ValidationError):
        decode_action(registry_lookup("reach-v1"), np.zeros((4, 3)), np.zeros((4, 6)))


def test_reward_dense_squared():
    config = registry_lookup("reach-v1")
    assert compute_reward(config, 0.0, 0.0) == 0.0
    assert compute_reward(config, 0.1, 0.0) == pytest.approx(-0.01, abs=1e-15)


def test_reward_sparse_threshold():
    config = registry_lookup("reach-v2")
    assert compute_reward(config, 0.004, 0.0) == 0.0
    assert compute_reward(config, 0.006, 0.0) == -1.0
    assert type(compute_reward(config, 0.006, 0.0)) is float
    batched = compute_reward(config, np.array([0.004, 0.006]), np.zeros(2))
    np.testing.assert_array_equal(batched, [0.0, -1.0])


def test_reward_dense_linear_and_delta():
    config = dataclasses.replace(registry_lookup("reach-v1"), reward_type=RewardType.DENSE_LINEAR)
    assert compute_reward(config, 0.2, 0.0) == -0.2
    config = dataclasses.replace(config, reward_type=RewardType.DELTA_DISTANCE)
    assert compute_reward(config, 0.2, 0.35) == pytest.approx(0.15, abs=1e-15)


def test_reward_rejects_negative_distance():
    with pytest.raises(ValidationError):
        compute_reward(registry_lookup("reach-v1"), -0.1, 0.0)
    with pytest.raises(ValidationError):
        compute_reward(registry_lookup("reach-v1"), np.array([0.1, 0.2]), np.array([0.0, -0.1]))


@given(d1=st.floats(1e-6, 1.0), d2=st.floats(1e-6, 1.0))
@settings(max_examples=100, deadline=None)
def test_reward_ordering_dense(d1, d2):
    squared = registry_lookup("reach-v1")
    linear = dataclasses.replace(squared, reward_type=RewardType.DENSE_LINEAR)
    if d1 < d2 and (d2 - d1) > 1e-12:  # separated enough that squaring cannot tie
        assert compute_reward(squared, d1, 0.0) > compute_reward(squared, d2, 0.0)
        assert compute_reward(linear, d1, 0.0) > compute_reward(linear, d2, 0.0)


def test_observation_midpoint_angles_scale_to_zero():
    config = registry_lookup("reach-v1")
    arm = config.arm
    midpoints = 0.5 * (arm.lower_limits + arm.upper_limits)
    obs = compose_observation(config, midpoints, np.zeros(3), np.array([0.1, 0.0, 0.1]))
    np.testing.assert_allclose(obs[:6], np.zeros(6), atol=1e-15)


def test_observation_goal_vector_zero_at_goal():
    config = registry_lookup("reach-v3")
    ee = np.array([0.2, 0.0, 0.1])
    obs = compose_observation(config, np.zeros(6), ee, ee.copy())
    np.testing.assert_array_equal(obs[-3:], np.zeros(3))


def test_observation_lengths():
    base = registry_lookup("reach-v1")
    assert base.obs_dim() == 9
    with_ee = dataclasses.replace(base, obs_mode=ObsMode.JOINTS_GOAL_EE)
    assert with_ee.obs_dim() == 12
    obs = compose_observation(with_ee, np.zeros(6), np.zeros(3), np.zeros(3))
    assert obs.shape == (12,)


def test_step_zero_action_keeps_distance():
    env = make_env("reach-v1", seed=11)
    env.reset(seed=11)
    d0 = env.prev_distance
    result = env.step(np.zeros(6))
    assert result.info["distance"] == pytest.approx(d0, abs=0)
    assert result.reward == pytest.approx(-(d0**2), abs=1e-15)


def test_episode_accepts_exactly_horizon_steps():
    env = make_env("reach-planar-v1", seed=1)
    env.reset(seed=1)
    for t in range(env.config.episode_len):
        result = env.step(np.zeros(2))
    assert result.done
    with pytest.raises(LifecycleError):
        env.step(np.zeros(2))


def test_reach_batch_rows_start_like_seeded_resets():
    config = registry_lookup("reach-v7")
    batch = make_env(config)
    observations = batch.reset(seed=[4, 5, 6])
    assert batch.angles.shape == (3, 6) and batch.ee.shape == (3, 3)
    for row, seed in enumerate([4, 5, 6]):
        env = make_env(config)
        np.testing.assert_array_equal(observations[row], env.reset(seed=seed))
        np.testing.assert_array_equal(batch.goal[row], env.goal)


def test_reach_batch_keeps_horizon_and_finite_action_checks():
    batch = make_env("reach-planar-v1", seed=[0, 1])
    with pytest.raises(ValidationError):
        batch.step(np.array([[0.0, np.nan], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        batch.step(np.zeros((3, 2)))
    for _ in range(batch.config.episode_len):
        batch.step(np.zeros((2, 2)))
    with pytest.raises(LifecycleError):
        batch.step(np.zeros((2, 2)))


def test_reach_batch_rejects_one_row_of_actions():
    # An AbsoluteJoint decode would broadcast a 1-D action over every row.
    batch = make_env("reach-planar-v5", seed=[0, 1])
    with pytest.raises(ValidationError):
        batch.step(np.zeros(2))
    with pytest.raises(ValidationError):
        make_env("reach-planar-v5").step(np.zeros((1, 2)))


def test_reach_batch_rejects_empty_seed_list():
    with pytest.raises(ValidationError):
        make_env("reach-v1").reset(seed=[])


@pytest.mark.parametrize("env_id", registered_env_ids())
def test_batch_rows_equal_single_episodes_bit_for_bit(env_id):
    # Both sides step through run_episodes, as training and evaluation do.
    seeds = [3, 14, 15, 92]
    config = registry_lookup(env_id)
    actions = np.random.default_rng(65).uniform(
        -1.5, 1.5, size=(config.episode_len, len(seeds), config.n_joints)
    )

    def run(env, actions):
        episodes = []
        steps = list(run_episodes(
            env, lambda obs: actions[env.step_count],
            lambda *episode: episodes.append(episode), config.episode_len,
        ))
        return steps, episodes

    batch = make_env(config, seed=seeds)
    start = (batch.observe(), batch.prev_distance, batch.goal.copy())
    batch_steps, [(step, episode, returns, distance)] = run(batch, actions)
    assert batch_steps[-1][3].done and (step, episode) == (config.episode_len, 1)
    # The stream stops at the horizon without resetting the batch.
    assert batch.step_count == config.episode_len and np.array_equal(batch.goal, start[2])
    for row, seed in enumerate(seeds):
        env = make_env(config, seed=seed)
        assert start[0][row].tobytes() == env.observe().tobytes()
        assert start[1][row] == env.prev_distance
        steps, [single] = run(env, actions[:, row])
        assert type(single[2]) is float and single == (step, episode, returns[row], distance[row])
        for (s, obs, _, result), (batch_s, batch_obs, _, batch_result) in zip(steps, batch_steps):
            assert type(result.reward) is float and type(result.info["distance"]) is float
            assert s == batch_s and batch_obs[row].tobytes() == obs.tobytes()
            assert batch_result.observation[row].tobytes() == result.observation.tobytes()
            assert batch_result.reward[row] == result.reward
            assert batch_result.info["distance"][row] == result.info["distance"]


def test_run_episodes_resets_when_resumed():
    env = make_env("reach-planar-v1", seed=5)
    episodes = []
    steps = run_episodes(
        env, lambda obs: np.full(2, 0.5), lambda *episode: episodes.append(episode[:2]), 250
    )
    first_goal = env.goal.copy()
    second_start = make_env("reach-planar-v1", seed=5).reset()
    for step, obs, action, result in steps:
        if step == 100:
            assert result.done and env.step_count == 100
            assert np.array_equal(env.goal, first_goal)
        if step == 101:
            assert env.step_count == 1 and not np.array_equal(env.goal, first_goal)
            assert obs.tobytes() == second_start.tobytes()
    assert step == 250 and episodes == [(100, 1), (200, 2)]
    assert env.step_count == 50


def test_set_goal_pins_every_row():
    batch = make_env("reach-v3", seed=[1, 2, 3])
    goal = np.array([0.2, 0.0, 0.1])
    observations = batch.set_goal(goal)
    np.testing.assert_array_equal(batch.goal, np.tile(goal, (3, 1)))
    env = make_env("reach-v3", seed=9)
    np.testing.assert_array_equal(observations[1], env.set_goal(goal))
    assert batch.prev_distance[1] == env.prev_distance


def test_delta_distance_rewards_telescope():
    config = dataclasses.replace(
        registry_lookup("reach-planar-v1"), reward_type=RewardType.DELTA_DISTANCE
    )
    rng = np.random.default_rng(3)
    for trial in range(20):
        env = make_env(config, seed=trial)
        env.reset(seed=trial)
        d_initial = env.prev_distance
        total = 0.0
        for _ in range(env.config.episode_len):
            result = env.step(rng.uniform(-1, 1, size=2))
            total += result.reward
        assert total == pytest.approx(d_initial - result.info["distance"], abs=1e-10)


def test_step_determinism_bitwise():
    actions = np.random.default_rng(9).uniform(-1, 1, size=(50, 6))

    def rollout():
        env = make_env("reach-v4", seed=123)
        env.reset(seed=123)
        out = []
        for action in actions:
            result = env.step(action)
            out.append((result.observation.tobytes(), result.reward, result.done))
        return out

    assert rollout() == rollout()


def test_goal_sampling_contained_and_centered():
    env = make_env("reach-v1")
    env.reset(seed=0)
    lo, hi = (np.asarray(v) for v in env.config.goal_box)
    goals = []
    for _ in range(10_000):
        env.reset()
        goals.append(env.goal.copy())
    goals = np.array(goals)
    assert np.all(goals >= lo) and np.all(goals <= hi)
    center = 0.5 * (lo + hi)
    span = hi - lo
    np.testing.assert_array_less(np.abs(goals.mean(axis=0) - center), 0.05 * span + 1e-12)


def test_success_flags_monotone():
    env = make_env("reach-planar-v1", seed=2)
    rng = np.random.default_rng(2)
    env.reset(seed=2)
    for _ in range(200):
        if env.step_count >= env.config.episode_len:
            env.reset()
        flags = success_flags(env.config, env.step(rng.uniform(-1, 1, size=2)).info["distance"])
        for tighter, looser in zip(flags, flags[1:]):
            assert looser or not tighter


def test_success_flags_scalar_tuple_and_batch_rows():
    config = registry_lookup("reach-v1")  # thresholds 5, 10, 20, 50 mm
    flags = success_flags(config, 0.015)
    assert flags == (False, False, True, True)
    assert all(type(f) is bool for f in flags)
    batched = success_flags(config, np.array([0.015, 0.001, 0.2]))
    assert batched.shape == (3, 4)
    assert [tuple(row) for row in batched.tolist()] == [
        flags, success_flags(config, 0.001), success_flags(config, 0.2)
    ]


def test_set_goal_rejects_outside_box():
    env = make_env("reach-v1", seed=0)
    with pytest.raises(ValidationError):
        env.set_goal(np.array([5.0, 5.0, 5.0]))


def test_config_json_round_trip():
    config = registry_lookup("reach-v6")
    doc = json.loads(config_to_json(config))
    assert doc == json.loads(json.dumps(dataclasses.asdict(config)))
    assert set(doc) == {
        "env_id", "action_mode", "obs_mode", "reward_type",
        "episode_len", "goal_box", "success_thresholds_mm", "arm",
    }

    def tuples(value):
        return tuple(map(tuples, value)) if isinstance(value, list) else value

    arm = doc.pop("arm")
    joints = tuple(JointSpec(**{k: tuples(v) for k, v in j.items()}) for j in arm["joints"])
    rebuilt = EnvConfig(**{k: tuples(v) for k, v in doc.items()},
                        arm=ArmModel(arm["name"], joints, tuples(arm["tool"])))
    assert rebuilt == config
    assert (rebuilt.action_mode, rebuilt.obs_mode, rebuilt.reward_type) == (
        ActionMode.ABSOLUTE_JOINT, ObsMode.JOINTS_GOAL, RewardType.SPARSE)


# benchmark.csv's env_config_json of two registered envs, byte for byte.
PLANAR_V1_JSON = (
    '{"env_id":"reach-planar-v1","action_mode":"RelativeJoint","obs_mode":"JointsGoal",'
    '"reward_type":"DenseSquared","episode_len":100,"goal_box":[[0.1,-0.15,0.0],[0.25,'
    '0.15,0.0]],"success_thresholds_mm":[5.0,10.0,20.0,50.0],"arm":{"name":"planar2",'
    '"joints":[{"axis":[0.0,0.0,1.0],"link_offset":[0.0,0.0,0.0],'
    '"lower_limit":-3.141592653589793,"upper_limit":3.141592653589793,"max_step":0.05},'
    '{"axis":[0.0,0.0,1.0],"link_offset":[0.2,0.0,0.0],"lower_limit":-3.141592653589793,'
    '"upper_limit":3.141592653589793,"max_step":0.05}],"tool":[0.15,0.0,0.0]}}'
)

SIX_DOF_V1_JSON = (
    '{"env_id":"reach-v1","action_mode":"RelativeJoint","obs_mode":"JointsGoal",'
    '"reward_type":"DenseSquared","episode_len":100,"goal_box":[[0.1,-0.15,0.05],[0.25,'
    '0.15,0.25]],"success_thresholds_mm":[5.0,10.0,20.0,50.0],"arm":{"name":"widowx6",'
    '"joints":[{"axis":[0.0,0.0,1.0],"link_offset":[0.0,0.0,0.125],"lower_limit":-2.6,'
    '"upper_limit":2.6,"max_step":0.05},{"axis":[0.0,1.0,0.0],"link_offset":[0.0,0.0,'
    '0.045],"lower_limit":-2.6,"upper_limit":2.6,"max_step":0.05},{"axis":[0.0,1.0,0.0],'
    '"link_offset":[0.05,0.0,0.14],"lower_limit":-2.6,"upper_limit":2.6,"max_step":0.05},'
    '{"axis":[0.0,1.0,0.0],"link_offset":[0.14,0.0,0.0],"lower_limit":-2.6,'
    '"upper_limit":2.6,"max_step":0.05},{"axis":[1.0,0.0,0.0],"link_offset":[0.06,0.0,'
    '0.0],"lower_limit":-2.6,"upper_limit":2.6,"max_step":0.05},{"axis":[0.0,1.0,0.0],'
    '"link_offset":[0.045,0.0,0.0],"lower_limit":-2.6,"upper_limit":2.6,'
    '"max_step":0.05}],"tool":[0.0,0.0,0.0]}}'
)


@pytest.mark.parametrize("env_id, text", [
    ("reach-planar-v1", PLANAR_V1_JSON), ("reach-v1", SIX_DOF_V1_JSON),
])
def test_config_json_is_pinned(env_id, text):
    config = registry_lookup(env_id)
    assert config_to_json(config) == text
    make_env(config, seed=0).step(np.zeros(config.n_joints))  # fills the cached properties
    assert config_to_json(config) == text
