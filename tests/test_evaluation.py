import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachrl import evaluation, experiment
from reachrl.agents import PolicyArtifact
from reachrl.arm import forward_kinematics, widowx_arm
from reachrl.envs import make_env, registered_env_ids, registry_lookup, success_flags
from reachrl.errors import CorruptDataError, ValidationError
from reachrl.evaluation import (
    BENCHMARK_HEADER,
    METRIC_COLUMNS,
    EpisodeRecord,
    aggregate_across_seeds,
    append_benchmark_row,
    benchmark_rows_from_csv,
    benchmark_rows_to_csv,
    episode_log_header,
    episode_log_to_csv,
    evaluate_policy,
    log_episode,
    metrics_to_benchmark_row,
    read_benchmark,
)
from reachrl.experiment import ExperimentRecord
from reachrl.nets import Mlp, gaussian_sample, mlp_forward, mlp_init


def still_policy(n_obs, n_act):
    """Gaussian policy with zero weights: deterministic action is all zeros."""
    net = Mlp([(n_obs, n_act)], np.zeros(n_obs * n_act + n_act))
    return PolicyArtifact(kind="gaussian", net=net, log_std=np.zeros(n_act), n_actions=n_act)


def test_stay_still_with_goal_at_home():
    home_ee = forward_kinematics(widowx_arm(), np.zeros(6))
    records = evaluate_policy(
        still_policy(9, 6), "reach-v1", n_episodes=3, seed=0, goal_override=home_ee
    )
    for record in records:
        assert record.final_distance_m == 0.0
        assert all(record.success_flags)
        assert record.episode_return == 0.0


def test_stay_still_return_is_horizon_times_reward():
    records = evaluate_policy(still_policy(9, 6), "reach-v1", n_episodes=5, seed=3)
    episode_len = registry_lookup("reach-v1").episode_len
    for record in records:
        expected = -episode_len * record.final_distance_m**2
        assert record.episode_return == pytest.approx(expected, rel=1e-12)


def test_evaluate_deterministic_repeatable():
    a = evaluate_policy(still_policy(9, 6), "reach-v1", n_episodes=4, seed=9)
    b = evaluate_policy(still_policy(9, 6), "reach-v1", n_episodes=4, seed=9)
    assert a == b


def test_evaluate_rejects_dimension_mismatch():
    with pytest.raises(ValidationError):
        evaluate_policy(still_policy(5, 2), "reach-v1", n_episodes=1)


def reference_act(policy, obs, deterministic, rng):
    """Batch-1 action, drawing its noise step by step."""
    if policy.kind == "random":
        return np.zeros(policy.n_actions) if deterministic else rng.uniform(-1.0, 1.0, size=policy.n_actions)
    if policy.kind == "tanh":
        return np.tanh(mlp_forward(policy.net, obs))
    mean = mlp_forward(policy.net, obs)
    return mean if deterministic else gaussian_sample(mean, policy.log_std, rng)


def reference_evaluate(policy, env_id, n_episodes, deterministic, seed, goal_override=None):
    """The episode-by-episode loop over EnvInstance that evaluate_policy replaced."""
    config = registry_lookup(env_id)
    env = make_env(config, seed=seed)
    act_rng = np.random.default_rng(seed)
    records = []
    for k in range(n_episodes):
        obs = env.reset(seed=seed + k)
        if goal_override is not None:
            obs = env.set_goal(goal_override, unchecked=True)
        episode_return = 0.0
        for _ in range(config.episode_len):
            result = env.step(reference_act(policy, obs, deterministic, act_rng))
            episode_return += result.reward
            obs = result.observation
        records.append(
            EpisodeRecord(
                episode_return, result.info["distance"], success_flags(config, result.info["distance"])
            )
        )
    return records


def example_policies(config):
    rng = np.random.default_rng(11)
    n_act = config.n_joints
    sizes = [config.obs_dim(), 16, 16, n_act]
    return [
        PolicyArtifact("gaussian", net=mlp_init(sizes, rng), log_std=np.full(n_act, -0.5), n_actions=n_act),
        PolicyArtifact("tanh", net=mlp_init(sizes, rng), n_actions=n_act),
        PolicyArtifact("random", n_actions=n_act),
    ]


def assert_matches_reference(records, expected):
    # Batched matmuls sum in another order: not bitwise.
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert abs(got.episode_return - want.episode_return) <= 1e-12 * abs(want.episode_return)
        assert abs(got.final_distance_m - want.final_distance_m) <= 1e-12
        assert got.success_flags == want.success_flags


@pytest.mark.parametrize("env_id", registered_env_ids())
def test_lockstep_evaluation_matches_episode_loop(env_id):
    for policy in example_policies(registry_lookup(env_id)):
        for deterministic in (True, False):
            assert_matches_reference(
                evaluate_policy(policy, env_id, 6, deterministic, seed=5),
                reference_evaluate(policy, env_id, 6, deterministic, seed=5),
            )


@pytest.mark.parametrize("env_id", ["reach-v3", "reach-planar-v6"])
def test_lockstep_evaluation_matches_episode_loop_with_goal_override(env_id):
    goal = np.array([0.18, 0.05, 0.1 if env_id == "reach-v3" else 0.0])
    for policy in example_policies(registry_lookup(env_id)):
        assert_matches_reference(
            evaluate_policy(policy, env_id, 4, False, seed=2, goal_override=goal),
            reference_evaluate(policy, env_id, 4, False, seed=2, goal_override=goal),
        )


def test_chunked_evaluation_matches_one_batch(monkeypatch):
    env_id = "reach-v4"
    policies = example_policies(registry_lookup(env_id))
    whole = [evaluate_policy(p, env_id, 10, False, seed=3) for p in policies]
    monkeypatch.setattr(evaluation, "EVAL_CHUNK_EPISODES", 4)  # chunks of 4, 4, 2
    for policy, expected in zip(policies, whole):
        chunked = evaluate_policy(policy, env_id, 10, False, seed=3)
        # Each chunk continues the noise stream where the last one stopped, so
        # episodes see the same noise; matmuls over fewer rows may sum differently.
        assert_matches_reference(chunked, expected)
        assert_matches_reference(chunked, reference_evaluate(policy, env_id, 10, False, seed=3))


SUCCESS_COLUMNS = ("success_ratio_5mm", "success_ratio_10mm", "success_ratio_20mm", "success_ratio_50mm")


def test_aggregate_hand_example():
    per_seed = [
        [EpisodeRecord(1.0, 0.01, (True, True, True, True))],
        [EpisodeRecord(2.0, 0.02, (False, True, True, True))],
        [EpisodeRecord(3.0, 0.03, (False, False, True, True))],
    ]
    metrics = aggregate_across_seeds(per_seed)
    assert list(metrics) == [name for name, _, _ in METRIC_COLUMNS]
    assert metrics["mean_return"] == pytest.approx(2.0)
    assert metrics["std_return"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert [metrics[name] for name in SUCCESS_COLUMNS] == pytest.approx((1 / 3, 2 / 3, 1.0, 1.0))
    assert metrics["mean_final_distance_mm"] == pytest.approx(20.0)
    assert metrics["n_seeds"] == 3 and metrics["n_eval_episodes"] == 1


def test_aggregate_single_seed_zero_std():
    per_seed = [[EpisodeRecord(1.5, 0.1, (False,) * 4), EpisodeRecord(2.5, 0.2, (False,) * 4)]]
    metrics = aggregate_across_seeds(per_seed)
    assert metrics["std_return"] == 0.0


def test_aggregate_matches_flat_loop_oracle():
    rng = np.random.default_rng(0)
    per_seed = []
    for _ in range(4):
        per_seed.append(
            [
                EpisodeRecord(
                    float(rng.normal()), float(rng.uniform(0, 0.3)),
                    tuple(bool(rng.uniform() < 0.5) for _ in range(4)),
                )
                for _ in range(25)
            ]
        )
    metrics = aggregate_across_seeds(per_seed)

    # Flat-loop recomputation with scalar accumulators.
    total, count = 0.0, 0
    dist_total = 0.0
    flag_totals = [0, 0, 0, 0]
    seed_means = []
    for records in per_seed:
        acc = 0.0
        for r in records:
            total += r.episode_return
            dist_total += r.final_distance_m
            for i, f in enumerate(r.success_flags):
                flag_totals[i] += f
            count += 1
            acc += r.episode_return
        seed_means.append(acc / len(records))
    mean = total / count
    var = sum((m - sum(seed_means) / len(seed_means)) ** 2 for m in seed_means) / len(seed_means)
    assert metrics["mean_return"] == pytest.approx(mean, abs=1e-12)
    assert metrics["std_return"] == pytest.approx(math.sqrt(var), abs=1e-12)
    for i, name in enumerate(SUCCESS_COLUMNS):
        assert metrics[name] == pytest.approx(flag_totals[i] / count, abs=1e-12)
    assert metrics["mean_final_distance_mm"] == pytest.approx(dist_total / count * 1e3, abs=1e-9)


def test_aggregate_rejects_empty_and_ragged():
    with pytest.raises(ValidationError):
        aggregate_across_seeds([])
    with pytest.raises(ValidationError):
        aggregate_across_seeds([[EpisodeRecord(1.0, 0.1, (True,) * 4)], []])
    with pytest.raises(ValidationError):
        aggregate_across_seeds(
            [
                [EpisodeRecord(1.0, 0.1, (True,) * 4)],
                [EpisodeRecord(1.0, 0.1, (True,) * 4), EpisodeRecord(2.0, 0.1, (True,) * 4)],
            ]
        )


def test_log_episode_stay_still_zero_velocity():
    log = log_episode(still_policy(9, 6), "reach-v1", seed=4)
    assert len(log) == registry_lookup("reach-v1").episode_len
    np.testing.assert_array_equal(log.velocities, np.zeros(len(log)))
    np.testing.assert_array_equal(log.accelerations, np.zeros(len(log)))


@pytest.mark.parametrize("env_id", registered_env_ids())
def test_log_episode_is_evaluate_policy_episode(env_id):
    for policy in example_policies(registry_lookup(env_id))[:2]:  # gaussian, tanh
        log = log_episode(policy, env_id, seed=21)
        [record] = evaluate_policy(policy, env_id, n_episodes=1, deterministic=True, seed=21)
        total = 0.0
        for reward in log.rewards.tolist():
            total += reward
        assert total == record.episode_return
        assert log.distances[-1] == record.final_distance_m


def test_log_episode_internal_consistency():
    rng = np.random.default_rng(5)
    net = Mlp([(5, 2)], np.concatenate([rng.normal(size=(5, 2)).ravel(), rng.normal(size=2)]))
    policy = PolicyArtifact(kind="gaussian", net=net, log_std=np.zeros(2), n_actions=2)
    log = log_episode(policy, "reach-planar-v1", seed=6)
    distances = np.linalg.norm(log.ee - log.goal, axis=1)
    np.testing.assert_allclose(log.distances, distances, atol=1e-12)
    # reward column equals the env's reward applied to the distance column
    np.testing.assert_allclose(log.rewards, -log.distances**2, atol=1e-12)
    # finite differences with forced zeros at the first rows
    assert log.velocities[0] == 0.0
    np.testing.assert_allclose(log.velocities[1:], np.diff(log.distances), atol=0)
    assert log.accelerations[0] == 0.0 and log.accelerations[1] == 0.0
    np.testing.assert_allclose(log.accelerations[2:], np.diff(log.velocities)[1:], atol=0)


def test_episode_log_csv_header_and_rows():
    log = log_episode(still_policy(5, 2), "reach-planar-v1", seed=7)
    text = episode_log_to_csv(log)
    lines = text.strip().split("\n")
    assert lines[0] == "step,q1,q2,ee_x,ee_y,ee_z,goal_x,goal_y,goal_z,a1,a2,reward,distance_m,velocity,acceleration"
    assert len(lines) == 1 + len(log)
    assert lines[1].split(",")[0] == "0"
    assert episode_log_header(6)[1:7] == ["q1", "q2", "q3", "q4", "q5", "q6"]


def make_metrics(mean_return=1.0, std_return=0.5, ratios=(0.0, 0.25, 0.5, 1.0),
                 mean_final_distance_mm=12.5, n_eval_episodes=10, n_seeds=2):
    return {
        "n_seeds": n_seeds, "n_eval_episodes": n_eval_episodes,
        "mean_return": mean_return, "std_return": std_return,
        **dict(zip(SUCCESS_COLUMNS, ratios)),
        "mean_final_distance_mm": mean_final_distance_mm,
    }


def make_row(exp_id, mean_return=1.0):
    """The benchmark row of a made-up evaluation of experiment ``exp_id``."""
    return metrics_to_benchmark_row(make_metrics(mean_return), make_record(exp_id), 0.0)


def make_record(exp_id, env_id="reach-v1"):
    return ExperimentRecord(
        exp_id=exp_id, algo="ppo", env_id=env_id, n_timesteps=1000, n_seeds=2,
        base_seed=0, hyperparams={"lr": 0.001}, created_at="2026-01-01T00:00:00+00:00",
        status="Complete",
    )


def test_benchmark_created_with_header_and_one_row(tmp_path):
    append_benchmark_row(tmp_path, make_row(1))
    lines = (tmp_path / "benchmark.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(BENCHMARK_HEADER)
    assert len(lines) == 2


def test_benchmark_upsert_is_idempotent(tmp_path):
    append_benchmark_row(tmp_path, make_row(3, 1.0))
    append_benchmark_row(tmp_path, make_row(3, 2.0))
    rows = read_benchmark(tmp_path)
    assert len(rows) == 1
    assert rows[0]["mean_return"] == 2.0


def test_benchmark_rows_sorted_by_exp_id(tmp_path):
    append_benchmark_row(tmp_path, make_row(5))
    append_benchmark_row(tmp_path, make_row(2))
    assert [r["exp_id"] for r in read_benchmark(tmp_path)] == [2, 5]


@given(
    mean_return=st.floats(-1e6, 1e6, allow_nan=False),
    std=st.floats(0, 1e3),
    walltime=st.floats(0, 1e5),
)
@settings(max_examples=50, deadline=None)
def test_benchmark_round_trip_exact(mean_return, std, walltime):
    metrics = make_metrics(
        mean_return, std, ratios=(0.0, 0.1, 0.2, 1.0),
        mean_final_distance_mm=0.0, n_eval_episodes=1, n_seeds=1,
    )
    rows = [metrics_to_benchmark_row(metrics, make_record(1), walltime)]
    text = benchmark_rows_to_csv(rows)
    parsed = benchmark_rows_from_csv(text)
    assert parsed == rows
    assert benchmark_rows_to_csv(parsed) == text


def test_benchmark_corruption_is_explicit(tmp_path):
    path = tmp_path / "benchmark.csv"
    path.write_text("not,the,right,header\n1,2,3,4\n")
    with pytest.raises(CorruptDataError):
        read_benchmark(tmp_path)
    path.write_text(",".join(BENCHMARK_HEADER) + "\nnot-an-int,a,b\n")
    with pytest.raises(CorruptDataError):
        read_benchmark(tmp_path)


def test_evaluate_reads_config_and_each_run_meta_once(tmp_path, monkeypatch):
    record = experiment.create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    experiment.run_experiment(tmp_path, record.exp_id)
    reads = []
    real_read_json = experiment.read_json

    def read_json(path):
        reads.append(path.relative_to(tmp_path).as_posix())
        return real_read_json(path)

    monkeypatch.setattr(experiment, "read_json", read_json)
    evaluation.evaluate_experiment(tmp_path, record.exp_id, n_episodes=2)
    assert sorted(reads) == [
        "exp_1/config.json", "exp_1/seed_0/run_meta.json", "exp_1/seed_1/run_meta.json",
    ]
    wall_times = [
        real_read_json(experiment.seed_dir(tmp_path, 1, k) / "run_meta.json")["wall_time_s"]
        for k in range(2)
    ]
    assert read_benchmark(tmp_path)[0]["train_walltime_s"] == sum(wall_times)


def test_benchmark_json_columns_survive_csv_quoting(tmp_path):
    append_benchmark_row(tmp_path, make_row(1))
    row = read_benchmark(tmp_path)[0]
    import json

    config_doc = json.loads(row["env_config_json"])
    assert config_doc["env_id"] == "reach-v1"
    assert json.loads(row["hyperparams_json"]) == {"lr": 0.001}


def _upsert_worker(workspace, exp_id):
    append_benchmark_row(workspace, make_row(exp_id, float(exp_id)))


def test_benchmark_concurrent_upserts_serialize(tmp_path):
    from multiprocessing import get_context

    ctx = get_context("fork")
    workers = [
        ctx.Process(target=_upsert_worker, args=(tmp_path, exp_id))
        for exp_id in range(1, 9)
        for _ in range(2)  # every id upserted twice, racing
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
        assert w.exitcode == 0
    rows = read_benchmark(tmp_path)
    assert [r["exp_id"] for r in rows] == list(range(1, 9))
