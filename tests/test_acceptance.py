"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  The learning checks (5, 6)
train real agents at desk scale and take several minutes each; everything
else finishes in seconds.
"""

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import reachrl
from reachrl.agents import (
    EVAL_SEED_OFFSET,
    make_algo_config,
    policy_from_json,
    policy_to_json,
    train,
    training_log_from_csv,
)
from reachrl.arm import forward_kinematics, planar_arm, widowx_arm
from reachrl.cli import main as cli_main
from reachrl.envs import RewardType, make_env, registry_lookup
from reachrl.evaluation import (
    benchmark_rows_from_csv,
    benchmark_rows_to_csv,
    evaluate_policy,
    read_benchmark,
)
from reachrl.experiment import load_experiment, record_to_json, save_record, seed_dir
from reachrl.hypertune import (
    LogUniform,
    checkpointed_training,
    run_study,
    should_prune,
)
from reachrl.nets import mlp_backward, mlp_forward, mlp_init
from reachrl.ppo import compute_gae
from reachrl.report import series_from_csv, series_to_csv

import dataclasses


def verdict(number, name, ok, detail=""):
    print(f"\n[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ------------------------------------------------------------------ 1

def test_criterion_1_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    sizes_pool = [4, 8, 16]
    worst = 0.0
    for trial in range(20):
        hidden = [sizes_pool[trial % 3]] + ([sizes_pool[(trial + 1) % 3]] if trial % 2 else [])
        sizes = [int(rng.integers(2, 8)), *hidden, int(rng.integers(1, 4))]
        net = mlp_init(sizes, rng)
        x = rng.normal(size=sizes[0])
        output_grad = rng.normal(size=sizes[-1])
        analytic_w, analytic_b, _ = mlp_backward(net, x, output_grad)
        analytic = analytic_w + analytic_b
        h = 1e-5
        for p, a_grad in zip(net.weights + net.biases, analytic):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = p[idx]
                p[idx] = original + h
                hi = float(mlp_forward(net, x) @ output_grad)
                p[idx] = original - h
                lo = float(mlp_forward(net, x) @ output_grad)
                p[idx] = original
                numeric = (hi - lo) / (2 * h)
                a = float(a_grad[idx])
                worst = max(worst, abs(a - numeric) / (abs(a) + abs(numeric) + 1e-10))
    elapsed = time.perf_counter() - start
    verdict(1, "gradient fidelity", worst < 1e-4 and elapsed < 10.0,
            f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


# ------------------------------------------------------------------ 2

def _fk_oracle(model, angles):
    transform = np.eye(4)
    for spec, angle in zip(model.joints, angles):
        translation = np.eye(4)
        translation[:3, 3] = spec.link_offset
        rotation = np.eye(4)
        rotation[:3, :3] = Rotation.from_rotvec(np.asarray(spec.axis) * angle).as_matrix()
        transform = transform @ translation @ rotation
    return (transform @ np.array([*model.tool, 1.0]))[:3]


def test_criterion_2_fk_oracle():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1)
    for model in (planar_arm(), widowx_arm()):
        for _ in range(1000):
            angles = rng.uniform(model.lower_limits, model.upper_limits)
            diff = np.abs(forward_kinematics(model, angles) - _fk_oracle(model, angles))
            worst = max(worst, float(diff.max()))
    elapsed = time.perf_counter() - start
    verdict(2, "FK oracle", worst < 1e-9 and elapsed < 1.0,
            f"(max abs err {worst:.2e}, {elapsed:.2f}s)")


# ------------------------------------------------------------------ 3

def _brute_force_returns(rewards, dones, next_value, gamma):
    n = len(rewards)
    out = np.zeros(n)
    for t in range(n):
        acc, discount, terminated = 0.0, 1.0, False
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


def test_criterion_3_gae_equivalence():
    rng = np.random.default_rng(2)
    worst_l1 = worst_l0 = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 64))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = (rng.uniform(size=n) < 0.2).astype(float)
        next_value = float(rng.normal())
        gamma = float(rng.uniform(0.5, 1.0))
        _, rets = compute_gae(rewards, values, next_value, dones, gamma, 1.0)
        brute = _brute_force_returns(rewards, dones, next_value, gamma)
        worst_l1 = max(worst_l1, float(np.abs(rets - brute).max()))
        adv, _ = compute_gae(rewards, values, next_value, dones, gamma, 0.0)
        v_next = np.append(values[1:], next_value)
        delta = rewards + gamma * v_next * (1.0 - dones) - values
        worst_l0 = max(worst_l0, float(np.abs(adv - delta).max()))
    verdict(3, "GAE equivalence", worst_l1 < 1e-10 and worst_l0 < 1e-10,
            f"(lambda=1 err {worst_l1:.2e}, lambda=0 err {worst_l0:.2e})")


# ------------------------------------------------------------------ 4

def _train_cli(workspace, parallel):
    code = cli_main([
        "train", "--algo", "ppo", "--env", "reach-v1",
        "--n-timesteps", "20000", "--n-seeds", "2",
        "--parallel", str(parallel), "--workspace", str(workspace),
    ])
    assert code == 0
    return [
        (workspace / "exp_1" / f"seed_{k}" / "training_log.csv").read_bytes()
        for k in range(2)
    ]


def test_criterion_4_training_determinism(tmp_path):
    start = time.perf_counter()
    first = _train_cli(tmp_path / "a", parallel=1)
    second = _train_cli(tmp_path / "b", parallel=1)
    pooled = _train_cli(tmp_path / "c", parallel=2)
    elapsed = time.perf_counter() - start
    repeatable = first == second
    schedule_free = first == pooled
    verdict(4, "training determinism", repeatable and schedule_free and elapsed < 180,
            f"(repeat={repeatable}, parallel-independent={schedule_free}, {elapsed:.0f}s)")


# ------------------------------------------------------------------ 5

@pytest.mark.slow
def test_criterion_5_ppo_learning(tmp_path):
    start = time.perf_counter()
    code = cli_main([
        "train", "--algo", "ppo", "--env", "reach-planar-v1",
        "--n-timesteps", "150000", "--n-seeds", "3",
        "--parallel", "3", "--workspace", str(tmp_path),
    ])
    assert code == 0
    ratios = []
    for k in range(3):
        log = training_log_from_csv(
            (seed_dir(tmp_path, 1, k) / "training_log.csv").read_text()
        )
        last50 = log.rows[-50:]
        ratios.append(float(np.mean([r.episode_final_distance_m < 0.05 for r in last50])))
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - start
    verdict(5, "PPO learning smoke test", mean_ratio >= 0.9 and elapsed < 600,
            f"(per-seed {ratios}, mean {mean_ratio:.3f}, {elapsed:.0f}s)")


# ------------------------------------------------------------------ 6

@pytest.mark.slow
def test_criterion_6_td3_sanity(monkeypatch):
    start = time.perf_counter()
    checkpoints = [25_000, 50_000, 75_000, 100_000]
    for name in reachrl.BLAS_THREAD_VARS:  # the spawned workers run one BLAS thread
        monkeypatch.setenv(name, "1")
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        futures = [
            pool.submit(checkpointed_training, "td3", "reach-planar-v1", seed, {}, checkpoints)
            for seed in (0, 1)
        ]
        results = [f.result() for f in futures]
    per_seed_values = [dict(values) for _, _, values in results]
    first = float(np.mean([v[checkpoints[0]] for v in per_seed_values]))
    last = float(np.mean([v[checkpoints[-1]] for v in per_seed_values]))
    flags = []
    for seed, (artifact, _, _) in zip((0, 1), results):
        records = evaluate_policy(
            artifact, "reach-planar-v1", 100, True, seed + EVAL_SEED_OFFSET
        )
        flags.extend(r.success_flags[3] for r in records)
    success = float(np.mean(flags))
    elapsed = time.perf_counter() - start
    verdict(6, "TD3 sanity", last > first and success >= 0.5 and elapsed < 600,
            f"(eval return {first:.3f} -> {last:.3f}, success@50mm {success:.2f}, {elapsed:.0f}s)")


# ------------------------------------------------------------------ 7

def test_criterion_7_benchmark_pipeline(tmp_path):
    fast_hp = ["--hp", "rollout_len=256", "--hp", "minibatch_size=64", "--hp", "n_epochs=2"]
    assert cli_main(["train", "--algo", "ppo", "--env", "reach-planar-v1",
                     "--n-timesteps", "1000", "--n-seeds", "2",
                     "--workspace", str(tmp_path), *fast_hp]) == 0
    assert cli_main(["train", "--algo", "random", "--env", "reach-planar-v1",
                     "--n-timesteps", "1000", "--n-seeds", "2",
                     "--workspace", str(tmp_path)]) == 0
    for exp_id in (1, 2):
        assert cli_main(["evaluate", "--exp-id", str(exp_id), "--n-eval-episodes", "20",
                         "--workspace", str(tmp_path)]) == 0
    rows = {r["exp_id"]: r for r in read_benchmark(tmp_path)}
    assert sorted(rows) == [1, 2]

    # Independent flat-loop recomputation from freshly re-run evaluations.
    worst = 0.0
    for exp_id in (1, 2):
        record = load_experiment(tmp_path, exp_id)
        per_seed = []
        for k in range(record.n_seeds):
            policy = policy_from_json(
                (seed_dir(tmp_path, exp_id, k) / "policy.json").read_text()
            )
            per_seed.append(
                evaluate_policy(policy, record.env_id, 20, True,
                                record.base_seed + k + EVAL_SEED_OFFSET)
            )
        total, count = 0.0, 0
        flag_totals = [0, 0, 0, 0]
        dist_total = 0.0
        seed_means = []
        for records in per_seed:
            acc = 0.0
            for r in records:
                total += r.episode_return
                acc += r.episode_return
                dist_total += r.final_distance_m
                for i, f in enumerate(r.success_flags):
                    flag_totals[i] += f
                count += 1
            seed_means.append(acc / len(records))
        mean = total / count
        center = sum(seed_means) / len(seed_means)
        std = math.sqrt(sum((m - center) ** 2 for m in seed_means) / len(seed_means))
        row = rows[exp_id]
        worst = max(
            worst,
            abs(row["mean_return"] - mean),
            abs(row["std_return"] - std),
            abs(row["mean_final_distance_mm"] - dist_total / count * 1e3),
            *[abs(row[f"success_ratio_{t}mm"] - flag_totals[i] / count)
              for i, t in enumerate((5, 10, 20, 50))],
        )
    assert cli_main(["benchmark", "--exp-ids", "1,2", "--metric", "mean_return",
                     "--workspace", str(tmp_path)]) == 0
    import xml.etree.ElementTree as ET

    svg = (tmp_path / "figures" / "benchmark_mean_return.svg").read_text()
    rects = ET.fromstring(svg).findall(".//{http://www.w3.org/2000/svg}rect")
    two_bars = len(rects) - 1 == 2  # one background rect
    verdict(7, "benchmark pipeline", worst < 1e-12 and two_bars,
            f"(max aggregation err {worst:.2e}, bars {len(rects) - 1})")


# ------------------------------------------------------------------ 8

def _lr_stub(algo, env_id, seed, config, steps, report):
    for step in steps:
        if not report(step, config["lr"]):
            return None
    return config["lr"]


def test_criterion_8_pruner_properties(tmp_path):
    rng = np.random.default_rng(3)
    best_never_pruned = all(
        not should_prune(list(priors), float(max(priors)))
        for priors in (rng.normal(size=int(rng.integers(5, 20))) for _ in range(200))
    )
    warm_up = not any(
        should_prune(list(rng.normal(size=4)), -1e9) for _ in range(50)
    )
    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", {"lr": LogUniform(1e-5, 1e-2)},
        n_trials=12, timesteps_per_trial=1000, checkpoints=4, seed=0,
        trial_runner=_lr_stub,
    )
    sampled_max = max(t.config["lr"] for t in study.trials)
    best_recovered = study.best.final_value == pytest.approx(sampled_max)
    best_config = json.loads((study.study_dir / "best_config.json").read_text())
    verdict(8, "pruner properties",
            best_never_pruned and warm_up and best_recovered
            and best_config == study.best.config,
            f"(best lr {study.best.final_value:.2e} == max sampled {sampled_max:.2e})")


# ------------------------------------------------------------------ 9

def test_criterion_9_telescoping_reward():
    config = dataclasses.replace(
        registry_lookup("reach-planar-v1"), reward_type=RewardType.DELTA_DISTANCE
    )
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(100):
        env = make_env(config, seed=trial)
        env.reset(seed=trial)
        d_initial = env.prev_distance
        total = 0.0
        for _ in range(env.config.episode_len):
            result = env.step(rng.uniform(-1, 1, size=2))
            total += result.reward
        worst = max(worst, abs(total - (d_initial - result.info["distance"])))
    verdict(9, "telescoping reward", worst < 1e-10, f"(max err {worst:.2e})")


# ------------------------------------------------------------------ 10

def test_criterion_10_round_trips(tmp_path):
    # config.json
    assert cli_main(["train", "--algo", "random", "--env", "reach-planar-v1",
                     "--n-timesteps", "200", "--n-seeds", "1",
                     "--workspace", str(tmp_path), ]) == 0
    config_path = tmp_path / "exp_1" / "config.json"
    config_bytes = config_path.read_bytes()
    record = load_experiment(tmp_path, 1)
    config_ok = record_to_json(record).encode() == config_bytes
    save_record(tmp_path, record)
    config_ok = config_ok and config_path.read_bytes() == config_bytes

    # policy.json
    policy_path = seed_dir(tmp_path, 1, 0) / "policy.json"
    policy_bytes = policy_path.read_bytes()
    policy_ok = policy_to_json(policy_from_json(policy_path.read_text())).encode() == policy_bytes

    # benchmark.csv
    assert cli_main(["evaluate", "--exp-id", "1", "--n-eval-episodes", "5",
                     "--workspace", str(tmp_path)]) == 0
    bench_path = tmp_path / "benchmark.csv"
    bench_bytes = bench_path.read_bytes()
    bench_ok = benchmark_rows_to_csv(benchmark_rows_from_csv(bench_path.read_text())).encode() == bench_bytes

    # plot data CSV
    assert cli_main(["plot", "--exp-id", "1", "--window", "1",
                     "--workspace", str(tmp_path)]) == 0
    data_path = tmp_path / "exp_1" / "training_curves.data.csv"
    data_bytes = data_path.read_bytes()
    plot_ok = series_to_csv(series_from_csv(data_path.read_text())).encode() == data_bytes

    verdict(10, "round-trips",
            config_ok and policy_ok and bench_ok and plot_ok,
            f"(config {config_ok}, policy {policy_ok}, benchmark {bench_ok}, plot {plot_ok})")
