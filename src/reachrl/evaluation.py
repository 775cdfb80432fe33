"""Deterministic policy evaluation, episode metadata logs, benchmark CSV.

Evaluation reruns fresh episodes with explicitly seeded goals (episode k is
seeded with seed + k), aggregates metrics across seed runs, and upserts one
row per experiment into the append-only ``benchmark.csv``.  The episode log
captures the per-step quantities useful for debugging a new environment:
joint angles, end-effector and goal positions, action, reward, distance and
its finite differences.

The episodes of one evaluation run in lockstep as the rows of one
``envs.EnvInstance``, in chunks of at most ``EVAL_CHUNK_EPISODES``: one
(chunk, obs_dim) policy forward and one env step per time step.  The episode
log is the same loop with one row.  Stochastic evaluation draws each chunk's
action noise up front as one (chunk, episode_len, n_joints) block,
episode-major, chunk after chunk, which is the order an episode-by-episode
loop draws it in; that block costs O(chunk x episode_len x n_joints) memory.
The env computes goal distances as sqrt(vecdot(d, d)), which gives a batch row
the bits of a 1-D episode, so env rows match single episodes exactly.  A
batched matmul sums in another order than its batch-1 form, so returns and
distances (and the ``benchmark.csv`` and tuner ``trials.csv`` values built
from them) can differ from an episode-by-episode run in the last bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agents import EVAL_SEED_OFFSET, PolicyArtifact, policy_from_json
from .envs import EnvConfig, config_to_json, make_env, registry_lookup, run_episodes, success_flags
from .errors import LifecycleError, ValidationError
from .experiment import (
    ExperimentRecord,
    STATUS_COMPLETE,
    SeedRun,
    exp_dir,
    load_experiment,
    seed_dir,
    seed_runs,
)
from .ioutil import atomic_write_text, csv_rows, csv_text, exclusive_lock, read_text


# Episodes stepped together; bounds the memory of a stochastic evaluation's
# noise block (1,024 x 100 steps x 6 joints is 4.9 MB).
EVAL_CHUNK_EPISODES = 1024


@dataclass
class EpisodeRecord:
    episode_return: float
    final_distance_m: float
    success_flags: tuple[bool, ...]


def _check_dimensions(policy: PolicyArtifact, config: EnvConfig) -> None:
    if policy.net is not None:
        if policy.net.in_dim != config.obs_dim():
            raise ValidationError(
                f"policy expects obs dim {policy.net.in_dim}, env provides {config.obs_dim()}"
            )
        if policy.net.out_dim != config.n_joints:
            raise ValidationError(
                f"policy outputs {policy.net.out_dim} actions, env expects {config.n_joints}"
            )
    elif policy.n_actions != config.n_joints:
        raise ValidationError(
            f"policy outputs {policy.n_actions} actions, env expects {config.n_joints}"
        )


def evaluate_policy(
    policy: PolicyArtifact,
    env_id: str,
    n_episodes: int = 100,
    deterministic: bool = True,
    seed: int = 0,
    goal_override: np.ndarray | None = None,
) -> list[EpisodeRecord]:
    """Run n_episodes fresh episodes and record return, final distance, flags.

    Episode k draws its goal as an env reset with seed + k does; the episodes
    run in lockstep (see the module docstring).  ``goal_override`` is a test
    and debugging hook that pins every episode's goal, bypassing goal_box
    sampling entirely.
    """
    if n_episodes < 1:
        raise ValidationError(f"n_episodes must be >= 1, got {n_episodes}")
    config = registry_lookup(env_id)
    _check_dimensions(policy, config)
    act_rng = np.random.default_rng(seed)
    records = []
    for first in range(seed, seed + n_episodes, EVAL_CHUNK_EPISODES):
        seeds = range(first, min(first + EVAL_CHUNK_EPISODES, seed + n_episodes))
        records += _run_lockstep(policy, config, seeds, deterministic, act_rng, goal_override)
    return records


def _run_lockstep(policy, config, seeds, deterministic, act_rng, goal_override, on_step=None):
    """One episode per seed, all stepped together; noise continues ``act_rng``.

    ``on_step(env, action, result)``, if given, sees every step after it runs.
    """
    env = make_env(config, seed=seeds)
    if goal_override is not None:
        env.set_goal(goal_override, unchecked=True)
    noise = policy.draw_noise(deterministic, act_rng, (len(seeds), config.episode_len, config.n_joints))
    records = []

    def act(obs):
        return policy.act_with_noise(obs, None if noise is None else noise[:, env.step_count])

    def on_episode(step, episode, returns, distance):
        flags = success_flags(config, distance)
        records.extend(
            EpisodeRecord(r, d, tuple(f))
            for r, d, f in zip(returns.tolist(), distance.tolist(), flags.tolist())
        )

    for _, _, action, result in run_episodes(env, act, on_episode, config.episode_len):
        if on_step is not None:
            on_step(env, action, result)
    return records


@dataclass
class EvalMetrics:
    mean_return: float
    std_return: float
    success_ratios: tuple[float, ...]  # one per threshold, monotone non-decreasing
    mean_final_distance_mm: float
    n_episodes: int  # per seed
    n_seeds: int


def aggregate_across_seeds(per_seed: list[list[EpisodeRecord]]) -> EvalMetrics:
    """Seed-averaged metrics.

    mean_return averages over all (seed, episode) pairs; std_return is the
    population standard deviation of the per-seed mean returns (0.0 for a
    single seed, by construction).
    """
    if not per_seed or any(not records for records in per_seed):
        raise ValidationError("need at least one seed with at least one episode")
    lengths = {len(records) for records in per_seed}
    if len(lengths) != 1:
        raise ValidationError(f"unequal episode counts across seeds: {sorted(lengths)}")
    all_records = [r for records in per_seed for r in records]
    seed_means = np.array(
        [np.mean([r.episode_return for r in records]) for records in per_seed]
    )
    n_thresholds = len(all_records[0].success_flags)
    ratios = tuple(
        float(np.mean([r.success_flags[i] for r in all_records]))
        for i in range(n_thresholds)
    )
    return EvalMetrics(
        mean_return=float(np.mean([r.episode_return for r in all_records])),
        std_return=float(np.std(seed_means)),
        success_ratios=ratios,
        mean_final_distance_mm=float(np.mean([r.final_distance_m for r in all_records]) * 1e3),
        n_episodes=len(per_seed[0]),
        n_seeds=len(per_seed),
    )


@dataclass
class EpisodeLog:
    """Per-step metadata for one evaluation episode (row t = after step t+1).

    velocity[0] is 0 and acceleration[0:2] are 0: the finite differences are
    defined between logged rows only.
    """

    env_id: str
    angles: np.ndarray  # (T, n)
    ee: np.ndarray  # (T, 3)
    goal: np.ndarray  # (T, 3)
    actions: np.ndarray  # (T, n)
    rewards: np.ndarray
    distances: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray

    @property
    def n_joints(self) -> int:
        return self.angles.shape[1]

    def __len__(self) -> int:
        return len(self.rewards)


def log_episode(policy: PolicyArtifact, env_id: str, seed: int = 0) -> EpisodeLog:
    """One fully-logged deterministic episode: ``evaluate_policy``'s episode
    for ``n_episodes=1`` (logged actions are as applied, post-clamp)."""
    config = registry_lookup(env_id)
    _check_dimensions(policy, config)
    steps = []

    def record(env, action, result):
        steps.append((env.angles[0], env.ee[0], env.goal[0], np.clip(action[0], -1.0, 1.0),
                      result.reward[0], result.info["distance"][0]))

    _run_lockstep(policy, config, [seed], True, act_rng=None, goal_override=None, on_step=record)
    angles, ee, goal, actions, rewards, distances = (np.array(column) for column in zip(*steps))
    velocities = np.zeros_like(distances)
    velocities[1:] = np.diff(distances)
    accelerations = np.zeros_like(distances)
    accelerations[2:] = np.diff(velocities)[1:]
    return EpisodeLog(
        env_id=env_id,
        angles=angles,
        ee=ee,
        goal=goal,
        actions=actions,
        rewards=rewards,
        distances=distances,
        velocities=velocities,
        accelerations=accelerations,
    )


def episode_log_header(n_joints: int) -> list[str]:
    return (
        ["step"]
        + [f"q{i + 1}" for i in range(n_joints)]
        + ["ee_x", "ee_y", "ee_z", "goal_x", "goal_y", "goal_z"]
        + [f"a{i + 1}" for i in range(n_joints)]
        + ["reward", "distance_m", "velocity", "acceleration"]
    )


def episode_log_to_csv(log: EpisodeLog) -> str:
    table = np.column_stack([
        log.angles, log.ee, log.goal, log.actions,
        log.rewards, log.distances, log.velocities, log.accelerations,
    ])
    rows = ([t, *row] for t, row in enumerate(table.tolist()))
    return csv_text(episode_log_header(log.n_joints), rows)


BENCHMARK_HEADER = [
    "exp_id", "env_id", "algo", "n_timesteps", "n_seeds", "n_eval_episodes",
    "mean_return", "std_return",
    "success_ratio_5mm", "success_ratio_10mm", "success_ratio_20mm", "success_ratio_50mm",
    "mean_final_distance_mm", "train_walltime_s", "env_config_json", "hyperparams_json",
]

# One per BENCHMARK_HEADER column: the 8 floats run from mean_return to train_walltime_s.
_BENCHMARK_TYPES = (int, str, str, int, int, int) + (float,) * 8 + (str, str)

BENCHMARK_NUMERIC_METRICS = tuple(
    c for c, cast in zip(BENCHMARK_HEADER, _BENCHMARK_TYPES) if cast is not str
)


def benchmark_rows_to_csv(rows: list[dict]) -> str:
    return csv_text(
        BENCHMARK_HEADER,
        ([row[c] for c in BENCHMARK_HEADER] for row in sorted(rows, key=lambda r: r["exp_id"])),
    )


def benchmark_rows_from_csv(text: str, path: str = "benchmark.csv") -> list[dict]:
    return [
        dict(zip(BENCHMARK_HEADER, cells))
        for cells in csv_rows(text, BENCHMARK_HEADER, _BENCHMARK_TYPES, path)
    ]


def read_benchmark(workspace: Path) -> list[dict]:
    path = Path(workspace) / "benchmark.csv"
    if not path.is_file():
        return []
    return benchmark_rows_from_csv(read_text(path), str(path))


def metrics_to_benchmark_row(
    metrics: EvalMetrics, record: ExperimentRecord, train_walltime_s: float
) -> dict:
    config = registry_lookup(record.env_id)
    return {
        "exp_id": record.exp_id,
        "env_id": record.env_id,
        "algo": record.algo,
        "n_timesteps": record.n_timesteps,
        "n_seeds": metrics.n_seeds,
        "n_eval_episodes": metrics.n_episodes,
        "mean_return": metrics.mean_return,
        "std_return": metrics.std_return,
        "success_ratio_5mm": metrics.success_ratios[0],
        "success_ratio_10mm": metrics.success_ratios[1],
        "success_ratio_20mm": metrics.success_ratios[2],
        "success_ratio_50mm": metrics.success_ratios[3],
        "mean_final_distance_mm": metrics.mean_final_distance_mm,
        "train_walltime_s": train_walltime_s,
        "env_config_json": config_to_json(config),
        "hyperparams_json": json.dumps(record.hyperparams, separators=(",", ":")),
    }


def append_benchmark_row(
    workspace: Path,
    exp_id: int,
    metrics: EvalMetrics,
    record: ExperimentRecord,
    train_walltime_s: float = 0.0,
) -> None:
    """Insert-or-replace the benchmark row for one experiment (keyed on exp_id).

    Holds an exclusive advisory lock for the read-modify-write, so concurrent
    evaluators serialize instead of clobbering each other.
    """
    workspace = Path(workspace)
    path = workspace / "benchmark.csv"
    new_row = metrics_to_benchmark_row(metrics, record, train_walltime_s)
    with exclusive_lock(workspace / "benchmark.csv.lock"):
        rows = benchmark_rows_from_csv(read_text(path), str(path)) if path.is_file() else []
        rows = [r for r in rows if r["exp_id"] != exp_id] + [new_row]
        atomic_write_text(path, benchmark_rows_to_csv(rows))


def evaluate_experiment(
    workspace: Path,
    exp_id: int,
    n_episodes: int = 100,
    deterministic: bool = True,
    allow_partial: bool = False,
) -> tuple[EvalMetrics, list[list[EpisodeRecord]]]:
    """Evaluate every completed seed run of an experiment and aggregate.

    The eval env for seed run k is seeded with base_seed + k + 3000 (a fixed
    offset away from all training streams).
    """
    record = load_experiment(workspace, exp_id)
    if record.status != STATUS_COMPLETE and not allow_partial:
        raise LifecycleError(
            f"experiment {exp_id} has status {record.status}; "
            f"pass allow_partial to evaluate completed seeds anyway"
        )
    runs = seed_runs(workspace, record)
    per_seed = [
        evaluate_policy(
            _load_seed_policy(workspace, exp_id, k), record.env_id, n_episodes, deterministic,
            seed=record.base_seed + k + EVAL_SEED_OFFSET,
        )
        for k in _completed_seeds(exp_id, runs)
    ]
    metrics = aggregate_across_seeds(per_seed)
    append_benchmark_row(
        workspace, exp_id, metrics, record,
        train_walltime_s=sum(run.wall_time_s for run in runs),
    )
    return metrics, per_seed


def _load_seed_policy(workspace: Path, exp_id: int, k: int) -> PolicyArtifact:
    """The trained policy of seed run k."""
    path = seed_dir(workspace, exp_id, k) / "policy.json"
    return policy_from_json(path.read_bytes(), str(path))


def _completed_seeds(exp_id: int, runs: list[SeedRun]) -> list[int]:
    completed = [run.k for run in runs if run.status == "complete"]
    if not completed:
        raise ValidationError(f"experiment {exp_id} has no completed seed runs")
    return completed


def write_episode_log(workspace: Path, exp_id: int) -> tuple[EpisodeLog, Path]:
    """Log one episode of an experiment to ``exp_<id>/episode_eval.csv``.

    The policy is the first completed seed run's; the goal is that of seed
    run 0's first evaluation episode (base_seed + 3000).
    """
    record = load_experiment(workspace, exp_id)
    k = _completed_seeds(exp_id, seed_runs(workspace, record))[0]
    log = log_episode(
        _load_seed_policy(workspace, exp_id, k), record.env_id,
        seed=record.base_seed + EVAL_SEED_OFFSET,
    )
    path = exp_dir(workspace, exp_id) / "episode_eval.csv"
    atomic_write_text(path, episode_log_to_csv(log))
    return log, path
