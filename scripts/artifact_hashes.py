#!/usr/bin/env python3
"""Print the SHA-256 of the training artifacts of three fixed runs, and the
evaluation outputs of the PPO one.

Trains, in a temporary workspace, PPO on reach-planar-v1 (4,096 steps,
2 seeds, base seed 7), TD3 on reach-planar-v3 (1,500 steps,
learning_starts=500, seed 7) and the random baseline on reach-v2 (2,000
steps, 2 seeds, base seed 7), then prints the hash of every seed's
``training_log.csv`` and ``policy.json``, and the ``seed`` and ``status``
of its ``run_meta.json`` (not its wall time).  BLAS is pinned to one
thread before numpy loads, as ``reachrl`` commands pin it, and the seed runs
execute in children forked from this process, as ``reachrl train`` runs
them, so two checkouts whose training numerics agree print the same lines.

It then evaluates the PPO experiment with ``--log-episode``, once
deterministically and once with ``--stochastic``, and prints after each the
hash of the command's stdout (with the temporary workspace path replaced by
``<workspace>``), its ``benchmark.csv`` row (without ``train_walltime_s``,
which is a wall time) and the hashes of ``episode_eval.csv`` and
``episode_panels.svg``.
Then it runs ``plot --exp-id 1`` and ``benchmark --exp-ids 1 --metric
mean_return`` and prints the hashes of the figures and their data sidecars.

Then it runs one small PPO study on reach-v1 (6 trials x 256 steps, 2
checkpoints) at ``--parallel 1`` and at ``--parallel 2``, and prints the
hashes of each study's ``trials.csv`` and ``best_config.json``; the two
pairs must be equal: the in-process ``--parallel 1`` study runs with the
BLAS settings of the forked workers.

Last, it trains the PPO run again with ``--parallel 1`` and prints its seed
lines, which must equal those of the first PPO run (default ``--parallel``,
the usable cores up to 2).

    PYTHONPATH=src python scripts/artifact_hashes.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from reachrl import BLAS_THREAD_VARS  # loads no numpy

os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from reachrl.cli import main as cli  # noqa: E402  (after pinning BLAS)
from reachrl.evaluation import read_benchmark  # noqa: E402

RUNS = (
    ("ppo", ["--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", "4096",
             "--n-seeds", "2", "--base-seed", "7"]),
    ("td3", ["--algo", "td3", "--env", "reach-planar-v3", "--n-timesteps", "1500",
             "--n-seeds", "1", "--base-seed", "7", "--hp", "learning_starts=500"]),
    ("random", ["--algo", "random", "--env", "reach-v2", "--n-timesteps", "2000",
                "--n-seeds", "2", "--base-seed", "7"]),
)
EVALUATIONS = (("deterministic", []), ("stochastic", ["--stochastic"]))
TUNE = ["--algo", "ppo", "--env", "reach-v1", "--n-trials", "6",
        "--timesteps-per-trial", "256", "--checkpoints", "2"]


def run_cli(name: str, args: list[str]) -> str:
    """Run one command and return its stdout, which is also copied to stderr."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(args)
    sys.stderr.write(out.getvalue())
    if code != 0:
        raise SystemExit(f"{name}: {args[0]} exited with code {code}")
    return out.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def print_seed_lines(label: str, exp_dir: Path) -> None:
    for seed_path in sorted(exp_dir.glob("seed_*")):
        for artifact in ("training_log.csv", "policy.json"):
            print(f"{label} {seed_path.name} {artifact} {sha256(seed_path / artifact)}")
        meta = json.loads((seed_path / "run_meta.json").read_text())
        print(f"{label} {seed_path.name} run_meta.json seed={meta['seed']} status={meta['status']}")


def main() -> int:
    with tempfile.TemporaryDirectory() as workspace:
        for exp_id, (name, args) in enumerate(RUNS, start=1):
            run_cli(name, ["train", *args, "--workspace", workspace])
            print_seed_lines(name, Path(workspace) / f"exp_{exp_id}")
        for mode, flags in EVALUATIONS:
            stdout = run_cli("ppo", ["evaluate", "--exp-id", "1", "--log-episode", *flags,
                                     "--workspace", workspace])
            stdout = stdout.replace(workspace, "<workspace>").encode()
            print(f"ppo evaluate {mode} stdout {hashlib.sha256(stdout).hexdigest()}")
            row = read_benchmark(Path(workspace))[0]
            del row["train_walltime_s"]
            print(f"ppo evaluate {mode} benchmark.csv {','.join(map(str, row.values()))}")
            for artifact in ("episode_eval.csv", "episode_panels.svg"):
                print(f"ppo evaluate {mode} {artifact} {sha256(Path(workspace) / 'exp_1' / artifact)}")
        for args, figure in ((["plot", "--exp-id", "1"], "exp_1/training_curves"),
                             (["benchmark", "--exp-ids", "1", "--metric", "mean_return"],
                              "figures/benchmark_mean_return")):
            run_cli("ppo", [*args, "--workspace", workspace])
            for suffix in (".data.csv", ".svg"):
                print(f"ppo {args[0]} {figure}{suffix} {sha256(Path(workspace) / (figure + suffix))}")
        for study_id, parallel in enumerate((1, 2), start=1):
            run_cli("ppo", ["tune", *TUNE, "--parallel", str(parallel), "--workspace", workspace])
            study = Path(workspace) / "studies" / f"study_{study_id}"
            for artifact in ("trials.csv", "best_config.json"):
                print(f"ppo tune parallel={parallel} {artifact} {sha256(study / artifact)}")
        name, args = RUNS[0]
        run_cli(name, ["train", *args, "--parallel", "1", "--workspace", workspace])
        print_seed_lines(f"{name} parallel=1", Path(workspace) / f"exp_{len(RUNS) + 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
