#!/usr/bin/env python3
"""Print the SHA-256 of the training artifacts of five fixed runs, and the
evaluation outputs of the PPO and TD3 ones.

Trains, in a temporary workspace, PPO on reach-planar-v1 (4,096 steps,
2 seeds, base seed 7), TD3 on reach-planar-v3 (1,500 steps,
learning_starts=500, seed 7), the random baseline on reach-v2 (2,000
steps, 2 seeds, base seed 7) and on reach-planar-v5, whose actions are
absolute joint targets (1,000 steps, seed 7), and last PPO on the 6-DOF
reach-v3 (1,000 steps, seed 7, rollout_len=300 and minibatch_size=60, so
the last rollout is a partial one of 100 steps).  It prints the hash of every
seed's ``training_log.csv`` and ``policy.json``, and the ``seed`` and
``status`` of its ``run_meta.json`` (not its wall time).  BLAS is pinned to one
thread before numpy loads, as ``reachrl`` commands pin it, and the seed runs
execute in children forked from this process, as ``reachrl train`` runs
them, so two checkouts whose training numerics agree print the same lines.

It then evaluates the PPO experiment with ``--log-episode``, once
deterministically and once with ``--stochastic``, and the TD3 one, whose
``policy.json`` holds a float32 actor, deterministically.  It prints after
each the hash of the command's stdout (with the temporary workspace path
replaced by ``<workspace>``), the experiment's ``benchmark.csv`` row
(without ``train_walltime_s``, which is a wall time) and the hashes of
``episode_eval.csv`` and ``episode_panels.svg``.
Then it runs ``plot --exp-id 1`` and ``benchmark --exp-ids 1 --metric
mean_return`` and prints the hashes of the figures and their data sidecars.

Then it runs one small PPO study on reach-v1 (6 trials x 256 steps, 2
checkpoints) at ``--parallel 1`` and at ``--parallel 2``, and prints the
hashes of each study's ``trials.csv`` and ``best_config.json``; the two
pairs must be equal: both studies run their trials in forked workers, one
worker at ``--parallel 1``.

Then it trains the PPO run again with ``--parallel 1`` and prints its seed
lines, which must equal those of the first PPO run (default ``--parallel``,
the usable cores up to 2).

Last, it runs one small TD3 study on reach-planar-v1 (4 trials x 1,500
steps, 3 checkpoints, so that the checkpoints at 1,000 and 1,500 score
actors after updates) at ``--parallel 1`` and at ``--parallel 2``, and
prints its hashes as for the PPO study; the two pairs must be equal.

It exits 1 if any of those must-equal checks fails, after naming on
stderr the first line that differs from its counterpart; else 0.

    PYTHONPATH=src python scripts/artifact_hashes.py
"""

import contextlib
import hashlib
import io
import itertools
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
    ("random-absolute", ["--algo", "random", "--env", "reach-planar-v5", "--n-timesteps", "1000",
                         "--n-seeds", "1", "--base-seed", "7"]),
    ("ppo-6dof", ["--algo", "ppo", "--env", "reach-v3", "--n-timesteps", "1000",
                  "--n-seeds", "1", "--base-seed", "7", "--hp", "rollout_len=300",
                  "--hp", "minibatch_size=60"]),
)
EVALUATIONS = (("ppo", 1, "deterministic", []), ("ppo", 1, "stochastic", ["--stochastic"]),
               ("td3", 2, "deterministic", []))
PPO_TUNE = ["--algo", "ppo", "--env", "reach-v1", "--n-trials", "6",
            "--timesteps-per-trial", "256", "--checkpoints", "2"]
TD3_TUNE = ["--algo", "td3", "--env", "reach-planar-v1", "--n-trials", "4",
            "--timesteps-per-trial", "1500", "--checkpoints", "3"]


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


def print_lines(label: str, lines: list[str]) -> list[str]:
    """Print each line after ``label``; return the lines without it."""
    for line in lines:
        print(f"{label} {line}")
    return lines


def print_seed_lines(label: str, exp_dir: Path) -> list[str]:
    lines = []
    for seed_path in sorted(exp_dir.glob("seed_*")):
        for artifact in ("training_log.csv", "policy.json"):
            lines.append(f"{seed_path.name} {artifact} {sha256(seed_path / artifact)}")
        meta = json.loads((seed_path / "run_meta.json").read_text())
        lines.append(f"{seed_path.name} run_meta.json seed={meta['seed']} status={meta['status']}")
    return print_lines(label, lines)


def check_equal(label: str, lines: list[str], other_label: str, others: list[str]) -> bool:
    """Whether ``others`` equals ``lines``; if not, name on stderr the first
    of ``others`` that differs from its counterpart."""
    for line, other in itertools.zip_longest(lines, others, fillvalue="<no line>"):
        if line != other:
            print(f"mismatch: {other_label} {other} differs from {label} {line}", file=sys.stderr)
            return False
    return True


def run_studies(workspace: str, name: str, args: list[str], first_id: int) -> bool:
    """Run the study at ``--parallel`` 1 and 2 as studies ``first_id`` and
    the next, print their hashes, and return whether the two are equal."""
    study_lines = {}
    for study_id, parallel in enumerate((1, 2), start=first_id):
        run_cli(name, ["tune", *args, "--parallel", str(parallel), "--workspace", workspace])
        study = Path(workspace) / "studies" / f"study_{study_id}"
        study_lines[parallel] = print_lines(
            f"{name} tune parallel={parallel}",
            [f"{artifact} {sha256(study / artifact)}"
             for artifact in ("trials.csv", "best_config.json")],
        )
    return check_equal(f"{name} tune parallel=1", study_lines[1],
                       f"{name} tune parallel=2", study_lines[2])


def main() -> int:
    with tempfile.TemporaryDirectory() as workspace:
        seed_lines = {}
        for exp_id, (name, args) in enumerate(RUNS, start=1):
            run_cli(name, ["train", *args, "--workspace", workspace])
            seed_lines[name] = print_seed_lines(name, Path(workspace) / f"exp_{exp_id}")
        for name, exp_id, mode, flags in EVALUATIONS:
            stdout = run_cli(name, ["evaluate", "--exp-id", str(exp_id), "--log-episode", *flags,
                                    "--workspace", workspace])
            stdout = stdout.replace(workspace, "<workspace>").encode()
            label = f"{name} evaluate {mode}"
            print(f"{label} stdout {hashlib.sha256(stdout).hexdigest()}")
            [row] = [r for r in read_benchmark(Path(workspace)) if r["exp_id"] == exp_id]
            del row["train_walltime_s"]
            print(f"{label} benchmark.csv {','.join(map(str, row.values()))}")
            for artifact in ("episode_eval.csv", "episode_panels.svg"):
                print(f"{label} {artifact} {sha256(Path(workspace) / f'exp_{exp_id}' / artifact)}")
        for args, figure in ((["plot", "--exp-id", "1"], "exp_1/training_curves"),
                             (["benchmark", "--exp-ids", "1", "--metric", "mean_return"],
                              "figures/benchmark_mean_return")):
            run_cli("ppo", [*args, "--workspace", workspace])
            for suffix in (".data.csv", ".svg"):
                print(f"ppo {args[0]} {figure}{suffix} {sha256(Path(workspace) / (figure + suffix))}")
        equal = [run_studies(workspace, "ppo", PPO_TUNE, first_id=1)]
        name, args = RUNS[0]
        run_cli(name, ["train", *args, "--parallel", "1", "--workspace", workspace])
        rerun = print_seed_lines(f"{name} parallel=1", Path(workspace) / f"exp_{len(RUNS) + 1}")
        equal.append(check_equal(name, seed_lines[name], f"{name} parallel=1", rerun))
        equal.append(run_studies(workspace, "td3", TD3_TUNE, first_id=3))
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main())
