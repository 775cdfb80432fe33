#!/usr/bin/env python3
"""Print the SHA-256 of the training artifacts of three fixed runs.

Trains, in a temporary workspace, PPO on reach-planar-v1 (4,096 steps,
2 seeds, base seed 7), TD3 on reach-planar-v3 (1,500 steps,
learning_starts=500, seed 7) and the random baseline on reach-v2 (2,000
steps, 2 seeds, base seed 7), then prints the hash of every seed's
``training_log.csv`` and ``policy.json``.  Seed runs execute in spawned
children with single-threaded BLAS, as ``reachrl train`` runs them, so two
checkouts whose training numerics agree print the same lines.

    PYTHONPATH=src python scripts/artifact_hashes.py
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

from reachrl.cli import main as cli

RUNS = (
    ("ppo", ["--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", "4096",
             "--n-seeds", "2", "--base-seed", "7"]),
    ("td3", ["--algo", "td3", "--env", "reach-planar-v3", "--n-timesteps", "1500",
             "--n-seeds", "1", "--base-seed", "7", "--hp", "learning_starts=500"]),
    ("random", ["--algo", "random", "--env", "reach-v2", "--n-timesteps", "2000",
                "--n-seeds", "2", "--base-seed", "7"]),
)


def main() -> int:
    with tempfile.TemporaryDirectory() as workspace:
        for exp_id, (name, args) in enumerate(RUNS, start=1):
            with contextlib.redirect_stdout(sys.stderr):
                code = cli(["train", *args, "--workspace", workspace])
            if code != 0:
                print(f"{name}: train exited with code {code}", file=sys.stderr)
                return code
            for seed_path in sorted((Path(workspace) / f"exp_{exp_id}").glob("seed_*")):
                for artifact in ("training_log.csv", "policy.json"):
                    digest = hashlib.sha256((seed_path / artifact).read_bytes()).hexdigest()
                    print(f"{name} {seed_path.name} {artifact} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
