#!/usr/bin/env python3
"""Small hyperparameter study for PPO on the planar reach task.

Random search over the default PPO space with median pruning; prints each
trial and the best configuration found.
"""

import argparse
import os

from reachrl import BLAS_THREAD_VARS  # loads no numpy

# One BLAS thread, set before numpy loads, as the ``reachrl`` command sets it.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from reachrl.cli import main as cli  # noqa: E402  (after pinning BLAS)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", default="experiments")
    parser.add_argument("--n-trials", type=int, default=10)
    parser.add_argument("--timesteps-per-trial", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    raise SystemExit(cli([
        "tune", "--algo", "ppo", "--env", "reach-planar-v1",
        "--n-trials", str(args.n_trials),
        "--timesteps-per-trial", str(args.timesteps_per_trial),
        "--checkpoints", "4", "--seed", str(args.seed),
        "--workspace", args.workspace,
    ]))


if __name__ == "__main__":
    main()
