#!/usr/bin/env python3
"""End-to-end demo: train PPO, TD3 and the random baseline on the planar
reach task, evaluate all three, and emit the benchmark comparison chart.

Desk-scale budgets (a few minutes on a laptop CPU); pass --full for the
budgets used in the acceptance suite.  Each run is scored under the ID its
``train`` printed, so the workspace may already hold experiments.
"""

import argparse
import contextlib
import io
import os
import sys

from reachrl import BLAS_THREAD_VARS  # loads no numpy

# One BLAS thread, set before numpy loads, as the ``reachrl`` command sets it.
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from reachrl.cli import main as cli  # noqa: E402  (after pinning BLAS)


def run(argv) -> str:
    """Run one command, echo its stdout and return it; exit on failure."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(argv)
    sys.stdout.write(out.getvalue())
    if code != 0:
        sys.exit(code)
    return out.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workspace", default="experiments")
    parser.add_argument("--full", action="store_true", help="acceptance-scale budgets")
    args = parser.parse_args()

    ws = ["--workspace", args.workspace]
    ppo_steps = "150000" if args.full else "30000"
    td3_steps = "100000" if args.full else "10000"

    exp_ids = [
        # train prints exp_id=<n> as its last line.
        run(["train", *train_args, *ws]).splitlines()[-1].removeprefix("exp_id=")
        for train_args in (
            ["--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", ppo_steps,
             "--n-seeds", "3", "--parallel", "3"],
            ["--algo", "td3", "--env", "reach-planar-v1", "--n-timesteps", td3_steps,
             "--n-seeds", "2", "--parallel", "2"],
            ["--algo", "random", "--env", "reach-planar-v1", "--n-timesteps", "10000",
             "--n-seeds", "2", "--parallel", "2"],
        )
    ]
    for exp_id in exp_ids:
        run(["evaluate", "--exp-id", exp_id, *ws])
        run(["plot", "--exp-id", exp_id, *ws])
    run(["evaluate", "--exp-id", exp_ids[0], "--log-episode", *ws])
    for metric in ("mean_return", "success_ratio_50mm"):
        run(["benchmark", "--exp-ids", ",".join(exp_ids), "--metric", metric, *ws])


if __name__ == "__main__":
    main()
