"""Command-line interface: train, evaluate, benchmark, tune, plot, list-envs.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  The
train subcommand prints ``exp_id=<n>`` as its final stdout line so shell
pipelines can chain train -> evaluate.  All output is plain UTF-8 text (no
color codes); every filesystem write stays under the workspace, which
defaults to $RL_REACH_WORKSPACE or ./experiments.

Each command handler imports the subsystem it runs when it runs it, so a
command loads only what it uses.  This module imports nothing that loads
numpy, so that ``entry`` can pin BLAS to one thread before numpy loads:
the seed and trial workers are forked from the command, and a forked
worker keeps the BLAS threads the command read.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS
from .errors import LifecycleError, ReachError, ValidationError

DEFAULT_WORKSPACE = "experiments"


# Module-level names that the handlers call through, so that the benchmark's
# traced run (perfbench/layers.py) can wrap them here.
def run_study(*args, **kwargs):
    """``hypertune.run_study``, imported on first use."""
    from .hypertune import run_study

    return run_study(*args, **kwargs)


def emit_training_curves(*args, **kwargs):
    """``report.emit_training_curves``, imported on first use."""
    from .report import emit_training_curves

    return emit_training_curves(*args, **kwargs)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _default_workspace() -> str:
    return os.environ.get("RL_REACH_WORKSPACE", DEFAULT_WORKSPACE)


def _parallelism(requested: int | None, cap: int) -> int:
    """``--parallel`` as given, else the cores this process may run on, at most ``cap``.

    Called before the command claims an ID, so a bad value leaves nothing behind.
    """
    if requested is not None:
        if requested < 1:
            raise ValidationError(f"parallel must be >= 1, got {requested}")
        return requested
    if hasattr(os, "sched_getaffinity"):  # not on every platform, macOS for one
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, cap)


def _parse_hp_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_hps(pairs: list[str] | None) -> dict:
    hyperparams = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--hp expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        hyperparams[key] = _parse_hp_value(value)
    return hyperparams


def build_parser() -> _Parser:
    from .agents import SUPPORTED_ALGOS

    parser = _Parser(prog="reachrl", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_workspace(p):
        p.add_argument(
            "--workspace", default=_default_workspace(),
            help="workspace directory (default: $RL_REACH_WORKSPACE or ./experiments)",
        )

    p = sub.add_parser("train", help="create and run a multi-seed experiment")
    p.add_argument("--algo", required=True, help=f"one of: {', '.join(SUPPORTED_ALGOS)}")
    p.add_argument("--env", required=True, help="registered environment ID")
    p.add_argument("--n-timesteps", required=True, type=int)
    p.add_argument("--n-seeds", required=True, type=int)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument(
        "--parallel", type=int,
        help="max concurrent seed runs (default: usable cores, at most --n-seeds)",
    )
    p.add_argument(
        "--hp", action="append", metavar="KEY=VALUE",
        help="hyperparameter override (repeatable)",
    )
    add_workspace(p)

    p = sub.add_parser("evaluate", help="evaluate a trained experiment")
    p.add_argument("--exp-id", required=True, type=int)
    p.add_argument("--n-eval-episodes", type=int, default=100)
    p.add_argument("--stochastic", action="store_true", help="sample instead of mean actions")
    p.add_argument("--allow-partial", action="store_true", help="evaluate completed seeds of a failed experiment")
    p.add_argument("--log-episode", action="store_true", help="also emit one episode log and its panels")
    add_workspace(p)

    p = sub.add_parser("benchmark", help="compare experiments on one metric")
    p.add_argument("--exp-ids", required=True, help="comma-separated experiment IDs")
    p.add_argument("--metric", required=True)
    add_workspace(p)

    p = sub.add_parser("tune", help="run a hyperparameter study")
    p.add_argument("--algo", required=True)
    p.add_argument("--env", required=True)
    p.add_argument("--n-trials", required=True, type=int)
    p.add_argument("--timesteps-per-trial", required=True, type=int)
    p.add_argument("--checkpoints", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--parallel", type=int,
        help="max concurrent trials; above 1 each runs in a forked worker "
        "(default: usable cores, at most --n-trials); the study files do not depend on it",
    )
    add_workspace(p)

    p = sub.add_parser("plot", help="training curves for one experiment")
    p.add_argument("--exp-id", required=True, type=int)
    p.add_argument("--window", type=int)
    add_workspace(p)

    p = sub.add_parser("list-envs", help="list the registered environment variants")

    return parser


def cmd_train(args) -> int:
    from .experiment import STATUS_COMPLETE, create_experiment, run_experiment

    workspace = Path(args.workspace)
    parallelism = _parallelism(args.parallel, args.n_seeds)
    record = create_experiment(
        workspace, args.algo, args.env, args.n_timesteps, args.n_seeds,
        base_seed=args.base_seed, hyperparams=_parse_hps(args.hp),
    )
    print(f"created experiment {record.exp_id} ({record.algo} on {record.env_id}, "
          f"{record.n_seeds} seeds x {record.n_timesteps} timesteps)")
    record = run_experiment(workspace, record.exp_id, parallelism=parallelism)
    print(f"status: {record.status}")
    print(f"exp_id={record.exp_id}")
    return 0 if record.status == STATUS_COMPLETE else 2


def cmd_evaluate(args) -> int:
    from .evaluation import METRIC_COLUMNS, evaluate_experiment, write_episode_log

    workspace = Path(args.workspace)
    row, _ = evaluate_experiment(
        workspace, args.exp_id, n_episodes=args.n_eval_episodes,
        deterministic=not args.stochastic, allow_partial=args.allow_partial,
    )
    # The printed order is the command's output format: floats, then the counts.
    floats = [name for name, cast in METRIC_COLUMNS if cast is float]
    counts = [name for name, cast in reversed(METRIC_COLUMNS) if cast is int]
    for name in floats + counts:
        label = "n_episodes_per_seed" if name == "n_eval_episodes" else name
        text = f"{row[name]:.6g}" if name in floats else str(row[name])
        print(f"{label:<24} {text}")
    if args.log_episode:
        from .report import emit_episode_panels

        episode, csv_path = write_episode_log(workspace, args.exp_id)
        svg_path, _ = emit_episode_panels(episode, csv_path.parent)
        print(f"episode log: {csv_path}")
        print(f"episode panels: {svg_path}")
    return 0


def cmd_benchmark(args) -> int:
    from .report import emit_benchmark_comparison

    try:
        exp_ids = [int(part) for part in args.exp_ids.split(",") if part]
    except ValueError:
        raise ValidationError(f"--exp-ids expects comma-separated integers, got {args.exp_ids!r}")
    if not exp_ids:
        raise ValidationError("--exp-ids is empty")
    svg_path, csv_path = emit_benchmark_comparison(Path(args.workspace), exp_ids, args.metric)
    print(f"benchmark chart: {svg_path}")
    print(f"benchmark data: {csv_path}")
    return 0


def cmd_tune(args) -> int:
    from .hypertune import default_space

    report = run_study(
        Path(args.workspace), args.algo.lower(), args.env,
        default_space(args.algo.lower()), args.n_trials,
        args.timesteps_per_trial, checkpoints=args.checkpoints, seed=args.seed,
        parallel=_parallelism(args.parallel, args.n_trials),
    )
    for trial in report.trials:
        final = "" if trial.final_value is None else f" final={trial.final_value:.6g}"
        print(f"trial {trial.trial_id}: {trial.state}{final} config={trial.config}")
    print(f"best trial: {report.best.trial_id} (value {report.best.final_value:.6g})")
    print(f"study dir: {report.study_dir}")
    return 0


def cmd_plot(args) -> int:
    from .report import DEFAULT_SMOOTHING_WINDOW

    window = DEFAULT_SMOOTHING_WINDOW if args.window is None else args.window
    svg_path, csv_path = emit_training_curves(Path(args.workspace), args.exp_id, window)
    print(f"training curves: {svg_path}")
    print(f"curve data: {csv_path}")
    return 0


def cmd_list_envs(args) -> int:
    from .envs import registered_env_ids, registry_lookup

    print(f"{'env_id':<18} {'action_mode':<14} {'obs_mode':<18} {'reward_type':<14} arm")
    for env_id in registered_env_ids():
        config = registry_lookup(env_id)
        print(
            f"{env_id:<18} {config.action_mode.value:<14} {config.obs_mode.value:<18} "
            f"{config.reward_type.value:<14} {config.arm.name}"
        )
    return 0


_COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "tune": cmd_tune,
    "plot": cmd_plot,
    "list-envs": cmd_list_envs,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except SystemExit as err:  # --help exits 0 through here
        return int(err.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValidationError, LifecycleError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ReachError, OSError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    # Before numpy loads, so this process and every worker forked from it
    # run single-threaded BLAS, whatever the caller's thread settings.
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.exit(main())


if __name__ == "__main__":
    entry()
