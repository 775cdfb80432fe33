"""The benchmark's workloads and the untraced, outside-in CLI measurement.

Every command runs as its own ``python -m reachrl.cli`` subprocess, so the
timings include what a user of the CLI pays: interpreter start, imports,
worker spawn and workspace writes.  Each command's outputs are checked; a
non-zero exit or a failed check counts the command as a failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import record

COMMAND_TIMEOUT_S = 150.0
# Evaluate is short and noisy on a shared machine, so each cycle runs it
# more than once (it upserts the same benchmark.csv row each time).
EVALUATES_PER_CYCLE = 2
# setup_s is the wall time of list-envs (interpreter start plus package
# import), run this often per cycle and reported as the median.
LIST_ENVS_PER_CYCLE = 3
# Cycles (or traced repeats) a run makes at least, so repeats can be compared.
MIN_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    """One repeated cycle of CLI commands.

    A cycle is ``train`` (or ``tune``), ``evaluate`` and optionally ``plot``.
    ``n_timesteps``/``n_seeds`` size the ``train`` command.  With ``tune`` set
    (n_trials, timesteps_per_trial, checkpoints) the cycle's main command is
    ``tune`` and the trained experiment is made once, before timing, only to
    have a policy for ``evaluate``.
    """

    name: str
    why: str
    algo: str
    env_id: str
    n_timesteps: int
    n_seeds: int
    eval_episodes: int
    plot: bool = False
    tune: tuple[int, int, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ppo-planar",
            "the everyday path: PPO train with two spawned seeds, evaluate, plot; a seed's training "
            "splits about half and half between rollout (envs, arm, batch-1 forward) and update "
            "(batch 64, Adam)",
            "ppo", "reach-planar-v1", n_timesteps=4096, n_seeds=2, eval_episodes=40, plot=True,
        ),
        Workload(
            "td3-planar",
            "update-bound: td3_update is about 87% of a seed's training (batch-256 nets, Adam) "
            "and envs with arm about 10%; evaluates a tanh actor",
            "td3", "reach-planar-v1", n_timesteps=1400, n_seeds=2, eval_episodes=40,
        ),
        Workload(
            "tune-6dof",
            "tune runs its trials in one process with no spawn, on the 6-DOF arm: env steps with "
            "FK are two thirds of the study, checkpoint evaluation about 62%, and pruning waste shows",
            "ppo", "reach-v1", n_timesteps=2048, n_seeds=1, eval_episodes=50,
            tune=(6, 1024, 2),
        ),
    )
}

# Tiny budgets for the benchmark's own smoke test.
SMOKE = {
    "ppo-planar": dict(n_timesteps=256, eval_episodes=4),
    "td3-planar": dict(n_timesteps=1100, eval_episodes=4),
    "tune-6dof": dict(n_timesteps=256, eval_episodes=4, tune=(6, 256, 1)),
}


def smoke_variant(w: Workload) -> Workload:
    return Workload(**{**w.__dict__, **SMOKE[w.name]})


def parallelism(w: Workload) -> int:
    return min(w.n_seeds, record.nproc())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Command:
    argv: list[str]
    returncode: int
    wall_s: float
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.errors

    def to_dict(self) -> dict:
        return {"argv": self.argv, "returncode": self.returncode, "wall_s": self.wall_s,
                "errors": self.errors, "stderr_tail": self.stderr[-2000:]}


def _wait_group_gone(pgid: int, grace_s: float = 2.0) -> None:
    """Wait for every process left in a command's process group, then kill any left."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(args: list[str], env: dict) -> Command:
    """Run ``python -m reachrl.cli <args>`` in its own process group and time it."""
    argv = [sys.executable, "-m", "reachrl.cli", *args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    wall = time.perf_counter() - start
    _wait_group_gone(proc.pid)
    cmd = Command(argv[1:], proc.returncode, wall, out, err)
    if proc.returncode != 0:
        cmd.errors.append(f"exit code {proc.returncode}")
    return cmd


def peak_child_rss_mb() -> float:
    """Largest resident set of any waited-for descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks


def check_train(cmd: Command, workspace: Path, w: Workload) -> int | None:
    """Check a finished ``train``; returns its experiment ID."""
    if cmd.returncode != 0:
        return None
    lines = cmd.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("exp_id="):
        cmd.errors.append("train did not print exp_id= last")
        return None
    exp_id = int(lines[-1].split("=", 1)[1])
    exp = workspace / f"exp_{exp_id}"
    status = json.loads((exp / "config.json").read_text())["status"]
    if status != "Complete":
        cmd.errors.append(f"config.json status {status}")
    for k in range(w.n_seeds):
        seed = exp / f"seed_{k}"
        meta_path = seed / "run_meta.json"
        if not meta_path.is_file():
            cmd.errors.append(f"seed_{k}: no run_meta.json")
            continue
        if json.loads(meta_path.read_text())["status"] != "complete":
            cmd.errors.append(f"seed_{k}: run_meta.json not complete")
        for name in ("training_log.csv", "policy.json"):
            if not (seed / name).is_file():
                cmd.errors.append(f"seed_{k}: missing {name}")
    return exp_id


def seed_walls(workspace: Path, exp_id: int, n_seeds: int) -> list[float]:
    exp = workspace / f"exp_{exp_id}"
    return [
        float(json.loads((exp / f"seed_{k}" / "run_meta.json").read_text())["wall_time_s"])
        for k in range(n_seeds)
    ]


def artifact_hashes(workspace: Path, exp_id: int, n_seeds: int) -> dict[str, str]:
    exp = workspace / f"exp_{exp_id}"
    return {
        f"seed_{k}/{name}": sha256(exp / f"seed_{k}" / name)
        for k in range(n_seeds)
        for name in ("training_log.csv", "policy.json")
    }


SUCCESS_FIELDS = ("success_ratio_5mm", "success_ratio_10mm", "success_ratio_20mm", "success_ratio_50mm")


def check_evaluate(cmd: Command, workspace: Path, w: Workload, evaluated: set[int]) -> None:
    if cmd.returncode != 0:
        return
    values = {}
    for line in cmd.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    expected = ("mean_return", "std_return", *SUCCESS_FIELDS, "mean_final_distance_mm")
    missing = [name for name in expected if name not in values]
    if missing:
        cmd.errors.append(f"evaluate output lacks {missing}")
        return
    if not all(math.isfinite(values[name]) for name in expected):
        cmd.errors.append("evaluate printed a non-finite metric")
    ratios = [values[name] for name in SUCCESS_FIELDS]
    if any(b < a for a, b in zip(ratios, ratios[1:])):
        cmd.errors.append(f"success ratios decrease: {ratios}")
    if values.get("n_episodes_per_seed") != w.eval_episodes or values.get("n_seeds") != w.n_seeds:
        cmd.errors.append("evaluate reports the wrong episode or seed count")
    with open(workspace / "benchmark.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    ids = [int(r["exp_id"]) for r in rows]
    if sorted(ids) != sorted(evaluated):
        cmd.errors.append(f"benchmark.csv rows {sorted(ids)} != evaluated {sorted(evaluated)}")


def check_plot(cmd: Command, workspace: Path, exp_id: int) -> None:
    if cmd.returncode != 0:
        return
    exp = workspace / f"exp_{exp_id}"
    svg = exp / "training_curves.svg"
    data = exp / "training_curves.data.csv"
    if not svg.is_file() or not svg.read_text().startswith("<svg"):
        cmd.errors.append("plot wrote no SVG")
    if not data.is_file() or len(data.read_text().splitlines()) < 2:
        cmd.errors.append("plot wrote no data sidecar")


def study_dir(cmd: Command) -> Path | None:
    for line in cmd.stdout.splitlines():
        if line.startswith("study dir: "):
            return Path(line[len("study dir: "):])
    return None


def tune_work(trials_csv: str, schedule: list[int], eval_steps_per_checkpoint: int) -> dict:
    """Training and checkpoint-evaluation steps a study actually ran, from trials.csv."""
    steps_per_trial, checkpoints = schedule[-1], len(schedule)
    rows = list(csv.DictReader(io.StringIO(trials_csv)))
    train_steps = useful = evals = pruned = failed = 0
    for row in rows:
        if row["state"] == "Complete":
            train_steps += steps_per_trial
            useful += steps_per_trial
            evals += checkpoints
        elif row["state"] == "Pruned":
            step = int(row["pruned_at_step"])
            train_steps += step
            evals += schedule.index(step) + 1
            pruned += 1
        else:
            failed += 1
    return {
        "rows": len(rows),
        "train_steps": train_steps,
        "eval_steps": evals * eval_steps_per_checkpoint,
        "pruned_trials": pruned,
        "failed_trials": failed,
        "useful_step_ratio": useful / train_steps if train_steps else 0.0,
    }


def tune_accounting(w: Workload) -> tuple[list[int], int]:
    """The tuner's checkpoint steps, and the env steps one checkpoint evaluation
    takes (episodes x horizon), from the program's own definitions."""
    import inspect

    from reachrl.envs import registry_lookup
    from reachrl.hypertune import checkpoint_schedule, training_trial_runner

    _, steps, checkpoints = w.tune
    episodes = inspect.signature(training_trial_runner).parameters["n_eval_episodes"].default
    return checkpoint_schedule(steps, checkpoints), episodes * registry_lookup(w.env_id).episode_len


def check_tune(cmd: Command, w: Workload) -> dict | None:
    if cmd.returncode != 0:
        return None
    directory = study_dir(cmd)
    if directory is None or not (directory / "trials.csv").is_file():
        cmd.errors.append("tune wrote no trials.csv")
        return None
    n_trials = w.tune[0]
    text = (directory / "trials.csv").read_text()
    work = tune_work(text, *tune_accounting(w))
    if work["rows"] != n_trials:
        cmd.errors.append(f"trials.csv has {work['rows']} rows, expected {n_trials}")
    if work["failed_trials"]:
        cmd.errors.append(f"{work['failed_trials']} trials failed")
    try:
        if not isinstance(json.loads((directory / "best_config.json").read_text()), dict):
            cmd.errors.append("best_config.json is not an object")
    except (OSError, json.JSONDecodeError) as err:
        cmd.errors.append(f"best_config.json: {err}")
    work["trials_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return work


class Repeats:
    """Checks that a value repeats exactly across the repeats of one workload."""

    def __init__(self):
        self.first: dict[str, object] = {}

    def check(self, cmd: Command, key: str, value) -> None:
        if key not in self.first:
            self.first[key] = value
        elif self.first[key] != value:
            cmd.errors.append(f"{key} differs from the first repeat")


# ---------------------------------------------------------------- the run


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("RL_REACH_WORKSPACE", None)
    return env


def train_args(w: Workload, workspace: Path, seed: int) -> list[str]:
    return [
        "train", "--algo", w.algo, "--env", w.env_id,
        "--n-timesteps", str(w.n_timesteps), "--n-seeds", str(w.n_seeds),
        "--base-seed", str(seed), "--parallel", str(parallelism(w)),
        "--workspace", str(workspace),
    ]


def tune_args(w: Workload, workspace: Path, seed: int) -> list[str]:
    n_trials, steps, checkpoints = w.tune
    return [
        "tune", "--algo", w.algo, "--env", w.env_id,
        "--n-trials", str(n_trials), "--timesteps-per-trial", str(steps),
        "--checkpoints", str(checkpoints), "--seed", str(seed),
        "--workspace", str(workspace),
    ]


def evaluate_args(w: Workload, workspace: Path, exp_id: int) -> list[str]:
    return ["evaluate", "--exp-id", str(exp_id), "--n-eval-episodes", str(w.eval_episodes),
            "--workspace", str(workspace)]


class Session:
    """Runs commands, counts operations and keeps every command's record.

    ``runner`` turns CLI arguments into a finished ``Command``; by default
    each command is its own subprocess.  The traced run swaps in an
    in-process runner with ``running``, so the same checks apply to both.
    """

    def __init__(self, root: Path, workspace: Path):
        env = cli_env(root)
        self.runner: Callable[[list[str]], Command] = lambda args: run_cli(args, env)
        self.workspace = workspace
        self.commands: list[Command] = []
        self.evaluated: set[int] = set()
        self.repeats = Repeats()

    @contextlib.contextmanager
    def running(self, runner: Callable[[list[str]], Command]):
        """Run commands through ``runner`` inside the block."""
        saved, self.runner = self.runner, runner
        try:
            yield
        finally:
            self.runner = saved

    def run(self, args: list[str]) -> Command:
        cmd = self.runner(args)
        self.commands.append(cmd)
        return cmd

    def list_envs(self, env_id: str) -> Command:
        cmd = self.run(["list-envs"])
        if cmd.returncode == 0 and env_id not in cmd.stdout:
            cmd.errors.append("list-envs does not list the workload's env")
        return cmd

    def train(self, w: Workload, seed: int) -> tuple[Command, int | None]:
        cmd = self.run(train_args(w, self.workspace, seed))
        exp_id = check_train(cmd, self.workspace, w)
        if exp_id is not None and not cmd.errors:
            for key, digest in artifact_hashes(self.workspace, exp_id, w.n_seeds).items():
                self.repeats.check(cmd, key, digest)
        return cmd, exp_id

    def evaluate(self, w: Workload, exp_id: int) -> Command:
        cmd = self.run(evaluate_args(w, self.workspace, exp_id))
        self.evaluated.add(exp_id)
        check_evaluate(cmd, self.workspace, w, self.evaluated)
        if cmd.returncode == 0:
            self.repeats.check(cmd, "evaluate stdout", cmd.stdout)
        return cmd

    def plot(self, exp_id: int) -> Command:
        cmd = self.run(["plot", "--exp-id", str(exp_id), "--workspace", str(self.workspace)])
        check_plot(cmd, self.workspace, exp_id)
        return cmd

    def tune(self, w: Workload, seed: int) -> tuple[Command, dict | None]:
        cmd = self.run(tune_args(w, self.workspace, seed))
        work = check_tune(cmd, w)
        if work is not None:
            self.repeats.check(cmd, "trials.csv", work["trials_sha256"])
        return cmd, work

    @property
    def attempted(self) -> int:
        return len(self.commands)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.commands)


def repeats_within(deadline: float, min_count: int):
    """Yield repeat indices: at least ``min_count``, then more while another
    repeat as long as the longest so far still ends before ``deadline``."""
    longest = 0.0
    index = 0
    while index < min_count or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        yield index
        longest = max(longest, time.perf_counter() - start)
        index += 1


def measure_cli(w: Workload, seed: int, seconds: float, root: Path, workspace: Path) -> dict:
    """Repeat the workload's command cycle for ``seconds`` (at least
    ``MIN_REPEATS`` cycles) and collect samples."""
    start = time.perf_counter()
    session = Session(root, workspace)
    # (work, wall seconds) per command for the rates; seconds for setup_s.
    samples: dict[str, list] = {"env_steps_per_s": [], "evaluate_episodes_per_s": [], "setup_s": []}
    cycles = []
    target_exp = None
    if w.tune:
        _, target_exp = session.train(w, seed)

    for _ in repeats_within(start + seconds, MIN_REPEATS):
        if session.failed:
            break
        noise = record.NoiseProbe()
        cycle: dict = {}
        if w.tune:
            cmd, work = session.tune(w, seed)
            if cmd.ok:
                steps = work["train_steps"] + work["eval_steps"]
                samples["env_steps_per_s"].append((steps, cmd.wall_s))
                cycle["tune"] = work
            exp_id = target_exp
        else:
            cmd, exp_id = session.train(w, seed)
            if cmd.ok:
                samples["env_steps_per_s"].append((w.n_seeds * w.n_timesteps, cmd.wall_s))
                cycle["seed_wall_s"] = seed_walls(workspace, exp_id, w.n_seeds)
        for _ in range(LIST_ENVS_PER_CYCLE):
            if session.failed:
                break
            cmd = session.list_envs(w.env_id)
            if cmd.ok:
                samples["setup_s"].append(cmd.wall_s)
        if exp_id is not None and not session.failed:
            for _ in range(EVALUATES_PER_CYCLE):
                cmd = session.evaluate(w, exp_id)
                if cmd.ok:
                    samples["evaluate_episodes_per_s"].append(
                        (w.n_seeds * w.eval_episodes, cmd.wall_s))
            if w.plot and not session.failed:
                session.plot(exp_id)
        cycle["noise"] = noise.finish()
        cycles.append(cycle)

    return {
        "session": session,
        "samples": samples,
        "cycles": cycles,
        "peak_rss_mb": peak_child_rss_mb(),
        "measured_s": time.perf_counter() - start,
    }
