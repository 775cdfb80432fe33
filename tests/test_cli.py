import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reachrl
from reachrl.cli import _parallelism, main
from reachrl.evaluation import read_benchmark

FAST_HP = ["--hp", "rollout_len=64", "--hp", "minibatch_size=32", "--hp", "n_epochs=1"]


def run(argv):
    return main(argv)


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("train", "evaluate", "benchmark", "tune", "plot", "list-envs"):
        assert sub in out


@pytest.mark.parametrize("sub", ["train", "evaluate", "benchmark", "tune", "plot"])
def test_subcommand_help_lists_flags(sub, capsys):
    assert run([sub, "--help"]) == 0
    assert "--workspace" in capsys.readouterr().out


def test_list_envs(capsys):
    assert run(["list-envs"]) == 0
    out = capsys.readouterr().out
    assert "reach-v1" in out and "reach-planar-v8" in out
    assert "RelativeJoint" in out and "Sparse" in out


def test_train_prints_exp_id_last(tmp_path, capsys):
    code = run([
        "train", "--algo", "random", "--env", "reach-planar-v1",
        "--n-timesteps", "300", "--n-seeds", "2", "--workspace", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().split("\n")[-1] == "exp_id=1"
    assert (tmp_path / "exp_1" / "seed_1" / "training_log.csv").is_file()


def test_train_missing_required_flag(tmp_path, capsys):
    code = run(["train", "--algo", "ppo", "--n-timesteps", "100", "--n-seeds", "1",
                "--workspace", str(tmp_path)])
    assert code == 1
    assert "usage" in capsys.readouterr().err.lower()
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_rejected(tmp_path, capsys):
    code = run(["train", "--algo", "random", "--env", "reach-planar-v1",
                "--n-timesteps", "100", "--n-seeds", "1",
                "--workspace", str(tmp_path), "--frobnicate", "9"])
    assert code == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "mangled",
    [
        ["--algo", "nosuch"],               # unknown algorithm
        ["--env", "reach-v99"],             # unknown env
        ["--n-timesteps", "abc"],           # non-integer
        ["--n-seeds", "0"],                 # out of range
        ["--hp", "lr"],                     # malformed key=value
        ["--hp", "bogus=3"],                # unknown hyperparameter
    ],
)
def test_train_mangled_flags_exit_one(tmp_path, mangled, capsys):
    base = {
        "--algo": "random", "--env": "reach-planar-v1",
        "--n-timesteps": "100", "--n-seeds": "1",
    }
    argv = ["train", "--workspace", str(tmp_path)]
    overridden = mangled[0]
    for flag, value in base.items():
        if flag != overridden:
            argv += [flag, value]
    argv += mangled
    assert run(argv) == 1
    assert list(tmp_path.iterdir()) == [], "validation failures must not write"


def test_hp_override_lands_in_config(tmp_path, capsys):
    code = run([
        "train", "--algo", "ppo", "--env", "reach-planar-v1",
        "--n-timesteps", "64", "--n-seeds", "1", "--workspace", str(tmp_path),
        "--hp", "lr=0.001", *FAST_HP,
    ])
    assert code == 0
    doc = json.loads((tmp_path / "exp_1" / "config.json").read_text())
    assert doc["hyperparams"]["lr"] == 0.001
    assert doc["hyperparams"]["rollout_len"] == 64


def test_evaluate_writes_benchmark_row(tmp_path, capsys):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "200", "--n-seeds", "2", "--workspace", str(tmp_path)])
    code = run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "5",
                "--workspace", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_return" in out and "success_ratio_50mm" in out
    rows = read_benchmark(tmp_path)
    assert len(rows) == 1 and rows[0]["exp_id"] == 1
    # re-evaluating upserts, not appends
    run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "5", "--workspace", str(tmp_path)])
    assert len(read_benchmark(tmp_path)) == 1


# (printed label, benchmark.csv column) in the order evaluate prints them,
# which is the order perfbench's check_evaluate parses.
EVALUATE_LINES = (
    ("mean_return", "mean_return"),
    ("std_return", "std_return"),
    ("success_ratio_5mm", "success_ratio_5mm"),
    ("success_ratio_10mm", "success_ratio_10mm"),
    ("success_ratio_20mm", "success_ratio_20mm"),
    ("success_ratio_50mm", "success_ratio_50mm"),
    ("mean_final_distance_mm", "mean_final_distance_mm"),
    ("n_episodes_per_seed", "n_eval_episodes"),
    ("n_seeds", "n_seeds"),
)


@pytest.mark.parametrize("flags", [[], ["--stochastic"]], ids=["deterministic", "stochastic"])
def test_evaluate_prints_the_benchmark_row(tmp_path, capsys, flags):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "200", "--n-seeds", "2", "--workspace", str(tmp_path)])
    capsys.readouterr()
    assert run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "5", *flags,
                "--workspace", str(tmp_path)]) == 0
    [row] = read_benchmark(tmp_path)
    expected = []
    for label, column in EVALUATE_LINES:
        value = row[column]
        text = str(value) if column in ("n_eval_episodes", "n_seeds") else f"{value:.6g}"
        expected.append(f"{label:<24} {text}")
    assert capsys.readouterr().out.splitlines() == expected
    assert (row["n_eval_episodes"], row["n_seeds"]) == (5, 2)


def test_evaluate_missing_experiment(tmp_path, capsys):
    assert run(["evaluate", "--exp-id", "999", "--workspace", str(tmp_path)]) == 1


def test_evaluate_tampered_policy_exits_one(tmp_path, capsys):
    run(["train", "--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", "64",
         "--n-seeds", "1", *FAST_HP, "--workspace", str(tmp_path)])
    path = tmp_path / "exp_1" / "seed_0" / "policy.json"
    doc = json.loads(path.read_text())
    doc["weights"][0] = doc["weights"][0][:-1]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "2",
                "--workspace", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "policy.json" in err and "Traceback" not in err


def test_evaluate_log_episode_artifacts(tmp_path, capsys):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "100", "--n-seeds", "1", "--workspace", str(tmp_path)])
    code = run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "2",
                "--log-episode", "--workspace", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "exp_1" / "episode_eval.csv").is_file()
    assert (tmp_path / "exp_1" / "episode_panels.svg").is_file()


def test_benchmark_one_bar(tmp_path, capsys):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "100", "--n-seeds", "1", "--workspace", str(tmp_path)])
    run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "3", "--workspace", str(tmp_path)])
    capsys.readouterr()
    code = run(["benchmark", "--exp-ids", "1", "--metric", "mean_return",
                "--workspace", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "benchmark_mean_return.svg" in out
    assert (tmp_path / "figures" / "benchmark_mean_return.svg").is_file()


def test_benchmark_bad_ids(tmp_path):
    assert run(["benchmark", "--exp-ids", "1,x", "--metric", "mean_return",
                "--workspace", str(tmp_path)]) == 1
    assert run(["benchmark", "--exp-ids", "7", "--metric", "mean_return",
                "--workspace", str(tmp_path)]) == 1


def test_plot_window_one_equals_raw_log(tmp_path, capsys):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "500", "--n-seeds", "1", "--workspace", str(tmp_path)])
    code = run(["plot", "--exp-id", "1", "--window", "1", "--workspace", str(tmp_path)])
    assert code == 0
    from reachrl.agents import training_log_from_csv
    from reachrl.report import series_from_csv

    log = training_log_from_csv((tmp_path / "exp_1" / "seed_0" / "training_log.csv").read_text())
    series = series_from_csv((tmp_path / "exp_1" / "training_curves.data.csv").read_text())
    seed0 = next(s for s in series if s.label == "seed_0")
    assert list(seed0.ys) == [r.episode_return for r in log.rows]


def test_tune_single_trial_best_config(tmp_path, capsys):
    code = run([
        "tune", "--algo", "ppo", "--env", "reach-planar-v1", "--n-trials", "1",
        "--timesteps-per-trial", "128", "--checkpoints", "1", "--workspace", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "best trial: 0" in out
    best = json.loads((tmp_path / "studies" / "study_1" / "best_config.json").read_text())
    trials_csv = (tmp_path / "studies" / "study_1" / "trials.csv").read_text()
    assert str(best["rollout_len"]) in trials_csv


def test_parallel_defaults_to_usable_cores_capped():
    cores = len(os.sched_getaffinity(0))
    assert _parallelism(None, 1) == 1
    assert _parallelism(None, cores + 5) == cores
    assert _parallelism(3, 1) == 3


def test_parallel_default_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _parallelism(None, 8) == 3
    assert _parallelism(None, 2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _parallelism(None, 8) == 1


def test_tune_parallel_zero_exits_one(tmp_path, capsys):
    code = run([
        "tune", "--algo", "ppo", "--env", "reach-planar-v1", "--n-trials", "2",
        "--timesteps-per-trial", "128", "--checkpoints", "1", "--parallel", "0",
        "--workspace", str(tmp_path),
    ])
    assert code == 1
    assert "error: parallel must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "studies").exists()


def test_train_parallel_zero_exits_one_and_creates_no_experiment(tmp_path, capsys):
    code = run(["train", "--algo", "random", "--env", "reach-planar-v1", "--n-timesteps", "100",
                "--n-seeds", "2", "--parallel", "0", "--workspace", str(tmp_path)])
    assert code == 1
    assert "error: parallel must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tune_files_do_not_depend_on_parallel(tmp_path, capsys):
    def tune(parallel):
        workspace = tmp_path / f"p{parallel}"
        assert run([
            "tune", "--algo", "ppo", "--env", "reach-planar-v1", "--n-trials", "3",
            "--timesteps-per-trial", "128", "--checkpoints", "2", "--seed", "4",
            "--parallel", str(parallel), "--workspace", str(workspace),
        ]) == 0
        study = workspace / "studies" / "study_1"
        return [(study / name).read_bytes() for name in ("trials.csv", "best_config.json")]

    assert tune(2) == tune(1)


SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(reachrl.__file__).parents[1])}


def assert_leaves_no_process_behind(args):
    """Run ``reachrl <args>`` in its own process group; it must exit 0 and
    leave nothing running in that group, nor report leaked semaphores."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "reachrl.cli", *args],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env=SRC_ENV,
    )
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "leaked semaphore" not in err
    with pytest.raises(ProcessLookupError):  # nothing is left in its process group
        os.killpg(proc.pid, 0)


def test_parallel_tune_leaves_no_process_behind(tmp_path):
    assert_leaves_no_process_behind(
        ["tune", "--algo", "ppo", "--env", "reach-planar-v1", "--n-trials", "2",
         "--timesteps-per-trial", "64", "--checkpoints", "1", "--parallel", "2",
         "--workspace", str(tmp_path)]
    )


def test_parallel_train_leaves_no_process_behind(tmp_path):
    assert_leaves_no_process_behind(
        ["train", "--algo", "random", "--env", "reach-planar-v1", "--n-timesteps", "100",
         "--n-seeds", "2", "--parallel", "2", "--workspace", str(tmp_path)]
    )


def workers_of(pid: int) -> list[int]:
    """The pids of the processes whose parent is ``pid``: a command's forked workers."""
    workers = []
    for proc_dir in Path("/proc").glob("[0-9]*"):
        try:
            ppid = int((proc_dir / "stat").read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):  # it exited while being read
            continue
        if ppid == pid:
            workers.append(int(proc_dir.name))
    return workers


def start_train(args, workspace, env=SRC_ENV):
    """Start ``reachrl train`` of two seeds at ``--parallel 2`` in its own process group."""
    return subprocess.Popen(
        [sys.executable, "-m", "reachrl.cli", "train", *args, "--n-seeds", "2",
         "--parallel", "2", "--workspace", str(workspace)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        env=env,
    )


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="finds workers through /proc")
def test_killed_train_leaves_no_seed_files_behind(tmp_path):
    # SIGTERM ends the command with no cleanup; its orphaned workers must not
    # write into the experiment the command left Running, and must exit.
    proc = start_train(["--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", "12000"],
                       tmp_path)
    try:
        deadline = time.monotonic() + 60
        while len(workers_of(proc.pid)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        deadline = time.monotonic() + 2
        while True:  # until the orphaned workers have exited
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "workers still running"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert (tmp_path / "exp_1" / "config.json").is_file()
    assert sorted((tmp_path / "exp_1").glob("seed_*")) == []


def thread_count(pid: int) -> int | None:
    """The ``Threads:`` of ``/proc/<pid>/status``; None once the process has gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    return int(status.split("Threads:", 1)[1].split()[0])


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="counts threads through /proc")
def test_train_runs_one_thread_per_process_whatever_the_blas_settings(tmp_path):
    args = ["--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", "4096"]
    unset = {k: v for k, v in SRC_ENV.items() if k not in reachrl.BLAS_THREAD_VARS}
    proc = start_train(args, tmp_path / "unset", unset)
    threads = {}  # pid -> most threads seen, the command's and each worker's
    try:
        while proc.poll() is None:
            for pid in [proc.pid, *workers_of(proc.pid)]:
                if (count := thread_count(pid)) is not None:
                    threads[pid] = max(threads.get(pid, 0), count)
            time.sleep(0.02)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 0
    assert len(threads) == 3 and set(threads.values()) == {1}, threads
    pinned = {**SRC_ENV, **dict.fromkeys(reachrl.BLAS_THREAD_VARS, "1")}
    assert start_train(args, tmp_path / "pinned", pinned).wait(timeout=120) == 0
    for k in range(2):
        for name in ("training_log.csv", "policy.json"):
            unset_bytes = (tmp_path / "unset" / "exp_1" / f"seed_{k}" / name).read_bytes()
            assert unset_bytes == (tmp_path / "pinned" / "exp_1" / f"seed_{k}" / name).read_bytes()


def modules_loaded_by(args) -> set[str]:
    """The modules a fresh interpreter holds after running ``reachrl <args>``."""
    code = (
        "import sys\nfrom reachrl.cli import main\n"
        "code = main(sys.argv[1:])\nprint(' '.join(sys.modules))\nsys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_commands_load_only_the_subsystems_they_run(tmp_path):
    loaded = modules_loaded_by(["list-envs"])
    assert loaded.isdisjoint({
        "reachrl.experiment", "reachrl.evaluation", "reachrl.hypertune", "reachrl.report",
        "reachrl.ioutil", "csv", "concurrent.futures", "multiprocessing",
    })
    assert run(["train", "--algo", "random", "--env", "reach-planar-v1", "--n-timesteps", "100",
                "--n-seeds", "1", "--workspace", str(tmp_path)]) == 0
    loaded = modules_loaded_by(["evaluate", "--exp-id", "1", "--n-eval-episodes", "2",
                                "--workspace", str(tmp_path)])
    assert "reachrl.evaluation" in loaded
    assert loaded.isdisjoint({
        "reachrl.hypertune", "reachrl.report", "reachrl.ppo", "reachrl.td3", "concurrent.futures",
        "multiprocessing",
    })


def test_corrupt_benchmark_exits_two(tmp_path, capsys):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "100", "--n-seeds", "1", "--workspace", str(tmp_path)])
    (tmp_path / "benchmark.csv").write_text("garbage,header\n1,2\n")
    code = run(["evaluate", "--exp-id", "1", "--n-eval-episodes", "2",
                "--workspace", str(tmp_path)])
    assert code == 2
    assert "runtime failure" in capsys.readouterr().err


LOG_HEADER = "timestep,episode,episode_return,episode_final_distance_m\n"


@pytest.mark.parametrize("command, name, text, where", [
    ("plot", "seed_0/training_log.csv", "timestep,episode\n100,1\n", "line 1"),
    ("plot", "seed_0/training_log.csv", LOG_HEADER + "1,2\n", "line 2"),
    ("plot", "seed_0/training_log.csv", LOG_HEADER + "100,1,abc,0.1\n", "line 2"),
    ("evaluate", "seed_0/run_meta.json", '{"seed": 0, "status": broken', "byte offset"),
    ("evaluate", "seed_0/run_meta.json", '{"seed": 0, "status": "complete"}\n', "wall_time_s"),
    ("evaluate", "config.json", '{"exp_id": 1, broken', "byte offset"),
], ids=["log-header", "log-short-row", "log-not-a-number", "meta-not-json", "meta-missing-key",
        "config-not-json"])
def test_malformed_workspace_file_exits_two_naming_it(tmp_path, capsys, command, name, text, where):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "100", "--n-seeds", "1", "--workspace", str(tmp_path)])
    path = tmp_path / "exp_1" / name
    path.write_text(text)
    capsys.readouterr()
    assert run([command, "--exp-id", "1", "--workspace", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {path}: ")
    assert where in err


@pytest.mark.parametrize("command, name, data, code, message", [
    (["plot", "--exp-id", "1"], "exp_1/seed_0/training_log.csv", b"timestep\xff\n", 2,
     "runtime failure: {path}: not UTF-8 at byte offset 8"),
    (["benchmark", "--exp-ids", "1", "--metric", "mean_return"], "benchmark.csv",
     b"exp_id\xff\n", 2, "runtime failure: {path}: not UTF-8 at byte offset 6"),
    (["evaluate", "--exp-id", "1", "--n-eval-episodes", "2"], "benchmark.csv",
     b"exp_id\xff\n", 2, "runtime failure: {path}: not UTF-8 at byte offset 6"),
    (["evaluate", "--exp-id", "1", "--n-eval-episodes", "2"], "exp_1/seed_0/policy.json",
     b"\xff", 1, "error: {path} is not a valid policy"),
], ids=["plot-log", "benchmark-csv", "evaluate-benchmark-csv", "evaluate-policy"])
def test_non_utf8_workspace_file_fails_naming_it(tmp_path, capsys, command, name, data, code,
                                                 message):
    run(["train", "--algo", "random", "--env", "reach-planar-v1",
         "--n-timesteps", "100", "--n-seeds", "1", "--workspace", str(tmp_path)])
    path = tmp_path / name
    path.write_bytes(data)
    capsys.readouterr()
    assert run([*command, "--workspace", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path))
    assert "Traceback" not in err


def test_workspace_env_var_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RL_REACH_WORKSPACE", str(tmp_path / "ws"))
    code = run(["train", "--algo", "random", "--env", "reach-planar-v1",
                "--n-timesteps", "100", "--n-seeds", "1"])
    assert code == 0
    assert (tmp_path / "ws" / "exp_1" / "config.json").is_file()
