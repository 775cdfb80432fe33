import json
import multiprocessing
import os
import shutil
from multiprocessing import get_context
from pathlib import Path

import pytest

import reachrl.experiment as experiment
import reachrl.ioutil as ioutil
from reachrl.cli import main as cli_main
from reachrl.errors import (
    CorruptDataError,
    LifecycleError,
    NumericError,
    ReachError,
    ValidationError,
)
from reachrl.experiment import (
    STATUS_COMPLETE,
    STATUS_CREATED,
    STATUS_FAILED,
    create_experiment,
    exp_dir,
    list_experiment_ids,
    load_experiment,
    record_to_json,
    run_experiment,
    SeedRun,
    save_record,
    seed_dir,
    seed_runs,
)

FAST_PPO = {"rollout_len": 64, "minibatch_size": 32, "n_epochs": 1}


def test_first_experiment_gets_id_one(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 500, 1)
    assert record.exp_id == 1
    assert record.status == STATUS_CREATED
    assert (tmp_path / "exp_1" / "config.json").is_file()


def test_next_id_is_max_plus_one(tmp_path):
    for exp_id in (1, 2, 5):
        (tmp_path / f"exp_{exp_id}").mkdir(parents=True)
    record = create_experiment(tmp_path, "random", "reach-v1", 100, 1)
    assert record.exp_id == 6


def test_id_rule_reuses_only_after_deleting_the_max(tmp_path):
    a = create_experiment(tmp_path, "random", "reach-v1", 100, 1)
    b = create_experiment(tmp_path, "random", "reach-v1", 100, 1)
    c = create_experiment(tmp_path, "random", "reach-v1", 100, 1)
    assert (a.exp_id, b.exp_id, c.exp_id) == (1, 2, 3)
    # deleting a non-max experiment never frees its ID
    shutil.rmtree(exp_dir(tmp_path, 2))
    assert create_experiment(tmp_path, "random", "reach-v1", 100, 1).exp_id == 4
    # deleting the max frees exactly that ID
    shutil.rmtree(exp_dir(tmp_path, 4))
    assert create_experiment(tmp_path, "random", "reach-v1", 100, 1).exp_id == 4


def test_unknown_algo_rejected_without_writes(tmp_path):
    with pytest.raises(ValidationError):
        create_experiment(tmp_path, "sacx", "reach-v1", 100, 1)
    assert list(tmp_path.iterdir()) == []


def test_unknown_env_rejected_without_writes(tmp_path):
    with pytest.raises(ValidationError):
        create_experiment(tmp_path, "ppo", "reach-v99", 100, 1)
    assert list(tmp_path.iterdir()) == []


def test_bad_hyperparameter_rejected_without_writes(tmp_path):
    with pytest.raises(ValidationError):
        create_experiment(tmp_path, "ppo", "reach-v1", 100, 1, hyperparams={"bogus": 1})
    assert list(tmp_path.iterdir()) == []


def test_record_round_trip(tmp_path):
    record = create_experiment(
        tmp_path, "ppo", "reach-planar-v1", 2000, 2, base_seed=7,
        hyperparams={"lr": 0.001},
    )
    loaded = load_experiment(tmp_path, record.exp_id)
    assert loaded == record
    text = (exp_dir(tmp_path, record.exp_id) / "config.json").read_text()
    assert record_to_json(loaded) == text


def test_missing_experiment_is_lookup_error(tmp_path):
    with pytest.raises(ValidationError):
        load_experiment(tmp_path, 999)


def test_unknown_extra_keys_preserved_on_rewrite(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-v1", 100, 1)
    path = exp_dir(tmp_path, record.exp_id) / "config.json"
    doc = json.loads(path.read_text())
    doc["future_field"] = {"nested": [1, 2, 3]}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    loaded = load_experiment(tmp_path, record.exp_id)
    assert loaded.extras == {"future_field": {"nested": [1, 2, 3]}}
    save_record(tmp_path, loaded)
    assert json.loads(path.read_text())["future_field"] == {"nested": [1, 2, 3]}


def test_malformed_config_reports_path_and_offset(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-v1", 100, 1)
    path = exp_dir(tmp_path, record.exp_id) / "config.json"
    path.write_text('{"exp_id": 1, broken')
    with pytest.raises(CorruptDataError) as excinfo:
        load_experiment(tmp_path, record.exp_id)
    assert "config.json" in str(excinfo.value)
    assert "byte offset" in str(excinfo.value)


def test_run_experiment_writes_expected_seed_artifacts(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 300, 3, base_seed=0)
    record = run_experiment(tmp_path, record.exp_id)
    assert record.status == STATUS_COMPLETE
    for k in range(3):
        run_dir = seed_dir(tmp_path, record.exp_id, k)
        assert (run_dir / "training_log.csv").is_file()
        assert (run_dir / "policy.json").is_file()
        meta = json.loads((run_dir / "run_meta.json").read_text())
        assert meta["seed"] == k
        assert meta["status"] == "complete"


def test_parallelism_does_not_change_artifacts(tmp_path):
    hyperparams = dict(FAST_PPO)
    rec1 = create_experiment(tmp_path, "ppo", "reach-planar-v1", 128, 2, hyperparams=hyperparams)
    run_experiment(tmp_path, rec1.exp_id, parallelism=1)
    rec2 = create_experiment(tmp_path, "ppo", "reach-planar-v1", 128, 2, hyperparams=hyperparams)
    run_experiment(tmp_path, rec2.exp_id, parallelism=2)
    for k in range(2):
        for name in ("training_log.csv", "policy.json"):
            a = (seed_dir(tmp_path, rec1.exp_id, k) / name).read_bytes()
            b = (seed_dir(tmp_path, rec2.exp_id, k) / name).read_bytes()
            assert a == b, f"seed {k} {name} differs between parallelism levels"


def run_in_process(task, jobs, parallel):
    """Stands in for ``ioutil.run_in_workers``, so that monkeypatches reach the jobs."""
    for i, job in enumerate(jobs):
        yield i, "end", task(*job), None


def test_failed_seed_marks_experiment_failed_but_others_complete(tmp_path, monkeypatch):
    real_train = experiment.train

    def failing_train(algo, env_id, seed, config=None, **kwargs):
        if seed == 1:
            raise NumericError("synthetic divergence", training_log=None)
        return real_train(algo, env_id, seed, config, **kwargs)

    monkeypatch.setattr(experiment, "train", failing_train)
    monkeypatch.setattr(experiment, "run_in_workers", run_in_process)
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 200, 3)
    record = run_experiment(tmp_path, record.exp_id)
    assert record.status == STATUS_FAILED
    statuses = {run.k: run.status for run in seed_runs(tmp_path, record)}
    assert statuses == {0: "complete", 1: "failed", 2: "complete"}
    assert (seed_dir(tmp_path, record.exp_id, 1) / "training_log.csv").is_file()
    assert not (seed_dir(tmp_path, record.exp_id, 1) / "policy.json").exists()


def test_crashed_seed_task_marks_experiment_failed(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    # a file where seed 1's run directory belongs makes writing its files raise
    seed_dir(tmp_path, record.exp_id, 1).write_text("blocked")
    with pytest.raises(OSError):
        run_experiment(tmp_path, record.exp_id, parallelism=2)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def exit_in_seed_1(algo, env_id, seed, hyperparams, n_timesteps):
    """Stands in for ``experiment._run_seed``: the worker running seed 1 dies
    mid-job."""
    if seed == 1:
        os._exit(9)
    return experiment._run_seed(algo, env_id, seed, hyperparams, n_timesteps)


def test_seed_worker_that_exits_fails_the_experiment(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "_run_seed", exit_in_seed_1)
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    with pytest.raises(ReachError, match="the worker running job 1 exited"):
        run_experiment(tmp_path, record.exp_id, parallelism=2)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def test_seed_worker_that_cannot_start_fails_the_experiment(tmp_path, monkeypatch):
    # The workers are forked with this process's ioutil, so each one exits
    # before it reads its job.
    monkeypatch.setattr(ioutil, "_worker", lambda *args: os._exit(1))
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    with pytest.raises(ReachError, match="the worker running job [01] exited"):
        run_experiment(tmp_path, record.exp_id, parallelism=2)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def open_sockets() -> int:
    """The number of sockets this process holds open."""
    fds = Path("/proc/self/fd").iterdir()  # the one it read the directory through is closed
    return sum(os.readlink(fd).startswith("socket:") for fd in fds if fd.exists())


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts sockets through /proc")
def test_a_worker_holds_only_its_own_end_of_one_pipe():
    # A forked worker closes the parent's ends of every pipe it inherits, its
    # own included, so that EOF on its pipe means the parent has gone.  It
    # keeps the sockets this process had before, if any.
    before = open_sockets()
    jobs = [()] * 6
    counts = [count for _, _, count, _ in ioutil.run_in_workers(open_sockets, jobs, 3)]
    assert counts == [before + 1] * 6


def test_train_exits_two_without_traceback_when_a_seed_worker_exits(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "_run_seed", exit_in_seed_1)
    code = cli_main(["train", "--algo", "random", "--env", "reach-planar-v1",
                     "--n-timesteps", "100", "--n-seeds", "2", "--parallel", "2",
                     "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("runtime failure: the worker running job 1 exited")
    assert "Traceback" not in err
    assert load_experiment(tmp_path, 1).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def test_seed_task_records_any_training_exception(monkeypatch):
    def crashing_train(algo, env_id, seed, config=None, **kwargs):
        raise RuntimeError("worker crashed")

    monkeypatch.setattr(experiment, "train", crashing_train)
    files = experiment._run_seed("random", "reach-planar-v1", 0, {}, 100)
    assert list(files) == ["training_log.csv", "run_meta.json"]
    meta = json.loads(files["run_meta.json"])
    assert (meta["seed"], meta["status"]) == (0, "failed")
    assert meta["error"] == "RuntimeError: worker crashed"
    assert files["training_log.csv"] == "timestep,episode,episode_return,episode_final_distance_m\n"


def test_run_seed_returns_its_files_in_writing_order():
    files = experiment._run_seed("random", "reach-planar-v1", 3, {}, 100)
    assert list(files) == ["training_log.csv", "policy.json", "run_meta.json"]
    meta = json.loads(files["run_meta.json"])
    assert (meta["seed"], meta["status"]) == (3, "complete")


def test_seed_runs_reads_status_and_wall_time_and_marks_missing_runs(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    run_dir = seed_dir(tmp_path, record.exp_id, 0)
    run_dir.mkdir()
    (run_dir / "run_meta.json").write_text('{"seed": 0, "wall_time_s": 1.5, "status": "complete"}\n')
    assert seed_runs(tmp_path, record) == [SeedRun(0, "complete", 1.5), SeedRun(1, "missing")]


@pytest.mark.parametrize("data, problem", [
    (b'{"seed": 0, "status": broken', "byte offset"),
    (b'{"seed": 0, "status": "\xff"}\n', "not UTF-8 at byte offset 23"),
    (b'{"seed": 0, "status": "complete"}\n', "missing fields ['wall_time_s']"),
    (b'["complete", 1.5]\n', "not a JSON object"),
    (b'{"seed": 0, "wall_time_s": "slow", "status": "complete"}\n', "bad wall_time_s"),
], ids=["not-json", "not-utf8", "missing-key", "not-an-object", "wall-time-not-a-number"])
def test_malformed_run_meta_is_corrupt_data_naming_the_file(tmp_path, data, problem):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 1)
    path = seed_dir(tmp_path, record.exp_id, 0) / "run_meta.json"
    path.parent.mkdir()
    path.write_bytes(data)
    with pytest.raises(CorruptDataError) as excinfo:
        seed_runs(tmp_path, record)
    assert str(path) in str(excinfo.value)
    assert problem in str(excinfo.value)


def test_experiment_id_taken_after_listing_moves_to_next(tmp_path, monkeypatch):
    # As if another command claimed exp_1 between the listing and the write.
    monkeypatch.setattr(ioutil, "numbered_dirs", lambda root, prefix: [])
    first = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 1)
    second = create_experiment(tmp_path, "ppo", "reach-v1", 200, 2)
    assert (first.exp_id, second.exp_id) == (1, 2)
    assert load_experiment(tmp_path, 1).algo == "random"
    assert load_experiment(tmp_path, 2).algo == "ppo"


def _create_five_experiments(workspace, child, barrier):
    barrier.wait()
    for i in range(5):
        create_experiment(workspace, "random", "reach-planar-v1", 100, 1, base_seed=10 * child + i)


def test_two_spawned_processes_never_share_an_experiment_id(tmp_path):
    ctx = get_context("spawn")
    barrier = ctx.Barrier(2)
    children = [
        ctx.Process(target=_create_five_experiments, args=(tmp_path, child, barrier))
        for child in range(2)
    ]
    for child in children:
        child.start()
    for child in children:
        child.join(timeout=120)
    assert [child.exitcode for child in children] == [0, 0]
    assert list_experiment_ids(tmp_path) == list(range(1, 11))
    records = [load_experiment(tmp_path, exp_id) for exp_id in range(1, 11)]
    assert sorted(r.base_seed for r in records) == [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]


def test_rerunning_complete_requires_overwrite(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 1)
    run_experiment(tmp_path, record.exp_id)
    with pytest.raises(LifecycleError):
        run_experiment(tmp_path, record.exp_id)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_COMPLETE


def experiment_files(workspace, exp_id):
    root = exp_dir(workspace, exp_id)
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_an_experiment_runs_once(tmp_path, monkeypatch):
    complete = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    run_experiment(tmp_path, complete.exp_id)

    def failing_train(algo, env_id, seed, config=None, **kwargs):
        raise NumericError("synthetic divergence", training_log=None)

    monkeypatch.setattr(experiment, "run_in_workers", run_in_process)
    failed = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    with monkeypatch.context() as patch:
        patch.setattr(experiment, "train", failing_train)
        assert run_experiment(tmp_path, failed.exp_id).status == STATUS_FAILED
    for record, status in ((complete, STATUS_COMPLETE), (failed, STATUS_FAILED)):
        before = experiment_files(tmp_path, record.exp_id)
        assert ("seed_1/policy.json" in before) == (status == STATUS_COMPLETE)
        # A rerun that a failing train would spoil, and one that would train.
        for train in (failing_train, experiment.train):
            with monkeypatch.context() as patch:
                patch.setattr(experiment, "train", train)
                with pytest.raises(LifecycleError, match=status):
                    run_experiment(tmp_path, record.exp_id)
            assert experiment_files(tmp_path, record.exp_id) == before


def test_list_experiment_ids_ignores_noise(tmp_path):
    (tmp_path / "exp_3").mkdir()
    (tmp_path / "exp_abc").mkdir()
    (tmp_path / "not_an_exp").mkdir()
    (tmp_path / "exp_10").mkdir()
    assert list_experiment_ids(tmp_path) == [3, 10]


def test_unwritable_workspace_is_io_error(tmp_path):
    blocker = tmp_path / "workspace"
    blocker.write_text("a file where the workspace should be")
    with pytest.raises(OSError):
        create_experiment(blocker, "random", "reach-v1", 100, 1)


def test_base_seed_offsets_runs(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2, base_seed=40)
    run_experiment(tmp_path, record.exp_id)
    seeds = [
        json.loads((seed_dir(tmp_path, record.exp_id, k) / "run_meta.json").read_text())["seed"]
        for k in range(2)
    ]
    assert seeds == [40, 41]
