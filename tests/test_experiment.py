import json
import multiprocessing
import os
import shutil
import sys
import types
from multiprocessing import get_context

import pytest

import reachrl.experiment as experiment
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


def test_failed_seed_marks_experiment_failed_but_others_complete(tmp_path, monkeypatch):
    real_train = experiment.train

    def failing_train(algo, env_id, seed, config=None, **kwargs):
        if seed == 1:
            raise NumericError("synthetic divergence", training_log=None)
        return real_train(algo, env_id, seed, config, **kwargs)

    monkeypatch.setattr(experiment, "train", failing_train)
    # run in-process so the monkeypatch reaches the seed tasks
    monkeypatch.setattr(
        experiment, "_run_seed_tasks",
        lambda directory, n_seeds, parallelism: [
            experiment._run_seed_task(directory, k) for k in range(n_seeds)
        ],
    )
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 200, 3)
    record = run_experiment(tmp_path, record.exp_id)
    assert record.status == STATUS_FAILED
    statuses = {run.k: run.status for run in seed_runs(tmp_path, record)}
    assert statuses == {0: "complete", 1: "failed", 2: "complete"}
    assert (seed_dir(tmp_path, record.exp_id, 1) / "training_log.csv").is_file()
    assert not (seed_dir(tmp_path, record.exp_id, 1) / "policy.json").exists()


def test_crashed_seed_task_marks_experiment_failed(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    # a file where seed 1's run directory belongs makes its task raise
    seed_dir(tmp_path, record.exp_id, 1).write_text("blocked")
    with pytest.raises(OSError):
        run_experiment(tmp_path, record.exp_id)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_FAILED


def exit_in_seed_1(exp_dir_str, k):
    """Stands in for ``experiment._run_seed_task``: the worker running seed 1
    dies mid-job.  Module-level, so that spawned workers can unpickle it."""
    if k == 1:
        os._exit(9)
    return experiment._run_seed_task(exp_dir_str, k)


def test_seed_worker_that_exits_fails_the_experiment(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "_run_seed_task", exit_in_seed_1)
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    with pytest.raises(ReachError, match="the worker running job 1 exited"):
        run_experiment(tmp_path, record.exp_id, parallelism=2)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def test_seed_worker_that_cannot_start_fails_the_experiment(tmp_path, monkeypatch):
    # A task whose module exists only in this process: workers cannot unpickle
    # it, so each one exits before it reads its job.
    module = types.ModuleType("module_missing_in_workers")
    module.task = lambda exp_dir_str, k: None
    module.task.__module__, module.task.__qualname__ = module.__name__, "task"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(experiment, "_run_seed_task", module.task)
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 2)
    with pytest.raises(ReachError, match="the worker running job [01] exited"):
        run_experiment(tmp_path, record.exp_id, parallelism=2)
    assert load_experiment(tmp_path, record.exp_id).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def test_train_exits_two_without_traceback_when_a_seed_worker_exits(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiment, "_run_seed_task", exit_in_seed_1)
    code = cli_main(["train", "--algo", "random", "--env", "reach-planar-v1",
                     "--n-timesteps", "100", "--n-seeds", "2", "--parallel", "2",
                     "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("runtime failure: the worker running job 1 exited")
    assert "Traceback" not in err
    assert load_experiment(tmp_path, 1).status == STATUS_FAILED
    assert multiprocessing.active_children() == []


def test_seed_task_records_any_training_exception(tmp_path, monkeypatch):
    def crashing_train(algo, env_id, seed, config=None, **kwargs):
        raise RuntimeError("worker crashed")

    monkeypatch.setattr(experiment, "train", crashing_train)
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 1)
    result = experiment._run_seed_task(str(exp_dir(tmp_path, record.exp_id)), 0)
    assert result["status"] == "failed"
    assert {run.k: run.status for run in seed_runs(tmp_path, record)} == {0: "failed"}
    run = seed_dir(tmp_path, record.exp_id, 0)
    meta = json.loads((run / "run_meta.json").read_text())
    assert meta["error"] == "RuntimeError: worker crashed"
    assert (run / "training_log.csv").read_text() == "timestep,episode,episode_return,episode_final_distance_m\n"
    assert not (run / "policy.json").exists()


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
    monkeypatch.setattr(experiment, "list_experiment_ids", lambda workspace: [])
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
    record = run_experiment(tmp_path, record.exp_id, overwrite=True)
    assert record.status == STATUS_COMPLETE


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
