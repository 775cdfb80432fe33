import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachrl.hypertune as hypertune
import reachrl.ioutil as ioutil
from reachrl.errors import NumericError, ValidationError
from reachrl.hypertune import (
    Categorical,
    LogUniform,
    TRIAL_COMPLETE,
    TRIAL_FAILED,
    TRIAL_PRUNED,
    Uniform,
    checkpoint_schedule,
    default_space,
    run_study,
    sample_config,
    should_prune,
    trials_to_csv,
)


def test_sample_singleton_categorical_is_constant():
    space = {"x": Categorical(("a",))}
    rng = np.random.default_rng(0)
    assert all(sample_config(space, rng)["x"] == "a" for _ in range(20))


def test_sample_loguniform_bounds_and_median():
    space = {"lr": LogUniform(1e-5, 1e-2)}
    rng = np.random.default_rng(1)
    samples = np.array([sample_config(space, rng)["lr"] for _ in range(10_000)])
    assert np.all(samples >= 1e-5) and np.all(samples <= 1e-2)
    geometric_mean = 10 ** (-3.5)
    median = float(np.median(samples))
    assert geometric_mean / 3 < median < geometric_mean * 3


def test_sample_uniform_bounds():
    space = {"tau": Uniform(0.001, 0.02)}
    rng = np.random.default_rng(2)
    samples = [sample_config(space, rng)["tau"] for _ in range(1000)]
    assert all(0.001 <= s <= 0.02 for s in samples)


def test_sample_deterministic_given_seed():
    space = default_space("ppo")
    a = sample_config(space, np.random.default_rng(42))
    b = sample_config(space, np.random.default_rng(42))
    assert a == b


def test_dimension_invariants():
    with pytest.raises(ValidationError):
        LogUniform(0.0, 1.0)
    with pytest.raises(ValidationError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValidationError):
        Categorical(())


def test_should_prune_warm_up_rule():
    assert not should_prune([1.0, 2.0, 3.0, 4.0], -100.0)  # only 4 priors
    assert should_prune([1.0, 2.0, 3.0, 4.0, 5.0], 2.9)  # median 3


def test_should_prune_median_example():
    assert should_prune([1.0, 2.0, 3.0], 1.5, min_trials_before_prune=3)


def test_should_prune_tie_is_kept():
    assert not should_prune([1.0, 2.0, 3.0], 2.0, min_trials_before_prune=3)


@given(
    priors=st.lists(st.floats(-100, 100), min_size=5, max_size=20),
    value=st.floats(-100, 100),
    drop=st.floats(0.001, 50),
)
@settings(max_examples=200, deadline=None)
def test_pruning_monotone_in_value(priors, value, drop):
    if should_prune(priors, value):
        assert should_prune(priors, value - drop)


@given(priors=st.lists(st.floats(-100, 100), min_size=5, max_size=20))
@settings(max_examples=200, deadline=None)
def test_best_so_far_never_pruned(priors):
    assert not should_prune(priors, max(priors))


def test_checkpoint_schedule_even_spacing():
    assert checkpoint_schedule(100_000, 4) == [25_000, 50_000, 75_000, 100_000]
    assert checkpoint_schedule(10, 1) == [10]
    with pytest.raises(ValidationError):
        checkpoint_schedule(2, 4)


def lr_stub_runner(algo, env_id, seed, config, steps, report):
    """Stub trainer whose metric is exactly the sampled learning rate."""
    for step in steps:
        if not report(step, config["lr"]):
            return None
    return config["lr"]


def test_stub_study_recovers_max_lr(tmp_path):
    space = {"lr": LogUniform(1e-5, 1e-2)}
    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", space, n_trials=12,
        timesteps_per_trial=1000, checkpoints=4, seed=0, trial_runner=lr_stub_runner,
    )
    sampled = [t.config["lr"] for t in study.trials]
    assert study.best.final_value == pytest.approx(max(sampled))
    complete = [t for t in study.trials if t.state == TRIAL_COMPLETE]
    assert study.best in complete
    # warm-up: the first five trials are never pruned
    for t in study.trials[:5]:
        assert t.state != TRIAL_PRUNED

    trials_csv = (study.study_dir / "trials.csv").read_text()
    assert trials_csv.splitlines()[0] == "trial_id,state,final_value,lr,pruned_at_step"
    best_config = json.loads((study.study_dir / "best_config.json").read_text())
    assert best_config == study.best.config


def test_study_prunes_weak_trials(tmp_path):
    space = {"lr": Uniform(0.0, 1.0)}
    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", space, n_trials=20,
        timesteps_per_trial=100, checkpoints=2, seed=3, trial_runner=lr_stub_runner,
    )
    pruned = [t for t in study.trials if t.state == TRIAL_PRUNED]
    assert pruned, "a 20-trial uniform study should prune something"
    for t in pruned:
        assert t.final_value is None
        assert t.pruned_at_step in (50, 100)
        steps = [s for s, _ in t.intermediate_values]
        assert steps == sorted(set(steps))


def test_failed_trials_excluded_from_median_history(tmp_path):
    # Values per trial id; trial 0 reports a huge value then fails.
    script = {0: 100.0, 1: 0.0, 2: 50.0, 3: 30.0}

    def scripted_runner(algo, env_id, seed, config, steps, report):
        trial_id = scripted_runner.next_id
        scripted_runner.next_id += 1
        value = script[trial_id]
        for step in steps:
            if not report(step, value):
                return None
        if trial_id == 0:
            raise NumericError("synthetic failure")
        return value

    scripted_runner.next_id = 0
    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", {"lr": Uniform(0.1, 1.0)}, n_trials=4,
        timesteps_per_trial=100, checkpoints=1, seed=0,
        trial_runner=scripted_runner, min_trials_before_prune=2,
    )
    states = [t.state for t in study.trials]
    assert states[0] == TRIAL_FAILED
    assert study.trials[0].final_value is None
    # Median of non-failed priors [0, 50] is 25; with trial 0's 100 wrongly
    # included it would be 50 and trial 3 (value 30) would be pruned.
    assert states[3] == TRIAL_COMPLETE


def test_single_trial_study_is_best(tmp_path):
    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", {"lr": LogUniform(1e-4, 1e-3)}, n_trials=1,
        timesteps_per_trial=100, checkpoints=1, seed=5, trial_runner=lr_stub_runner,
    )
    assert study.best.trial_id == 0
    assert study.best.state == TRIAL_COMPLETE


def test_all_failed_study_raises(tmp_path):
    def failing_runner(algo, env_id, seed, config, steps, report):
        raise NumericError("always fails")

    with pytest.raises(ValidationError, match="no completed trial"):
        run_study(
            tmp_path, "ppo", "reach-planar-v1", {"lr": Uniform(0.1, 1.0)}, n_trials=3,
            timesteps_per_trial=100, checkpoints=1, seed=0, trial_runner=failing_runner,
        )


@pytest.mark.parametrize("parallel", [1, 2])
def test_study_rejects_warm_up_below_one_before_claiming(tmp_path, parallel):
    with pytest.raises(ValidationError, match="min_trials_before_prune"):
        run_study(
            tmp_path, "ppo", "reach-planar-v1", {"lr": Uniform(0.1, 1.0)}, n_trials=2,
            timesteps_per_trial=100, checkpoints=1, seed=0, trial_runner=lr_stub_runner,
            min_trials_before_prune=0, parallel=parallel,
        )
    assert not (tmp_path / "studies").exists()


def test_study_ids_increment(tmp_path):
    space = {"lr": Uniform(0.1, 1.0)}
    first = run_study(tmp_path, "ppo", "reach-planar-v1", space, 1, 100, 1, 0, lr_stub_runner)
    second = run_study(tmp_path, "ppo", "reach-planar-v1", space, 1, 100, 1, 0, lr_stub_runner)
    assert (first.study_id, second.study_id) == (1, 2)


def test_study_id_taken_after_listing_moves_to_next(tmp_path, monkeypatch):
    # As if another study claimed study_1 between the listing and the write.
    monkeypatch.setattr(ioutil, "numbered_dirs", lambda root, prefix: [])
    space = {"lr": Uniform(0.1, 1.0)}
    first = run_study(tmp_path, "ppo", "reach-planar-v1", space, 1, 100, 1, 0, lr_stub_runner)
    second = run_study(tmp_path, "ppo", "reach-planar-v1", space, 1, 100, 1, 7, lr_stub_runner)
    assert (first.study_id, second.study_id) == (1, 2)
    assert first.study_dir != second.study_dir
    assert (first.study_dir / "trials.csv").read_text() == trials_to_csv(first.trials, ["lr"])


def test_sequential_study_deterministic(tmp_path):
    space = default_space("td3")

    def run_once(sub):
        study = run_study(
            tmp_path / sub, "td3", "reach-planar-v1", space, n_trials=8,
            timesteps_per_trial=400, checkpoints=4, seed=9, trial_runner=lr_stub_runner,
        )
        return [(t.trial_id, t.state, t.final_value, t.config) for t in study.trials]

    assert run_once("a") == run_once("b")


def test_real_training_trial_runner_smoke(tmp_path):
    space = {"lr": Categorical((0.0003,)), "rollout_len": Categorical((64,)),
             "minibatch_size": Categorical((32,)), "n_epochs": Categorical((1,))}
    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", space, n_trials=1,
        timesteps_per_trial=128, checkpoints=2, seed=1,
    )
    assert study.best.state == TRIAL_COMPLETE
    assert study.best.final_value is not None
    assert [s for s, _ in study.best.intermediate_values] == [64, 128]


# Trial i of a study with seed 0 trains with seed i + 1.

def staggered_runner(algo, env_id, seed, config, steps, report):
    """Metric lr * step; trials with odd ids run slowly, so later trials reach
    their checkpoints while earlier ones still run."""
    for step in steps:
        time.sleep(0.03 if seed % 2 == 0 else 0.0)
        if not report(step, config["lr"] * step):
            return None
    return config["lr"] * steps[-1]


def report_then_diverge_runner(algo, env_id, seed, config, steps, report):
    """As staggered_runner, but trials 0, 3 and 6 report the top value at
    every checkpoint, wait, and then raise NumericError."""
    if seed % 3 != 1:
        return staggered_runner(algo, env_id, seed, config, steps, report)
    for step in steps:
        report(step, float(step))
    time.sleep(0.1)
    raise NumericError("synthetic divergence after reporting")


def crashing_runner(algo, env_id, seed, config, steps, report):
    """Trial 2 raises RuntimeError after its first report; the others are slow."""
    report(steps[0], config["lr"])
    if seed == 3:
        raise RuntimeError("synthetic crash in trial 2")
    time.sleep(0.5)
    return config["lr"]


def study_bytes(workspace, runner, parallel):
    study = run_study(
        workspace, "ppo", "reach-planar-v1", {"lr": Uniform(0.0, 1.0)}, n_trials=9,
        timesteps_per_trial=300, checkpoints=3, seed=0, trial_runner=runner,
        min_trials_before_prune=2, parallel=parallel,
    )
    return [(study.study_dir / name).read_bytes() for name in ("trials.csv", "best_config.json")]


@pytest.mark.parametrize("runner", [staggered_runner, report_then_diverge_runner])
def test_parallel_study_is_byte_identical_to_sequential(tmp_path, runner):
    sequential = study_bytes(tmp_path / "p1", runner, 1)
    assert b"Pruned" in sequential[0]
    if runner is report_then_diverge_runner:
        assert sequential[0].count(b"Failed") == 3
    for parallel in (2, 3):
        assert study_bytes(tmp_path / f"p{parallel}", runner, parallel) == sequential
    assert multiprocessing.active_children() == []


def test_parallel_study_runs_a_closure_trial_runner(tmp_path):
    # A worker reads its job from the memory it was forked with, so a trial
    # runner that does not pickle still runs in parallel.
    scale = 2.0

    def closure_runner(algo, env_id, seed, config, steps, report):
        return staggered_runner(algo, env_id, seed, {"lr": scale * config["lr"]}, steps, report)

    sequential = study_bytes(tmp_path / "p1", closure_runner, 1)
    assert study_bytes(tmp_path / "p2", closure_runner, 2) == sequential
    assert multiprocessing.active_children() == []


def test_sequential_study_runs_its_trials_in_one_forked_worker(tmp_path):
    def pid_runner(algo, env_id, seed, config, steps, report):
        report(steps[0], 0.0)
        return os.getpid()

    study = run_study(
        tmp_path, "ppo", "reach-planar-v1", {"lr": Uniform(0.1, 1.0)}, n_trials=3,
        timesteps_per_trial=100, checkpoints=1, seed=0, trial_runner=pid_runner, parallel=1,
    )
    pids = {t.final_value for t in study.trials}
    assert len(pids) == 1
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_worker_exception_is_reraised_and_workers_joined(tmp_path):
    with pytest.raises(RuntimeError, match="synthetic crash in trial 2"):
        run_study(
            tmp_path, "ppo", "reach-planar-v1", {"lr": Uniform(0.1, 1.0)}, n_trials=6,
            timesteps_per_trial=100, checkpoints=1, seed=0, trial_runner=crashing_runner,
            parallel=3,
        )
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "studies").exists()
