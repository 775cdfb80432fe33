"""Every workspace file kind against its schema: valid records survive their
writer and reader unchanged, and random damage never ends in a traceback."""

import dataclasses
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachrl.agents import (
    TRAINING_LOG_COLUMNS,
    AlgoConfig,
    LogRow,
    PpoConfig,
    Td3Config,
    TrainingLog,
    make_algo_config,
    training_log_from_csv,
    training_log_to_csv,
)
from reachrl.cli import main
from reachrl.errors import ValidationError
from reachrl.evaluation import BENCHMARK_COLUMNS, benchmark_rows_from_csv, benchmark_rows_to_csv
from reachrl.experiment import (
    RECORD_FIELDS,
    RUN_META_FIELDS,
    ExperimentRecord,
    SeedRun,
    load_experiment,
    run_meta_json,
    save_record,
    seed_dir,
    seed_runs,
)
from reachrl.ioutil import atomic_write_text
from reachrl.report import CURVES_DATA_COLUMNS, Series, series_from_csv, series_to_csv


def values(kind, domain):
    """Every value a schema entry accepts, as a hypothesis strategy."""
    if isinstance(domain, tuple):
        return st.sampled_from(domain)
    if domain is None:
        return st.text()
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    if kind is int:
        return st.integers(int(lo) + (domain[0] == "("), None if math.isinf(hi) else int(hi))
    return st.floats(
        None if math.isinf(lo) else lo, None if math.isinf(hi) else hi,
        allow_nan=False, allow_infinity=False,
        exclude_min=domain[0] == "(" and not math.isinf(lo),
        exclude_max=domain[-1] == ")" and not math.isinf(hi),
    )


def fields(schema):
    """A record of ``schema``, {name: value}, drawn from its domains (no dict field)."""
    return st.fixed_dictionaries({name: values(kind, domain) for name, kind, domain in schema})


@st.composite
def training_logs(draw):
    log = TrainingLog()
    timestep = 0
    for episode in range(1, draw(st.integers(0, 12)) + 1):
        timestep += draw(st.integers(1, 10**6))
        log.rows.append(LogRow(timestep, episode, **draw(fields(TRAINING_LOG_COLUMNS[2:]))))
    return log


@given(log=training_logs())
@settings(max_examples=100, deadline=None)
def test_training_log_round_trips(log):
    assert training_log_from_csv(training_log_to_csv(log)) == log


@st.composite
def hyperparams(draw, algo):
    """What ``create_experiment`` records: some fields, each as the config read it."""
    cls = {"ppo": PpoConfig, "td3": Td3Config, "random": AlgoConfig}[algo]
    names = [f for f in dataclasses.fields(cls) if f.name != "n_timesteps"]
    chosen = draw(st.sets(st.sampled_from(names))) if names else set()
    overrides = {f.name: draw(values(type(f.default), f.metadata["domain"])) for f in chosen}
    try:
        config = make_algo_config(algo, 1000, overrides)
    except ValidationError:  # a rule across fields, such as minibatches that tile a rollout
        assume(False)
    return {name: getattr(config, name) for name in overrides}


@st.composite
def records(draw):
    doc = draw(fields([entry for entry in RECORD_FIELDS if entry[1] is not dict]))
    return ExperimentRecord(**doc, hyperparams=draw(hyperparams(doc["algo"])))


@given(record=records(), meta=fields(RUN_META_FIELDS), error=st.none() | st.text())
@settings(max_examples=100, deadline=None)
def test_config_record_and_run_meta_round_trip(record, meta, error):
    with tempfile.TemporaryDirectory() as workspace:
        save_record(workspace, record)
        assert load_experiment(workspace, record.exp_id) == record
        record.n_seeds, record.base_seed = 1, meta["seed"]
        status = "complete" if error is None else "failed"
        text = run_meta_json(meta["seed"], meta["wall_time_s"], error)
        atomic_write_text(seed_dir(workspace, record.exp_id, 0) / "run_meta.json", text)
        assert seed_runs(Path(workspace), record) == [SeedRun(0, status, meta["wall_time_s"])]


@given(rows=st.lists(fields(BENCHMARK_COLUMNS), max_size=5, unique_by=lambda row: row["exp_id"]))
@settings(max_examples=100, deadline=None)
def test_benchmark_rows_round_trip(rows):
    rows = sorted(rows, key=lambda row: row["exp_id"])
    assert benchmark_rows_from_csv(benchmark_rows_to_csv(rows)) == rows


@st.composite
def curves(draw):
    labels = draw(st.lists(values(*CURVES_DATA_COLUMNS[0][1:]), min_size=1, max_size=4, unique=True))
    series = []
    for label in labels:
        xs = sorted(draw(st.sets(values(*CURVES_DATA_COLUMNS[1][1:]), min_size=1, max_size=20)))
        ys = draw(st.lists(values(*CURVES_DATA_COLUMNS[2][1:]), min_size=len(xs), max_size=len(xs)))
        series.append(Series(label, np.array(xs), np.array(ys)))
    return series


@given(series=curves())
@settings(max_examples=100, deadline=None)
def test_curve_data_round_trips(series):
    parsed = series_from_csv(series_to_csv(series))
    assert [s.label for s in parsed] == [s.label for s in series]
    for got, want in zip(parsed, series):
        assert got.xs.tobytes() == want.xs.tobytes() and got.ys.tobytes() == want.ys.tobytes()


# Tokens that a reader could take for data: numbers out of every domain,
# JSON and CSV syntax, and a byte that is not UTF-8.
TOKENS = [b"nan", b"-1", b"1e999", b"2.5", b"true", b"null", b",", b'"', b"}", b"[", b"\n", b"\xff"]
DAMAGED = ["exp_1/config.json", "exp_1/seed_0/run_meta.json", "exp_1/seed_0/training_log.csv",
           "exp_1/seed_0/policy.json", "benchmark.csv"]
COMMANDS = [["evaluate", "--exp-id", "1", "--n-eval-episodes", "2"], ["plot", "--exp-id", "1"],
            ["benchmark", "--exp-ids", "1", "--metric", "mean_return"]]


def damage(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    at = int(rng.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "empty":
        return b""
    if kind == "flip":
        return data[:at] + bytes([int(rng.integers(0, 256))]) + data[at + 1:]
    return data[:at] + TOKENS[int(rng.integers(0, len(TOKENS)))] + data[at:]


@pytest.fixture(scope="module")
def trained_workspace(tmp_path_factory):
    workspace = tmp_path_factory.mktemp("pristine")
    assert main(["train", "--algo", "ppo", "--env", "reach-planar-v1", "--n-timesteps", "320",
                 "--n-seeds", "1", "--hp", "rollout_len=64", "--hp", "minibatch_size=32",
                 "--hp", "n_epochs=1", "--workspace", str(workspace)]) == 0
    assert main(["evaluate", "--exp-id", "1", "--n-eval-episodes", "2",
                 "--workspace", str(workspace)]) == 0
    return workspace


@pytest.mark.parametrize("name", DAMAGED)
def test_random_damage_exits_zero_one_or_two_without_a_traceback(trained_workspace, tmp_path,
                                                                 capsys, name):
    rng = np.random.default_rng(DAMAGED.index(name))
    kinds = ["truncate", "empty", "flip", "insert"]
    for i, kind in enumerate([kinds[(DAMAGED.index(name) + j) % 4] for j in range(3)]):
        workspace = shutil.copytree(trained_workspace, tmp_path / f"ws_{i}")
        path = workspace / name
        path.write_bytes(damage(path.read_bytes(), kind, rng))
        for command in COMMANDS:
            capsys.readouterr()
            code = main([*command, "--workspace", str(workspace)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (kind, command, err)
            assert code != 2 or err.startswith(f"runtime failure: {workspace}"), (kind, command, err)
