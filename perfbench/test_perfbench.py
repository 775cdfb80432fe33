"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402

record.pin_blas_threads()

import stats  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 8].
    t = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 10.0]))
    with t.span("root"):
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    assert t.names == ["root", "a", "b", "c"]
    assert t.parents == [-1, 0, 1, 0]
    assert t.self_times() == [4.0, 2.0, 1.0, 3.0]
    assert sum(t.self_times()) == 10.0  # the root's duration
    groups = t.by_name()
    assert groups["a"] == {"dur": [3.0], "self": [2.0]}


def test_problems_finds_open_and_misnested_spans():
    t = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0]))
    with t.span("root"):
        with t.span("a"):
            pass
    assert t.problems() == []
    t._open("left open")
    assert t.problems() == [
        "1 span(s) left open",
        "span 2 (left open) ends before it starts",
        "span 2 (left open) has negative self time -4.0",
    ]

    t = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 4.0]))
    with t.span("root"):
        pass
    with t.span("child"):
        pass
    t.parents[1] = 0  # a child recorded after its parent closed
    assert t.problems() == [
        "span 1 (child) lies outside its parent 0",
        "span 0 (root) has negative self time -1.0",
    ]


def test_wrap_times_calls_and_restore_puts_back_originals():
    module = types.SimpleNamespace(double=lambda x: 2 * x)

    class Counter:
        def bump(self, n):
            return module.double(n) + 1

    original_double, original_bump = module.double, Counter.__dict__["bump"]
    t = Tracer()
    t.wrap(module, "double", "mod.double")
    t.wrap(Counter, "bump", lambda self, n: f"counter.bump{n}")
    with t.span("root"):
        assert Counter().bump(3) == 7
    assert t.names == ["root", "counter.bump3", "mod.double"]
    assert t.parents == [-1, 0, 1]
    t.restore()
    assert module.double is original_double
    assert Counter.__dict__["bump"] is original_bump


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = stats.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert stats.samples_beyond(n, p) >= 10


def test_summarize_median_quartiles_and_tail():
    s = stats.summarize([9, 1, 5, 3, 7, 2, 8, 4, 6])
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (9, 5.0, 2.5, 7.5)
    assert not any(k.startswith("p") for k in s)
    s = stats.summarize(list(range(1, 101)))
    assert s["p90"] == 90.0  # 10 samples (91..100) lie beyond it
    assert stats.summarize([4.0]) == {"n": 1, "median": 4.0, "q1": 4.0, "q3": 4.0}


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    wrapped = [(owner, attr) for owner, attr, _ in layers.targets([])]
    before = [current(owner, attr) for owner, attr in wrapped]
    w = workloads.smoke_variant(workloads.WORKLOADS["tune-6dof"])
    result = layers.measure_traced(w, seed=3, seconds=0, root=ROOT, workspace=tmp_path)
    assert result["session"].failed == 0
    assert len(result["repeats"]) == 2
    assert all(current(owner, attr) is b for (owner, attr), b in zip(wrapped, before))
    for r in result["repeats"]:
        assert r["self_time_sum_s"] <= r["root_wall_s"] <= r["traced_wall_s"]


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_runs_every_workload_end_to_end(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_benchmark(tmp_path, "ppo-planar", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
