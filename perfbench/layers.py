"""The traced run: the workload's work in-process, with a span at each layer.

Spans are recorded from the benchmark's own files by wrapping the bindings
each consuming module calls (see ``targets``); nothing under ``src/`` changes.
Seed runs that ``experiment`` spawns are out of the tracer's reach, so one
seed is trained in-process through ``agents.train`` and the ``experiment``
figures come from an untraced CLI ``train`` and its ``run_meta.json``.
``evaluate``, ``tune`` and ``plot`` are traced in-process through
``cli.main``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import statistics
import time
from pathlib import Path

import record
import stats
import workloads
from tracer import Tracer

# Per-layer metrics and their units.  A layer that does not run on a
# workload reports 0 there.
PER_LAYER = {
    "arm.fk_calls": "count",
    "arm.fk_us": "us",
    "envs.step_calls": "count",
    "envs.step_self_us": "us",
    "envs.reset_us": "us",
    "nets.forward_b1_us": "us",
    "nets.forward_b64_us": "us",
    "nets.forward_b256_us": "us",
    "nets.backward_b64_us": "us",
    "nets.backward_b256_us": "us",
    "nets.adam_us": "us",
    "nets.adam_calls": "count",
    "nets.clip_grad_norm_us": "us",
    "ppo.rollout_s": "s",
    "ppo.update_ms": "ms",
    "ppo.gae_us": "us",
    "ppo.rollout_share": "ratio",
    "td3.update_calls": "count",
    "td3.update_ms": "ms",
    "td3.buffer_sample_us": "us",
    "td3.polyak_us": "us",
    "agents.train_s": "s",
    "experiment.spawn_overhead_s": "s",
    "experiment.seed_wall_s": "s",
    "experiment.parallel_efficiency": "ratio",
    "evaluation.episode_ms": "ms",
    "evaluation.upsert_ms": "ms",
    "hypertune.checkpoint_eval_share": "ratio",
    "hypertune.pruned_trials": "count",
    "hypertune.useful_step_ratio": "ratio",
    "report.render_ms": "ms",
    "ioutil.atomic_writes": "count",
    "ioutil.write_ms": "ms",
    "tracing_overhead": "ratio",
}

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "arm.fk_calls", "envs.step_calls", "nets.adam_calls", "td3.update_calls",
    "hypertune.pruned_trials", "ioutil.atomic_writes",
)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return 1 if shape is None or len(shape) == 1 else shape[0]


def _forward_name(net, x, *rest, **kw) -> str:
    return f"nets.forward_b{_rows(x)}"


def _backward_name(net, cache, *rest, **kw) -> str:
    return f"nets.backward_b{_rows(cache[0])}"


def _adam_name(params, *rest, **kw) -> str:
    return f"nets.adam.{sum(p.size for p in params)}"


def targets(episode_counts: list[int]) -> list[tuple[object, str, object]]:
    """(owner, attribute, span name) for every layer boundary the workloads cross.

    ``episode_counts`` receives each ``evaluate_policy`` call's episode count,
    in call order, so per-episode times can be derived from its spans.
    """
    from reachrl import (
        agents, arm, cli, envs, evaluation, experiment, hypertune, ioutil, ppo, report, td3,
    )

    signature = inspect.signature(evaluation.evaluate_policy)

    def evaluate_name(*args, **kwargs) -> str:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        episode_counts.append(bound.arguments["n_episodes"])
        return "evaluation.evaluate_policy"

    nets_bindings = [
        (module, attr, name)
        for module in (ppo, td3)
        for attr, name in (
            ("mlp_forward", _forward_name),
            ("mlp_forward_cached", _forward_name),
            ("mlp_backward_cached", _backward_name),
            ("adam_step", _adam_name),
        )
    ]
    return [
        (arm, "forward_kinematics", "arm.fk"),
        (envs.EnvInstance, "step", "envs.step"),
        (envs.EnvInstance, "reset", "envs.reset"),
        *nets_bindings,
        (agents, "mlp_forward", _forward_name),
        (ppo, "clip_grad_norm", "nets.clip_grad_norm"),
        (ppo.PpoTrainer, "collect_rollout", "ppo.rollout"),
        (ppo, "ppo_update", "ppo.update"),
        (ppo, "compute_gae", "ppo.gae"),
        (td3, "td3_update", "td3.update"),
        (td3, "polyak_update", "td3.polyak"),
        (td3.ReplayBuffer, "sample", "td3.buffer_sample"),
        (hypertune, "train", "agents.train"),
        (evaluation, "evaluate_policy", evaluate_name),
        (evaluation, "append_benchmark_row", "evaluation.upsert"),
        (hypertune, "checkpoint_eval_return", "hypertune.checkpoint_eval"),
        (cli, "run_study", "hypertune.run_study"),
        (cli, "emit_training_curves", "report.training_curves"),
        *[
            (module, "atomic_write_text", "ioutil.atomic_write")
            for module in (ioutil, experiment, evaluation, hypertune, report)
        ],
    ]


def per_layer(tracer: Tracer, episode_counts: list[int]) -> dict[str, float]:
    """Per-call medians and counts from one traced repeat's spans."""
    groups = tracer.by_name()

    def calls(name: str) -> int:
        return len(groups.get(name, {"dur": []})["dur"])

    def median(name: str, scale: float, key: str = "dur") -> float:
        values = groups.get(name, {key: []})[key]
        return statistics.median(values) * scale if values else 0.0

    def total(name: str) -> float:
        return sum(groups.get(name, {"dur": []})["dur"])

    adam = [d for name, g in groups.items() if name.startswith("nets.adam.") for d in g["dur"]]
    episode_ms = [
        d / n * 1e3
        for d, n in zip(groups.get("evaluation.evaluate_policy", {"dur": []})["dur"], episode_counts)
    ]
    # Checkpoint evaluations run inside PPO rollouts; keep them out of the share.
    checkpoint = total("hypertune.checkpoint_eval")
    train = total("agents.train") - checkpoint
    return {
        "arm.fk_calls": calls("arm.fk"),
        "arm.fk_us": median("arm.fk", 1e6),
        "envs.step_calls": calls("envs.step"),
        "envs.step_self_us": median("envs.step", 1e6, "self"),
        "envs.reset_us": median("envs.reset", 1e6),
        "nets.forward_b1_us": median("nets.forward_b1", 1e6),
        "nets.forward_b64_us": median("nets.forward_b64", 1e6),
        "nets.forward_b256_us": median("nets.forward_b256", 1e6),
        "nets.backward_b64_us": median("nets.backward_b64", 1e6),
        "nets.backward_b256_us": median("nets.backward_b256", 1e6),
        "nets.adam_us": statistics.median(adam) * 1e6 if adam else 0.0,
        "nets.adam_calls": len(adam),
        "nets.clip_grad_norm_us": median("nets.clip_grad_norm", 1e6),
        "ppo.rollout_s": median("ppo.rollout", 1.0),
        "ppo.update_ms": median("ppo.update", 1e3),
        "ppo.gae_us": median("ppo.gae", 1e6),
        "ppo.rollout_share": (total("ppo.rollout") - checkpoint) / train if train else 0.0,
        "td3.update_calls": calls("td3.update"),
        "td3.update_ms": median("td3.update", 1e3),
        "td3.buffer_sample_us": median("td3.buffer_sample", 1e6),
        "td3.polyak_us": median("td3.polyak", 1e6),
        "evaluation.episode_ms": statistics.median(episode_ms) if episode_ms else 0.0,
        "evaluation.upsert_ms": median("evaluation.upsert", 1e3),
        "hypertune.checkpoint_eval_share": (
            total("hypertune.checkpoint_eval") / total("hypertune.run_study")
            if calls("hypertune.run_study") else 0.0
        ),
        "report.render_ms": median("report.training_curves", 1e3, "self"),
        "ioutil.atomic_writes": calls("ioutil.atomic_write"),
        "ioutil.write_ms": median("ioutil.atomic_write", 1e3),
    }


def span_table(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, per-call summary in us."""
    out = {}
    for name, g in sorted(tracer.by_name().items()):
        summary = stats.summarize([d * 1e6 for d in g["dur"]])
        out[name] = {"calls": len(g["dur"]), "total_s": sum(g["dur"]),
                     "self_s": sum(g["self"]), "per_call_us": summary}
    return out


def _train_in_process(w: workloads.Workload, seed: int,
                      tracer: Tracer | None = None) -> tuple[dict[str, str], float]:
    """One seed of the workload's training, as the CLI's seed run does it."""
    from reachrl import agents

    config = agents.make_algo_config(w.algo, w.n_timesteps, {})
    start = time.perf_counter()
    with tracer.span("agents.train") if tracer else contextlib.nullcontext():
        artifact, log = agents.train(w.algo, w.env_id, seed, config)
    wall = time.perf_counter() - start
    return {
        "seed_0/training_log.csv": agents.training_log_to_csv(log),
        "seed_0/policy.json": agents.policy_to_json(artifact),
    }, wall


def _cli_in_process(tracer: Tracer, args: list[str]) -> workloads.Command:
    """Run ``cli.main(args)`` in this process, inside a ``cli.main`` span."""
    from reachrl import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.span("cli.main"):
        code = cli.main(args)
    cmd = workloads.Command(["reachrl.cli.main", *args], code, time.perf_counter() - start,
                            out.getvalue(), err.getvalue())
    if code != 0:
        cmd.errors.append(f"exit code {code}")
    return cmd


def traced_repeat(w: workloads.Workload, seed: int, session: workloads.Session,
                  setup_s: float, index: int) -> dict:
    """One repeat: untraced CLI train, untraced and traced in-process seed
    training, then the rest of the workload traced through ``cli.main``.

    Every span lies inside one of two kinds of root, the traced seed
    training and the in-process commands, each also timed from outside its
    span.  The spans' self times sum to the roots' durations, so they must
    not exceed those separately measured walls; more would mean a span was
    counted twice or recorded outside a root.
    """
    ws = session.workspace
    cmd, exp_id = session.train(w, seed)
    if not cmd.ok:
        return {}
    walls = workloads.seed_walls(ws, exp_id, w.n_seeds)
    cli_bytes = {
        key: (ws / f"exp_{exp_id}" / key).read_text()
        for key in ("seed_0/training_log.csv", "seed_0/policy.json")
    }
    experiment = {
        "experiment.spawn_overhead_s": cmd.wall_s - max(walls) - setup_s,
        "experiment.seed_wall_s": statistics.median(walls),
        "experiment.parallel_efficiency": sum(walls) / (workloads.parallelism(w) * cmd.wall_s),
    }

    # Alternate which of the two in-process trainings runs first, so that
    # warm-up cost does not always land on the same side of tracing_overhead.
    untraced_first = index % 2 == 0
    if untraced_first:
        untraced_bytes, untraced_s = _train_in_process(w, seed)
    tracer = Tracer()
    episode_counts: list[int] = []
    for owner, attr, name in targets(episode_counts):
        tracer.wrap(owner, attr, name)
    traced_start = time.perf_counter()
    first_traced_cmd = len(session.commands)
    work = None
    try:
        traced_bytes, traced_s = _train_in_process(w, seed, tracer)
        if traced_bytes != cli_bytes:
            cmd.errors.append("traced training artifacts differ from the CLI run's")
        if untraced_first and untraced_bytes != cli_bytes:
            cmd.errors.append("in-process training artifacts differ from the CLI run's")
        with session.running(functools.partial(_cli_in_process, tracer)):
            if w.tune:
                _, work = session.tune(w, seed)
            session.evaluate(w, exp_id)
            if w.plot:
                session.plot(exp_id)
    finally:
        traced_wall = time.perf_counter() - traced_start
        tracer.restore()
    if not untraced_first:
        untraced_bytes, untraced_s = _train_in_process(w, seed)
        if untraced_bytes != cli_bytes:
            cmd.errors.append("in-process training artifacts differ from the CLI run's")

    metrics = per_layer(tracer, episode_counts)
    metrics.update(experiment)
    metrics["agents.train_s"] = untraced_s
    metrics["tracing_overhead"] = traced_s / untraced_s
    metrics["hypertune.pruned_trials"] = work["pruned_trials"] if work else 0
    metrics["hypertune.useful_step_ratio"] = work["useful_step_ratio"] if work else 0.0
    self_total = sum(tracer.self_times())
    root_wall = traced_s + sum(c.wall_s for c in session.commands[first_traced_cmd:])
    if self_total > root_wall:
        cmd.errors.append(f"layer self times {self_total} s exceed the roots' wall {root_wall} s")
    cmd.errors.extend(tracer.problems())
    return {
        "metrics": metrics,
        "traced_wall_s": traced_wall,
        "root_wall_s": root_wall,
        "self_time_sum_s": self_total,
        "spans": span_table(tracer),
        "span_csv": tracer.to_csv(),
    }


def measure_traced(w: workloads.Workload, seed: int, seconds: float, root: Path,
                   workspace: Path) -> dict:
    """Traced repeats for ``seconds`` (at least ``workloads.MIN_REPEATS``);
    per-layer values are medians over repeats, and counts must repeat exactly."""
    start = time.perf_counter()
    session = workloads.Session(root, workspace)
    setup_s = statistics.median(
        session.list_envs(w.env_id).wall_s for _ in range(workloads.LIST_ENVS_PER_CYCLE))
    repeats = []
    for index in workloads.repeats_within(start + seconds, workloads.MIN_REPEATS):
        if session.failed:
            break
        noise = record.NoiseProbe()
        result = traced_repeat(w, seed, session, setup_s, index)
        if not result:
            break
        result["noise"] = noise.finish()
        repeats.append(result)

    metrics = {}
    if repeats and not session.failed:
        for name in PER_LAYER:
            values = [r["metrics"][name] for r in repeats]
            if name in EXACT_COUNTS and len(set(values)) != 1:
                session.commands[-1].errors.append(f"{name} differs across repeats: {values}")
            metrics[name] = statistics.median(values)
    return {"session": session, "repeats": repeats, "metrics": metrics,
            "measured_s": time.perf_counter() - start}
