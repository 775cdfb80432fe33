#!/usr/bin/env python3
"""Layered benchmark of the reachrl CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ppo-planar --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's CLI commands, each in its own
subprocess, and reports the end-to-end metrics.  ``--trace 1`` runs the same
work in-process with a span at every layer boundary and reports the
per-layer metrics.  Either way every command's outputs are checked, the full
record (samples, noise, provenance, command lines) is written under
``.perfbench_out/``, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` shrinks every
command to a tiny budget for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import record

record.pin_blas_threads()

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "env_steps_per_s": "steps/s",
    "evaluate_episodes_per_s": "episodes/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RATES = ("env_steps_per_s", "evaluate_episodes_per_s")
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for tests")
    return parser.parse_args(argv)


def import_program(root: Path) -> None:
    """Import reachrl from this checkout's sources and nowhere else."""
    src = root / "src"
    if not (src / "reachrl" / "__init__.py").is_file():
        raise SystemExit(f"error: no reachrl sources under {src}; run from a checkout's root")
    sys.path.insert(0, str(src))
    import reachrl

    if Path(reachrl.__file__).resolve().parent != (src / "reachrl").resolve():
        raise SystemExit(f"error: imported reachrl from {reachrl.__file__}, not {src}")


def end_to_end(result: dict) -> tuple[dict, dict]:
    """Metric values plus per-command summaries (median, quartiles, count).

    A rate is the run's total work over the total wall time of the commands
    that did it.  On a shared machine single commands run in a fast or a slow
    mode for seconds at a time, and the median of a run's commands jumps
    between the modes as their mix shifts; the total moves with the mix.
    setup_s is the median of its samples.
    """
    samples = result["samples"]
    metrics, summaries = {}, {}
    for name in RATES:
        if samples[name]:
            work = sum(w for w, _ in samples[name])
            wall = sum(t for _, t in samples[name])
            summaries[name] = stats.summarize([w / t for w, t in samples[name]])
            metrics[name] = {"value": work / wall, "unit": END_TO_END[name]}
    if samples["setup_s"]:
        summaries["setup_s"] = stats.summarize(samples["setup_s"])
        metrics["setup_s"] = {"value": summaries["setup_s"]["median"], "unit": "s"}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    return metrics, summaries


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke_variant(w)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workspace = Path(tempfile.mkdtemp(dir=out_dir, prefix=f"work-{w.name}-"))
    try:
        if args.trace:
            result = layers.measure_traced(w, args.seed, args.seconds, root, workspace)
        else:
            result = workloads.measure_cli(w, args.seed, args.seconds, root, workspace)
    finally:
        shutil.rmtree(workspace, ignore_errors=True)

    session = result["session"]
    detail = {
        "provenance": record.provenance(root, w.name, args.seed),
        "workload": w.__dict__,
        "parallel": workloads.parallelism(w),
        "seconds": args.seconds,
        "measured_s": result["measured_s"],
        "trace": args.trace,
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": session.failed / max(1, session.attempted),
        "commands": [c.to_dict() for c in session.commands],
    }
    if args.trace:
        expected = layers.PER_LAYER
        metrics = {name: {"value": v, "unit": expected[name]}
                   for name, v in result["metrics"].items()}
        detail["repeats"] = [
            {k: r[k] for k in ("metrics", "traced_wall_s", "root_wall_s", "self_time_sum_s",
                                 "noise", "spans")}
            for r in result["repeats"]
        ]
        if result["repeats"]:
            spans_path = out_dir / f"{w.name}-seed{args.seed}-spans.csv"
            spans_path.write_text(result["repeats"][-1]["span_csv"])
    else:
        expected = END_TO_END
        metrics, summaries = end_to_end(result)
        detail["summaries"] = summaries
        detail["cycles"] = result["cycles"]
    detail["metrics"] = metrics
    correct = session.failed == 0 and set(metrics) == set(expected)
    detail["correct"] = correct
    detail_path = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    for c in session.commands:
        if not c.ok:
            print(f"FAILED {' '.join(c.argv)}: {'; '.join(c.errors)}")
    for name, m in metrics.items():
        line = f"{name:<34} {m['value']:.6g} {m['unit']}"
        if not args.trace and name in detail["summaries"]:
            s = detail["summaries"][name]
            quartiles = f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}"
            if name in RATES:
                line += (f"  (total over {s['n']} commands; "
                         f"per command median {s['median']:.6g}, {quartiles})")
            else:
                line += f"  (median of {s['n']}; {quartiles})"
        print(line)
    print(f"error_rate {detail['error_rate']:.6g} ({session.failed}/{session.attempted}); "
          f"record: {detail_path.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
