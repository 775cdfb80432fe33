"""Figures from logs: training curves, episode panels, benchmark bars.

Everything is emitted as standalone SVG 1.1 (no plotting window, no raster
dependencies) next to a CSV holding exactly the plotted values: the curves
and bars write theirs as a ``<figure>.data.csv`` sidecar, and the episode
panels plot the ``episode_eval.csv`` that evaluation writes.  Rendering is
a pure function of its inputs, so output bytes are deterministic and safe to
diff in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .evaluation import (
    BENCHMARK_NUMERIC_METRICS,
    EpisodeLog,
    read_benchmark,
)
from .experiment import completed_seeds, exp_dir, load_experiment, load_training_log, seed_runs
from .ioutil import atomic_write_text, csv_rows, csv_text

DEFAULT_SMOOTHING_WINDOW = 50

_PALETTE = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")


@dataclass
class Series:
    label: str
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ValidationError(f"series {self.label!r}: x/y shape mismatch")
        if len(self.xs) and np.any(np.diff(self.xs) <= 0):
            raise ValidationError(f"series {self.label!r}: x values must strictly increase")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValidationError(f"series {self.label!r}: non-finite values")


def smooth(series: Series, window: int) -> Series:
    """Centered rolling mean with a shrinking window at the edges.

    Point k averages the min(window, n) indices nearest to k (distance ties
    prefer the earlier point), so length, x values and the end points' count
    of contributing samples follow the window symmetrically.
    """
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    ys = series.ys
    n = len(ys)
    m = min(window, n)
    out = np.empty(n)
    for k in range(n):
        left = min(max(k - m // 2, 0), n - m)
        out[k] = ys[left : left + m].mean()
    return Series(label=series.label, xs=series.xs.copy(), ys=out)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    """Tiny deterministic SVG builder."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" version="1.1">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#444444", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def polyline(self, points, stroke, width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}" '
            f'points="{coords}"/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}"/>'
        )

    def text(self, x, y, content, size=11, anchor="start", fill="#222222"):
        content = (
            str(content).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{content}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = max(abs(lo), 1.0) * 0.5
    return lo - pad, lo + pad


def _draw_axes(canvas, box, x_range, y_range, xlabel, ylabel):
    x0, y0, x1, y1 = box  # left, top, right, bottom in canvas coords
    canvas.line(x0, y1, x1, y1)
    canvas.line(x0, y0, x0, y1)
    for i in range(5):
        f = i / 4
        vx = x_range[0] + f * (x_range[1] - x_range[0])
        vy = y_range[0] + f * (y_range[1] - y_range[0])
        px = x0 + f * (x1 - x0)
        py = y1 - f * (y1 - y0)
        canvas.line(px, y1, px, y1 + 4)
        canvas.text(px, y1 + 16, _tick_label(vx), size=10, anchor="middle")
        canvas.line(x0 - 4, py, x0, py)
        canvas.text(x0 - 6, py + 3, _tick_label(vy), size=10, anchor="end")
    canvas.text((x0 + x1) / 2, y1 + 30, xlabel, anchor="middle")
    canvas.text(x0, y0 - 8, ylabel, anchor="start")


def render_line_chart(
    series_list: list[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    emphasize: str | None = None,
    size: tuple[int, int] = (640, 400),
) -> str:
    """One polyline per series, shared axes, legend and title."""
    if not series_list:
        raise ValidationError("nothing to plot")
    canvas = _Canvas(*size)
    box = (60.0, 34.0, size[0] - 20.0, size[1] - 44.0)
    xs_all = np.concatenate([s.xs for s in series_list])
    ys_all = np.concatenate([s.ys for s in series_list])
    x_range = _axis_range(float(xs_all.min()), float(xs_all.max()))
    y_range = _axis_range(float(ys_all.min()), float(ys_all.max()))
    canvas.text(size[0] / 2, 18, title, size=13, anchor="middle")
    _draw_axes(canvas, box, x_range, y_range, xlabel, ylabel)

    def px(v):
        return box[0] + (v - x_range[0]) / (x_range[1] - x_range[0]) * (box[2] - box[0])

    def py(v):
        return box[3] - (v - y_range[0]) / (y_range[1] - y_range[0]) * (box[3] - box[1])

    for i, series in enumerate(series_list):
        bold = series.label == emphasize
        color = "#000000" if bold else _PALETTE[i % len(_PALETTE)]
        points = [(px(x), py(y)) for x, y in zip(series.xs, series.ys)]
        canvas.polyline(points, stroke=color, width=3.0 if bold else 1.5)
        canvas.text(box[2] - 120, box[1] + 14 * (i + 1), series.label, size=10, fill=color)
    return canvas.render()


def render_bar_chart(
    labels: list[str],
    values: list[float],
    whiskers: list[float] | None,
    title: str,
    ylabel: str,
    y_limits: tuple[float, float] | None = None,
    size: tuple[int, int] = (640, 400),
) -> str:
    canvas = _Canvas(*size)
    box = (60.0, 34.0, size[0] - 20.0, size[1] - 44.0)
    lo = min(values + [0.0])
    hi = max(values + [0.0])
    if whiskers is not None:
        lo = min([lo] + [v - w for v, w in zip(values, whiskers)])
        hi = max([hi] + [v + w for v, w in zip(values, whiskers)])
    y_range = y_limits or _axis_range(lo, hi)
    canvas.text(size[0] / 2, 18, title, size=13, anchor="middle")
    _draw_axes(canvas, box, (0.0, float(len(values))), y_range, "experiment", ylabel)

    def py(v):
        v = min(max(v, y_range[0]), y_range[1])
        return box[3] - (v - y_range[0]) / (y_range[1] - y_range[0]) * (box[3] - box[1])

    slot = (box[2] - box[0]) / len(values)
    zero = py(0.0)
    for i, (label, value) in enumerate(zip(labels, values)):
        x = box[0] + slot * (i + 0.2)
        width = slot * 0.6
        top = py(value)
        canvas.rect(x, min(top, zero), width, abs(zero - top), fill=_PALETTE[i % len(_PALETTE)])
        canvas.text(x + width / 2, box[3] + 16, label, size=10, anchor="middle")
        if whiskers is not None:
            cx = x + width / 2
            canvas.line(cx, py(value - whiskers[i]), cx, py(value + whiskers[i]), stroke="#222222", width=1.5)
            canvas.line(cx - 5, py(value - whiskers[i]), cx + 5, py(value - whiskers[i]), stroke="#222222", width=1.5)
            canvas.line(cx - 5, py(value + whiskers[i]), cx + 5, py(value + whiskers[i]), stroke="#222222", width=1.5)
    return canvas.render()


# training_curves.data.csv's columns.
CURVES_DATA_COLUMNS = (
    ("series", str, None), ("timestep", float, "(-inf, inf)"), ("episode_return", float, "(-inf, inf)"),
)


def series_to_csv(series_list: list[Series]) -> str:
    return csv_text(
        [name for name, _, _ in CURVES_DATA_COLUMNS],
        ([s.label, x, y] for s in series_list for x, y in zip(s.xs.tolist(), s.ys.tolist())),
    )


def series_from_csv(text: str) -> list[Series]:
    points: dict[str, tuple[list, list]] = {}  # labels in order of first appearance
    for label, x, y in csv_rows(text, CURVES_DATA_COLUMNS, "plot data"):
        xs, ys = points.setdefault(label, ([], []))
        xs.append(x)
        ys.append(y)
    return [Series(label, np.array(xs), np.array(ys)) for label, (xs, ys) in points.items()]


def training_curve_series(workspace: Path, exp_id: int, window: int) -> list[Series]:
    """Smoothed per-seed curves plus the across-seed mean (label 'mean')."""
    runs = seed_runs(workspace, load_experiment(workspace, exp_id))
    curves = []
    for k in completed_seeds(exp_id, runs):
        log = load_training_log(workspace, exp_id, k)
        if not log.rows:
            raise ValidationError(f"experiment {exp_id} seed {k} logged no episodes")
        raw = Series(
            label=f"seed_{k}",
            xs=np.array([r.timestep for r in log.rows], dtype=float),
            ys=np.array([r.episode_return for r in log.rows]),
        )
        curves.append(smooth(raw, window))
    n = min(len(c.ys) for c in curves)
    curves = [Series(c.label, c.xs[:n], c.ys[:n]) for c in curves]
    mean = Series(
        label="mean",
        xs=curves[0].xs.copy(),
        ys=np.mean([c.ys for c in curves], axis=0),
    )
    return curves + [mean]


def emit_training_curves(
    workspace: Path, exp_id: int, window: int = DEFAULT_SMOOTHING_WINDOW
) -> tuple[Path, Path]:
    """Write training_curves.svg and its data sidecar under the experiment dir."""
    series_list = training_curve_series(workspace, exp_id, window)
    svg = render_line_chart(
        series_list,
        title=f"experiment {exp_id}: smoothed episode return (window {window})",
        xlabel="timestep",
        ylabel="episode return",
        emphasize="mean",
    )
    out_dir = exp_dir(workspace, exp_id)
    svg_path = out_dir / "training_curves.svg"
    csv_path = out_dir / "training_curves.data.csv"
    atomic_write_text(svg_path, svg)
    atomic_write_text(csv_path, series_to_csv(series_list))
    return svg_path, csv_path


def render_episode_panels(log: EpisodeLog) -> str:
    """Multi-panel figure with every logged per-step quantity."""
    steps = np.arange(len(log), dtype=float)
    panels: list[tuple[str, list[Series]]] = []
    panels.append(
        ("joint angles", [Series(f"q{j + 1}", steps, log.angles[:, j]) for j in range(log.n_joints)])
    )
    for i, axis in enumerate("xyz"):
        panels.append(
            (
                f"ee vs goal ({axis})",
                [Series("ee", steps, log.ee[:, i]), Series("goal", steps, log.goal[:, i])],
            )
        )
    panels.append(("reward", [Series("reward", steps, log.rewards)]))
    panels.append(("distance", [Series("distance_m", steps, log.distances)]))
    panels.append(("velocity", [Series("velocity", steps, log.velocities)]))
    panels.append(("acceleration", [Series("acceleration", steps, log.accelerations)]))

    cols, panel_w, panel_h = 2, 360, 220
    rows = (len(panels) + cols - 1) // cols
    canvas = _Canvas(cols * panel_w, rows * panel_h + 24)
    canvas.parts.append(
        f'<text x="{canvas.width / 2:.2f}" y="16" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" fill="#222222">episode metadata ({log.env_id})</text>'
    )
    for i, (title, series_list) in enumerate(panels):
        inner = render_line_chart(
            series_list, title=title, xlabel="step", ylabel="",
            size=(panel_w, panel_h),
        )
        body = inner.split("\n", 1)[1].rsplit("</svg>", 1)[0].rstrip("\n")
        tx = (i % cols) * panel_w
        ty = 24 + (i // cols) * panel_h
        canvas.parts.extend((f'<g transform="translate({tx},{ty})">', body, "</g>"))
    return canvas.render()


def emit_episode_panels(log: EpisodeLog, out_dir: Path) -> Path:
    """Write episode_panels.svg, whose data is the episode_eval.csv beside it."""
    svg_path = Path(out_dir) / "episode_panels.svg"
    atomic_write_text(svg_path, render_episode_panels(log))
    return svg_path


def emit_benchmark_comparison(
    workspace: Path, exp_ids: list[int], metric: str
) -> tuple[Path, Path]:
    """Bar chart of one benchmark metric for the given experiments.

    Bars are ordered by exp_id; mean_return bars carry std_return whiskers;
    success-ratio axes are clamped to [0, 1].
    """
    if metric not in BENCHMARK_NUMERIC_METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; numeric columns: "
            f"{', '.join(BENCHMARK_NUMERIC_METRICS)}"
        )
    rows = {row["exp_id"]: row for row in read_benchmark(workspace)}
    missing = sorted(set(exp_ids) - set(rows))
    if missing:
        raise ValidationError(
            f"experiments {missing} not in benchmark.csv; available: {sorted(rows)}"
        )
    exp_ids = sorted(set(exp_ids))
    values = [float(rows[i][metric]) for i in exp_ids]
    whiskers = [float(rows[i]["std_return"]) for i in exp_ids] if metric == "mean_return" else None
    y_limits = (0.0, 1.0) if metric.startswith("success_ratio") else None
    svg = render_bar_chart(
        labels=[f"exp {i}" for i in exp_ids],
        values=values,
        whiskers=whiskers,
        title=f"benchmark: {metric}",
        ylabel=metric,
        y_limits=y_limits,
    )
    header = ["exp_id", metric] + (["std_return"] if whiskers is not None else [])
    columns = [exp_ids, values] + ([whiskers] if whiskers is not None else [])
    figures = Path(workspace) / "figures"
    svg_path = figures / f"benchmark_{metric}.svg"
    csv_path = figures / f"benchmark_{metric}.data.csv"
    atomic_write_text(svg_path, svg)
    atomic_write_text(csv_path, csv_text(header, zip(*columns)))
    return svg_path, csv_path
