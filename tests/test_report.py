import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reachrl.agents import TrainingLog, training_log_to_csv
from reachrl.errors import ValidationError
from reachrl.evaluation import EpisodeRecord, append_benchmark_row, log_episode
from reachrl.experiment import create_experiment, seed_dir
from reachrl.ioutil import atomic_write_text
from reachrl.report import (
    Series,
    emit_benchmark_comparison,
    emit_episode_panels,
    emit_training_curves,
    render_episode_panels,
    render_line_chart,
    series_from_csv,
    series_to_csv,
    smooth,
    training_curve_series,
)

from test_evaluation import make_row, still_policy


def make_series(ys, label="s"):
    return Series(label, np.arange(len(ys), dtype=float), np.asarray(ys, dtype=float))


def test_smooth_window_one_is_identity():
    series = make_series([3.0, 1.0, 4.0, 1.0, 5.0])
    out = smooth(series, 1)
    np.testing.assert_array_equal(out.ys, series.ys)
    np.testing.assert_array_equal(out.xs, series.xs)


def test_smooth_constant_series_unchanged():
    series = make_series([2.5] * 10)
    np.testing.assert_array_equal(smooth(series, 4).ys, series.ys)


def test_smooth_two_point_edge_rule():
    out = smooth(make_series([0.0, 1.0]), 2)
    np.testing.assert_allclose(out.ys, [0.5, 0.5])


def test_smooth_full_window_is_global_mean():
    rng = np.random.default_rng(0)
    ys = rng.normal(size=31)
    out = smooth(make_series(ys), 31)
    np.testing.assert_allclose(out.ys, np.full(31, ys.mean()), atol=1e-12)
    assert abs(out.ys.mean() - ys.mean()) < 1e-12


def test_smooth_preserves_length_and_x():
    rng = np.random.default_rng(1)
    ys = rng.normal(size=57)
    series = make_series(ys)
    for window in (1, 2, 5, 50, 57, 120):
        out = smooth(series, window)
        assert len(out.ys) == 57
        np.testing.assert_array_equal(out.xs, series.xs)


def test_series_rejects_non_increasing_x():
    with pytest.raises(ValidationError):
        Series("bad", np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def make_training_workspace(tmp_path, n_seeds, n_episodes=60):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", n_episodes * 100, n_seeds)
    rng = np.random.default_rng(0)
    for k in range(n_seeds):
        log = TrainingLog()
        for e in range(n_episodes):
            log.add((e + 1) * 100, e + 1, float(rng.normal() - k), float(rng.uniform(0, 0.3)))
        run_dir = seed_dir(tmp_path, record.exp_id, k)
        atomic_write_text(run_dir / "training_log.csv", training_log_to_csv(log))
        atomic_write_text(run_dir / "run_meta.json", '{"seed": %d, "wall_time_s": 1.0, "status": "complete"}\n' % k)
    return record


def test_training_curves_polyline_count(tmp_path):
    record = make_training_workspace(tmp_path, n_seeds=3)
    svg_path, csv_path = emit_training_curves(tmp_path, record.exp_id, window=5)
    root = ET.fromstring(svg_path.read_text())
    assert root.get("viewBox")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 4  # 3 seeds + mean


def test_training_curves_single_seed_mean_coincides(tmp_path):
    record = make_training_workspace(tmp_path, n_seeds=1)
    series = training_curve_series(tmp_path, record.exp_id, window=5)
    assert [s.label for s in series] == ["seed_0", "mean"]
    np.testing.assert_array_equal(series[0].ys, series[1].ys)
    np.testing.assert_array_equal(series[0].xs, series[1].xs)


def test_training_curves_sidecar_replots_byte_identical(tmp_path):
    record = make_training_workspace(tmp_path, n_seeds=2)
    svg_path, csv_path = emit_training_curves(tmp_path, record.exp_id, window=7)
    series = series_from_csv(csv_path.read_text())
    replot = render_line_chart(
        series,
        title=f"experiment {record.exp_id}: smoothed episode return (window 7)",
        xlabel="timestep",
        ylabel="episode return",
        emphasize="mean",
    )
    assert replot.encode() == svg_path.read_bytes()


def test_series_csv_round_trip(tmp_path):
    series = [make_series([0.5, -1.25, 3.0], "a"), make_series([7.0, 0.0, -0.0], "b")]
    text = series_to_csv(series)
    parsed = series_from_csv(text)
    assert series_to_csv(parsed) == text
    assert [s.label for s in parsed] == ["a", "b"]
    np.testing.assert_array_equal(parsed[0].ys, series[0].ys)


def test_emit_is_deterministic(tmp_path):
    record = make_training_workspace(tmp_path, n_seeds=2)
    svg_a, _ = emit_training_curves(tmp_path, record.exp_id, window=3)
    first = svg_a.read_bytes()
    svg_b, _ = emit_training_curves(tmp_path, record.exp_id, window=3)
    assert svg_b.read_bytes() == first


def test_no_completed_seed_plot_is_error(tmp_path):
    record = create_experiment(tmp_path, "random", "reach-planar-v1", 100, 1)
    with pytest.raises(ValidationError):
        emit_training_curves(tmp_path, record.exp_id)


def test_episode_panels_inventory(tmp_path):
    log = log_episode(still_policy(9, 6), "reach-v1", seed=1)
    svg = render_episode_panels(log)
    root = ET.fromstring(svg)
    texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
    for title in ("joint angles", "ee vs goal (x)", "ee vs goal (y)", "ee vs goal (z)",
                  "reward", "distance", "velocity", "acceleration"):
        assert title in texts
    svg_path = emit_episode_panels(log, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == [svg_path.name] == ["episode_panels.svg"]


def test_episode_panels_stay_still_flat_lines(tmp_path):
    log = log_episode(still_policy(9, 6), "reach-v1", seed=2)
    assert np.all(log.velocities == 0.0) and np.all(log.accelerations == 0.0)
    assert log.distances[-1] == log.distances[0]
    svg = render_episode_panels(log)
    ET.fromstring(svg)  # well-formed


def test_benchmark_chart_one_bar(tmp_path):
    append_benchmark_row(tmp_path, make_row(1))
    svg_path, csv_path = emit_benchmark_comparison(tmp_path, [1], "mean_return")
    root = ET.fromstring(svg_path.read_text())
    rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
    assert len(rects) == 2  # background + one bar
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "exp_id,mean_return,std_return"
    assert len(lines) == 2


def test_benchmark_chart_two_bars_sorted(tmp_path):
    append_benchmark_row(tmp_path, make_row(2, 2.0))
    append_benchmark_row(tmp_path, make_row(1, 1.0))
    svg_path, csv_path = emit_benchmark_comparison(tmp_path, [2, 1], "success_ratio_20mm")
    root = ET.fromstring(svg_path.read_text())
    rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
    assert len(rects) == 3
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "exp_id,success_ratio_20mm"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]
    # ratio metric clamps the axis to [0, 1]
    texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
    assert "1" in texts and "0" in texts


def test_benchmark_chart_unknown_metric_or_exp(tmp_path):
    append_benchmark_row(tmp_path, make_row(1))
    with pytest.raises(ValidationError, match="numeric columns"):
        emit_benchmark_comparison(tmp_path, [1], "wat")
    with pytest.raises(ValidationError, match="available"):
        emit_benchmark_comparison(tmp_path, [1, 99], "mean_return")
