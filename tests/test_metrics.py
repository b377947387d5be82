import math

import numpy as np
import pytest

from axisforge.camera import CameraIntrinsics, Pose, rot_z
from axisforge.metrics import (
    MetricThresholds,
    MetricsReport,
    add_metric,
    cuboid_model,
    evaluate_pair,
    evaluate_suite,
    reproj_metric,
    reproj_threshold_px,
    rotation_geodesic,
)

K = CameraIntrinsics(f_x=100.0, f_y=100.0, c_x=64.0, c_y=64.0, width=128, height=128)
POSE = Pose(R=rot_z(20.0), T=np.array([0.1, -0.2, 5.0]))


def test_cuboid_model_geometry():
    model = cuboid_model()
    assert model.points.shape == (14, 3)
    assert math.isclose(model.diameter, 2.0 * math.sqrt(3.0))
    with pytest.raises(ValueError):
        cuboid_model().__class__(points=model.points, diameter=1.0)


def test_add_metric_identity_and_translation():
    model = cuboid_model()
    assert add_metric(POSE, POSE, model) == 0.0
    shifted = Pose(R=POSE.R, T=POSE.T + np.array([0.0, 0.0, 0.3]))
    assert math.isclose(add_metric(POSE, shifted, model), 0.3, rel_tol=1e-12)


def test_reproj_metric_identity_and_monotonicity():
    model = cuboid_model()
    assert reproj_metric(POSE, POSE, model, K) == 0.0
    small = Pose(R=rot_z(1.0) @ POSE.R, T=POSE.T)
    large = Pose(R=rot_z(10.0) @ POSE.R, T=POSE.T)
    assert reproj_metric(POSE, small, model, K) < reproj_metric(POSE, large, model, K)


def test_rotation_geodesic_known_angles():
    assert math.isclose(rotation_geodesic(np.eye(3), rot_z(30.0)), 30.0, abs_tol=1e-9)
    assert math.isclose(rotation_geodesic(rot_z(10.0), rot_z(10.0)), 0.0, abs_tol=1e-6)
    assert math.isclose(rotation_geodesic(np.eye(3), rot_z(180.0)), 180.0, abs_tol=1e-6)


def test_evaluate_pair_thresholds_strict():
    model = cuboid_model()
    rec = evaluate_pair(POSE, POSE, model, K, MetricThresholds())
    assert rec["add_pass"] and rec["reproj_pass"]
    assert rec["rot_deg"] == 0.0
    # exact-threshold values must not pass (strict inequality)
    rec = evaluate_pair(POSE, POSE, model, K, MetricThresholds(add_frac=0.0, reproj_px=0.0))
    assert not rec["add_pass"] and not rec["reproj_pass"]


def test_evaluate_suite_failed_records_count_in_denominator():
    model = cuboid_model()
    flipped = Pose(R=POSE.R @ rot_z(180.0), T=POSE.T)
    report = evaluate_suite([(POSE, POSE), (POSE, flipped)], model, K, n_failed=2)
    assert report.n_total == 4
    assert report.add_rate == 0.25
    agg = report.aggregates()
    assert agg["n_failed"] == 2
    assert agg["n_total"] == 4


def test_evaluate_suite_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_suite([], cuboid_model(), K)


def test_summary_csv_shape():
    model = cuboid_model()
    report = evaluate_suite([(POSE, POSE)], model, K)
    lines = report.summary_csv().strip().split("\n")
    assert len(lines) == 2
    assert len(lines[0].split(",")) == len(lines[1].split(","))
    assert lines[0].split(",")[0] == "n_total"


def test_empty_report_rates():
    report = MetricsReport(n_failed=3)
    assert report.add_rate == 0.0
    assert report.reproj_rate == 0.0
    assert math.isnan(report.aggregates()["median_rot_deg"])


def test_reproj_threshold_scales_with_focal_length():
    from axisforge.dataset import default_intrinsics

    assert reproj_threshold_px(K) == 15.0
    assert reproj_threshold_px(default_intrinsics(32)) == 3.75
    assert reproj_threshold_px(default_intrinsics(24)) == 2.8125
