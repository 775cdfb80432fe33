import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from reachrl.arm import (
    ArmModel,
    JointSpec,
    clamp_to_limits,
    forward_kinematics,
    planar_arm,
    step_joint_angles,
    widowx_arm,
)
from reachrl.envs import make_env
from reachrl.errors import ValidationError


def fk_oracle(model, angles):
    """Independent oracle: chain explicit 4x4 homogeneous transforms."""
    transform = np.eye(4)
    for spec, angle in zip(model.joints, angles):
        translation = np.eye(4)
        translation[:3, 3] = spec.link_offset
        rotation = np.eye(4)
        rotation[:3, :3] = Rotation.from_rotvec(np.asarray(spec.axis) * angle).as_matrix()
        transform = transform @ translation @ rotation
    return (transform @ np.array([*model.tool, 1.0]))[:3]


def random_angles(model, rng):
    return rng.uniform(model.lower_limits, model.upper_limits)


def fk_matmul_reference(model, angles):
    """Rodrigues' formula on (B, 9) numpy blocks, with a BLAS matmul for
    k . v: the formulation whose bits the per-coordinate FK must keep on
    coordinate axes."""
    batch = np.asarray(angles, dtype=float).reshape(-1, model.n_joints)
    axes = [np.array(j.axis, dtype=float) for j in model.joints]
    cross_weights = np.array([[k[1], k[2], k[0], k[2], k[0], k[1]] for k in axes])
    columns = np.array([0, 1, 2, 2, 0, 1, 1, 2, 0])
    cos, sin = np.cos(batch), np.sin(batch)
    one_minus_cos = 1.0 - cos
    weights = np.empty(batch.shape + (9,))
    weights[:, :, :3] = cos[:, :, None]
    weights[:, :, 3:] = cross_weights
    point = np.array(model.tool, dtype=float)[None]
    for i in reversed(range(model.n_joints)):
        terms = point.take(columns, axis=1) * weights[:, i]
        rotated = terms[:, :3] + (terms[:, 3:6] - terms[:, 6:]) * sin[:, i : i + 1]
        along = (point @ axes[i])[:, None] * one_minus_cos[:, i : i + 1]
        point = np.array(model.joints[i].link_offset) + (rotated + axes[i] * along)
    return point if np.ndim(angles) == 2 else point[0]


def angles_with_edges(model, rng, n):
    """n random angle sets, the first three at the lower limits, the upper
    limits and zero."""
    angles = rng.uniform(model.lower_limits, model.upper_limits, size=(n, model.n_joints))
    angles[:3] = [model.lower_limits, model.upper_limits, np.zeros(model.n_joints)]
    return angles


def test_planar_fully_extended():
    np.testing.assert_allclose(
        forward_kinematics(planar_arm(), [0.0, 0.0]), [0.35, 0.0, 0.0], atol=1e-15
    )


def test_planar_rigid_rotation():
    np.testing.assert_allclose(
        forward_kinematics(planar_arm(), [math.pi / 2, 0.0]),
        [0.0, 0.35, 0.0],
        atol=1e-15,
    )


def test_six_dof_home_is_sum_of_link_offsets():
    model = widowx_arm()
    home = forward_kinematics(model, np.zeros(6))
    np.testing.assert_allclose(home, fk_oracle(model, np.zeros(6)), atol=1e-9)
    offsets = np.sum([j.link_offset for j in model.joints], axis=0)
    np.testing.assert_allclose(home, offsets, atol=1e-12)


@pytest.mark.parametrize("model", [planar_arm(), widowx_arm()], ids=lambda m: m.name)
def test_fk_matches_homogeneous_transform_oracle(model):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        angles = random_angles(model, rng)
        np.testing.assert_allclose(
            forward_kinematics(model, angles), fk_oracle(model, angles), atol=1e-9
        )


@pytest.mark.parametrize("model", [planar_arm(), widowx_arm()], ids=lambda m: m.name)
def test_reachability_bound(model):
    rng = np.random.default_rng(1)
    radius = model.reach_radius()
    for _ in range(200):
        ee = forward_kinematics(model, random_angles(model, rng))
        assert np.linalg.norm(ee) <= radius + 1e-12


def test_fk_rejects_wrong_length_and_out_of_limits():
    model = planar_arm()
    with pytest.raises(ValidationError):
        forward_kinematics(model, [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        forward_kinematics(model, [4.0, 0.0])
    with pytest.raises(ValidationError):
        forward_kinematics(model, [np.nan, 0.0])


@pytest.mark.parametrize("model", [planar_arm(), widowx_arm()], ids=lambda m: m.name)
def test_batched_fk_rows_equal_scalar_fk_bit_for_bit(model):
    # A row's result must not depend on the batch around it; with coordinate
    # axes every axis product and dot product is exact, so this holds bitwise.
    rng = np.random.default_rng(2)
    angles = rng.uniform(model.lower_limits, model.upper_limits, size=(500, model.n_joints))
    angles[:3] = [model.lower_limits, model.upper_limits, np.zeros(model.n_joints)]
    batch = forward_kinematics(model, angles)
    expected = np.array([forward_kinematics(model, row) for row in angles])
    assert batch.shape == (500, 3)
    assert batch.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", [planar_arm(), widowx_arm()], ids=lambda m: m.name)
def test_fk_equals_matmul_reference_bit_for_bit(model):
    # The shipped arms turn about coordinate axes, so every product with an
    # axis component and every sum in k . v is exact, whatever the order.
    rng = np.random.default_rng(3)
    angles = angles_with_edges(model, rng, 2000)
    for row in angles:
        assert forward_kinematics(model, row).tobytes() == fk_matmul_reference(model, row).tobytes()
    for size in (20, 50):
        for start in range(0, len(angles), size):
            batch = angles[start : start + size]
            assert forward_kinematics(model, batch).tobytes() == fk_matmul_reference(model, batch).tobytes()


def tilted_arm():
    """A 6-joint arm whose axes and offsets are not axis-aligned."""
    rng = np.random.default_rng(4)
    joints = []
    for _ in range(6):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        offset = rng.uniform(-0.1, 0.1, size=3)
        joints.append(JointSpec(tuple(axis.tolist()), tuple(offset.tolist()), -2.5, 2.5, 0.05))
    return ArmModel(name="tilted", joints=tuple(joints), tool=(0.01, -0.02, 0.03))


def test_tilted_arm_fk_matches_references_and_its_own_rows():
    # On general axes k . v may round differently from a matmul, so the
    # references hold to within rounding, and a batch row still equals its
    # 1-D call bit for bit.
    model = tilted_arm()
    angles = angles_with_edges(model, np.random.default_rng(5), 500)
    batch = forward_kinematics(model, angles)
    np.testing.assert_allclose(batch, fk_matmul_reference(model, angles), rtol=0, atol=1e-15)
    for row, out in zip(angles[:100], batch):
        np.testing.assert_allclose(out, fk_oracle(model, row), rtol=0, atol=1e-12)
        assert forward_kinematics(model, row).tobytes() == out.tobytes()


def test_batched_fk_rejects_wrong_shape_and_out_of_limit_rows():
    model = planar_arm()
    with pytest.raises(ValidationError):
        forward_kinematics(model, np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        forward_kinematics(model, np.zeros((2, 2, 2)))
    angles = np.zeros((4, 2))
    angles[2, 1] = 4.0
    with pytest.raises(ValidationError, match=r"rows \[2\]"):
        forward_kinematics(model, angles)
    angles[2, 1], angles[3, 0] = 0.0, np.nan
    with pytest.raises(ValidationError, match=r"rows \[3\]"):
        forward_kinematics(model, angles)


def test_clamp_identity_in_range():
    model = planar_arm()
    angles = np.array([0.3, -1.2])
    np.testing.assert_array_equal(clamp_to_limits(model, angles), angles)


def test_clamp_above_upper():
    model = planar_arm()
    out = clamp_to_limits(model, np.array([model.joints[0].upper_limit + 0.3, 0.0]))
    assert out[0] == model.joints[0].upper_limit


def test_clamp_far_below_lower():
    out = clamp_to_limits(planar_arm(), np.array([-10.0, -10.0]))
    np.testing.assert_allclose(out, [-math.pi, -math.pi])


def test_apply_zero_delta_is_identity():
    model = planar_arm()
    angles = np.array([0.2, -0.4])
    np.testing.assert_array_equal(step_joint_angles(model, angles, np.zeros(2)), angles)


def test_apply_caps_delta_at_max_step():
    model = planar_arm()
    new = step_joint_angles(model, np.zeros(2), np.array([1.0, -1.0]))
    np.testing.assert_allclose(new, [0.05, -0.05])


def test_apply_rejects_non_finite():
    model = planar_arm()
    with pytest.raises(ValidationError):
        step_joint_angles(model, np.zeros(2), np.array([np.nan, 0.0]))


def test_apply_does_not_mutate_input():
    model = planar_arm()
    angles = np.array([0.1, 0.1])
    before = angles.copy()
    step_joint_angles(model, angles, np.array([0.03, 0.03]))
    np.testing.assert_array_equal(angles, before)


def test_apply_recomputes_ee_consistently():
    # The env holds angles and end effector side by side; every step must
    # leave them consistent, bit for bit.
    model = widowx_arm()
    rng = np.random.default_rng(7)
    env = make_env("reach-v1", seed=7)
    for _ in range(50):
        env.step(rng.uniform(-1.0, 1.0, size=6))
        assert env.ee.tobytes() == forward_kinematics(model, env.angles).tobytes()


def test_step_joint_angles_batch_rows_match_apply():
    model = widowx_arm()
    rng = np.random.default_rng(9)
    angles = np.array([random_angles(model, rng) for _ in range(20)])
    delta = rng.uniform(-0.3, 0.3, size=angles.shape)
    stepped = step_joint_angles(model, angles, delta)
    for row, d, out in zip(angles, delta, stepped):
        assert out.tobytes() == step_joint_angles(model, row, d).tobytes()


def test_step_joint_angles_rejects_non_finite_and_mismatched_batches():
    model = planar_arm()
    with pytest.raises(ValidationError):
        step_joint_angles(model, np.zeros((3, 2)), np.array([[0.0, 0.0], [np.inf, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        step_joint_angles(model, np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        step_joint_angles(model, np.zeros((3, 6)), np.zeros((3, 6)))


@given(
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2),
    delta=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_apply_never_leaves_limits(angles, delta):
    model = planar_arm()
    angles = np.array(angles)
    new = step_joint_angles(model, angles, np.array(delta))
    assert np.all(new >= model.lower_limits)
    assert np.all(new <= model.upper_limits)
    assert np.all(np.abs(new - angles) <= model.max_steps + 1e-15)


def test_apply_is_deterministic():
    model = widowx_arm()
    angles = np.full(6, 0.3)
    delta = np.array([0.01, -0.02, 0.03, -0.04, 0.05, -0.06])
    a = step_joint_angles(model, angles, delta)
    b = step_joint_angles(model, angles, delta)
    assert a.tobytes() == b.tobytes()
    assert forward_kinematics(model, a).tobytes() == forward_kinematics(model, b).tobytes()


def test_model_invariants_enforced():
    bad_axis = dict(axis=(0.0, 0.0, 2.0), link_offset=(0, 0, 0), lower_limit=-1, upper_limit=1, max_step=0.1)
    with pytest.raises(ValidationError):
        JointSpec(**bad_axis)
    joint = JointSpec((0, 0, 1.0), (0, 0, 0), -1, 1, 0.1)
    with pytest.raises(ValidationError):
        ArmModel(name="three", joints=(joint, joint, joint))
    with pytest.raises(ValidationError):
        JointSpec((0, 0, 1.0), (0, 0, 0), 1, -1, 0.1)
    with pytest.raises(ValidationError):
        JointSpec((0, 0, 1.0), (0, 0, 0), -1, 1, 0.0)
