"""Kinematic model of a serial revolute arm.

Two models ship with the package: a 6-DOF chain with WidowX-like proportions
(the dimensions are stand-ins, not measurements of any physical robot) and a
2-DOF planar arm used for fast desk-scale experiments.

Geometry convention: each joint i contributes a translation by its
``link_offset`` (from the previous joint frame to this joint frame) followed
by a rotation of ``angle_i`` about its local ``axis``.  The end-effector is
the model's ``tool`` point expressed in the last joint frame:

    ee = o_1 + R_1 (o_2 + R_2 (... o_n + R_n (tool)))

The module is kinematic only: no torques, gravity or contact.  ArmModel is
immutable and shareable across threads.  There is no arm state object: the
functions map joint angles to angles or positions, take one (n_joints,)
vector or a (B, n_joints) batch, and never mutate their inputs.  Forward
kinematics runs on Python floats for one vector and on (B,) columns for a
batch, with the same bits per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

_AXIS_TOL = 1e-12


@dataclass(frozen=True)
class JointSpec:
    """One revolute joint: rotation axis, link to it, limits, per-step cap."""

    axis: tuple[float, float, float]
    link_offset: tuple[float, float, float]
    lower_limit: float
    upper_limit: float
    max_step: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > _AXIS_TOL:
            raise ValidationError(f"joint axis must be a unit vector, got {self.axis}")
        if not np.all(np.isfinite(self.link_offset)):
            raise ValidationError(f"link_offset must be finite, got {self.link_offset}")
        if not self.lower_limit < self.upper_limit:
            raise ValidationError(
                f"joint limits must satisfy lower < upper, got "
                f"[{self.lower_limit}, {self.upper_limit}]"
            )
        if not self.max_step > 0:
            raise ValidationError(f"max_step must be positive, got {self.max_step}")


@dataclass(frozen=True)
class ArmModel:
    """An ordered chain of revolute joints plus the terminal tool point."""

    name: str
    joints: tuple[JointSpec, ...]
    tool: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.joints) not in (2, 6):
            raise ValidationError(
                f"supported joint counts are 2 and 6, got {len(self.joints)}"
            )
        if not np.all(np.isfinite(self.tool)):
            raise ValidationError(f"tool point must be finite, got {self.tool}")

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    # The cached values below are shared and read-only; callers must not mutate them.
    @cached_property
    def lower_limits(self) -> np.ndarray:
        return np.array([j.lower_limit for j in self.joints])

    @cached_property
    def upper_limits(self) -> np.ndarray:
        return np.array([j.upper_limit for j in self.joints])

    @cached_property
    def max_steps(self) -> np.ndarray:
        return np.array([j.max_step for j in self.joints])

    @cached_property
    def min_steps(self) -> np.ndarray:
        """-max_steps: each joint's most negative command in one step."""
        return -self.max_steps

    @cached_property
    def chain(self) -> tuple[tuple[float, ...], ...]:
        """The tool point, then per joint, the last first, its axis and link offset."""
        joints = (tuple(map(float, j.axis + j.link_offset)) for j in reversed(self.joints))
        return (tuple(map(float, self.tool)), *joints)

    @cached_property
    def chain_arrays(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """``chain`` as 0-d arrays, which multiply an array faster than floats do."""
        return tuple(tuple(np.array(v) for v in joint) for joint in self.chain)

    def reach_radius(self) -> float:
        """Upper bound on the end-effector distance from the base."""
        total = sum(np.linalg.norm(j.link_offset) for j in self.joints)
        return float(total + np.linalg.norm(self.tool))


def forward_kinematics(model: ArmModel, angles: np.ndarray) -> np.ndarray:
    """End-effector position: (n_joints,) angles give (3,), a (B, n_joints)
    batch gives (B, 3).

    Applies Rodrigues' formula, v cos + (k x v) sin + k (k . v)(1 - cos), joint
    by joint to the coordinates x, y, z: floats for one set of angles, (B,)
    columns for a batch, with the same operations in the same order, so a row's
    bits equal those of its 1-D call.  k . v sums x k0 + y k1 + z k2 left to
    right, where a BLAS matmul may not: on coordinate axes (both shipped arms)
    every term is exact and the two agree bit for bit; on general axes half of
    all points differ from a matmul's in the last bit (at most 4e-16).  Raises
    ValidationError on a shape mismatch or any out-of-limit or NaN angle.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim not in (1, 2) or angles.shape[-1] != model.n_joints:
        raise ValidationError(
            f"expected {model.n_joints} joint angles or a (B, {model.n_joints}) batch, "
            f"got shape {angles.shape}"
        )
    ok = (model.lower_limits <= angles) & (angles <= model.upper_limits)  # False for NaN
    if not ok.all():
        rows = np.flatnonzero(~ok.all(axis=-1)).tolist()
        raise ValidationError(f"angle rows {rows} violate joint limits")
    columns = np.ascontiguousarray(angles.T[::-1])  # a row per joint, the last first
    cos, sin = np.cos(columns), np.sin(columns)
    terms = cos, sin, 1.0 - cos
    if angles.ndim == 1:  # a numpy call costs about a microsecond on a few numbers
        terms = [t.tolist() for t in terms]
    (x, y, z), *joints = model.chain if angles.ndim == 1 else model.chain_arrays
    for c, s, omc, (k0, k1, k2, o0, o1, o2) in zip(*terms, joints):
        r0 = x * c + (z * k1 - y * k2) * s
        r1 = y * c + (x * k2 - z * k0) * s
        r2 = z * c + (y * k0 - x * k1) * s
        along = (x * k0 + y * k1 + z * k2) * omc
        x = o0 + (r0 + k0 * along)
        y = o1 + (r1 + k1 * along)
        z = o2 + (r2 + k2 * along)
    point = np.array([x, y, z])
    return point if angles.ndim == 1 else point.T.copy()


def clamp_to_limits(model: ArmModel, angles: np.ndarray) -> np.ndarray:
    """Clamp each component into its joint's [lower, upper] interval.

    Takes one (n_joints,) vector or a (B, n_joints) batch.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim not in (1, 2) or angles.shape[-1] != model.n_joints:
        raise ValidationError(
            f"expected {model.n_joints} joint angles, got shape {angles.shape}"
        )
    # minimum(maximum()) gives np.clip's bits in a third of its time.
    return np.minimum(np.maximum(angles, model.lower_limits), model.upper_limits)


def step_joint_angles(model: ArmModel, angles: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Angles after commanding ``delta``: each component capped at its joint's
    max_step, the result clamped into the joint limits.

    Takes one (n_joints,) command or a (B, n_joints) batch, shaped like
    ``angles``.  Raises ValidationError on a shape mismatch or a non-finite
    command.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != np.shape(angles) or delta.shape[-1:] != (model.n_joints,):
        raise ValidationError(
            f"expected {model.n_joints} joint deltas, got shape {delta.shape}"
        )
    if not np.isfinite(delta).all():
        raise ValidationError(f"joint command must be finite, got {delta.tolist()}")
    stepped = np.minimum(np.maximum(delta, model.min_steps), model.max_steps)
    return clamp_to_limits(model, angles + stepped)


_X = (1.0, 0.0, 0.0)
_Y = (0.0, 1.0, 0.0)
_Z = (0.0, 0.0, 1.0)

DEFAULT_MAX_STEP = 0.05  # rad per control step
_SIX_DOF_LIMIT = 2.6  # rad, symmetric

# yaw-pitch-pitch-pitch-roll-pitch chain; offsets in meters.
_SIX_DOF_CHAIN = (
    (_Z, (0.0, 0.0, 0.125)),
    (_Y, (0.0, 0.0, 0.045)),
    (_Y, (0.05, 0.0, 0.14)),
    (_Y, (0.14, 0.0, 0.0)),
    (_X, (0.06, 0.0, 0.0)),
    (_Y, (0.045, 0.0, 0.0)),
)


def widowx_arm() -> ArmModel:
    """6-DOF arm with WidowX-like proportions (declared, not measured)."""
    joints = tuple(
        JointSpec(
            axis=axis,
            link_offset=offset,
            lower_limit=-_SIX_DOF_LIMIT,
            upper_limit=_SIX_DOF_LIMIT,
            max_step=DEFAULT_MAX_STEP,
        )
        for axis, offset in _SIX_DOF_CHAIN
    )
    return ArmModel(name="widowx6", joints=joints, tool=(0.0, 0.0, 0.0))


def planar_arm() -> ArmModel:
    """2-DOF planar arm (links 0.20 m and 0.15 m, motion in the xy-plane)."""
    joints = (
        JointSpec(_Z, (0.0, 0.0, 0.0), -math.pi, math.pi, DEFAULT_MAX_STEP),
        JointSpec(_Z, (0.20, 0.0, 0.0), -math.pi, math.pi, DEFAULT_MAX_STEP),
    )
    return ArmModel(name="planar2", joints=joints, tool=(0.15, 0.0, 0.0))
