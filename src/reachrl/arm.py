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
vector or a (B, n_joints) batch, and never mutate their inputs.
"""

from __future__ import annotations

import json
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

    # The cached arrays below are shared, read-only views of the geometry;
    # callers must not mutate them.
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
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(j.axis) for j in self.joints)

    @cached_property
    def link_offsets(self) -> tuple[np.ndarray, ...]:
        return tuple(np.array(j.link_offset) for j in self.joints)

    @cached_property
    def tool_point(self) -> np.ndarray:
        return np.array(self.tool)

    @cached_property
    def cross_weights(self) -> np.ndarray:
        """Per joint (k1, k2, k0, k2, k0, k1): k x v is the first three times
        (v2, v0, v1) minus the last three times (v1, v2, v0)."""
        return np.array([[k[1], k[2], k[0], k[2], k[0], k[1]] for k in self.axes])

    def reach_radius(self) -> float:
        """Upper bound on the end-effector distance from the base."""
        total = sum(np.linalg.norm(j.link_offset) for j in self.joints)
        return float(total + np.linalg.norm(self.tool))


# Column order of one row of ``point[:, _ROTATE_COLUMNS]``: the point, then the
# two permutations whose weighted difference is the cross product k x point.
_ROTATE_COLUMNS = np.array([0, 1, 2, 2, 0, 1, 1, 2, 0])


def forward_kinematics(model: ArmModel, angles: np.ndarray) -> np.ndarray:
    """End-effector position: (n_joints,) angles give (3,), a (B, n_joints)
    batch gives (B, 3).

    Applies Rodrigues' formula, v cos + (k x v) sin + k (k . v)(1 - cos), joint
    by joint to all rows at once.  Rows do not depend on each other or on B,
    so a row's bits equal those of its 1-D call.  Raises ValidationError on a
    shape mismatch or any out-of-limit angle.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim not in (1, 2) or angles.shape[-1] != model.n_joints:
        raise ValidationError(
            f"expected {model.n_joints} joint angles or a (B, {model.n_joints}) batch, "
            f"got shape {angles.shape}"
        )
    batch = angles if angles.ndim == 2 else angles[None]
    bad = (batch < model.lower_limits) | (batch > model.upper_limits)
    if bad.any():
        rows = np.flatnonzero(bad.any(axis=1)).tolist()
        raise ValidationError(f"angle rows {rows} violate joint limits")
    cos = np.cos(batch)
    sin = np.sin(batch)
    one_minus_cos = 1.0 - cos
    # weights[:, i] times the columns above gives v cos, then the two cross terms
    weights = np.empty(batch.shape + (9,))
    weights[:, :, :3] = cos[:, :, None]
    weights[:, :, 3:] = model.cross_weights
    point = model.tool_point[None]
    for i in reversed(range(model.n_joints)):
        axis = model.axes[i]
        terms = point.take(_ROTATE_COLUMNS, axis=1) * weights[:, i]
        rotated = terms[:, :3] + (terms[:, 3:6] - terms[:, 6:]) * sin[:, i : i + 1]
        along = (point @ axis)[:, None] * one_minus_cos[:, i : i + 1]
        point = model.link_offsets[i] + (rotated + axis * along)
    return point if angles.ndim == 2 else point[0]


def clamp_to_limits(model: ArmModel, angles: np.ndarray) -> np.ndarray:
    """Clamp each component into its joint's [lower, upper] interval.

    Takes one (n_joints,) vector or a (B, n_joints) batch.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim not in (1, 2) or angles.shape[-1] != model.n_joints:
        raise ValidationError(
            f"expected {model.n_joints} joint angles, got shape {angles.shape}"
        )
    return np.clip(angles, model.lower_limits, model.upper_limits)


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
    if not np.all(np.isfinite(delta)):
        raise ValidationError(f"joint command must be finite, got {delta.tolist()}")
    stepped = np.clip(delta, -model.max_steps, model.max_steps)
    return clamp_to_limits(model, angles + stepped)


def model_to_dict(model: ArmModel) -> dict:
    return {
        "name": model.name,
        "joints": [
            {
                "axis": list(j.axis),
                "link_offset": list(j.link_offset),
                "lower_limit": j.lower_limit,
                "upper_limit": j.upper_limit,
                "max_step": j.max_step,
            }
            for j in model.joints
        ],
        "tool": list(model.tool),
    }


def model_from_dict(doc: dict) -> ArmModel:
    joints = tuple(
        JointSpec(
            axis=tuple(j["axis"]),
            link_offset=tuple(j["link_offset"]),
            lower_limit=float(j["lower_limit"]),
            upper_limit=float(j["upper_limit"]),
            max_step=float(j["max_step"]),
        )
        for j in doc["joints"]
    )
    return ArmModel(name=doc["name"], joints=joints, tool=tuple(doc.get("tool", (0.0, 0.0, 0.0))))


def model_to_json(model: ArmModel) -> str:
    return json.dumps(model_to_dict(model), indent=2) + "\n"


def model_from_json(text: str) -> ArmModel:
    return model_from_dict(json.loads(text))


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
