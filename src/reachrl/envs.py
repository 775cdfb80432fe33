"""The reach-task environment family.

An environment variant is a combination of action mode, observation mode and
reward type over one arm model.  Episodes are fixed-horizon: success never
terminates early, which keeps returns comparable across experiments.

Registered variants ("reach-v1".."reach-v8") use the 6-DOF arm; each has a
planar twin ("reach-planar-v1".."reach-planar-v8") on the 2-DOF arm for fast
desk-scale runs.

EnvInstance is the one env type.  It holds one episode, with 1-D angles, end
effector and goal, or B episodes stepped in lockstep, with a leading (B,)
axis on every array; the seed passed to ``reset`` chooses.  One ``step``
serves both shapes through the same decode, joint-step, reward and
observation functions, and a batch row carries exactly the bits of the
1-D episode with the same seed and actions.  Distinct EnvInstance objects may
run on distinct threads; one instance is single-owner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import arm
from .arm import ArmModel, planar_arm, step_joint_angles, widowx_arm
from .errors import LifecycleError, ValidationError


class ActionMode(str, Enum):
    RELATIVE_JOINT = "RelativeJoint"
    ABSOLUTE_JOINT = "AbsoluteJoint"


class ObsMode(str, Enum):
    JOINTS_GOAL = "JointsGoal"
    JOINTS_GOAL_EE = "JointsGoalEE"
    JOINTS_GOAL_VECTOR = "JointsGoalVector"


class RewardType(str, Enum):
    DENSE_SQUARED = "DenseSquared"
    DENSE_LINEAR = "DenseLinear"
    DELTA_DISTANCE = "DeltaDistance"
    SPARSE = "Sparse"


DEFAULT_EPISODE_LEN = 100
DEFAULT_SUCCESS_THRESHOLDS_MM = (5.0, 10.0, 20.0, 50.0)

# Axis-aligned goal boxes, meters.  Inside the reachable ball of each arm.
SIX_DOF_GOAL_BOX = ((0.10, -0.15, 0.05), (0.25, 0.15, 0.25))
PLANAR_GOAL_BOX = ((0.10, -0.15, 0.0), (0.25, 0.15, 0.0))


@dataclass(frozen=True)
class EnvConfig:
    """One reach-task variant: everything needed to instantiate an episode."""

    env_id: str
    action_mode: ActionMode
    obs_mode: ObsMode
    reward_type: RewardType
    episode_len: int
    goal_box: tuple[tuple[float, float, float], tuple[float, float, float]]
    success_thresholds_mm: tuple[float, ...]
    arm: ArmModel

    def __post_init__(self):
        if self.episode_len < 1:
            raise ValidationError(f"episode_len must be >= 1, got {self.episode_len}")
        thresholds = self.success_thresholds_mm
        if any(t <= 0 for t in thresholds) or any(
            a >= b for a, b in zip(thresholds, thresholds[1:])
        ):
            raise ValidationError(
                f"success thresholds must be positive and strictly increasing, "
                f"got {thresholds}"
            )
        lo, hi = (np.asarray(v, dtype=float) for v in self.goal_box)
        if np.any(lo > hi):
            raise ValidationError(f"goal_box low corner exceeds high corner: {self.goal_box}")
        corners = np.array(
            [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
        )
        radius = self.arm.reach_radius()
        if np.any(np.linalg.norm(corners, axis=1) > radius):
            raise ValidationError(
                f"goal_box must lie inside the arm's reachable ball (radius {radius:.3f} m)"
            )

    @property
    def n_joints(self) -> int:
        return self.arm.n_joints

    def obs_dim(self) -> int:
        extra = {ObsMode.JOINTS_GOAL: 3, ObsMode.JOINTS_GOAL_EE: 6, ObsMode.JOINTS_GOAL_VECTOR: 3}
        return self.n_joints + extra[self.obs_mode]

    @cached_property
    def joint_midpoints(self) -> np.ndarray:
        return 0.5 * (self.arm.lower_limits + self.arm.upper_limits)

    @cached_property
    def joint_half_ranges(self) -> np.ndarray:
        return 0.5 * (self.arm.upper_limits - self.arm.lower_limits)

    @cached_property
    def goal_low(self) -> np.ndarray:
        return np.array(self.goal_box[0], dtype=float)

    @cached_property
    def goal_high(self) -> np.ndarray:
        return np.array(self.goal_box[1], dtype=float)


def _make_registry() -> dict[str, EnvConfig]:
    combos = [
        (ActionMode.RELATIVE_JOINT, ObsMode.JOINTS_GOAL, RewardType.DENSE_SQUARED),
        (ActionMode.RELATIVE_JOINT, ObsMode.JOINTS_GOAL, RewardType.SPARSE),
        (ActionMode.RELATIVE_JOINT, ObsMode.JOINTS_GOAL_VECTOR, RewardType.DENSE_SQUARED),
        (ActionMode.RELATIVE_JOINT, ObsMode.JOINTS_GOAL_VECTOR, RewardType.SPARSE),
        (ActionMode.ABSOLUTE_JOINT, ObsMode.JOINTS_GOAL, RewardType.DENSE_SQUARED),
        (ActionMode.ABSOLUTE_JOINT, ObsMode.JOINTS_GOAL, RewardType.SPARSE),
        (ActionMode.ABSOLUTE_JOINT, ObsMode.JOINTS_GOAL_VECTOR, RewardType.DENSE_SQUARED),
        (ActionMode.ABSOLUTE_JOINT, ObsMode.JOINTS_GOAL_VECTOR, RewardType.SPARSE),
    ]
    six_dof = widowx_arm()
    planar = planar_arm()
    registry: dict[str, EnvConfig] = {}
    for i, (action_mode, obs_mode, reward_type) in enumerate(combos, start=1):
        registry[f"reach-v{i}"] = EnvConfig(
            env_id=f"reach-v{i}",
            action_mode=action_mode,
            obs_mode=obs_mode,
            reward_type=reward_type,
            episode_len=DEFAULT_EPISODE_LEN,
            goal_box=SIX_DOF_GOAL_BOX,
            success_thresholds_mm=DEFAULT_SUCCESS_THRESHOLDS_MM,
            arm=six_dof,
        )
        registry[f"reach-planar-v{i}"] = EnvConfig(
            env_id=f"reach-planar-v{i}",
            action_mode=action_mode,
            obs_mode=obs_mode,
            reward_type=reward_type,
            episode_len=DEFAULT_EPISODE_LEN,
            goal_box=PLANAR_GOAL_BOX,
            success_thresholds_mm=DEFAULT_SUCCESS_THRESHOLDS_MM,
            arm=planar,
        )
    return registry


_REGISTRY = _make_registry()


def registered_env_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def registry_lookup(env_id: str) -> EnvConfig:
    """Return the immutable config for a registered environment ID."""
    try:
        return _REGISTRY[env_id]
    except KeyError:
        valid = ", ".join(_REGISTRY)
        raise ValidationError(f"unknown env_id {env_id!r}; valid IDs: {valid}") from None


def decode_action(config: EnvConfig, action: np.ndarray, current_angles: np.ndarray) -> np.ndarray:
    """Turn a [-1, 1] action vector into a joint command in radians.

    RelativeJoint scales each component by the joint's max_step.  AbsoluteJoint
    maps the action onto the joint range and commands the difference from the
    current angles (the per-step cap is applied later by the arm).  Also takes
    a (B, n_joints) batch of actions and angles, one row per episode.
    """
    action = np.asarray(action, dtype=float)
    n = config.n_joints
    if action.ndim not in (1, 2) or action.shape[-1] != n:
        raise ValidationError(f"expected action of length {n}, got shape {action.shape}")
    action = np.clip(action, -1.0, 1.0)
    if config.action_mode is ActionMode.RELATIVE_JOINT:
        return action * config.arm.max_steps
    target = config.joint_midpoints + action * config.joint_half_ranges
    return target - current_angles


def compute_reward(config: EnvConfig, distance: float, prev_distance: float) -> float:
    """Reward for ending a step at ``distance`` from the goal.

    Floats give a float; equal-shape arrays (one entry per episode) give an
    array of the same per-entry values.
    """
    negative = (distance < 0) | (prev_distance < 0)
    # np.any costs microseconds on a plain bool, and the scalar env calls this every step.
    if negative.any() if isinstance(negative, np.ndarray) else negative:
        raise ValidationError(
            f"distances must be non-negative, got {distance}, {prev_distance}"
        )
    kind = config.reward_type
    if kind is RewardType.DENSE_SQUARED:
        # float ** 2 calls libm's pow, and so does float_power; an array's ** 2
        # multiplies instead, which differs in the last bit for ~0.1% of inputs.
        return -np.float_power(distance, 2) if isinstance(distance, np.ndarray) else -(distance**2)
    if kind is RewardType.DENSE_LINEAR:
        return -distance
    if kind is RewardType.DELTA_DISTANCE:
        return prev_distance - distance
    # Sparse: 0 inside the tightest success threshold, -1 outside (True - 1.0 == 0.0).
    return (distance < config.success_thresholds_mm[0] * 1e-3) - 1.0


def success_flags(config: EnvConfig, distance):
    """Whether ``distance`` is inside each success threshold.

    A float gives a tuple of bools; a (B,) array (one entry per episode) gives
    a (B, n_thresholds) bool array.
    """
    flags = np.asarray(distance)[..., None] < np.array(config.success_thresholds_mm) * 1e-3
    return flags if flags.ndim > 1 else tuple(flags.tolist())


def compose_observation(config: EnvConfig, angles: np.ndarray, ee: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Observation vector: affinely scaled joint angles plus goal information.

    Angles map from [lower, upper] to [-1, 1]; positions stay in raw meters.
    Batched inputs (a leading episode axis) give one observation per row.
    """
    scaled = (angles - config.joint_midpoints) / config.joint_half_ranges
    if config.obs_mode is ObsMode.JOINTS_GOAL:
        return np.concatenate([scaled, goal], axis=-1)
    if config.obs_mode is ObsMode.JOINTS_GOAL_EE:
        return np.concatenate([scaled, goal, ee], axis=-1)
    return np.concatenate([scaled, goal - ee], axis=-1)


@dataclass
class StepResult:
    """One step's outcome; reward and ``info["distance"]`` are floats for one
    episode and (B,) arrays for B rows."""

    observation: np.ndarray
    reward: float | np.ndarray
    done: bool
    info: dict


@dataclass
class EnvInstance:
    """Live, seeded episodes of one reach-task variant (single-owner)."""

    config: EnvConfig
    rng: np.random.Generator | None = None
    angles: np.ndarray = None
    ee: np.ndarray = None
    goal: np.ndarray = None
    step_count: int = 0
    prev_distance: float | np.ndarray = 0.0
    _needs_reset: bool = field(default=True, repr=False)

    def reset(self, seed=None) -> np.ndarray:
        """Start fresh episodes: arm at home, goal resampled in the box.

        An int seed reseeds the generator and None continues its stream (or
        starts one from fresh entropy); both start one episode.  A sequence
        of seeds starts one row per seed: row k's goal is drawn as
        ``reset(seed=seeds[k])`` would draw it, and the generator is left as
        it was.  Returns the initial observation.
        """
        config = self.config
        if seed is None or isinstance(seed, (int, np.integer)):
            if seed is not None or self.rng is None:
                self.rng = np.random.default_rng(seed)
            self.goal = self.rng.uniform(config.goal_low, config.goal_high)
        else:
            if len(seed) == 0:
                raise ValidationError("reset needs at least one seed")
            self.goal = np.array(
                [np.random.default_rng(s).uniform(config.goal_low, config.goal_high) for s in seed]
            )
        self.angles = np.zeros(self.goal.shape[:-1] + (config.n_joints,))
        # Looked up on the module at call time, so a wrapper installed on
        # arm.forward_kinematics (perfbench's traced run) sees every call.
        self.ee = arm.forward_kinematics(config.arm, self.angles)
        self.step_count = 0
        self.prev_distance = self.distance()
        self._needs_reset = False
        return self.observe()

    def set_goal(self, goal: np.ndarray, unchecked: bool = False) -> np.ndarray:
        """Debugging hook: place every row's goal explicitly and return the
        observation.

        Goals outside goal_box are rejected unless ``unchecked`` is set (tests
        use that to force degenerate placements, e.g. the goal on the home
        pose).
        """
        goal = np.asarray(goal, dtype=float)
        if not unchecked and (np.any(goal < self.config.goal_low) or np.any(goal > self.config.goal_high)):
            raise ValidationError(f"goal {goal.tolist()} outside goal_box")
        self.goal = np.broadcast_to(goal, self.ee.shape).copy()
        self.prev_distance = self.distance()
        return self.observe()

    def distance(self) -> float | np.ndarray:
        """Goal distance in meters: a float, or one entry per row.

        sqrt(vecdot(d, d)) gives each row the bits of the 1-D call, and those
        are the bits of np.linalg.norm(d) (no mismatch in 250k random
        3-vectors); norm(axis=1) sums in another order and differs in about
        one row in nine.
        """
        d = self.ee - self.goal
        distance = np.sqrt(np.vecdot(d, d))
        return distance if distance.ndim else float(distance)

    def observe(self) -> np.ndarray:
        """The current observation, one row per episode of a batch."""
        return compose_observation(self.config, self.angles, self.ee, self.goal)

    def step(self, action: np.ndarray) -> StepResult:
        """Apply one action, or one row of actions per episode, and advance
        by one step.

        Actions are clamped to [-1, 1] componentwise before decoding.  The
        episodes run for exactly ``episode_len`` steps; ``done`` is purely the
        horizon flag and success never ends an episode early.
        """
        config = self.config
        if self._needs_reset or self.step_count >= config.episode_len:
            raise LifecycleError("episode is finished; call reset() before stepping")
        action = np.asarray(action, dtype=float)
        if action.shape != self.angles.shape:
            raise ValidationError(f"expected action of shape {self.angles.shape}, got {action.shape}")
        command = decode_action(config, action, self.angles)
        self.angles = step_joint_angles(config.arm, self.angles, command)
        self.ee = arm.forward_kinematics(config.arm, self.angles)
        distance = self.distance()
        reward = compute_reward(config, distance, self.prev_distance)
        self.prev_distance = distance
        self.step_count += 1
        done = self.step_count == config.episode_len
        return StepResult(self.observe(), reward, done, {"distance": distance})


def make_env(env_id_or_config: str | EnvConfig, seed=None) -> EnvInstance:
    """Create and reset an environment instance.

    ``seed`` is as in ``EnvInstance.reset``: an int or None starts one
    episode, a sequence of seeds one row per seed.
    """
    config = (
        registry_lookup(env_id_or_config)
        if isinstance(env_id_or_config, str)
        else env_id_or_config
    )
    env = EnvInstance(config=config)
    env.reset(seed=seed)
    return env


def config_to_dict(config: EnvConfig) -> dict:
    return {
        "env_id": config.env_id,
        "action_mode": config.action_mode.value,
        "obs_mode": config.obs_mode.value,
        "reward_type": config.reward_type.value,
        "episode_len": config.episode_len,
        "goal_box": [list(config.goal_box[0]), list(config.goal_box[1])],
        "success_thresholds_mm": list(config.success_thresholds_mm),
        "arm": arm.model_to_dict(config.arm),
    }


def config_from_dict(doc: dict) -> EnvConfig:
    return EnvConfig(
        env_id=doc["env_id"],
        action_mode=ActionMode(doc["action_mode"]),
        obs_mode=ObsMode(doc["obs_mode"]),
        reward_type=RewardType(doc["reward_type"]),
        episode_len=int(doc["episode_len"]),
        goal_box=(tuple(doc["goal_box"][0]), tuple(doc["goal_box"][1])),
        success_thresholds_mm=tuple(doc["success_thresholds_mm"]),
        arm=arm.model_from_dict(doc["arm"]),
    )


def config_to_json(config: EnvConfig) -> str:
    return json.dumps(config_to_dict(config), separators=(",", ":"))
