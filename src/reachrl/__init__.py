"""reachrl: reproducible RL experiments on a robotic-arm reaching task.

Simulate a kinematic arm, train PPO/TD3/random agents on reach-task
variants, evaluate policies with seed-averaged metrics, benchmark
experiments into a single CSV, tune hyperparameters with median pruning,
and turn logs into SVG figures -- all deterministic given one seed.
"""

__version__ = "0.1.0"

from .arm import ArmModel, JointSpec, forward_kinematics, planar_arm, widowx_arm
from .envs import EnvConfig, EnvInstance, make_env, registered_env_ids, registry_lookup
from .agents import PolicyArtifact, TrainingLog, train

__all__ = [
    "ArmModel",
    "JointSpec",
    "forward_kinematics",
    "planar_arm",
    "widowx_arm",
    "EnvConfig",
    "EnvInstance",
    "make_env",
    "registered_env_ids",
    "registry_lookup",
    "PolicyArtifact",
    "TrainingLog",
    "train",
    "__version__",
]
