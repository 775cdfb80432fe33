"""reachrl: reproducible RL experiments on a robotic-arm reaching task.

Simulate a kinematic arm, train PPO/TD3/random agents on reach-task
variants, evaluate policies with seed-averaged metrics, benchmark
experiments into a single CSV, tune hyperparameters with median pruning,
and turn logs into SVG figures -- all deterministic given one seed.

The names below load their module on first use (PEP 562), so importing the
package loads no numpy: ``reachrl`` commands pin BLAS_THREAD_VARS to 1
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# The env vars that set BLAS's thread count when numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_EXPORTS = {
    "arm": ("ArmModel", "JointSpec", "forward_kinematics", "planar_arm", "widowx_arm"),
    "envs": ("EnvConfig", "EnvInstance", "make_env", "registered_env_ids", "registry_lookup"),
    "agents": ("PolicyArtifact", "TrainingLog", "train"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
