"""Exception types shared across the package.

The CLI maps ValidationError and LifecycleError to exit code 1 (user /
configuration errors) and everything else to exit code 2 (runtime failures).
"""


class ReachError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ReachError):
    """Bad inputs: dimension mismatches, out-of-domain values, unknown IDs."""


class LifecycleError(ReachError):
    """Operation attempted at the wrong time (e.g. stepping a finished episode)."""


class WorkerExited(ReachError):
    """A worker exited before or during job ``job``, ``seconds`` after it got it."""

    def __init__(self, job, seconds):
        super().__init__(f"the worker running job {job} exited")
        self.job, self.seconds = job, seconds


class NumericError(ReachError):
    """Non-finite values encountered during training; the run aborts cleanly."""

    def __init__(self, message, training_log=None):
        super().__init__(message)
        self.training_log = training_log


class CorruptDataError(ReachError):
    """A workspace CSV or JSON file but policy.json is malformed; never silently repaired."""
