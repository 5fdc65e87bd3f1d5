"""Exception types shared across the package."""


class DegenerateInputError(ValueError):
    """A query point sits where the requested formula is undefined (e.g. the origin)."""


class UnreliableEstimateError(RuntimeError):
    """A Monte Carlo estimate had too little effective sample size to be trusted."""


class TrainingDivergedError(RuntimeError):
    """Training or sampling produced a non-finite value.

    Carries enough context to locate the blow-up: the optimizer step or, for
    the reverse sampler, the noise level and state norm where it happened.
    """

    def __init__(
        self,
        message: str,
        step: int | None = None,
        sigma: float | None = None,
        state_norm: float | None = None,
    ):
        super().__init__(message)
        self.step = step
        self.sigma = sigma
        self.state_norm = state_norm


class GroupClosureError(RuntimeError):
    """The generator walk built a group of the wrong size."""


class CheckpointFormatError(ValueError):
    """Checkpoint file is malformed, truncated, or inconsistent with its header."""


class ConfigError(ValueError):
    """Run configuration failed validation."""
