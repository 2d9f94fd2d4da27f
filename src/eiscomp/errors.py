"""Shared exception types."""


class PrecisionError(ValueError):
    """A computation cannot deliver the requested precision."""


class NonInvertibleError(ArithmeticError):
    """A modular inverse does not exist (denominator shares a factor with p)."""


class NotLocalError(ValueError):
    """An algebra expected to be local fails the locality test."""


class CheckpointError(RuntimeError):
    """A scan checkpoint file is malformed or fails its content hash."""


class ShardError(RuntimeError):
    """A scan worker process died; the checkpoint keeps every prime finished before it."""
