"""Exception types raised across the toolkit."""


class SqkitError(Exception):
    """Base class for all toolkit errors."""


class ManifestError(SqkitError):
    """A manifest file could not be parsed.

    Carries the 1-based line number of the offending row when known; the
    message leads with the file, when given, and the line: `<path> line 3: ...`.
    """

    def __init__(self, message: str, line: int | None = None, path: object = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path} {message}")


class ValidationError(SqkitError):
    """Data violates a documented invariant (e.g. a score outside [1, 5])."""


class AudioFormatError(SqkitError):
    """An audio file is not mono PCM WAV."""


class CheckpointError(SqkitError):
    """A parameter checkpoint (SQPM) is corrupt or of the wrong kind. The
    scaler, datastore and embedding loaders raise ValidationError instead."""


class UndefinedCorrelationError(SqkitError):
    """A correlation is undefined (zero variance on one side)."""


class UndefinedRatioError(SqkitError):
    """A best-score ratio is undefined (best correlation is not positive)."""
