"""Exception hierarchy shared across the package.

Each class carries the CLI exit code used when the error escapes to the
command line (0 ok, 1 check failure, 2 data error, 3 shape error,
4 missing dependency file).
"""


class MpkError(Exception):
    exit_code = 2


class DataError(MpkError):
    """Bad or unusable input data (empty, constant, unreadable)."""

    exit_code = 2


class FormatError(MpkError):
    """Corrupt or truncated container or PNM file: a bad magic or header, a
    CRC mismatch, a tensor name that is not UTF-8, or dims or a pixel count
    that declare more bytes than the file holds (checked before any
    allocation)."""

    exit_code = 2


class ConfigError(MpkError):
    """Malformed config file or unknown key."""

    exit_code = 2


class ShapeError(MpkError):
    """Dimension mismatch between tensors, model and data."""

    exit_code = 3


class ParameterError(MpkError, ValueError):
    """Invalid hyperparameter value or unsupported configuration."""

    exit_code = 3


class MissingFileError(MpkError):
    """A required companion file (whitening, checkpoint) is absent."""

    exit_code = 4


class NumericError(MpkError):
    """Non-finite value produced where finiteness is required."""

    exit_code = 1
