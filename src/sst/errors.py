"""Exception hierarchy shared across the toolkit.

Each class declares in `exit_code` what the CLI returns when it ends a
command: 1 for a usage or configuration problem, 2 for input data or a file
that cannot be parsed, 3 for a numerical failure at run time.
"""


class SstError(Exception):
    """Base class for all toolkit errors."""

    exit_code: int


class DimensionError(SstError):
    """Tensor shapes violate an operation's contract."""

    exit_code = 1


class ContractError(SstError):
    """An API precondition was violated (non-scalar backward, NaN loss, ...)."""

    exit_code = 1


class DataError(SstError):
    """Input data cannot satisfy the request (missing class, bad label, ...)."""

    exit_code = 2


class ParseError(SstError):
    """Malformed EDF/TAL input; carries a byte offset or record index."""

    exit_code = 2

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(SstError):
    """Invalid or inconsistent configuration."""

    exit_code = 1


class NumericalError(SstError):
    """Non-finite loss or other numerical breakdown during training."""

    exit_code = 3
