"""Exception hierarchy shared by every module.

Each class carries the process exit code the CLI returns for it, as its
`exit_code`, so raising the right class matters more than the message text.
"""


class MtlcError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ContractError(MtlcError):
    """A caller violated an operation's precondition."""


class ShapeError(ContractError):
    """Array dimensions do not line up; message names both shapes."""


class ConfigError(MtlcError):
    """Invalid run configuration."""


class DataError(MtlcError):
    """Corpus ingestion or schema failure."""

    exit_code = 3


class NumericalError(MtlcError):
    """Non-finite values or a non-converging numeric routine."""

    exit_code = 4


class CorruptArtifactError(MtlcError):
    """A checkpoint or other stored artifact failed validation."""

    exit_code = 5
