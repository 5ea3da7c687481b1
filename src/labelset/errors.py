"""Exception types raised by this package and the CLI exit codes they map to."""

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4  # an exception labelset does not raise on purpose


class LabelsetError(Exception):
    """Base class for every error raised by labelset."""

    exit_code = EXIT_NUMERIC


class ConfigError(LabelsetError):
    """Invalid configuration value, unknown config key, or CLI usage error."""

    exit_code = EXIT_CONFIG


class CheckpointError(ConfigError):
    """Unreadable, version-mismatched, or dimension-incompatible checkpoint."""


class DataError(LabelsetError):
    """Problem with corpus content or corpus files."""

    exit_code = EXIT_DATA


class ParseError(DataError):
    """Malformed corpus or vocabulary file; message carries the line number."""


class ValidationError(DataError):
    """Structurally valid input that violates a data contract."""


class VocabularyError(DataError):
    """Token or label index outside the vocabulary it belongs to."""


class GraphConstructionError(DataError):
    """Label graph cannot be built, e.g. from an empty training split."""


class NumericError(LabelsetError):
    """Numeric failure: bad shapes, bad domains, or a diverged optimization."""

    exit_code = EXIT_NUMERIC


class ShapeError(NumericError):
    """Operands with incompatible shapes; message names both shapes."""


class NumericDomainError(NumericError):
    """NaN or Inf where a finite value is required."""


class ContractError(NumericError):
    """An internal precondition was violated by the caller."""


class TrainingDiverged(NumericError):
    """Loss became non-finite; the last good checkpoint is left on disk."""
