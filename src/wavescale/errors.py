"""Exception taxonomy shared across the package.

The CLI exits with each class's ``exit_code``, so library code should
raise the most specific class that applies rather than bare ValueError.
"""


class ConfigurationError(ValueError):
    """Invalid option, parameter, or configuration file contents."""
    exit_code = 2


class ShapeError(ValueError):
    """Input array has an unusable shape (odd length, non-dyadic, ragged)."""
    exit_code = 4


class IngestionError(ValueError):
    """A data file could not be parsed or is internally inconsistent."""
    exit_code = 3


class EstimationError(RuntimeError):
    """An estimate could not be produced from the given data."""
    exit_code = 4
