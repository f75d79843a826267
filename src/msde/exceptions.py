"""Error taxonomy shared by all modules.

Each exception class fixes the subsystem an error comes from and the
process exit code the CLI maps it to (1 usage, 2 data, 3 numeric).
"""

from __future__ import annotations


class MsdeError(Exception):
    """Base class for all package errors."""

    module = "msde"
    exit_code = 2


class ConfigError(MsdeError):
    """Invalid configuration value, flag combination, or config file."""

    module = "cli"
    exit_code = 1


class LoadError(MsdeError):
    """Malformed or unreadable input data."""

    module = "data_io"
    exit_code = 2


class ShapeError(MsdeError):
    """Dimension mismatch between fitted artifacts and inputs."""

    module = "data_io"
    exit_code = 2


class FitError(MsdeError):
    """Not enough data to fit an estimator."""

    module = "data_io"
    exit_code = 2


class GraphError(MsdeError):
    """Neighbor-graph construction failed (too few points, bad index)."""

    module = "knn_graph"
    exit_code = 2


class MetricError(MsdeError):
    """Evaluation impossible (e.g. single-class labels)."""

    module = "eval"
    exit_code = 2


class SplitError(MsdeError):
    """Leakage split cannot be built from the available samples."""

    module = "tune"
    exit_code = 2


class NumericError(MsdeError):
    """Non-finite values or failed factorization inside the pipeline."""

    module = "scoring"
    exit_code = 3
