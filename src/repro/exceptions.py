"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  The concrete
subclasses group failures by the subsystem that raised them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is out of its valid range.

    Raised for example when an SST window ``omega`` is smaller than 2, a
    Krylov dimension exceeds the window size, or a persistence threshold
    is negative.
    """


class InsufficientDataError(ReproError, ValueError):
    """A time series is too short for the requested computation."""


class TopologyError(ReproError, ValueError):
    """The fleet/service topology is inconsistent.

    Raised for unknown services, duplicate entity names, or self-looping
    service relationships.
    """


class TelemetryError(ReproError, ValueError):
    """A telemetry operation failed (unknown KPI, misaligned series...)."""


class ChangeLogError(ReproError, ValueError):
    """A software-change record is invalid or references unknown entities."""


class EvaluationError(ReproError, ValueError):
    """An evaluation harness invariant was violated."""


class CheckpointError(ReproError, ValueError):
    """A live-session checkpoint is missing, corrupt, or incompatible.

    Raised when ``--resume-from`` points at a file whose version, spec
    or fault plan does not match the replay being resumed.
    """


class EngineError(ReproError, ValueError):
    """An assessment-engine request is invalid.

    Raised for unknown detector names, malformed executor
    configurations, or fleet-scenario specs that cannot be planned.
    """
