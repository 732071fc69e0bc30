"""Tests for the shared types and exception hierarchy."""

import numpy as np
import pytest

from repro.exceptions import (ChangeLogError, EvaluationError,
                              InsufficientDataError, ParameterError,
                              ReproError, TelemetryError, TopologyError)
from repro.types import (Assessment, ChangeKind, DetectedChange,
                         KpiCharacter, LaunchMode, Verdict, as_float_array)


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc_cls", [
        ParameterError, InsufficientDataError,
        TopologyError, TelemetryError, ChangeLogError, EvaluationError,
    ])
    def test_all_derive_from_repro_error(self, exc_cls):
        assert issubclass(exc_cls, ReproError)

    def test_value_errors_catchable_as_such(self):
        # Callers using plain ValueError handling still work.
        assert issubclass(ParameterError, ValueError)
        assert issubclass(InsufficientDataError, ValueError)


class TestEnums:
    def test_verdict_positive(self):
        assert Verdict.CAUSED_BY_CHANGE.positive
        assert not Verdict.NO_CHANGE.positive
        assert not Verdict.OTHER_REASONS.positive
        assert not Verdict.SEASONALITY.positive

    def test_enum_values_stable(self):
        """These values are serialised by the CLI and the JSONL log."""
        assert ChangeKind.SOFTWARE_UPGRADE.value == "software_upgrade"
        assert LaunchMode.DARK.value == "dark"
        assert KpiCharacter.SEASONAL.value == "seasonal"
        assert Verdict.CAUSED_BY_CHANGE.value == "caused_by_change"


class TestDetectedChange:
    def test_delay(self):
        change = DetectedChange(index=20, start_index=12, score=1.0)
        assert change.delay == 8

    def test_start_after_detection_rejected(self):
        with pytest.raises(ValueError):
            DetectedChange(index=10, start_index=11, score=1.0)

    def test_frozen(self):
        change = DetectedChange(index=5, start_index=5, score=0.5)
        with pytest.raises(AttributeError):
            change.index = 6


class TestAssessment:
    def test_positive_mirrors_verdict(self):
        assert Assessment(verdict=Verdict.CAUSED_BY_CHANGE).positive
        assert not Assessment(verdict=Verdict.SEASONALITY).positive

    def test_defaults(self):
        result = Assessment(verdict=Verdict.NO_CHANGE)
        assert result.change is None
        assert result.did_estimate is None
        assert result.notes == ()


class TestAsFloatArray:
    def test_list_coerced(self):
        arr = as_float_array([1, 2, 3])
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            as_float_array(np.zeros((2, 2)))

    def test_nan_rejected_with_name(self):
        with pytest.raises(ParameterError, match="mymetric"):
            as_float_array([1.0, float("nan")], name="mymetric")

    def test_empty_allowed(self):
        assert as_float_array([]).size == 0
