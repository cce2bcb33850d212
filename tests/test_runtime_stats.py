"""Unit tests for runtime statistics and the errors module."""

import time

import pytest

from repro import errors
from repro.runtime.stats import RuntimeStats


class TestRuntimeStats:
    def test_buffer_peak_tracking(self):
        stats = RuntimeStats()
        stats.buffer_grow(100)
        stats.buffer_grow(200)
        stats.buffer_shrink(250)
        stats.buffer_grow(10)
        assert stats.peak_buffer_bytes == 300
        assert stats.current_buffer_bytes == 60

    def test_shrink_never_goes_negative(self):
        stats = RuntimeStats()
        stats.buffer_shrink(50)
        assert stats.current_buffer_bytes == 0

    def test_timer_accumulates(self):
        stats = RuntimeStats()
        stats.start_timer()
        time.sleep(0.01)
        stats.stop_timer()
        first = stats.elapsed_seconds
        assert first > 0
        stats.start_timer()
        time.sleep(0.01)
        stats.stop_timer()
        assert stats.elapsed_seconds > first

    def test_stop_without_start_is_noop(self):
        stats = RuntimeStats()
        stats.stop_timer()
        assert stats.elapsed_seconds == 0

    def test_as_dict_and_summary(self):
        stats = RuntimeStats()
        stats.buffer_grow(42)
        stats.events_processed = 7
        stats.join_probes = 3
        data = stats.as_dict()
        assert data["peak_buffer_bytes"] == 42
        assert data["join_probes"] == 3
        assert not hasattr(stats, "extra")
        assert "peak buffer: 42 B" in stats.summary()


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            errors.XMLSyntaxError,
            errors.XMLValidationError,
            errors.DTDSyntaxError,
            errors.XQuerySyntaxError,
            errors.UnsupportedFeatureError,
            errors.QueryAnalysisError,
            errors.UnsafeFluxQueryError,
            errors.PlanError,
            errors.EvaluationError,
            errors.BufferError_,
            errors.WorkloadError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, errors.ReproError)

    def test_syntax_errors_carry_positions(self):
        assert "offset 12" in str(errors.XMLSyntaxError("bad", 12))
        assert "position 3" in str(errors.XQuerySyntaxError("bad", 3))
        assert errors.XMLSyntaxError("bad").offset == -1
