"""Spans, sinks, structured logs, and the output validators.

Unit coverage of the non-metrics halves of ``repro.obs``: the span
model (context-managed and pre-measured recording, trace/parent
propagation, error tagging), the two sinks, the JSON-lines logger, and
the tiny line validators that both the tests and the CI smoke job use to
judge emitted files.
"""

import json

from repro.obs import (
    JsonLinesSink,
    JsonLogger,
    MemoryLogger,
    MemorySink,
    Tracer,
    new_span_id,
    new_trace_id,
)
from repro.obs.validate import (
    LOG_KEYS,
    TRACE_KEYS,
    validate_json_lines,
)


class TestTracer:
    def test_span_context_manager_emits_on_exit(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("pool.shard", worker=1) as span:
            span.set(index=3)
        (emitted,) = sink.spans
        assert emitted["name"] == "pool.shard"
        assert emitted["worker"] == 1
        assert emitted["index"] == 3
        assert emitted["duration_s"] >= 0
        assert emitted["parent_id"] is None
        assert len(emitted["trace_id"]) == 16

    def test_span_propagates_trace_and_parent_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        trace, parent = new_trace_id(), new_span_id()
        with tracer.span("pass.route", trace_id=trace, parent_id=parent):
            pass
        (emitted,) = sink.spans
        assert emitted["trace_id"] == trace
        assert emitted["parent_id"] == parent

    def test_span_tags_the_exception_type_on_error(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        try:
            with tracer.span("pass"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert sink.spans[0]["error"] == "ValueError"

    def test_record_pins_span_id_and_start(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        trace, pinned = new_trace_id(), new_span_id()
        emitted = tracer.record(
            "pass", trace, 0.25, start=123.0, span_id=pinned, queries=4
        )
        assert emitted["span_id"] == pinned
        assert emitted["start"] == 123.0
        assert emitted["duration_s"] == 0.25
        assert emitted["queries"] == 4
        assert sink.spans == [emitted]

    def test_memory_sink_drain_clears(self):
        sink = MemorySink()
        Tracer(sink).record("pass", new_trace_id(), 0.1)
        assert len(sink.drain()) == 1
        assert sink.drain() == []


class TestJsonLinesSink:
    def test_spans_land_as_valid_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesSink(str(path)))
        trace = new_trace_id()
        with tracer.span("pool.shard", trace_id=trace):
            pass
        tracer.record("pass.route", trace, 0.01)
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert validate_json_lines(lines, TRACE_KEYS) == []
        assert {json.loads(line)["trace_id"] for line in lines} == {trace}

    def test_file_like_sinks_are_not_closed(self, tmp_path):
        import io

        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        Tracer(sink).record("pass", new_trace_id(), 0.1)
        sink.close()
        assert not stream.closed  # the caller owns streams it handed in


class TestJsonLogger:
    def test_events_are_valid_json_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = JsonLogger(str(path))
        logger.event("pass.start", queries=2)
        logger.event("pool.fault", worker=1, error="ValueError")
        logger.close()
        lines = path.read_text().splitlines()
        assert validate_json_lines(lines, LOG_KEYS) == []
        first = json.loads(lines[0])
        assert first["event"] == "pass.start"
        assert first["queries"] == 2
        assert "ts" in first

    def test_memory_logger_find(self):
        logger = MemoryLogger()
        logger.event("pass.start")
        logger.event("pass.finish", results=3)
        logger.event("pass.start")
        assert len(logger.find("pass.start")) == 2
        assert logger.find("pass.finish")[0]["results"] == 3

    def test_non_json_fields_are_stringified(self, tmp_path):
        path = tmp_path / "events.jsonl"
        logger = JsonLogger(str(path))
        logger.event("pool.fault", error=ValueError("boom"))
        logger.close()
        assert json.loads(path.read_text())["error"] == "boom"


class TestValidators:
    def test_json_lines_validator_reports_bad_lines(self):
        problems = validate_json_lines(
            ["not json", json.dumps({"event": "x"})], LOG_KEYS
        )
        # Line 1 is unparseable; line 2 misses the "ts" key.
        assert len(problems) == 2
        assert "line 1" in problems[0]

    def test_blank_lines_are_ignored(self):
        line = json.dumps({"ts": 1.0, "event": "pass.start"})
        assert validate_json_lines([line, "", "  "], LOG_KEYS) == []

