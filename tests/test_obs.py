"""Tests for the observability layer (repro.obs): spans, metrics, sinks."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    METRICS,
    TRACER,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Span,
    aggregate_spans,
    capture_spans,
    current_span,
    format_span_table,
    record_span,
    span,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    assert not TRACER.enabled, "tracer leaked from a previous test"
    yield
    TRACER._sinks.clear()
    TRACER._stack.clear()
    TRACER.enabled = False


class TestDisabledPath:
    def test_span_returns_shared_null_context(self):
        a, b = span("x"), span("y", attr=1)
        assert a is b  # one shared object: no allocation while disabled

    def test_null_span_accepts_attrs(self):
        with span("x") as sp:
            assert sp.set_attrs(k=1) is sp

    def test_current_span_is_null(self):
        assert current_span().set_attrs(k=1) is current_span()

    def test_record_span_is_noop(self):
        record_span("x", 0.5)  # must not raise or emit


class TestSpanNesting:
    def test_parent_links_form_a_tree(self):
        with capture_spans() as spans:
            with span("root") as root:
                with span("child") as child:
                    with span("grandchild") as grand:
                        pass
                with span("sibling") as sib:
                    pass
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        assert sib.parent_id == root.span_id
        assert root.parent_id is None
        # Emission order is completion order: innermost first.
        assert [s.name for s in spans] == [
            "grandchild", "child", "sibling", "root",
        ]

    def test_durations_are_positive_and_nested(self):
        with capture_spans() as spans:
            with span("outer"):
                with span("inner"):
                    pass
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].duration_s >= by_name["inner"].duration_s >= 0

    def test_attrs_at_open_and_via_set_attrs(self):
        with capture_spans() as spans:
            with span("x", batch=16) as sp:
                sp.set_attrs(hits=3)
        assert spans[0].attrs == {"batch": 16, "hits": 3}

    def test_current_span_tracks_innermost(self):
        with capture_spans():
            with span("outer"):
                with span("inner") as sp:
                    assert current_span() is sp

    def test_exception_still_closes_and_emits(self):
        with capture_spans() as spans:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        assert [s.name for s in spans] == ["doomed"]
        assert not TRACER._stack

    def test_span_dict_round_trip(self):
        with capture_spans() as spans:
            with span("x", k=1):
                pass
        doc = spans[0].as_dict()
        clone = Span.from_dict(json.loads(json.dumps(doc)))
        assert clone.as_dict() == doc


class TestCaptureIsolation:
    def test_isolate_hides_spans_from_outer_sink(self):
        outer = MemorySink()
        TRACER.add_sink(outer)
        with span("outer_live"):
            with capture_spans(isolate=True) as inner:
                with span("unit_root"):
                    with span("unit_child"):
                        pass
        TRACER.remove_sink(outer)
        assert [s.name for s in inner] == ["unit_child", "unit_root"]
        # The isolated spans never reached the live sink, and the live
        # span never leaked into the isolated capture.
        assert [s.name for s in outer.spans] == ["outer_live"]

    def test_isolate_resets_parent_to_none(self):
        with capture_spans():
            with span("ambient"):
                with capture_spans(isolate=True) as inner:
                    with span("root"):
                        pass
        assert inner[0].parent_id is None

    def test_isolate_enables_tracing_even_when_disabled(self):
        assert not TRACER.enabled
        with capture_spans(isolate=True) as spans:
            assert TRACER.enabled
            with span("x"):
                pass
        assert not TRACER.enabled
        assert len(spans) == 1


class TestHistogram:
    def test_bucket_counts_with_overflow(self):
        h = Histogram("h", bounds=(1, 10, 100))
        for v in (0.5, 1, 5, 50, 500, 5000):
            h.observe(v)
        # len(bounds)+1 buckets; the last is the overflow bucket.
        assert len(h.counts) == 4
        assert sum(h.counts) == 6
        assert h.counts == [2, 1, 1, 2]  # <=1, <=10, <=100, >100

    def test_mean(self):
        h = Histogram("h", bounds=(10,))
        h.observe(2)
        h.observe(4)
        assert h.mean == pytest.approx(3.0)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10, 1))

    def test_as_dict_shape(self):
        h = Histogram("h", bounds=(1, 2))
        h.observe(1.5)
        doc = h.as_dict()
        assert doc["count"] == 1
        assert len(doc["counts"]) == len(doc["bounds"]) + 1

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7.5

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_global_registry_collects_engine_batches(self):
        from repro import load_platform, solve

        METRICS.reset()
        platform = load_platform("paper", n_cores=2, n_levels=2)
        solve("AO", platform, m_cap=8)
        snap = METRICS.snapshot()
        assert snap["histograms"]["engine.batch_size"]["count"] > 0


class TestJsonlSink:
    def test_span_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            TRACER.add_sink(sink)
            with span("a", k=1):
                pass
            TRACER.remove_sink(sink)
            sink.write_doc({"metrics": {"counters": {}}})
        rows = JsonlSink.load(path)
        assert len(rows) == 2
        assert rows[0]["name"] == "a" and rows[0]["attrs"] == {"k": 1}
        assert "metrics" in rows[1]

    def test_load_skips_bad_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "ok"}\nnot json\n\n{"name": "ok2"}\n')
        assert [r["name"] for r in JsonlSink.load(path)] == ["ok", "ok2"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert JsonlSink.load(tmp_path / "nope.jsonl") == []


class TestAggregation:
    def test_aggregate_and_format(self):
        docs = [
            {"name": "a", "duration_s": 0.1},
            {"name": "a", "duration_s": 0.3},
            {"name": "b", "duration_s": 0.5},
            {"duration_s": 1.0},  # nameless rows are skipped
        ]
        agg = aggregate_spans(docs)
        assert agg["a"].count == 2
        assert agg["a"].mean_s == pytest.approx(0.2)
        assert agg["b"].total_s == pytest.approx(0.5)
        table = format_span_table(agg)
        assert "a" in table and "b" in table

    def test_empty_aggregate_formats(self):
        assert "none recorded" in format_span_table({})


class TestEngineIntegration:
    def test_solver_phases_appear_as_spans_and_engine_stats(self):
        """engine.phase() must feed both the span stream and EngineStats."""
        from repro import load_platform, solve

        platform = load_platform("paper", n_cores=2, n_levels=2)
        with capture_spans() as spans:
            result = solve("AO", platform, m_cap=8)
        names = [s.name for s in spans]
        assert "solve/AO" in names
        assert "ao/choose_m" in names
        root = next(s for s in spans if s.name == "solve/AO")
        # The solve-root attrs mirror the EngineStats counters.
        assert root.attrs["ss_solves"] == result.stats.steady_state_solves
        assert root.attrs["expm_applications"] == result.stats.expm_applications
        # phase() still accumulates the legacy phase_seconds breakdown.
        assert "ao/choose_m" in result.stats.phase_seconds

    def test_no_solve_span_while_disabled(self):
        from repro import load_platform, solve

        platform = load_platform("paper", n_cores=2, n_levels=2)
        result = solve("LNS", platform)
        assert result.feasible is not None  # ran fine without a tracer
