"""Tests for metrics aggregation and report rendering."""

from repro.harness import Scenario, dex_freq, twostep
from repro.metrics.collectors import RunAggregate
from repro.metrics.report import format_histogram, format_series, format_table
from repro.sim.latency import ConstantLatency
from repro.types import DecisionKind
from repro.workloads.inputs import split, unanimous


def make_results():
    fast = Scenario(dex_freq(), unanimous(1, 7), seed=0, latency=ConstantLatency(1.0)).run()
    slow = Scenario(dex_freq(), split(1, 2, 7, 3), seed=1, latency=ConstantLatency(1.0)).run()
    return fast, slow


class TestRunAggregate:
    def test_add_accumulates(self):
        fast, slow = make_results()
        agg = RunAggregate(label="test")
        agg.add(fast)
        agg.add(slow)
        assert agg.runs == 2
        assert len(agg.steps) == 14  # 7 correct decisions per run
        assert agg.max_steps == [1, 4]

    def test_mean_and_worst(self):
        fast, slow = make_results()
        agg = RunAggregate()
        agg.add(fast)
        agg.add(slow)
        assert agg.mean_step == (7 * 1 + 7 * 4) / 14
        assert agg.worst_step == 4
        assert agg.mean_max_step == 2.5

    def test_kind_fractions(self):
        fast, slow = make_results()
        agg = RunAggregate()
        agg.add(fast)
        agg.add(slow)
        assert agg.kind_fraction(DecisionKind.ONE_STEP) == 0.5
        assert agg.kind_fraction(DecisionKind.UNDERLYING) == 0.5
        assert agg.kind_fraction(DecisionKind.TWO_STEP) == 0.0

    def test_fraction_within(self):
        fast, slow = make_results()
        agg = RunAggregate()
        agg.add(fast)
        agg.add(slow)
        assert agg.fraction_within(1) == 0.5
        assert agg.fraction_within(4) == 1.0

    def test_percentiles(self):
        agg = RunAggregate()
        agg.steps = [1, 1, 1, 4]
        assert agg.step_percentile(0.5) == 1.0
        assert agg.step_percentile(0.99) == 4.0

    def test_unanimity_violation_counting(self):
        fast, _ = make_results()
        agg = RunAggregate()
        agg.add(fast, expected_value=2)  # decided 1, expected 2
        assert agg.unanimity_violations == 1
        agg.add(fast, expected_value=1)
        assert agg.unanimity_violations == 1

    def test_histogram(self):
        agg = RunAggregate()
        agg.steps = [1, 1, 2]
        assert agg.step_histogram() == {1: 2, 2: 1}

    def test_empty_aggregate_safe(self):
        agg = RunAggregate()
        assert agg.mean_step == 0.0
        assert agg.worst_step == 0
        assert agg.step_percentile(0.5) == 0.0
        assert agg.fraction_within(1) == 0.0

    def test_summary_keys(self):
        fast, _ = make_results()
        agg = RunAggregate()
        agg.add(fast)
        summary = agg.summary()
        assert summary["runs"] == 1
        assert summary["one_step_frac"] == 1.0
        assert summary["agreement_violations"] == 0


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table([{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a ")
        assert "22" in lines[3]

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_title(self):
        assert format_table([{"a": 1}], title="T").splitlines()[0] == "T"

    def test_empty(self):
        assert format_table([]) == ""
        assert format_table([], title="T") == "T\n"

    def test_float_formatting(self):
        text = format_table([{"x": 0.5}])
        assert "0.5" in text


class TestFormatHistogram:
    def test_bars_scale(self):
        text = format_histogram({1: 10, 2: 5}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty(self):
        assert "(empty)" in format_histogram({})


class TestFormatSeries:
    def test_series_table(self):
        text = format_series([0, 1], [0.5, 0.7], "f", "coverage")
        assert "f" in text and "coverage" in text
        assert "0.7" in text


class TestStreamAggregate:
    """The event-stream collector: fold EventStats sinks, retain counters only."""

    def _run_with_sink(self, inputs, seed):
        from repro.metrics.collectors import StreamAggregate

        stats = StreamAggregate.new_sink()
        result = Scenario(
            dex_freq(), inputs, seed=seed, latency=ConstantLatency(1.0),
            event_sink=stats,
        ).run()
        return stats, result

    def test_folds_counters_from_event_stats(self):
        from repro.metrics.collectors import StreamAggregate

        agg = StreamAggregate(label="fold")
        fast_stats, fast = self._run_with_sink(unanimous(1, 7), seed=0)
        slow_stats, slow = self._run_with_sink(split(1, 2, 7, 3), seed=1)
        agg.add_stats(fast_stats, wall_seconds=0.5)
        agg.add_stats(slow_stats, wall_seconds=1.5, timed_out=True)
        assert agg.runs == 2
        assert len(agg.steps) == 14  # 7 decisions per run
        assert agg.timeouts == 1
        # Counters agree with the run results the stream mirrored.
        assert agg.sends == fast.stats.messages_sent + slow.stats.messages_sent
        assert agg.max_steps == [fast.max_correct_step, slow.max_correct_step]

    def test_derived_statistics(self):
        from repro.metrics.collectors import StreamAggregate

        agg = StreamAggregate()
        fast_stats, _ = self._run_with_sink(unanimous(1, 7), seed=0)
        agg.add_stats(fast_stats, wall_seconds=2.0)
        assert agg.one_step_fraction == 1.0
        assert agg.kind_fraction(DecisionKind.ONE_STEP) == 1.0
        assert agg.mean_step == 1.0
        assert agg.throughput == agg.delivers / 2.0
        assert agg.latency_percentile(0.5) >= 0.0

    def test_summary_keys_are_report_ready(self):
        from repro.metrics.collectors import StreamAggregate

        agg = StreamAggregate()
        stats, _ = self._run_with_sink(unanimous(1, 7), seed=3)
        agg.add_stats(stats, wall_seconds=1.0)
        summary = agg.summary()
        for key in (
            "runs", "sends", "delivers", "one_step_frac",
            "throughput_msgs_per_s", "p50_decision_latency_s", "timeouts",
        ):
            assert key in summary
        assert summary["runs"] == 1
        assert summary["one_step_frac"] == 1.0

    def test_untimed_wall_figures_are_none(self):
        from repro.metrics.collectors import StreamAggregate

        agg = StreamAggregate()
        stats, _ = self._run_with_sink(unanimous(1, 7), seed=3)
        agg.add_stats(stats)
        summary = agg.summary()
        assert summary["mean_wall_seconds"] is None
        assert summary["throughput_msgs_per_s"] is None
        agg.add_stats(stats, wall_seconds=2.0)
        assert agg.summary()["mean_wall_seconds"] == 2.0

    def test_empty_aggregate_is_all_zeros(self):
        from repro.metrics.collectors import StreamAggregate

        agg = StreamAggregate()
        assert agg.mean_step == 0.0
        assert agg.one_step_fraction == 0.0
        assert agg.throughput == 0.0
        assert agg.latency_percentile(0.99) == 0.0
        assert agg.summary()["runs"] == 0
