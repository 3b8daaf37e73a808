"""Resource telemetry: readings, annotate, budgets, progress reporting."""

import io
import time

import pytest

from repro import obs
from repro.obs import Metrics, PerfBudget
from repro.obs import resources as res


class TestSampleResources:
    def test_sample_has_plausible_values(self):
        sample = res.sample_resources()
        # A running Python interpreter occupies at least a few MB and
        # has burned some CPU importing this test suite.
        assert sample.rss_mb > 1.0
        assert sample.peak_rss_mb >= sample.rss_mb * 0.5
        assert sample.cpu_s > 0.0

    def test_peak_never_below_getrusage(self):
        sample = res.sample_resources()
        rusage_peak, _cpu = res._rusage()
        assert sample.peak_rss_mb >= rusage_peak * 0.99

    def test_degrades_without_proc(self, monkeypatch):
        # Satellite: no /proc (macOS, hidden procfs) must degrade to
        # getrusage, flag the sample, and never raise.
        monkeypatch.setattr(res, "_proc_status_kb", lambda: None)
        sample = res.sample_resources()
        assert sample.degraded is True
        assert sample.rss_mb == sample.peak_rss_mb  # peak stands in
        assert sample.cpu_s > 0.0

    def test_degraded_readings_bump_counter(self, monkeypatch):
        monkeypatch.setattr(res, "_proc_status_kb", lambda: None)
        registry = Metrics()
        with res.annotate(registry):
            pass
        with res.annotate(registry):
            pass
        assert registry.counters["resources.degraded"] == 2
        assert registry.gauges["resources.rss_mb"] == (
            registry.gauges["resources.peak_rss_mb"])

    def test_proc_parse_failure_returns_none(self, monkeypatch):
        monkeypatch.setattr(res, "_PROC_STATUS", "/no/such/file")
        assert res._proc_status_kb() is None


class TestAnnotate:
    def test_bracket_guarantees_keys_without_ticks(self):
        # However short the block, the engine's annotate() bracket
        # stamps every record with all three resource keys.
        registry = Metrics()
        with res.annotate(registry):
            sum(range(10_000))
        assert "resources.cpu_s" in registry.counters
        assert registry.gauges["resources.rss_mb"] > 0
        assert registry.gauges["resources.peak_rss_mb"] > 0

    def test_cpu_delta_is_non_negative_and_bounded(self):
        registry = Metrics()
        start = time.monotonic()
        with res.annotate(registry):
            sum(i * i for i in range(100_000))
        wall = time.monotonic() - start
        cpu = registry.counters["resources.cpu_s"]
        # CPU of a single-threaded block cannot exceed wall by much
        # (GC and scheduler noise get a 3x allowance).
        assert 0.0 <= cpu <= max(0.05, wall * 3)


class TestRunRecordIntegration:
    def test_every_record_carries_resource_keys(self):
        from repro.engine import run_experiments
        from repro.experiments import SMALL_SCALE

        (record,) = run_experiments(["table1"], SMALL_SCALE)
        assert record.ok
        counters = record.metrics["counters"]
        gauges = record.metrics["gauges"]
        assert "resources.cpu_s" in counters
        assert gauges["resources.rss_mb"] > 0
        assert gauges["resources.peak_rss_mb"] > 0

    def test_on_start_fires_before_execution(self):
        from repro.engine import run_experiments
        from repro.experiments import SMALL_SCALE

        seen = []
        run_experiments(["table1"], SMALL_SCALE,
                        on_start=lambda name: seen.append(name))
        assert seen == ["table1"]


class TestPerfBudgets:
    def _entry(self, **exp):
        return {"scale": "small",
                "experiments": {"fig8": dict(exp)}}

    def test_key_validated(self):
        with pytest.raises(ValueError):
            PerfBudget(key="latency_ms", hi=1.0)

    def test_band_validated(self):
        with pytest.raises(ValueError):
            PerfBudget(key="wall_s", hi=1.0, lo=2.0)

    def test_pass_within_band(self):
        budgets = {"fig8": [PerfBudget(key="wall_s", hi=240.0)]}
        scores = obs.score_perf_budgets(
            self._entry(wall_s=3.2), budgets)
        assert [s.status for s in scores] == ["pass"]
        assert not obs.has_budget_regression(scores)

    def test_regress_above_band(self):
        budgets = {"fig8": [PerfBudget(key="wall_s", hi=240.0)]}
        scores = obs.score_perf_budgets(
            self._entry(wall_s=9000.0), budgets)
        assert [s.status for s in scores] == ["regress"]
        assert obs.has_budget_regression(scores)

    def test_missing_value_fails(self):
        # Silence must never read as fitting the budget.
        budgets = {"fig8": [PerfBudget(key="peak_rss_mb", hi=4096.0)]}
        scores = obs.score_perf_budgets(self._entry(wall_s=1.0), budgets)
        assert [s.status for s in scores] == ["missing"]
        assert obs.has_budget_regression(scores)

    def test_scale_restriction(self):
        budgets = {"fig8": [
            PerfBudget(key="wall_s", hi=240.0, scales=("paper",)),
        ]}
        assert obs.score_perf_budgets(
            self._entry(wall_s=1e9), budgets) == []

    def test_undeclared_experiments_unscored(self):
        budgets = {"other": [PerfBudget(key="wall_s", hi=1.0)]}
        assert obs.score_perf_budgets(
            self._entry(wall_s=5.0), budgets) == []

    def test_every_registered_budget_is_declarable(self):
        # All PERF_BUDGETS in the experiment registry must be valid
        # PerfBudget records over ledger fields that exist.
        from repro.engine import all_specs

        declared = 0
        for spec in all_specs():
            for budget in spec.budgets():
                assert isinstance(budget, PerfBudget)
                assert budget.key in obs.budgets.BUDGET_METRICS
                declared += 1
        assert declared >= 10  # fig8/fig6/table1/envelope/fib-size


class TestProgressReporter:
    def _reporter(self, total=3, **kwargs):
        stream = io.StringIO()
        reporter = obs.ProgressReporter(total, stream, interval_s=0.0,
                                        **kwargs)
        return reporter, stream

    def test_line_counts_and_rss(self):
        reporter, _ = self._reporter()
        reporter.task_started("a")
        line = reporter.render_line()
        assert "0 done / 1 running / 2 queued" in line
        assert "rss " in line and "MB" in line

    def test_no_eta_before_first_completion(self):
        reporter, _ = self._reporter()
        reporter.task_started("a")
        assert "eta" not in reporter.render_line()

    def test_rate_eta_after_completion(self):
        reporter, _ = self._reporter()
        reporter.task_started("a")
        reporter.task_finished("a")
        assert "eta ~" in reporter.render_line()

    def test_history_eta_sums_pending_wall(self):
        history = {"experiments": {"fig6": {"wall_s": 10.0},
                                   "fig8": {"wall_s": 30.0}}}
        reporter, _ = self._reporter(total=2, jobs=2, history=history)
        reporter.announce_keys(["fig6", "fig8"])
        assert reporter._eta_s() == pytest.approx((10 + 30) / 2)
        reporter.task_finished("fig8")
        assert reporter._eta_s() == pytest.approx(10 / 2)

    def test_history_eta_disqualified_by_unknown_task(self):
        history = {"experiments": {"fig6": {"wall_s": 10.0}}}
        reporter, _ = self._reporter(total=2, history=history)
        reporter.announce_keys(["fig6", "brand-new"])
        assert reporter._eta_from_history() is None

    def test_sweep_keys_map_to_experiments(self):
        history = {"experiments": {"fig8": {"wall_s": 8.0}}}
        reporter, _ = self._reporter(total=1, history=history)
        reporter.announce_keys(["num_users=10,seed=1/fig8"])
        assert reporter._eta_s() == pytest.approx(8.0)

    def test_pipe_stream_gets_full_lines(self):
        reporter, stream = self._reporter(total=1)
        reporter.start()
        reporter.task_started("a")
        reporter.task_finished("a")
        reporter.close()
        lines = stream.getvalue().splitlines()
        assert lines  # full lines, not \r redraws
        assert "1 done / 0 running / 0 queued" in lines[-1]

    def test_broken_stream_never_raises(self):
        class Broken(io.StringIO):
            def write(self, *_args):
                raise BrokenPipeError()

        reporter = obs.ProgressReporter(1, Broken(), interval_s=0.0)
        reporter.start()
        reporter.task_started("a")
        reporter.task_finished("a")
        reporter.close()  # must not raise
