"""Tests for the command-line interface and CSV export."""

import csv
import io
import os

import pytest

from repro.cli import main
from repro.engine import all_specs, get_spec
from repro.experiments import SMALL_SCALE, World
from repro.experiments.export import export_all


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out
        assert "table1" in out
        assert "ablation-hybrid" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "chain" in out

    def test_run_envelope(self, capsys):
        assert main(["run", "envelope", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Back-of-the-envelope" in out

    def test_run_fig6_small(self, capsys, monkeypatch):
        assert main(["run", "fig6", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "scale=small" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err
        assert "repro list" in err

    def test_unknown_experiment_suggests_list(self, capsys):
        assert main(["run", ""]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_non_integer_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--seed", "abc"])
        assert excinfo.value.code == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--seed", "-3"])
        assert excinfo.value.code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_seed_override_accepted(self, capsys):
        assert main(["run", "envelope", "--scale", "small",
                     "--seed", "7"]) == 0
        assert "Back-of-the-envelope" in capsys.readouterr().out

    def test_fault_tolerance_listed_and_runs(self, capsys):
        assert main(["list"]) == 0
        assert "fault-tolerance" in capsys.readouterr().out
        assert main(["run", "fault-tolerance", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Fault tolerance" in out
        assert "availability" in out

    def test_every_registered_experiment_has_description(self):
        for spec in all_specs():
            assert spec.description, spec.name
            assert callable(spec.execute), spec.name


class TestExport:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("results")
        world = World(SMALL_SCALE)
        return out, export_all(world, str(out))

    def test_all_files_written(self, exported):
        out, written = exported
        assert len(written) >= 10
        for path in written:
            assert os.path.exists(path)
            assert os.path.getsize(path) > 0

    def test_fig8_csv_contents(self, exported):
        out, _ = exported
        with open(os.path.join(str(out), "fig8.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        names = {r["router"] for r in rows}
        assert "Oregon-1" in names and "Mauritius" in names
        for row in rows:
            assert 0.0 <= float(row["update_rate"]) <= 1.0

    def test_fig6_csv_row_count(self, exported):
        out, _ = exported
        with open(os.path.join(str(out), "fig6.csv")) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == SMALL_SCALE.num_users

    def test_export_cli_command(self, tmp_path, capsys, monkeypatch):
        # The class fixture already exports every experiment; the CLI
        # verb only needs the two whose files it asserts.
        from repro.experiments import export

        monkeypatch.setattr(
            export, "all_specs",
            lambda: [get_spec("fig12"), get_spec("table1")],
        )
        target = tmp_path / "cli-out"
        assert main(["export", "--out", str(target), "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "fig12.csv" in out
        assert (target / "table1.csv").exists()


class TestCliObservability:
    def test_profile_reports_phases_and_warm_cache_hits(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.engine import CACHE_DIR_ENV, runner

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        runner._WORLDS.clear()  # force a substrate build in this process
        assert main(["run", "fig6", "--scale", "small", "--profile"]) == 0
        cold = capsys.readouterr().out
        assert "== profile: per-experiment phases ==" in cold
        assert "experiment.fig6" in cold
        assert "cache.miss" in cold

        # Warm second run (fresh process simulated by dropping the
        # in-memory world pool): the substrate loads from disk and the
        # profile shows nonzero hit counters plus where the time went.
        runner._WORLDS.clear()
        assert main(["run", "fig6", "--scale", "small", "--profile"]) == 0
        warm = capsys.readouterr().out
        assert "== slowest spans (by exclusive time) ==" in warm
        assert "cache.hit" in warm
        assert "cache.miss" not in warm

    def test_metrics_out_writes_merged_snapshot(
        self, capsys, tmp_path, monkeypatch
    ):
        import json as jsonlib

        from repro.engine import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, "off")
        out_path = tmp_path / "metrics.json"
        assert main(["run", "envelope", "--metrics-out",
                     str(out_path)]) == 0
        capsys.readouterr()
        with open(out_path, encoding="utf-8") as handle:
            payload = jsonlib.load(handle)
        assert payload["schema"] == "repro.obs/v1"
        assert payload["jobs"] == 1
        record = payload["experiments"]["envelope"]
        assert record["status"] == "ok"
        assert "experiment.envelope" in record["metrics"]["timers"]
        assert "experiment.envelope" in payload["totals"]["timers"]

    def test_profile_goes_to_stderr_under_json_format(self, capsys,
                                                      monkeypatch):
        import json as jsonlib

        from repro.engine import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, "off")
        assert main(["run", "envelope", "--format", "json",
                     "--profile"]) == 0
        captured = capsys.readouterr()
        payload = jsonlib.loads(captured.out)  # stdout stays pure JSON
        assert payload["records"][0]["name"] == "envelope"
        assert "experiment.envelope" in (
            payload["records"][0]["metrics"]["timers"]
        )
        assert "== profile: per-experiment phases ==" in captured.err


class TestLedgerCli:
    """repro run --ledger-dir / check / compare / --trace-out."""

    @pytest.fixture()
    def no_cache(self, monkeypatch):
        from repro.engine import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, "off")

    def _run_once(self, tmp_path, capsys):
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "ledger")]) == 0
        return capsys.readouterr()

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_run_appends_ledger_entry(self, tmp_path, capsys, no_cache):
        import json as jsonlib

        captured = self._run_once(tmp_path, capsys)
        assert "[ledger: " in captured.out
        path = tmp_path / "ledger" / "ledger.jsonl"
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        entry = jsonlib.loads(lines[0])
        assert entry["scale"] == "small"
        assert entry["version"]
        assert entry["experiments"]["envelope"]["status"] == "ok"
        assert entry["experiments"]["envelope"]["series_digests"]

    def test_run_without_ledger_is_silent(self, capsys, no_cache,
                                          monkeypatch):
        from repro.obs import LEDGER_DIR_ENV

        monkeypatch.setenv(LEDGER_DIR_ENV, "off")
        assert main(["run", "envelope", "--scale", "small"]) == 0
        assert "[ledger:" not in capsys.readouterr().out

    def test_check_passes_on_clean_tree(self, tmp_path, capsys,
                                        no_cache):
        self._run_once(tmp_path, capsys)
        assert main(["check", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "envelope" in out

    def test_check_fails_on_perturbed_target(self, tmp_path, capsys,
                                             no_cache, monkeypatch):
        # A target whose accepted band excludes the reproduced value
        # must fail the check — this is the CI tripwire for drifting
        # reproductions.
        from repro.experiments import exp_envelope
        from repro.obs import PaperTarget

        self._run_once(tmp_path, capsys)
        monkeypatch.setattr(
            exp_envelope, "PAPER_TARGETS",
            (PaperTarget(key="content_updates_per_s", paper=100.0,
                         lo=0.0, hi=1.0, section="§7.3"),),
        )
        assert main(["check", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 1
        assert "REGRESS" in capsys.readouterr().out

    def test_check_fails_on_missing_observation(self, tmp_path, capsys,
                                                no_cache, monkeypatch):
        from repro.experiments import exp_envelope
        from repro.obs import PaperTarget

        self._run_once(tmp_path, capsys)
        monkeypatch.setattr(
            exp_envelope, "PAPER_TARGETS",
            (PaperTarget(key="renamed_away", paper=1.0, lo=0, hi=2),),
        )
        assert main(["check", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_check_without_ledger_errors(self, capsys, monkeypatch):
        from repro.obs import LEDGER_DIR_ENV

        monkeypatch.setenv(LEDGER_DIR_ENV, "off")
        assert main(["check"]) == 2
        assert "no ledger configured" in capsys.readouterr().err

    def test_check_on_empty_ledger_errors(self, tmp_path, capsys):
        assert main(["check", "--ledger-dir", str(tmp_path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_run_ledger_dir_collision_is_friendly(self, tmp_path, capsys,
                                                  no_cache):
        # A *file* where the ledger directory should be used to
        # traceback out of RunLedger's eager makedirs; now it is a
        # one-line error before any experiment runs.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert "cannot write run journal" in captured.err
        assert "Traceback" not in captured.err

    def test_check_ledger_dir_collision_is_friendly(self, tmp_path,
                                                    capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["check", "--ledger-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert "empty" in captured.err
        assert "Traceback" not in captured.err

    def test_compare_ledger_dir_collision_is_friendly(self, tmp_path,
                                                      capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["compare", "-2", "-1",
                     "--ledger-dir", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert "no ledger entry" in captured.err
        assert "Traceback" not in captured.err

    def test_resume_on_missing_ledger_dir_is_friendly(self, tmp_path,
                                                      capsys, no_cache):
        # --resume last against a ledger dir that never existed: a
        # friendly "nothing to resume", not a traceback.
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "never-created"),
                     "--resume", "last"]) == 2
        captured = capsys.readouterr()
        assert "cannot resume" in captured.err
        assert "Traceback" not in captured.err

    def test_compare_two_identical_runs(self, tmp_path, capsys,
                                        no_cache):
        self._run_once(tmp_path, capsys)
        self._run_once(tmp_path, capsys)
        assert main(["compare", "-2", "-1", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "envelope" in out
        assert "identical series" in out
        assert "DIFFERENT" not in out

    def test_compare_flags_digest_mismatch(self, tmp_path, capsys,
                                           no_cache):
        import json as jsonlib

        self._run_once(tmp_path, capsys)
        self._run_once(tmp_path, capsys)
        path = tmp_path / "ledger" / "ledger.jsonl"
        lines = path.read_text().strip().splitlines()
        doctored = jsonlib.loads(lines[1])
        doctored["experiments"]["envelope"]["series_digests"][
            "envelope"] = "0" * 16
        lines[1] = jsonlib.dumps(doctored)
        path.write_text("\n".join(lines) + "\n")
        assert main(["compare", "-2", "-1", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "DIFFERENT" in out
        assert "different series: envelope" in out

    def test_compare_unknown_ref_errors(self, tmp_path, capsys,
                                        no_cache):
        self._run_once(tmp_path, capsys)
        assert main(["compare", "nope", "-1", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 2
        assert "no ledger entry" in capsys.readouterr().err

    def test_trace_out_writes_perfetto_loadable_json(
        self, tmp_path, capsys, no_cache
    ):
        import json as jsonlib

        trace = tmp_path / "trace.json"
        assert main(["run", "envelope", "--scale", "small",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        with open(trace, encoding="utf-8") as handle:
            doc = jsonlib.load(handle)
        # The structural contract the Perfetto loader needs: a
        # traceEvents list of complete events with numeric ts/dur.
        assert isinstance(doc["traceEvents"], list)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "experiment.envelope" for e in spans)
        for event in spans:
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["pid"] == 1


class TestResourceTelemetryCli:
    """run --progress, check budgets, report --perf, and friendly
    output-path validation."""

    @pytest.fixture(autouse=True)
    def no_cache(self, monkeypatch):
        from repro.engine import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, "off")

    def _run_once(self, tmp_path, capsys):
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "ledger")]) == 0
        return capsys.readouterr()

    # -- satellite: unwritable --metrics-out/--trace-out ----------------

    def test_metrics_out_blocked_parent_is_friendly(self, tmp_path,
                                                    capsys):
        # Parent "directory" is a file: a one-line exit-2 *before* the
        # run spends any time, not an end-of-run traceback.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", "envelope", "--scale", "small",
                     "--metrics-out",
                     str(blocker / "metrics.json")]) == 2
        captured = capsys.readouterr()
        assert "cannot create directory" in captured.err
        assert "Traceback" not in captured.err
        assert "Back-of-the-envelope" not in captured.out  # never ran

    def test_trace_out_directory_target_is_friendly(self, tmp_path,
                                                    capsys):
        assert main(["run", "envelope", "--scale", "small",
                     "--trace-out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "is a directory" in captured.err
        assert "Traceback" not in captured.err

    def test_metrics_out_missing_parent_is_autocreated(self, tmp_path,
                                                       capsys):
        import json as jsonlib

        target = tmp_path / "deep" / "nested" / "metrics.json"
        assert main(["run", "envelope", "--scale", "small",
                     "--metrics-out", str(target)]) == 0
        capsys.readouterr()
        payload = jsonlib.loads(target.read_text())
        assert payload["schema"] == "repro.obs/v1"

    # -- tentpole: resources in records, ledger, check, report ----------

    def test_ledger_entry_carries_resources(self, tmp_path, capsys):
        import json as jsonlib

        self._run_once(tmp_path, capsys)
        line = (tmp_path / "ledger" / "ledger.jsonl").read_text()
        entry = jsonlib.loads(line)
        exp = entry["experiments"]["envelope"]
        assert exp["peak_rss_mb"] > 0
        assert exp["cpu_s"] >= 0
        driver = entry["resources"]["driver"]
        assert driver["peak_rss_mb"] > 0
        assert driver["cpu_s"] >= 0
        assert "samples" not in driver

    def test_metrics_out_totals_include_resources(self, tmp_path,
                                                  capsys):
        import json as jsonlib

        target = tmp_path / "metrics.json"
        assert main(["run", "envelope", "--scale", "small",
                     "--metrics-out", str(target)]) == 0
        capsys.readouterr()
        payload = jsonlib.loads(target.read_text())
        totals = payload["totals"]
        assert "resources.cpu_s" in totals["counters"]
        assert totals["gauges"]["resources.peak_rss_mb"] > 0
        # No sampler thread, so no sampler bookkeeping on the driver.
        driver = payload["driver"]
        assert not [key for section in ("counters", "gauges")
                    for key in driver[section] if "sampler" in key]

    def test_check_reports_budgets_in_band(self, tmp_path, capsys):
        self._run_once(tmp_path, capsys)
        assert main(["check", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 0
        out = capsys.readouterr().out
        assert "performance budgets" in out
        assert "all within budget" in out

    def test_check_fails_on_blown_budget(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.experiments import exp_envelope
        from repro.obs import PerfBudget

        self._run_once(tmp_path, capsys)
        # A floor the sub-millisecond envelope can never reach: the
        # "suspiciously free" direction of the band.
        monkeypatch.setattr(
            exp_envelope, "PERF_BUDGETS",
            (PerfBudget(key="wall_s", lo=1e6, hi=2e6,
                        note="impossible band"),),
        )
        assert main(["check", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 1
        out = capsys.readouterr().out
        assert "REGRESS" in out
        assert "VIOLATED" in out

    def test_check_fails_on_missing_budget_value(self, tmp_path, capsys,
                                                 monkeypatch):
        import json as jsonlib

        self._run_once(tmp_path, capsys)
        # Doctor the entry: drop the resource fields a budget bounds.
        path = tmp_path / "ledger" / "ledger.jsonl"
        entry = jsonlib.loads(path.read_text())
        entry["experiments"]["envelope"].pop("peak_rss_mb", None)
        path.write_text(jsonlib.dumps(entry) + "\n")
        assert main(["check", "--ledger-dir",
                     str(tmp_path / "ledger")]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_report_perf_writes_bench_file(self, tmp_path, capsys):
        import json as jsonlib

        self._run_once(tmp_path, capsys)
        out_dir = tmp_path / "bench"
        assert main(["report", "--perf", "--out", str(out_dir),
                     "--ledger-dir", str(tmp_path / "ledger")]) == 0
        captured = capsys.readouterr()
        assert "[bench: run " in captured.out
        (bench_path,) = out_dir.glob("BENCH_*.json")
        payload = jsonlib.loads(bench_path.read_text())
        assert payload["schema"] == "repro.bench/v1"
        envelope = payload["experiments"]["envelope"]
        assert envelope["wall_s"] is not None
        assert envelope["peak_rss_mb"] > 0
        assert payload["budgets"]  # envelope declares budgets
        assert all(b["status"] == "pass" for b in payload["budgets"])

    def test_report_without_perf_errors(self, capsys):
        assert main(["report"]) == 2
        assert "pass --perf" in capsys.readouterr().err

    def test_report_empty_ledger_errors(self, tmp_path, capsys):
        assert main(["report", "--perf", "--ledger-dir",
                     str(tmp_path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_progress_renders_status_line(self, tmp_path, capsys):
        assert main(["run", "envelope", "--scale", "small",
                     "--progress"]) == 0
        captured = capsys.readouterr()
        assert "1 done / 0 running / 0 queued" in captured.err
        assert "rss " in captured.err
        assert "Back-of-the-envelope" in captured.out  # stdout clean


class TestResilienceCli:
    """repro run --timeout-s / --resume / REPRO_CHAOS validation."""

    @pytest.fixture()
    def no_cache(self, monkeypatch):
        from repro.engine import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, "off")

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_timeout_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--timeout-s", value])
        assert excinfo.value.code == 2
        assert "timeout must be" in capsys.readouterr().err

    def test_bad_chaos_spec_rejected(self, capsys, monkeypatch):
        from repro.engine import CHAOS_ENV

        monkeypatch.setenv(CHAOS_ENV, "explode:0.5")
        assert main(["run", "table1", "--scale", "small"]) == 2
        err = capsys.readouterr().err
        assert "bad REPRO_CHAOS spec" in err
        assert "explode" in err

    def test_resume_without_ledger_rejected(self, capsys, monkeypatch,
                                            no_cache):
        from repro.obs import LEDGER_DIR_ENV

        monkeypatch.delenv(LEDGER_DIR_ENV, raising=False)
        assert main(["run", "table1", "--scale", "small",
                     "--resume", "last"]) == 2
        err = capsys.readouterr().err
        assert "--resume needs a run journal" in err

    def test_resume_unknown_run_rejected(self, tmp_path, capsys,
                                         no_cache):
        assert main(["run", "table1", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "ledger")]) == 0
        capsys.readouterr()
        assert main(["run", "table1", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "ledger"),
                     "--resume", "nope"]) == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "recent:" in err  # lists the known run ids

    def test_resume_config_mismatch_rejected(self, tmp_path, capsys,
                                             no_cache):
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "ledger")]) == 0
        capsys.readouterr()
        # Same journal, different experiment set: refused, not stitched.
        assert main(["run", "table1", "--scale", "small",
                     "--ledger-dir", str(tmp_path / "ledger"),
                     "--resume", "last"]) == 2
        assert "resume must replay the same run" in \
            capsys.readouterr().err

    def test_run_resume_round_trip(self, tmp_path, capsys, no_cache):
        import json as jsonlib

        ledger_dir = tmp_path / "ledger"
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(ledger_dir)]) == 0
        first = capsys.readouterr()
        assert list(ledger_dir.glob("journal-*.jsonl"))
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(ledger_dir),
                     "--resume", "last"]) == 0
        second = capsys.readouterr()
        assert "[resume " in second.err
        assert "1/1 experiment(s) journaled complete" in second.err
        # The resumed entry reproduces the original digests exactly and
        # names the journal it resumed.
        lines = (ledger_dir / "ledger.jsonl").read_text().splitlines()
        entry_a, entry_b = (jsonlib.loads(line) for line in lines)
        assert entry_b["resumed_from"] == entry_a["run_id"]
        assert entry_b["experiments"]["envelope"]["series_digests"] == \
            entry_a["experiments"]["envelope"]["series_digests"]
        assert entry_b["experiments"]["envelope"]["resumed"] is True
        assert "Back-of-the-envelope" in first.out
        assert "Back-of-the-envelope" in second.out

    def test_compare_flags_recovery_paths(self, tmp_path, capsys,
                                          no_cache):
        ledger_dir = tmp_path / "ledger"
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(ledger_dir)]) == 0
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(ledger_dir),
                     "--resume", "last"]) == 0
        capsys.readouterr()
        assert main(["compare", "-2", "-1", "--ledger-dir",
                     str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out  # the new column
        assert "B:resumed" in out
        assert "resumed from" in out  # entry header note

    def test_timeout_s_run_is_ledger_identical_to_serial(
        self, tmp_path, capsys, no_cache
    ):
        import json as jsonlib

        ledger_dir = tmp_path / "ledger"
        # A generous deadline routes the run through the pooled path
        # even at jobs=1; the digests must not notice.
        assert main(["run", "envelope", "--scale", "small",
                     "--ledger-dir", str(ledger_dir)]) == 0
        assert main(["run", "envelope", "--scale", "small",
                     "--timeout-s", "300",
                     "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        lines = (ledger_dir / "ledger.jsonl").read_text().splitlines()
        entry_a, entry_b = (jsonlib.loads(line) for line in lines)
        assert entry_a["experiments"]["envelope"]["series_digests"] == \
            entry_b["experiments"]["envelope"]["series_digests"]
