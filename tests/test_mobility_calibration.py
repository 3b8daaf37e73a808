"""Calibration tests: the synthetic NomadLog workload must reproduce
the population statistics the paper reports (§4, §6.1, §6.3, Figs 6-9).

Bands are deliberately generous — we reproduce shapes, not decimals —
but tight enough that a regression in the behavioural model (e.g. the
heavy tail disappearing) fails loudly.
"""

import pytest

from repro.mobility import (
    MobilityWorkloadConfig,
    UserClass,
    dominant_residence_samples,
    generate_workload,
    percentile,
    user_averages,
)
from repro.topology import generate_as_topology


@pytest.fixture(scope="module")
def workload():
    topo = generate_as_topology()
    return generate_workload(
        topo, MobilityWorkloadConfig(num_users=372, num_days=14)
    )


@pytest.fixture(scope="module")
def averages(workload):
    return user_averages(workload.segments, workload.user_ids)


class TestFig6DistinctLocations:
    """Fig. 6: distinct network locations visited per user per day."""

    def test_population_size(self, averages):
        assert len(averages) == 372

    def test_median_distinct_ips_near_3(self, averages):
        med = percentile([u.avg_distinct_ips for u in averages], 0.5)
        assert 2.5 <= med <= 4.5

    def test_median_distinct_prefixes_near_2(self, averages):
        med = percentile([u.avg_distinct_prefixes for u in averages], 0.5)
        assert 1.5 <= med <= 3.0

    def test_median_distinct_ases_near_2(self, averages):
        med = percentile([u.avg_distinct_ases for u in averages], 0.5)
        assert 1.5 <= med <= 2.5

    def test_over_20pct_of_users_above_10_ips(self, averages):
        frac = sum(1 for u in averages if u.avg_distinct_ips > 10) / len(averages)
        assert frac > 0.15
        assert frac < 0.40  # the tail should not dominate

    def test_ordering_ips_ge_prefixes_ge_ases(self, averages):
        for u in averages:
            assert u.avg_distinct_ips >= u.avg_distinct_prefixes - 1e-9
            assert u.avg_distinct_prefixes >= u.avg_distinct_ases - 1e-9


class TestFig7Transitions:
    """Fig. 7: transitions across network locations per day."""

    def test_median_ip_transitions_near_3(self, averages):
        med = percentile([u.avg_ip_transitions for u in averages], 0.5)
        assert 2.0 <= med <= 5.0

    def test_median_as_transitions_near_1(self, averages):
        med = percentile([u.avg_as_transitions for u in averages], 0.5)
        assert 0.5 <= med <= 2.5

    def test_as_transition_range_matches_paper(self, averages):
        # Paper: max 31.6, min 0.25 average AS transitions per day.
        values = [u.avg_as_transitions for u in averages]
        assert max(values) >= 15.0
        assert max(values) <= 60.0
        assert min(values) <= 0.5

    def test_transitions_at_least_locations_minus_one(self, workload):
        from repro.mobility import day_stats

        s = day_stats(workload.segments)
        assert (s.ip_transitions >= s.distinct_ips - 1).all()
        assert (s.as_transitions >= s.distinct_ases - 1).all()


class TestFig9DominantResidence:
    """Fig. 9: fraction of the day spent at the dominant location."""

    @pytest.fixture(scope="class")
    def samples(self, workload):
        return dominant_residence_samples(workload.segments)

    def test_about_40pct_exceed_70pct_at_dominant_ip(self, samples):
        ip, _, _ = samples
        frac_above = sum(1 for v in ip if v > 0.70) / len(ip)
        assert 0.30 <= frac_above <= 0.60

    def test_about_40pct_exceed_85pct_at_dominant_as(self, samples):
        _, _, asn = samples
        frac_above = sum(1 for v in asn if v > 0.85) / len(asn)
        assert 0.35 <= frac_above <= 0.65

    def test_median_time_away_from_dominant_ip_near_30pct(self, samples):
        # §6.2: "users typically spend 30% of a day away from the
        # dominant IP address".
        ip, _, _ = samples
        away = percentile([1 - v for v in ip], 0.5)
        assert 0.20 <= away <= 0.45

    def test_dominant_as_at_least_dominant_ip(self, samples):
        ip, prefix, asn = samples
        for i_val, p_val, a_val in zip(ip, prefix, asn):
            assert a_val >= p_val - 1e-9
            assert p_val >= i_val - 1e-9


class TestWorkloadStructure:
    def test_deterministic(self):
        topo = generate_as_topology()
        cfg = MobilityWorkloadConfig(num_users=40, num_days=3, seed=11)
        w1 = generate_workload(topo, cfg)
        w2 = generate_workload(topo, cfg)
        t1 = [(e.user_id, e.day, e.hour, e.old, e.new) for e in w1.all_transitions()]
        t2 = [(e.user_id, e.day, e.hour, e.old, e.new) for e in w2.all_transitions()]
        assert t1 == t2

    def test_users_mostly_in_us_eu_sa(self, workload):
        regions = [p.region for p in workload.profiles]
        western = sum(
            1 for r in regions if r.startswith(("us", "eu")) or r == "sa"
        )
        assert western / len(regions) > 0.9

    def test_all_classes_present(self, workload):
        classes = {p.user_class for p in workload.profiles}
        assert classes == set(UserClass)

    def test_locations_have_known_origin(self, workload):
        topo = workload.topology
        for ev in workload.all_transitions()[:500]:
            assert topo.origin_of_address(ev.new.ip) == ev.new.asn
