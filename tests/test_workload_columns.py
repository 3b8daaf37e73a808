"""Tests for the columnar workload core (repro.workload)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.mobility import (
    MobilityEvent,
    MobilityWorkloadConfig,
    NetworkLocation,
    generate_workload,
)
from repro.net import ContentName, IPv4Address, IPv4Prefix, parse_address
from repro.topology import generate_as_topology
from repro.workload import AddrsMatrix, DeviceEventColumns, EventColumns
from repro.workload.columns import EVENT_DTYPE, unique_with_inverse
from tests.reference.content import (
    address_timeline,
    change_points,
    from_changes,
    union_all,
)


@st.composite
def locations(draw):
    length = draw(st.integers(min_value=8, max_value=30))
    network = draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    network <<= 32 - length
    offset = draw(st.integers(min_value=0, max_value=(1 << (32 - length)) - 1))
    asn = draw(st.integers(min_value=1, max_value=(1 << 31) - 1))
    return NetworkLocation(
        ip=IPv4Address(network + offset),
        prefix=IPv4Prefix(network, length),
        asn=asn,
    )


@st.composite
def mobility_events(draw):
    return MobilityEvent(
        user_id=draw(st.text(min_size=1, max_size=8)),
        day=draw(st.integers(min_value=0, max_value=365)),
        hour=draw(
            st.floats(min_value=0.0, max_value=23.999, allow_nan=False)
        ),
        old=draw(locations()),
        new=draw(locations()),
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(mobility_events(), max_size=30))
    def test_to_events_is_exact(self, events):
        columns = DeviceEventColumns.from_events(events)
        assert columns.to_events() == events

    @settings(max_examples=25, deadline=None)
    @given(st.lists(mobility_events(), max_size=20))
    def test_iteration_and_indexing_match(self, events):
        columns = DeviceEventColumns.from_events(events)
        assert len(columns) == len(events)
        assert list(columns) == events
        for i, event in enumerate(events):
            assert columns[i] == event
            assert columns.event(i) == event

    def test_to_events_shares_one_location_per_site(self):
        a = NetworkLocation(
            parse_address("10.0.0.1"), IPv4Prefix(10 << 24, 8), 65000
        )
        b = NetworkLocation(
            parse_address("10.0.0.2"), IPv4Prefix(10 << 24, 8), 65001
        )
        events = [MobilityEvent("u", 3, 7.5, a, b),
                  MobilityEvent("v", 3, 9.0, b, a)]
        first, second = DeviceEventColumns.from_events(events).to_events()
        assert [first, second] == events
        assert first.old is second.new and first.new is second.old


class TestWorkloadTable:
    def test_as_columns_holds_every_transition(self):
        # The column-wise build from segment pairs gives the table the
        # object events would, users interned in first-event order.
        topo = generate_as_topology()
        metrics = obs.Metrics()
        with obs.using(metrics):
            workload = generate_workload(topo, MobilityWorkloadConfig(
                num_users=40, num_days=3, seed=11))
        events = workload.all_transitions()
        columns = workload.as_columns()
        assert len(columns) == len(events) > 0
        assert columns.to_events() == events
        assert columns.users == tuple(dict.fromkeys(e.user_id for e in events))
        assert metrics.counters["mobility.generate.events"] == len(events)


class TestBatchAccessors:
    def _columns(self):
        a = NetworkLocation(
            parse_address("10.0.0.1"), IPv4Prefix(10 << 24, 8), 100
        )
        b = NetworkLocation(
            parse_address("11.0.0.1"), IPv4Prefix(11 << 24, 8), 200
        )
        events = [
            MobilityEvent("alice", 0, 1.0, a, b),
            MobilityEvent("bob", 0, 2.0, b, a),
            MobilityEvent("alice", 1, 3.0, a, b),
        ]
        return events, DeviceEventColumns.from_events(events)

    def test_as_columns_values(self):
        events, columns = self._columns()
        cols = columns.as_columns()
        assert isinstance(cols, EventColumns)
        assert cols.time.tolist() == [1.0, 2.0, 3.0]
        assert cols.day.tolist() == [0, 0, 1]
        assert cols.from_as.tolist() == [100, 200, 100]
        assert cols.to_as.tolist() == [200, 100, 200]
        assert [columns.users[u] for u in cols.user] == [
            "alice", "bob", "alice",
        ]

    def test_as_columns_is_zero_copy(self):
        _, columns = self._columns()
        cols = columns.as_columns()
        for view in cols:
            assert view.base is columns.table

    def test_days(self):
        _, columns = self._columns()
        assert columns.days().tolist() == [0, 1]

    def test_slicing_returns_columns(self):
        events, columns = self._columns()
        tail = columns[1:]
        assert isinstance(tail, DeviceEventColumns)
        assert tail.to_events() == events[1:]

    def test_empty(self):
        columns = DeviceEventColumns.empty()
        assert len(columns) == 0
        assert columns.to_events() == []
        assert columns.days().tolist() == []

    def test_dtype_enforced(self):
        with pytest.raises(ValueError):
            DeviceEventColumns(np.zeros(3, dtype=np.int64), ())
        assert DeviceEventColumns.empty().table.dtype == EVENT_DTYPE


class TestAddrsMatrix:
    CHANGES = [
        (0, frozenset({parse_address("10.6.0.1")})),
        (5, frozenset({parse_address("10.6.0.1"),
                       parse_address("10.7.0.1")})),
        (9, frozenset({parse_address("10.7.0.1")})),
    ]

    def _timeline(self):
        name = ContentName.from_domain("a.com")
        return address_timeline(name, total_hours=24, changes=self.CHANGES)

    def test_timeline_matrix_shape_and_counts(self):
        tl = self._timeline()
        matrix = tl.as_matrix()
        assert matrix.num_events == tl.num_changes() == 2
        assert matrix.num_addrs == len(union_all(tl)) == 2
        assert matrix.hours.tolist() == [0, 5, 9]
        assert matrix.hours.dtype == np.int64
        assert matrix.addrs.dtype == np.int64
        assert matrix.membership.shape == (3, 2)

    def test_from_rows_keeps_float_hours(self):
        a, b = parse_address("10.6.0.1"), parse_address("10.7.0.1")
        matrix = AddrsMatrix.from_rows(
            "u", [0.5, 2.25], [b.value, a.value], [0b10, 0b11]
        )
        assert matrix.hours.dtype == np.float64
        assert matrix.hours.tolist() == [0.5, 2.25]
        assert matrix.addrs.tolist() == [a.value, b.value]
        assert matrix.membership.tolist() == [[True, False], [True, True]]
        self.assert_rows_equal_changes(
            matrix, [(0.5, frozenset({a})), (2.25, frozenset({a, b}))]
        )

    def test_rows_round_trip_to_sets(self):
        assert change_points(self._timeline()) == self.CHANGES

    def test_timeline_memoizes_matrix(self):
        tl = self._timeline()
        assert tl.as_matrix() is tl.as_matrix()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AddrsMatrix(
                "x", np.array([0]),
                np.array([parse_address("10.6.0.1").value], dtype=np.int64),
                np.zeros((2, 1), dtype=bool),
            )

    # from_rows: bitmask rows, bit j standing for values[j], held to the
    # reference from_changes over the same sets.

    def assert_rows_equal_changes(self, matrix, points):
        expected = from_changes("x", points)
        assert matrix.hours.dtype == expected.hours.dtype
        assert matrix.hours.tolist() == expected.hours.tolist()
        assert matrix.addrs.dtype == expected.addrs.dtype == np.int64
        assert matrix.addrs.tolist() == expected.addrs.tolist()
        assert matrix.membership.dtype == np.bool_
        assert np.array_equal(matrix.membership, expected.membership)

    def test_from_rows_without_addresses(self):
        matrix = AddrsMatrix.from_rows("x", [0, 3], [], [0, 0])
        assert matrix.addrs.tolist() == []
        assert matrix.membership.shape == (2, 0)
        self.assert_rows_equal_changes(
            matrix, [(0, frozenset()), (3, frozenset())]
        )

    def test_from_rows_column_held_only_in_a_middle_row(self):
        a, b = parse_address("10.6.0.1"), parse_address("10.7.0.1")
        matrix = AddrsMatrix.from_rows(
            "x", [0, 4, 9], [a.value, b.value], [1, 3, 1]
        )
        assert matrix.membership.tolist() == [
            [True, False], [True, True], [True, False],
        ]
        self.assert_rows_equal_changes(
            matrix,
            [(0, frozenset({a})), (4, frozenset({a, b})), (9, frozenset({a}))],
        )

    def test_from_rows_sorts_addrs_and_drops_unheld_columns(self):
        a, b, c, d = (parse_address(f"10.6.0.{i}") for i in range(1, 5))
        matrix = AddrsMatrix.from_rows(
            "x", [0, 2], [c.value, d.value, a.value, b.value],
            [0b0101, 0b1100],
        )
        assert matrix.addrs.tolist() == [a.value, b.value, c.value]
        self.assert_rows_equal_changes(
            matrix, [(0, frozenset({c, a})), (2, frozenset({a, b}))]
        )

    def test_from_rows_more_than_64_columns(self):
        addrs = [IPv4Address((10 << 24) | i) for i in range(1, 71)]
        rows = [1 | 1 << 63, 1 << 64 | 1 << 69, (1 << 70) - 1]
        # Whole content hours, and a device's fractional ones.
        for hours in ([0, 1, 5], [0.0, 1.5, 5.25]):
            matrix = AddrsMatrix.from_rows(
                "x", hours, [a.value for a in addrs], rows
            )
            assert matrix.num_addrs == 70
            self.assert_rows_equal_changes(matrix, [
                (hour,
                 frozenset(a for j, a in enumerate(addrs) if row >> j & 1))
                for hour, row in zip(hours, rows)
            ])


def test_unique_with_inverse_is_flat():
    uniq, inverse = unique_with_inverse(np.array([3, 1, 3, 2]))
    assert uniq.tolist() == [1, 2, 3]
    assert inverse.shape == (4,)
    assert uniq[inverse].tolist() == [3, 1, 3, 2]
