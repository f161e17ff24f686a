"""Bit-identity proofs for the vectorized planning hot paths.

Every numpy rewrite in ``core/``/``uvm/`` carries the same contract: it must
produce *byte-equal* results to the straightforward scalar Python it replaced,
because golden files and the sweep result cache compare bit-for-bit. The
retained scalar implementations live in ``scalar_reference.py`` next to this
file; these Hypothesis suites drive production code and reference side by
side with randomized inputs and assert exact equality — ``==`` on floats,
never ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_config
from repro.core.bandwidth import ChannelSchedule, Direction
from repro.core.eviction import saturation_end_slot
from repro.core.prefetch import SmartPrefetcher
from repro.core.pressure import MemoryPressureTimeline
from repro.core.vitality import InactivePeriod
from repro.errors import SchedulingError
from repro.uvm.fault import PageFaultModel
from scalar_reference import (
    ScalarChannelSchedule,
    scalar_earliest_issue,
    scalar_eviction_benefit,
    scalar_fault_costs,
    scalar_saturation_end_slot,
)

MAX_SLOTS = 24

# Slot durations in seconds; spans several orders of magnitude so per-slot
# capacities do too.
durations_arrays = st.lists(
    st.floats(min_value=1e-5, max_value=0.5, allow_nan=False),
    min_size=1,
    max_size=MAX_SLOTS,
).map(lambda values: np.asarray(values, dtype=np.float64))

# Transfer sizes from sub-slot to many-slot multiples of typical capacity
# (paper-config PCIe moves ~GBs per second, slots last ~1e-5..0.5 s). Include
# zero and the tiny (0, 1e-9] reserve edge case explicitly.
transfer_sizes = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e-9),
    st.floats(min_value=1.0, max_value=5e9, allow_nan=False),
)

directions = st.sampled_from([Direction.OUT, Direction.IN])
booleans = st.booleans()


@st.composite
def operation_sequences(draw):
    """A schedule plus a randomized interleaving of probe/reserve operations."""
    durations = draw(durations_arrays)
    n = len(durations)
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["probe_forward", "probe_backward", "reserve"]),
                transfer_sizes,
                st.integers(min_value=0, max_value=n),  # start
                st.integers(min_value=0, max_value=n + 2),  # end
                booleans,  # to_ssd
                directions,
                booleans,  # reserve: bounded window?
            ),
            min_size=1,
            max_size=30,
        )
    )
    return durations, ops


def _apply(schedule, op):
    """Run one operation; returns (tag, value) capturing result or error."""
    kind, size, start, end, to_ssd, direction, bounded = op
    try:
        if kind == "probe_forward":
            return ("ok", schedule.probe_forward(size, start, end, to_ssd, direction))
        if kind == "probe_backward":
            return ("ok", schedule.probe_backward(size, end, start, to_ssd, direction))
        return (
            "ok",
            schedule.reserve(
                size, start, to_ssd, direction, end_slot=end if bounded else None
            ),
        )
    except SchedulingError as exc:
        return ("error", str(exc))


class TestChannelScheduleEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(operation_sequences())
    def test_probe_and_reserve_sequences_bit_identical(self, case):
        durations, ops = case
        config = paper_config()
        vectorized = ChannelSchedule(durations, config)
        reference = ScalarChannelSchedule(durations, config)
        slots = np.arange(len(durations))
        for op in ops:
            assert _apply(vectorized, op) == _apply(reference, op)
            # After every mutation the full availability state must agree
            # exactly, for every combo and channel.
            for to_ssd in (False, True):
                for direction in (Direction.OUT, Direction.IN):
                    ours = vectorized.available_bytes(to_ssd, direction, slots)
                    theirs = reference.available_bytes(to_ssd, direction, slots)
                    assert ours.tolist() == theirs.tolist()
            for channel in ("ssd_write", "ssd_read", "pcie_out", "pcie_in"):
                assert (
                    vectorized.utilization(channel).tolist()
                    == reference.utilization(channel).tolist()
                )

    @settings(max_examples=100, deadline=None)
    @given(
        durations_arrays,
        transfer_sizes,
        booleans,
        directions,
    )
    def test_transfer_time_bit_identical(self, durations, size, to_ssd, direction):
        config = paper_config()
        vectorized = ChannelSchedule(durations, config)
        reference = ScalarChannelSchedule(durations, config)
        assert vectorized.transfer_time(size, to_ssd, direction) == reference.transfer_time(
            size, to_ssd, direction
        )

    def test_utilization_window_matches_full_curve_slice(self):
        config = paper_config()
        schedule = ChannelSchedule(np.full(8, 0.01), config)
        schedule.reserve(float(2**20), 1, True, Direction.OUT)
        full = schedule.utilization("ssd_write")
        window = schedule.utilization_window("ssd_write", 2, 6)
        assert window.tolist() == full[2:6].tolist()


pressure_curves = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    min_size=2,
    max_size=MAX_SLOTS,
).map(lambda values: np.asarray(values, dtype=np.float64))


class TestPressureEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        pressure_curves,
        st.floats(min_value=1.0, max_value=1e9),
        st.integers(min_value=1, max_value=10**9),
        st.data(),
    )
    def test_eviction_benefit_bit_identical(self, curve, capacity, size, data):
        n = len(curve)
        wraps = data.draw(st.booleans())
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        if wraps:
            end = data.draw(st.integers(min_value=n, max_value=2 * n - 1))
        else:
            end = data.draw(st.integers(min_value=start + 1, max_value=n))
        period = InactivePeriod(
            tensor_id=1, size_bytes=size, start_slot=start, end_slot=end,
            wraps_around=wraps,
        )
        timeline = MemoryPressureTimeline(curve, capacity)
        assert timeline.eviction_benefit(period) == scalar_eviction_benefit(
            curve, capacity, period, n
        )

    @settings(max_examples=200, deadline=None)
    @given(
        pressure_curves,
        st.floats(min_value=1.0, max_value=1e9),
        st.integers(min_value=1, max_value=10**9),
        st.data(),
    )
    def test_earliest_issue_matches_scalar_walk(self, curve, capacity, size, data):
        n = len(curve)
        issue = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
        earliest = data.draw(st.integers(min_value=0, max_value=issue))
        timeline = MemoryPressureTimeline(curve, capacity)

        class _Probe:
            issue_slot = issue
            size_bytes = size

        result = SmartPrefetcher(timeline)._earliest_issue(_Probe(), earliest, n)
        expected = scalar_earliest_issue(
            timeline.pressure_view(), capacity, size, issue, earliest, n
        )
        assert result == expected


class TestSaturationWindowEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        durations_arrays,
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.data(),
    )
    def test_cumsum_window_matches_scalar_walk(self, durations, ideal, data):
        n = len(durations)
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert saturation_end_slot(durations, start, ideal, n) == (
            scalar_saturation_end_slot(durations, start, ideal, n)
        )


class TestFaultBatchEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=-(2**20), max_value=2**40), max_size=50)
    )
    def test_batched_fault_costs_bit_identical(self, sizes):
        model = PageFaultModel(paper_config().uvm)
        batches = model.batch_fault_batches(sizes)
        overheads = model.batch_fault_overheads(sizes)
        expected_batches, expected_overheads = scalar_fault_costs(
            sizes, model.config.fault_batch_bytes, model.config.fault_latency
        )
        assert batches.tolist() == expected_batches
        assert overheads.tolist() == expected_overheads

    def test_batched_matches_scalar_methods_elementwise(self):
        model = PageFaultModel(paper_config().uvm)
        sizes = [0, 1, 4096, model.config.fault_batch_bytes, 10**9]
        batches = model.batch_fault_batches(sizes).tolist()
        overheads = model.batch_fault_overheads(sizes).tolist()
        assert batches == [model.fault_batches(s) for s in sizes]
        assert overheads == [model.fault_overhead(s) for s in sizes]


class TestReserveTinyRemaining:
    def test_tiny_positive_reserve_consumes_like_reference(self):
        """The (0, 1e-9] edge: the reference subtracts the tiny remainder from
        the first open slot; the vectorized walk must too (a no-op fast path
        here would desynchronize later probes)."""
        config = paper_config()
        durations = np.full(4, 0.01)
        vectorized = ChannelSchedule(durations, config)
        reference = ScalarChannelSchedule(durations, config)
        for schedule in (vectorized, reference):
            schedule.reserve(5e-10, 0, True, Direction.OUT)
        slots = np.arange(4)
        assert (
            vectorized.available_bytes(True, Direction.OUT, slots).tolist()
            == reference.available_bytes(True, Direction.OUT, slots).tolist()
        )

    def test_zero_size_reserve_returns_first_open_slot_without_consuming(self):
        config = paper_config()
        durations = np.full(3, 0.01)
        schedule = ChannelSchedule(durations, config)
        before = schedule.available_bytes(True, Direction.OUT, np.arange(3)).copy()
        # Exhaust slot 0 so the first open slot is 1.
        schedule.reserve(float(before[0]), 0, True, Direction.OUT, end_slot=1)
        assert schedule.reserve(0.0, 0, True, Direction.OUT) == 1
        after = schedule.available_bytes(True, Direction.OUT, np.arange(3))
        assert after[1] == before[1] and after[2] == before[2]

    def test_zero_size_reserve_raises_when_window_exhausted(self):
        config = paper_config()
        schedule = ChannelSchedule(np.full(2, 0.01), config)
        reference = ScalarChannelSchedule(np.full(2, 0.01), config)
        for s in (schedule, reference):
            capacity = float(s.available_bytes(True, Direction.OUT, np.arange(2)).sum())
            s.reserve(capacity, 0, True, Direction.OUT)
        with pytest.raises(SchedulingError):
            schedule.reserve(0.0, 0, True, Direction.OUT, end_slot=2)
        with pytest.raises(SchedulingError):
            reference.reserve(0.0, 0, True, Direction.OUT, end_slot=2)
