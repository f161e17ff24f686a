"""Retained scalar reference implementations for hot-path equivalence testing.

The planner's hot paths (:mod:`repro.core.bandwidth`, the saturation window in
:mod:`repro.core.eviction`, the eager-prefetch search in
:mod:`repro.core.prefetch`, the benefit term in :mod:`repro.core.pressure` and
the fault-batch arithmetic in :mod:`repro.uvm.fault`) are vectorized with
numpy. Every vectorization in this codebase carries a *bit-identity contract*:
the optimized code must produce byte-equal results to straightforward scalar
Python, because golden files and the sweep result cache are compared
bit-for-bit.

This module keeps the scalar implementations alive so the contract stays
checkable: the Hypothesis suites in ``test_vectorized_equivalence.py``
drive the production code and these references with identical randomized
inputs and assert exact (``==``, not approximate) agreement. When changing a
vectorized hot path, change the matching reference only if the *semantics*
changed — and then regenerate nothing: goldens must stay byte-identical.

Nothing here is exercised on the production path, so it lives with the
tests and does not ship in the package.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import SystemConfig
from repro.core.bandwidth import Direction
from repro.core.vitality import InactivePeriod
from repro.errors import SchedulingError

#: The scalar twin of :data:`repro.core.bandwidth.EXHAUSTED_SLOT`; the skip
#: index compares against it exactly (a fully consumed slot holds IEEE-754
#: zero because ``reserve`` subtracts the precise remaining availability).
EXHAUSTED_SLOT = 0.0  # repro-lint: exact-float


class ScalarChannelSchedule:
    """The pre-vectorization :class:`~repro.core.bandwidth.ChannelSchedule`.

    Plain Python float lists with per-combo path-compressed skip indices over
    exhausted slots — the implementation the numpy version must match bit for
    bit. Kept verbatim (minus docstrings) as the equivalence-test oracle.
    """

    def __init__(self, slot_durations: np.ndarray, config: SystemConfig):
        durations = np.asarray(slot_durations, dtype=np.float64)
        if durations.ndim != 1 or len(durations) == 0:
            raise SchedulingError("slot durations must be a non-empty 1-D array")
        if (durations <= 0).any():
            raise SchedulingError("every kernel slot must have positive duration")
        self._durations = durations
        self._config = config
        self._capacities: dict[str, np.ndarray] = {
            "ssd_write": durations * config.ssd.write_bandwidth,
            "ssd_read": durations * config.ssd.read_bandwidth,
            "pcie_out": durations * config.interconnect.bandwidth,
            "pcie_in": durations * config.interconnect.bandwidth,
        }
        self._available: dict[str, list[float]] = {
            name: capacity.tolist() for name, capacity in self._capacities.items()
        }
        self._combos: dict[tuple[bool, Direction], tuple[list[float], ...]] = {
            (False, Direction.OUT): (self._available["pcie_out"],),
            (True, Direction.OUT): (self._available["pcie_out"], self._available["ssd_write"]),
            (False, Direction.IN): (self._available["pcie_in"],),
            (True, Direction.IN): (self._available["pcie_in"], self._available["ssd_read"]),
        }
        n = len(durations)
        self._skip_fwd = {key: list(range(n)) for key in self._combos}
        self._skip_bwd = {key: list(range(n)) for key in self._combos}
        interconnect = config.interconnect
        self._unloaded: dict[tuple[bool, Direction], tuple[float, float]] = {
            (True, Direction.OUT): (
                config.ssd.write_latency + interconnect.latency,
                min(interconnect.bandwidth, config.ssd.write_bandwidth),
            ),
            (True, Direction.IN): (
                config.ssd.read_latency + interconnect.latency,
                min(interconnect.bandwidth, config.ssd.read_bandwidth),
            ),
            (False, Direction.OUT): (
                interconnect.latency,
                min(interconnect.bandwidth, config.host_bandwidth),
            ),
            (False, Direction.IN): (
                interconnect.latency,
                min(interconnect.bandwidth, config.host_bandwidth),
            ),
        }

    @property
    def num_slots(self) -> int:
        return len(self._durations)

    def slot_duration(self, slot: int) -> float:
        return float(self._durations[slot])

    def utilization(self, channel: str) -> np.ndarray:
        return self._utilization_values(channel, 0, self.num_slots)

    def utilization_window(self, channel: str, start: int, stop: int) -> np.ndarray:
        return self._utilization_values(channel, max(start, 0), min(stop, self.num_slots))

    def _utilization_values(self, channel: str, start: int, stop: int) -> np.ndarray:
        if channel not in self._available:
            raise SchedulingError(f"unknown channel {channel!r}")
        capacity = self._capacities[channel][start:stop]
        available = np.asarray(self._available[channel][start:stop], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            used = 1.0 - np.where(capacity > 0, available / capacity, 1.0)
        return np.clip(used, 0.0, 1.0)

    def available_bytes(self, to_ssd: bool, direction: Direction, slots: np.ndarray) -> np.ndarray:
        lists = self._combos[(to_ssd, direction)]
        available = np.asarray(lists[0], dtype=np.float64)[slots]
        for other in lists[1:]:
            available = np.minimum(available, np.asarray(other, dtype=np.float64)[slots])
        return available

    def _next_open_fwd(self, key: tuple[bool, Direction], slot: int) -> int:
        skip = self._skip_fwd[key]
        lists = self._combos[key]
        n = len(skip)
        j = slot
        path = []
        while j < n:
            k = skip[j]
            if k != j:
                path.append(j)
                j = k
                continue
            exhausted = False
            for values in lists:
                if values[j] == EXHAUSTED_SLOT:
                    exhausted = True
                    break
            if not exhausted:
                break
            skip[j] = j + 1
            j += 1
        for visited in path:
            skip[visited] = j
        return j

    def _next_open_bwd(self, key: tuple[bool, Direction], slot: int) -> int:
        skip = self._skip_bwd[key]
        lists = self._combos[key]
        j = slot
        path = []
        while j >= 0:
            k = skip[j]
            if k != j:
                path.append(j)
                j = k
                continue
            exhausted = False
            for values in lists:
                if values[j] == EXHAUSTED_SLOT:
                    exhausted = True
                    break
            if not exhausted:
                break
            skip[j] = j - 1
            j -= 1
        for visited in path:
            skip[visited] = j
        return j

    def probe_forward(
        self, size_bytes: float, start_slot: int, end_slot: int, to_ssd: bool,
        direction: Direction = Direction.OUT,
    ) -> int | None:
        remaining = float(size_bytes)
        limit = min(end_slot, self.num_slots)
        if start_slot >= limit:
            return None
        if remaining <= 0:
            return start_slot
        key = (to_ssd, direction)
        lists = self._combos[key]
        slot = start_slot
        while slot < limit:
            slot = self._next_open_fwd(key, slot)
            if slot >= limit:
                return None
            available = lists[0][slot]
            for other in lists[1:]:
                value = other[slot]
                if value < available:
                    available = value
            remaining -= available
            if remaining <= 0:
                return slot
            slot += 1
        return None

    def probe_backward(
        self, size_bytes: float, end_slot: int, start_slot: int, to_ssd: bool,
        direction: Direction = Direction.IN,
    ) -> int | None:
        remaining = float(size_bytes)
        floor = max(start_slot, 0)
        slot = min(end_slot, self.num_slots) - 1
        if slot < floor:
            return None
        if remaining <= 0:
            return slot
        key = (to_ssd, direction)
        lists = self._combos[key]
        while slot >= floor:
            slot = self._next_open_bwd(key, slot)
            if slot < floor:
                return None
            available = lists[0][slot]
            for other in lists[1:]:
                value = other[slot]
                if value < available:
                    available = value
            remaining -= available
            if remaining <= 0:
                return slot
            slot -= 1
        return None

    def reserve(
        self,
        size_bytes: float,
        start_slot: int,
        to_ssd: bool,
        direction: Direction,
        end_slot: int | None = None,
    ) -> int:
        remaining = float(size_bytes)
        limit = self.num_slots if end_slot is None else min(end_slot, self.num_slots)
        key = (to_ssd, direction)
        lists = self._combos[key]
        slot = start_slot
        while slot < limit:
            open_slot = self._next_open_fwd(key, slot)
            if open_slot >= limit:
                break
            slot = open_slot
            available = lists[0][slot]
            for other in lists[1:]:
                value = other[slot]
                if value < available:
                    available = value
            take = available if available < remaining else remaining
            if take > 0:
                for values in lists:
                    values[slot] -= take
                remaining -= take
            if remaining <= 1e-9:
                return slot
            slot += 1
        if end_slot is None and remaining > 1e-9:
            return self.num_slots - 1
        raise SchedulingError(
            "transfer could not be reserved in the requested window; probe first"
        )

    def transfer_time(self, size_bytes: float, to_ssd: bool, direction: Direction) -> float:
        latency, bandwidth = self._unloaded[(to_ssd, direction)]
        return latency + size_bytes / bandwidth


# -- scalar references for the smaller vectorized hot paths ---------------------


def scalar_eviction_benefit(
    pressure: np.ndarray, capacity: float, period: InactivePeriod, num_slots: int
) -> float:
    """The pre-vectorization benefit term of
    :meth:`repro.core.pressure.MemoryPressureTimeline.eviction_benefit`
    (fresh slice + subtract + clamp + clamp + sum on every call)."""
    if period.wraps_around:
        values = np.concatenate(
            [
                pressure[period.start_slot + 1 :],
                pressure[: max(period.end_slot - num_slots, 0)],
            ]
        )
    else:
        values = pressure[period.start_slot + 1 : max(period.end_slot, 0)]
    if values.size == 0:
        return 0.0
    excess = np.maximum(values - capacity, 0.0)
    return float(np.minimum(excess, period.size_bytes).sum())


def scalar_earliest_issue(
    pressure: np.ndarray,
    capacity: float,
    size_bytes: int,
    issue_slot: int,
    earliest_allowed: int,
    num_slots: int,
) -> int:
    """The pre-vectorization backwards per-slot walk of
    :meth:`repro.core.prefetch.SmartPrefetcher._earliest_issue`."""
    candidate = issue_slot
    slot = issue_slot - 1
    while slot >= earliest_allowed:
        folded = slot % num_slots
        if pressure[folded] + size_bytes > capacity:
            break
        candidate = slot
        slot -= 1
    return candidate


def scalar_saturation_end_slot(
    durations: np.ndarray, start_slot: int, ideal_seconds: float, num_slots: int
) -> int:
    """The pre-vectorization per-slot duration walk of
    :meth:`repro.core.eviction.SmartEvictionScheduler._ssd_saturated`."""
    end_slot = start_slot
    elapsed = 0.0
    while end_slot < num_slots - 1 and elapsed < ideal_seconds:
        elapsed += float(durations[end_slot])
        end_slot += 1
    return end_slot


def scalar_fault_costs(sizes: list[int], fault_batch_bytes: int, fault_latency: float):
    """Per-tensor (fault batches, fault overhead) via the scalar arithmetic of
    :class:`repro.uvm.fault.PageFaultModel` — the oracle for the vectorized
    ``batch_fault_*`` methods."""
    batches = []
    overheads = []
    for size in sizes:
        if size <= 0:
            count = 0
        else:
            count = max(1, math.ceil(size / fault_batch_bytes))
        batches.append(count)
        overheads.append(count * fault_latency)
    return batches, overheads
