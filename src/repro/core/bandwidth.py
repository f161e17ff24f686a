"""Compile-time channel bandwidth bookkeeping for the migration scheduler.

The scheduler plans transfers against a *fluid* model of the I/O channels: each
kernel slot ``k`` offers ``duration(k) * bandwidth`` bytes of capacity per
channel, and planned transfers consume that capacity slot by slot. This is the
compile-time counterpart of the runtime transfer engine in ``repro.sim``.

Channels:

* ``ssd_write`` / ``ssd_read`` — the SSD's internal flash bandwidth;
* ``pcie_out`` / ``pcie_in`` — the GPU's PCIe link (shared by SSD and host
  traffic), one budget per direction.

A GPU->SSD eviction consumes ``ssd_write`` **and** ``pcie_out``; a host-bound
eviction consumes only ``pcie_out``; prefetches mirror this on the read side.

Implementation note — this is the planner's innermost loop (hundreds of
thousands of per-slot probes for a paper-scale cell), so the per-slot state is
kept in numpy float64 arrays. Each (channel-combination, direction) maintains a
*combined availability* array — the element-wise minimum of its channel
arrays, updated in place on every reservation — so a probe is a chunked walk
over small ``.tolist()`` blocks of that one array (an exhausted slot holds
IEEE-754 zero and contributes exactly ``0.0`` bytes, so the walk needs no
openness filtering to stay bit-identical to the reference's skip-index scan).
The walk itself stays
scalar because the probe semantics subtract availabilities *sequentially*
(``remaining -= available`` in slot order) and IEEE-754 addition does not
reassociate: any cumulative-sum shortcut would round differently. All scalar
arithmetic happens on float64 values, which is bit-identical to the plain
Python floats of the retained scalar reference
(``ScalarChannelSchedule`` in ``tests/scalar_reference.py``); the Hypothesis
equivalence suite proves the two implementations byte-equal on randomized
schedules.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..config import SystemConfig
from ..errors import SchedulingError

#: Remaining capacity of a slot whose budget is fully consumed. The open-slot
#: scan relies on this being *exact*: `reserve` subtracts the precise
#: remaining availability, so an exhausted slot holds IEEE-754 zero (not
#: merely a small number), stays exhausted forever (capacity only ever
#: decreases), and contributes exactly 0.0 bytes to any probe that skips it.
EXHAUSTED_SLOT = 0.0  # repro-lint: exact-float

#: Block size for the chunked probe/reserve walks. Probes usually terminate
#: within a couple of slots (per-slot channel capacity is large relative to
#: tensor sizes), so small blocks avoid materializing whole windows while
#: still amortizing the numpy->Python boundary crossing.
_SCAN_BLOCK = 32


class Direction(Enum):
    """Transfer direction relative to the GPU."""

    OUT = "out"  # eviction: GPU -> SSD/host
    IN = "in"  # prefetch: SSD/host -> GPU


class ChannelSchedule:
    """Tracks planned bandwidth consumption across kernel slots."""

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
        #: Remaining capacity per slot, as float64 arrays (hot-path state).
        self._available: dict[str, np.ndarray] = {
            name: capacity.copy() for name, capacity in self._capacities.items()
        }
        #: (to_ssd, direction) -> the availability arrays a transfer consumes.
        self._combo_arrays: dict[tuple[bool, Direction], tuple[np.ndarray, ...]] = {
            (False, Direction.OUT): (self._available["pcie_out"],),
            (True, Direction.OUT): (self._available["pcie_out"], self._available["ssd_write"]),
            (False, Direction.IN): (self._available["pcie_in"],),
            (True, Direction.IN): (self._available["pcie_in"], self._available["ssd_read"]),
        }
        #: (to_ssd, direction) -> element-wise minimum of the combo's arrays,
        #: maintained in place by :meth:`reserve`. ``np.minimum`` picks one of
        #: its operands without rounding, so each entry is the exact scalar
        #: minimum a per-slot walk would compute. The PCIe array is shared by
        #: the to-host and to-SSD combos of a direction, so a reservation
        #: refreshes *both* combined arrays of its direction.
        self._combined: dict[tuple[bool, Direction], np.ndarray] = {
            key: arrays[0].copy() if len(arrays) == 1 else np.minimum(arrays[0], arrays[1])
            for key, arrays in self._combo_arrays.items()
        }
        #: direction -> (pcie array, ssd array, to-host combined, to-ssd
        #: combined): everything a reservation must refresh per touched slot.
        self._direction_state: dict[Direction, tuple[np.ndarray, ...]] = {
            Direction.OUT: (
                self._available["pcie_out"],
                self._available["ssd_write"],
                self._combined[(False, Direction.OUT)],
                self._combined[(True, Direction.OUT)],
            ),
            Direction.IN: (
                self._available["pcie_in"],
                self._available["ssd_read"],
                self._combined[(False, Direction.IN)],
                self._combined[(True, Direction.IN)],
            ),
        }
        #: (to_ssd, direction) -> (fixed latency, bandwidth) of one transfer,
        #: precomputed so the scheduler's cost term is two flops per call.
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

    # -- helpers -----------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return len(self._durations)

    @property
    def durations(self) -> np.ndarray:
        """The per-slot kernel durations the schedule was built from.

        Callers must not mutate the returned array.
        """
        return self._durations

    def slot_duration(self, slot: int) -> float:
        return float(self._durations[slot])

    def _channel_names(self, to_ssd: bool, direction: Direction) -> list[str]:
        names = ["pcie_out" if direction is Direction.OUT else "pcie_in"]
        if to_ssd:
            names.append("ssd_write" if direction is Direction.OUT else "ssd_read")
        return names

    def utilization(self, channel: str) -> np.ndarray:
        """Per-slot utilization in [0, 1] of one channel."""
        return self._utilization_values(channel, 0, self.num_slots)

    def utilization_window(self, channel: str, start: int, stop: int) -> np.ndarray:
        """Utilization of one channel restricted to slots ``[start, stop)``.

        Identical values to ``utilization(channel)[start:stop]`` without
        materializing the full curve (the saturation test probes thousands of
        small windows per planning run).
        """
        return self._utilization_values(channel, max(start, 0), min(stop, self.num_slots))

    def _utilization_values(self, channel: str, start: int, stop: int) -> np.ndarray:
        if channel not in self._available:
            raise SchedulingError(f"unknown channel {channel!r}")
        capacity = self._capacities[channel][start:stop]
        available = self._available[channel][start:stop]
        with np.errstate(divide="ignore", invalid="ignore"):
            used = 1.0 - np.where(capacity > 0, available / capacity, 1.0)
        return np.clip(used, 0.0, 1.0)

    def available_bytes(self, to_ssd: bool, direction: Direction, slots: np.ndarray) -> np.ndarray:
        """Per-slot bytes still schedulable for a transfer of the given kind."""
        return self._combined[(to_ssd, direction)][slots]

    # -- planning -----------------------------------------------------------

    def probe_forward(
        self, size_bytes: float, start_slot: int, end_slot: int, to_ssd: bool,
        direction: Direction = Direction.OUT,
    ) -> int | None:
        """Earliest slot by which a transfer starting at ``start_slot`` completes.

        Returns the completion slot (inclusive), or ``None`` if the transfer
        cannot finish before ``end_slot`` (exclusive) with the remaining
        channel capacity. Does not reserve anything.
        """
        remaining = float(size_bytes)
        limit = min(end_slot, self.num_slots)
        if start_slot >= limit:
            return None
        if remaining <= 0:
            return start_slot
        combined = self._combined[(to_ssd, direction)]
        slot = start_slot
        # Chunked scan: probes usually complete within a couple of slots (slot
        # capacity is large relative to tensor sizes), so materialize small
        # blocks instead of the whole window. An exhausted slot holds exactly
        # 0.0 and `remaining - 0.0 == remaining`, so no openness filtering is
        # needed: the walk is bit-identical to the reference's skip-index walk.
        while slot < limit:
            block_end = min(slot + _SCAN_BLOCK, limit)
            for available in combined[slot:block_end].tolist():
                remaining -= available
                if remaining <= 0:
                    return slot
                slot += 1
        return None

    def probe_backward(
        self, size_bytes: float, end_slot: int, start_slot: int, to_ssd: bool,
        direction: Direction = Direction.IN,
    ) -> int | None:
        """Latest slot at which a transfer can start and still finish by ``end_slot``.

        Scans backwards from ``end_slot - 1`` down to ``start_slot`` (inclusive)
        consuming remaining capacity; returns the start slot or ``None`` if the
        window is too congested.
        """
        remaining = float(size_bytes)
        floor = max(start_slot, 0)
        top = min(end_slot, self.num_slots) - 1
        if top < floor:
            return None
        if remaining <= 0:
            return top
        combined = self._combined[(to_ssd, direction)]
        slot = top
        # Chunked backwards scan; see probe_forward for why exhausted slots
        # need no filtering.
        while slot >= floor:
            block_start = max(slot - _SCAN_BLOCK + 1, floor)
            for available in reversed(combined[block_start : slot + 1].tolist()):
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
        """Consume channel capacity for a transfer beginning at ``start_slot``.

        Returns the completion slot. If ``end_slot`` is given and the transfer
        cannot complete before it, a :class:`SchedulingError` is raised (the
        caller should have probed first).
        """
        remaining = float(size_bytes)
        limit = self.num_slots if end_slot is None else min(end_slot, self.num_slots)
        combined = self._combined[(to_ssd, direction)]
        if remaining <= 0 and start_slot < limit:
            # Nothing to consume: the reference walks to the first open slot
            # and returns it without reserving. (A tiny *positive* remaining
            # must take the general walk below — the reference does subtract
            # it from the first open slot.)
            open_rel = np.flatnonzero(combined[start_slot:limit])
            if open_rel.size:
                return start_slot + int(open_rel[0])
        elif start_slot < limit:
            pcie, ssd, host_combined, ssd_combined = self._direction_state[direction]
            slot = start_slot
            # Chunked walk over a snapshot block: reservations only mutate the
            # slot being visited and the walk never revisits, so the snapshot
            # stays valid. Exhausted slots contribute a take of exactly 0 and
            # mutate nothing, matching the reference's skip-index semantics.
            while slot < limit:
                block_end = min(slot + _SCAN_BLOCK, limit)
                for available in combined[slot:block_end].tolist():
                    take = available if available < remaining else remaining
                    if take > 0:
                        pcie_left = float(pcie[slot]) - take
                        pcie[slot] = pcie_left
                        if to_ssd:
                            ssd_left = float(ssd[slot]) - take
                            ssd[slot] = ssd_left
                        else:
                            ssd_left = float(ssd[slot])
                        host_combined[slot] = pcie_left
                        ssd_combined[slot] = pcie_left if pcie_left < ssd_left else ssd_left
                        remaining -= take
                        if remaining <= 1e-9:
                            return slot
                    slot += 1
        if end_slot is None and remaining > 1e-9:
            # Spill into the final slot: the transfer finishes late, after the
            # iteration's last kernel. Record it against the last slot.
            return self.num_slots - 1
        raise SchedulingError(
            "transfer could not be reserved in the requested window; probe first"
        )

    def transfer_time(self, size_bytes: float, to_ssd: bool, direction: Direction) -> float:
        """Unloaded latency of one transfer (used for the cost term of Algorithm 1)."""
        latency, bandwidth = self._unloaded[(to_ssd, direction)]
        return latency + size_bytes / bandwidth
