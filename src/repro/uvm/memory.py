"""Byte/page accounted memory pools for GPU and host memory.

A pool is a byte counter: each resident tensor is charged its size rounded up
to whole pages, and admission compares that against the free bytes. No pool
assigns physical page runs — nothing in the simulation reads a pool-level
placement — so ``used_bytes``/``free_bytes``/``can_fit``, the simulator's
innermost admission checks, are O(1) counter reads. Extents
(:class:`~repro.core.extents.Extent`) remain for the virtual ranges of the
address space and page table only.
"""

from __future__ import annotations

from typing import Mapping

from ..config import PAGE_SIZE
from ..errors import AllocationError


class MemoryPool:
    """A capacity-limited memory pool tracking per-tensor residency.

    Allocation is accounted at page granularity (a tensor occupies whole
    pages), which is how the unified memory system manages every tensor.
    """

    def __init__(self, name: str, capacity_bytes: int, page_size: int = PAGE_SIZE):
        if capacity_bytes < 0:
            raise AllocationError(f"pool {name!r} cannot have negative capacity")
        if page_size <= 0:
            raise AllocationError("page size must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self._resident: dict[int, int] = {}
        self._used_bytes = 0
        #: High-water mark of occupancy, for reporting.
        self.peak_used_bytes = 0

    # -- accounting -------------------------------------------------------

    def _page_bytes(self, size_bytes: int) -> int:
        return max(1, -(-size_bytes // self.page_size)) * self.page_size

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    @property
    def residents(self) -> Mapping[int, int]:
        """Live view of resident tensor id -> charged bytes, in allocation order."""
        return self._resident

    def contains(self, tensor_id: int) -> bool:
        return tensor_id in self._resident

    def can_fit(self, size_bytes: int) -> bool:
        return self._page_bytes(size_bytes) <= self.capacity_bytes - self._used_bytes

    # -- mutation -----------------------------------------------------------

    def allocate(self, tensor_id: int, size_bytes: int) -> None:
        """Reserve space for a tensor; raises when the pool is full."""
        if tensor_id in self._resident:
            return
        rounded = self._page_bytes(size_bytes)
        if rounded > self.capacity_bytes - self._used_bytes:
            raise AllocationError(
                f"pool {self.name!r} cannot fit tensor {tensor_id}: "
                f"need {rounded} bytes, only {self.free_bytes} free"
            )
        self._resident[tensor_id] = rounded
        self._used_bytes += rounded
        if self._used_bytes > self.peak_used_bytes:
            self.peak_used_bytes = self._used_bytes

    def free(self, tensor_id: int) -> int:
        """Release a tensor's space; returns the bytes freed (0 if absent)."""
        freed = self._resident.pop(tensor_id, 0)
        self._used_bytes -= freed
        return freed
