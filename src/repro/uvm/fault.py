"""GPU page-fault path cost model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import UVMConfig
from ..errors import ConfigurationError


@dataclass(frozen=True)
class PageFaultModel:
    """Latency model of the UVM demand-paging path.

    Faulting a tensor in via on-demand paging costs one fault round trip per
    *fault batch* (real UVM drivers service a faulting warp by migrating a
    neighbourhood of pages, not a single 4 KB page), plus the page-table-walk
    and transfer costs charged elsewhere. The 45 µs round trip comes straight
    from Table 2.
    """

    config: UVMConfig

    def __post_init__(self) -> None:
        if self.config.fault_batch_bytes <= 0:
            raise ConfigurationError("fault batch size must be positive")

    def fault_batches(self, size_bytes: int) -> int:
        """How many fault round trips a tensor of the given size needs."""
        if size_bytes <= 0:
            return 0
        return max(1, math.ceil(size_bytes / self.config.fault_batch_bytes))

    def fault_overhead(self, size_bytes: int) -> float:
        """Total fault-handling latency (excluding the data transfer itself)."""
        return self.fault_batches(size_bytes) * self.config.fault_latency

    def batch_fault_batches(self, sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`fault_batches` over an array of tensor sizes.

        One ``ceil``/``maximum`` pass instead of a scalar call per tensor; the
        executor precomputes the per-tensor fault tables for a whole graph with
        it. ``np.ceil`` on float64 matches ``math.ceil`` for any realistic
        tensor size (< 2**53 bytes), so each element is bit-identical to the
        scalar method (pinned against
        ``scalar_fault_costs`` in ``tests/scalar_reference.py`` by the Hypothesis
        suite).
        """
        sizes = np.asarray(sizes, dtype=np.float64)
        batches = np.maximum(1, np.ceil(sizes / self.config.fault_batch_bytes))
        return np.where(sizes <= 0, 0, batches).astype(np.int64)

    def batch_fault_overheads(self, sizes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`fault_overhead` over an array of tensor sizes."""
        return self.batch_fault_batches(sizes) * self.config.fault_latency

    def translation_overhead(self, num_pages: int, tlb_misses: int) -> float:
        """Address-translation cost for touching ``num_pages`` with given misses."""
        if num_pages < 0 or tlb_misses < 0:
            raise ConfigurationError("page and miss counts cannot be negative")
        return tlb_misses * self.config.page_walk_latency
