"""Declarative experiment sweeps with parallel execution and result caching.

The paper's evaluation is a grid of (model x policy x batch x system-config x
profiling-error) cells. This module turns that grid into data:

* :class:`SweepCell` — one simulation (or, with ``policy=None``, one workload
  characterization) described entirely by values, so it can be hashed,
  shipped to a worker process, and cached on disk;
* :class:`ConfigPatch` — a declarative override of the cell's default
  :class:`~repro.config.SystemConfig` (the Figures 16-18 sensitivity axes);
* :class:`SweepSpec` — a named, ordered collection of cells with a grid
  constructor for cartesian-product sweeps;
* :class:`SweepRunner` — executes a spec serially, over a
  ``ProcessPoolExecutor``, or through a work queue of competing consumers
  (``queue_dir`` for the file-backed
  :class:`~repro.experiments.queue.WorkQueue`, ``queue_url`` for the
  HTTP-backed :class:`~repro.experiments.http_queue.HttpWorkQueue` speaking
  to a ``repro serve`` process); it deduplicates identical cells, serves
  repeats from a :class:`~repro.experiments.cache.ResultCache`, and always
  returns results in spec order so parallel, queued and serial runs are
  indistinguishable.

Workers build workloads through :func:`~repro.experiments.harness.build_workload`,
whose per-process memo means cells that share a workload profile it only once.
The process pool therefore receives one task per workload — every miss of one
``(model, batch_size, scale)`` — and starts the costliest workloads first
(:func:`estimate_cell_cost`), so no worker idles while another still holds a
queue of expensive cells.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..analysis.characterization import CharacterizationResult, characterize_workload
from ..config import SystemConfig
from ..errors import ConfigurationError, QueueError
from ..registry import load_plugins
from ..sim import SimulationResult
from .cache import CACHE_SCHEMA_VERSION, ResultCache
from .harness import build_workload, canonicalize_cell_fields, default_config, forward_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api import Scenario
    from .backend import ResultStore


@dataclass(frozen=True)
class ConfigPatch:
    """Declarative override of a cell's default system configuration.

    Only the swept axes of the paper's sensitivity studies are expressible;
    each ``None`` field is left at the cell's default. ``ssd_read_bandwidth``
    without ``ssd_write_bandwidth`` scales the write bandwidth proportionally,
    matching :meth:`SystemConfig.with_ssd_bandwidth` (the Figure 18 sweep).
    """

    host_memory_bytes: int | None = None
    gpu_memory_bytes: int | None = None
    interconnect_bandwidth: float | None = None
    ssd_read_bandwidth: float | None = None
    ssd_write_bandwidth: float | None = None

    def is_empty(self) -> bool:
        return all(value is None for value in self.__dict__.values())

    def apply(self, config: SystemConfig) -> SystemConfig:
        if self.interconnect_bandwidth is not None:
            config = config.with_interconnect_bandwidth(self.interconnect_bandwidth)
        if self.ssd_read_bandwidth is not None:
            config = config.with_ssd_bandwidth(self.ssd_read_bandwidth, self.ssd_write_bandwidth)
        elif self.ssd_write_bandwidth is not None:
            config = config.with_ssd_bandwidth(config.ssd.read_bandwidth, self.ssd_write_bandwidth)
        if self.host_memory_bytes is not None:
            config = config.with_host_memory(self.host_memory_bytes)
        if self.gpu_memory_bytes is not None:
            config = config.with_gpu_memory(self.gpu_memory_bytes)
        return config

    def to_dict(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "ConfigPatch":
        return cls(**data)


@dataclass(frozen=True)
class SweepCell:
    """One point of an experiment grid, described entirely by values.

    ``policy=None`` marks a characterization cell (the §3 figures): the
    workload is built and analyzed but no policy is simulated.
    """

    model: str
    policy: str | None = "g10"
    batch_size: int | None = None
    scale: str = "paper"
    patch: ConfigPatch = field(default_factory=ConfigPatch)
    profiling_error: float = 0.0
    seed: int = 0

    def resolved(self) -> "SweepCell":
        """Canonical form: normalized model and policy names, explicit batch,
        seed zeroed when no profiling noise is applied (the seed is unused
        then). Alias spellings ("G10+Host", "uvm") share the canonical
        cell's cache key, so they deduplicate and resume together."""
        return replace(
            self,
            **canonicalize_cell_fields(
                self.model, self.policy, self.batch_size,
                self.scale, self.profiling_error, self.seed,
            ),
        )

    def config(self) -> SystemConfig:
        """The exact system configuration this cell simulates."""
        return self.patch.apply(default_config(self.model, self.scale))

    def scenario(self) -> "Scenario":
        """This cell as a :class:`~repro.api.Scenario` (simulation cells only)."""
        from ..api import Scenario

        if self.policy is None:
            raise ConfigurationError(
                f"characterization cell {self} has no policy to build a scenario from"
            )
        return Scenario(
            model=self.model,
            policy=self.policy,
            batch_size=self.batch_size,
            scale=self.scale,
            patch=self.patch,
            profiling_error=self.profiling_error,
            seed=self.seed,
        )

    def cache_key(self) -> str:
        """Content hash over everything the cell's result depends on.

        Includes the package version, so cached results are invalidated on
        release bumps; edits to the simulator *within* a version still hit —
        run ``repro cache clear`` (or bump ``repro.__version__``) after
        changing simulation code.
        """
        from .. import __version__

        cell = self.resolved()
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": __version__,
                "model": cell.model,
                "policy": cell.policy,
                "batch_size": cell.batch_size,
                "scale": cell.scale,
                "config": cell.config().fingerprint(),
                "profiling_error": cell.profiling_error,
                "seed": cell.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "policy": self.policy,
            "batch_size": self.batch_size,
            "scale": self.scale,
            "patch": self.patch.to_dict(),
            "profiling_error": self.profiling_error,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCell":
        return cls(
            model=data["model"],
            policy=data["policy"],
            batch_size=data["batch_size"],
            scale=data["scale"],
            patch=ConfigPatch.from_dict(data.get("patch", {})),
            profiling_error=data.get("profiling_error", 0.0),
            seed=data.get("seed", 0),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered collection of sweep cells."""

    name: str
    cells: tuple[SweepCell, ...]

    @classmethod
    def grid(
        cls,
        name: str,
        models: Sequence[str],
        policies: Sequence[str | None],
        batch_sizes: Sequence[int | None] = (None,),
        scale: str = "paper",
        patches: Sequence[ConfigPatch] = (ConfigPatch(),),
        profiling_errors: Sequence[float] = (0.0,),
        seed: int = 0,
    ) -> "SweepSpec":
        """Cartesian product over every axis, in deterministic order.

        Models vary slowest so that consecutive cells share a workload (and
        therefore a per-process workload memo entry).
        """
        cells = tuple(
            SweepCell(
                model=model,
                policy=policy,
                batch_size=batch,
                scale=scale,
                patch=patch,
                profiling_error=error,
                seed=seed,
            )
            for model, batch, patch, error, policy in product(
                models, batch_sizes, patches, profiling_errors, policies
            )
        )
        return cls(name=name, cells=cells)


@dataclass(frozen=True)
class PlanEntry:
    """One spec cell in a :class:`SweepPlan`: its key, owning shard, and
    whether the cache already holds its result."""

    cell: SweepCell
    key: str
    shard: int
    cached: bool

    def to_dict(self) -> dict:
        return {
            "cell": self.cell.to_dict(),
            "key": self.key,
            "shard": self.shard,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanEntry":
        return cls(
            cell=SweepCell.from_dict(data["cell"]),
            key=data["key"],
            shard=data["shard"],
            cached=data["cached"],
        )


@dataclass(frozen=True)
class SweepPlan:
    """Manifest of a sweep: every cell's cache key, hit/miss status, and shard.

    The plan is what makes paper-scale grids restartable and distributable:
    it is computed without running anything, so a scheduler (or the CLI's
    ``--shard-index/--shard-count/--resume`` flags) can see up front which
    cells are already warm in the cache and which shard owns each remaining
    miss.

    Sharding is deterministic and cache-key based: the *distinct* keys of the
    spec, in first-occurrence order, are split into ``shard_count`` contiguous
    blocks, so consecutive cells that share a workload mostly stay on one
    shard and every key is owned by exactly one shard regardless of which
    machine computes the plan.
    """

    name: str
    shard_count: int
    entries: tuple[PlanEntry, ...]

    @classmethod
    def build(
        cls,
        spec: SweepSpec | Iterable[SweepCell],
        cache: ResultCache | None = None,
        shard_count: int = 1,
    ) -> "SweepPlan":
        if shard_count < 1:
            raise ConfigurationError(f"shard_count must be >= 1, got {shard_count}")
        name = spec.name if isinstance(spec, SweepSpec) else "cells"
        cells = list(spec.cells if isinstance(spec, SweepSpec) else spec)
        keys = [cell.cache_key() for cell in cells]
        distinct = list(dict.fromkeys(keys))
        total = len(distinct)
        owner: dict[str, int] = {}
        for shard in range(shard_count):
            for key in distinct[shard * total // shard_count : (shard + 1) * total // shard_count]:
                owner[key] = shard
        warm = {key: cache is not None and cache.has(key) for key in distinct}
        entries = tuple(
            PlanEntry(cell=cell, key=key, shard=owner[key], cached=warm[key])
            for cell, key in zip(cells, keys)
        )
        return cls(name=name, shard_count=shard_count, entries=entries)

    def shard_entries(self, shard_index: int) -> tuple[PlanEntry, ...]:
        """The entries owned by one shard (spec order preserved)."""
        if not 0 <= shard_index < self.shard_count:
            raise ConfigurationError(
                f"shard_index must be in [0, {self.shard_count}), got {shard_index}"
            )
        return tuple(entry for entry in self.entries if entry.shard == shard_index)

    def counts(self) -> dict[str, int]:
        """Cell/distinct/warm/to-execute totals (distinct keys, not spec cells)."""
        distinct: dict[str, bool] = {}
        for entry in self.entries:
            distinct.setdefault(entry.key, entry.cached)
        warm = sum(1 for cached in distinct.values() if cached)
        return {
            "cells": len(self.entries),
            "distinct": len(distinct),
            "warm": warm,
            "to_execute": len(distinct) - warm,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "shard_count": self.shard_count,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepPlan":
        return cls(
            name=data["name"],
            shard_count=data["shard_count"],
            entries=tuple(PlanEntry.from_dict(e) for e in data["entries"]),
        )


@dataclass
class CellResult:
    """One executed (or cache-served) cell plus its raw JSON-safe payload."""

    cell: SweepCell
    payload: dict
    cached: bool = False

    @property
    def kind(self) -> str:
        return self.payload["kind"]

    @property
    def workload(self) -> dict:
        """Metadata of the profiled workload (footprint ratio, kernel count, ...)."""
        return self.payload["workload"]

    @property
    def result(self) -> SimulationResult:
        """The simulation result (simulation cells only)."""
        if self.kind != "simulation":
            raise ConfigurationError(f"cell {self.cell} is a {self.kind} cell, not a simulation")
        return SimulationResult.from_dict(self.payload["result"])

    @property
    def characterization(self) -> CharacterizationResult:
        """The §3 characterization (characterization cells only)."""
        if self.kind != "characterization":
            raise ConfigurationError(f"cell {self.cell} is a {self.kind} cell, not a characterization")
        data = self.payload["characterization"]
        return CharacterizationResult(
            model_name=data["model_name"],
            total_fraction=np.asarray(data["total_fraction"], dtype=np.float64),
            active_fraction=np.asarray(data["active_fraction"], dtype=np.float64),
            inactive_period_seconds=np.asarray(data["inactive_period_seconds"], dtype=np.float64),
            inactive_period_bytes=np.asarray(data["inactive_period_bytes"], dtype=np.float64),
        )


def execute_cell(cell: SweepCell) -> dict:
    """Run one cell to a JSON-safe payload (the worker-process entry point).

    The workload is always built against its *default* config; a non-empty
    patch only changes the configuration the policy is simulated under. That
    mirrors the paper's sensitivity studies, which profile each workload once
    and re-run the simulation as the system varies.

    Simulation cells execute through a :class:`~repro.api.Session` — the same
    path as ``Scenario(...).run()`` — so direct, sweep and CLI runs are
    bit-identical. ``REPRO_PLUGINS`` modules are imported first so policies
    and models registered out-of-tree resolve inside worker processes too.
    """
    load_plugins()
    cell = cell.resolved()
    workload = build_workload(cell.model, cell.batch_size, cell.scale)
    meta = {
        "model": workload.name,
        "batch_size": workload.batch_size,
        "scale": workload.scale,
        "num_kernels": workload.graph.num_kernels,
        "memory_footprint_ratio": workload.memory_footprint_ratio,
    }
    if cell.policy is None:
        char = characterize_workload(workload.report)
        return {
            "kind": "characterization",
            "workload": meta,
            "characterization": {
                "model_name": char.model_name,
                "total_fraction": char.total_fraction.tolist(),
                "active_fraction": char.active_fraction.tolist(),
                "inactive_period_seconds": char.inactive_period_seconds.tolist(),
                "inactive_period_bytes": char.inactive_period_bytes.tolist(),
            },
        }
    result = cell.scenario().session().run().result
    return {"kind": "simulation", "workload": meta, "result": result.to_dict()}


def _execute_cell_dict(cell_dict: dict) -> dict:
    """Pickle-friendly worker wrapper mapping dicts to dicts."""
    return execute_cell(SweepCell.from_dict(cell_dict))


def _execute_cell_group(cell_dicts: list[dict]) -> list[dict]:
    """Worker task: the cells of one workload, in order, in one process (so
    they share its workload memo and plan cache)."""
    return [_execute_cell_dict(cell_dict) for cell_dict in cell_dicts]


@lru_cache(maxsize=None)
def _workload_cost(model: str, batch_size: int, scale: str) -> float:
    return float(forward_graph(model, batch_size, scale).num_operators * batch_size)


def estimate_cell_cost(cell: SweepCell) -> float:
    """Relative execution-cost estimate of one cell (for dispatch ordering).

    The proxy is ``forward operators x batch_size``: the simulator's work grows
    with the kernel count (event-loop length, planner candidates), which the
    forward graph's operator count tracks, and memory pressure grows with the
    batch, which is what makes the planner and the eviction path expensive.
    Only the forward graph is built, once per (model, batch, scale) and outside
    the :func:`~repro.experiments.harness.build_workload` memo, so a pool's
    parent profiles no workload before it forks. Characterization cells
    (``policy=None``) skip the simulation entirely and are weighted down
    accordingly.

    Only the *ordering* of the estimates matters (costliest-first pool
    dispatch, slowest-first queue drain); the absolute scale is meaningless.
    """
    cell = cell.resolved()
    assert cell.batch_size is not None  # resolved() fills the default batch
    cost = _workload_cost(cell.model, cell.batch_size, cell.scale)
    if cell.policy is None:
        cost *= 0.1
    return cost


def _dispatch_groups(cells: Sequence[SweepCell], keys: Sequence[str]) -> list[list[int]]:
    """Indices of ``cells`` grouped by workload, in pool dispatch order.

    One group per ``(model, batch_size, scale)``, cells in spec order within
    it; groups in descending summed :func:`estimate_cell_cost` (longest
    processing time first), ties broken on the group's first cache key.
    """
    groups: dict[tuple, list[int]] = {}
    for index, cell in enumerate(cells):
        resolved = cell.resolved()
        groups.setdefault((resolved.model, resolved.batch_size, resolved.scale), []).append(index)

    def cost(group: list[int]) -> float:
        return sum(estimate_cell_cost(cells[index]) for index in group)

    return sorted(groups.values(), key=lambda group: (-cost(group), keys[group[0]]))


class SweepRunner:
    """Executes sweep specs with deduplication, caching and optional parallelism.

    Args:
        jobs: Worker processes to fan cells out over; ``None``, 0 or 1 runs
            in-process (and benefits from the warm workload memo). In queue
            mode this is the number of competing consumer processes.
        cache: Persistent result cache; ``None`` disables on-disk caching
            (in-run deduplication of identical cells still applies).
        queue_dir: When set, cache misses are not fanned out over a process
            pool but enqueued into the file-backed
            :class:`~repro.experiments.queue.WorkQueue` at this directory and
            drained by ``jobs`` competing worker processes (crash-safe
            lease/ack semantics, dead-worker requeue). Results are read back
            from the cache, so queue runs are bit-identical to serial ones.
            Requires ``cache``.
        queue_url: Like ``queue_dir``, but the queue lives behind a
            ``repro serve`` HTTP service at this URL. When no ``cache`` is
            given, results are read/written through the *server's* cache
            (an :class:`~repro.experiments.http_queue.HttpResultCache`).
            Mutually exclusive with ``queue_dir``.
        lease_timeout: Queue-mode lease timeout in seconds (how long a dead
            worker's cells stay stranded before reclaim). File backend only:
            over HTTP the server is the single authority for lease timing.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: "ResultCache | ResultStore | None" = None,
        queue_dir: str | Path | None = None,
        queue_url: str | None = None,
        lease_timeout: float | None = None,
    ):
        if queue_dir is not None and queue_url is not None:
            raise ConfigurationError(
                "queue_dir and queue_url are mutually exclusive: a sweep "
                "drains either a local queue directory or a queue server"
            )
        if queue_url is not None and lease_timeout is not None:
            raise ConfigurationError(
                "lease_timeout cannot be set for an HTTP queue: the server "
                "is the single authority for lease timing (configure it on "
                "repro serve)"
            )
        if queue_url is not None and cache is None:
            # Results travel through the server's cache; no local cache needed.
            from .http_queue import HttpResultCache

            cache = HttpResultCache(queue_url)
        if queue_dir is not None and cache is None:
            raise ConfigurationError(
                "queue-mode execution requires a result cache "
                "(results travel from workers to the runner through it)"
            )
        self.jobs = jobs
        self.cache = cache
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        self.queue_url = queue_url
        self.lease_timeout = lease_timeout
        #: (hits, executed) counters of the most recent :meth:`run`.
        self.last_stats: dict[str, int] = {"cells": 0, "cache_hits": 0, "executed": 0}

    def plan(
        self, spec: SweepSpec | Iterable[SweepCell], shard_count: int = 1
    ) -> SweepPlan:
        """Manifest of a spec against this runner's cache (no execution)."""
        return SweepPlan.build(spec, cache=self.cache, shard_count=shard_count)

    def run(
        self,
        spec: SweepSpec | Iterable[SweepCell],
        *,
        shard_index: int | None = None,
        shard_count: int | None = None,
    ) -> list[CellResult]:
        """Execute every cell, returning results in spec order.

        The output is independent of ``jobs`` and of cache state: payloads are
        produced by the same :func:`execute_cell` code path everywhere and
        results are reassembled in submission order.

        With ``shard_index``/``shard_count`` set, only the cells whose cache
        key is owned by that shard (per :class:`SweepPlan`'s deterministic
        partition) are processed; the rest are skipped and counted in
        ``last_stats['skipped']``. Running every shard against caches that are
        later merged leaves the merged cache bit-identical to one warm serial
        run, so a final ``run`` over the full spec is a pure resume.
        """
        if (shard_index is None) != (shard_count is None):
            raise ConfigurationError(
                "shard_index and shard_count must be given together"
            )
        if shard_index is not None:
            plan = SweepPlan.build(spec, cache=self.cache, shard_count=shard_count)
            owned = plan.shard_entries(shard_index)
            results = self._run_cells(
                [entry.cell for entry in owned], [entry.key for entry in owned]
            )
            self.last_stats.update(
                {
                    "skipped": len(plan.entries) - len(owned),
                    "shard_index": shard_index,
                    "shard_count": shard_count,
                }
            )
            return results
        cells = list(spec.cells if isinstance(spec, SweepSpec) else spec)
        return self._run_cells(cells, [cell.cache_key() for cell in cells])

    def _run_cells(self, cells: list[SweepCell], keys: list[str]) -> list[CellResult]:
        from ..core.plan_cache import snapshot_counters

        plan_cache_before = snapshot_counters()
        payloads: dict[str, dict] = {}
        cached_keys: set[str] = set()

        if self.cache is not None:
            for key in keys:
                if key not in payloads:
                    hit = self.cache.get(key)
                    if hit is not None:
                        payloads[key] = hit
                        cached_keys.add(key)

        # Deduplicate misses by content key; execute each distinct cell once.
        miss_order: list[str] = []
        miss_cells: list[SweepCell] = []
        for cell, key in zip(cells, keys):
            if key not in payloads and key not in miss_order:
                miss_order.append(key)
                miss_cells.append(cell)

        def store(index: int, payload: dict) -> None:
            payloads[miss_order[index]] = payload
            if self.cache is not None:
                self.cache.put(miss_order[index], payload, cell=miss_cells[index].to_dict())

        if self.queue_dir is not None or self.queue_url is not None:
            # Queue mode: competing consumers drain the cells dynamically
            # and publish payloads through the cache (already persisted).
            if miss_cells:
                payloads.update(zip(miss_order, self._queue_execute(miss_cells)))
        elif self.jobs and self.jobs > 1 and len(miss_cells) > 1:
            groups = _dispatch_groups(miss_cells, miss_order)
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(groups))) as pool:
                futures = {}
                for group in groups:
                    cell_dicts = [miss_cells[index].to_dict() for index in group]
                    futures[pool.submit(_execute_cell_group, cell_dicts)] = group
                for future in as_completed(futures):
                    for index, payload in zip(futures[future], future.result()):
                        store(index, payload)
        else:
            for index, cell in enumerate(miss_cells):
                store(index, execute_cell(cell))

        self.last_stats = {
            "cells": len(cells),
            "cache_hits": sum(1 for key in keys if key in cached_keys),
            "executed": len(miss_cells),
        }
        # Plan-fragment cache deltas for this run. Only the serial in-process
        # path plans in this process; pool/queue workers warm their own
        # process-global caches, so their outcomes are not visible here.
        for counter, count in snapshot_counters().items():
            self.last_stats[f"plan_{counter}"] = count - plan_cache_before[counter]
        return [
            CellResult(cell=cell, payload=payloads[key], cached=key in cached_keys)
            for cell, key in zip(cells, keys)
        ]

    def _queue_execute(self, cells: list[SweepCell]) -> list[dict]:
        """Execute cache misses through the work queue; payloads in cell order.

        Deferred import: :mod:`~repro.experiments.queue` imports this module
        for :class:`SweepCell`/:func:`execute_cell`.
        """
        from .backend import QueueBackend
        from .queue import DEFAULT_LEASE_TIMEOUT, QueueRunner, WorkQueue

        queue: QueueBackend
        if self.queue_url is not None:
            from .http_queue import HttpWorkQueue

            queue = HttpWorkQueue(self.queue_url)
        else:
            queue = WorkQueue(
                self.queue_dir, lease_timeout=self.lease_timeout or DEFAULT_LEASE_TIMEOUT
            )
        QueueRunner(queue, self.cache, workers=self.jobs or 1).run(cells)
        payloads, missing = [], []
        for cell in cells:
            payload = self.cache.get(cell.cache_key())
            if payload is None:
                missing.append(cell.cache_key()[:12])
            else:
                payloads.append(payload)
        if missing:
            where = getattr(self.cache, "root", None) or getattr(self.cache, "url", "?")
            raise QueueError(
                f"queue drained but the cache at {where} is missing "
                f"{len(missing)} result(s): {', '.join(missing)}"
            )
        return payloads

    def run_one(self, cell: SweepCell) -> CellResult:
        """Execute a single cell."""
        return self.run([cell])[0]
