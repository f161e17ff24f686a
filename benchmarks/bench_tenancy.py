"""Multi-tenant replay microbenchmark: the :func:`simulate_tenancy` loop alone.

The traces are synthetic :class:`~repro.sim.tenancy.TenantTrace` records, so
no model is built and no solo simulation runs: the timer sees only the shared
event loop (least-attained-service picks, spills and refills through the
shared pool, and the per-kernel replay). Sixteen open-loop tenants of about
500 kernels each send 64 requests apiece at a load of 0.6; the GPU holds
only about two working sets, so arrivals preempt and spill each other.

Run directly for the median over :data:`REPEATS` timed replays::

    python benchmarks/bench_tenancy.py

Under pytest the loop runs once, with sanity assertions on the outcome.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.sim.tenancy import SharedSystem, TenantTrace, simulate_tenancy

from bench_utils import run_once

GB = 1 << 30
TENANTS = 16
KERNELS = 500
REQUESTS = 64
LOAD = 0.6
SEED = 0
REPEATS = 5


def synthetic_workload(seed: int = SEED) -> tuple[tuple[TenantTrace, ...], SharedSystem]:
    """Seeded open-loop traces plus a shared system with a 4 GB GPU."""
    rng = random.Random(seed)
    traces = []
    for t in range(TENANTS):
        total, offsets = 0.0, []
        for _ in range(rng.randint(KERNELS - 50, KERNELS + 50)):
            total += rng.uniform(0.2e-3, 2e-3)
            offsets.append(total)
        # Poisson arrivals whose offered load summed over tenants is LOAD.
        rate = LOAD / (TENANTS * total)
        when, arrivals = 0.0, []
        for _ in range(REQUESTS):
            when += rng.expovariate(rate)
            arrivals.append(when)
        traces.append(
            TenantTrace(
                name=f"t{t:02d}",
                offsets=tuple(offsets),
                footprint_bytes=(1 + t % 3) * GB,
                arrivals=tuple(arrivals),
            )
        )
    system = SharedSystem(
        gpu_capacity_bytes=4 * GB,
        spill_write_bandwidth=3.2 * GB,
        spill_read_bandwidth=6.4 * GB,
        ssd_capacity_bytes=256 * GB,
    )
    return tuple(traces), system


def test_tenancy_loop(benchmark):
    traces, system = synthetic_workload()
    outcome = run_once(benchmark, simulate_tenancy, traces, system)
    assert outcome.perf.kernels_executed == REQUESTS * sum(len(t.offsets) for t in traces)
    assert outcome.perf.events_processed == TENANTS * REQUESTS
    assert outcome.perf.eviction_stalls > 0  # the shared pool really contends
    for trace in traces:
        stats = outcome.tenants[trace.name]
        assert all(latency >= trace.solo_latency for latency in stats.latencies)


def main() -> int:
    traces, system = synthetic_workload()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = simulate_tenancy(traces, system)
        samples.append(time.perf_counter() - start)
    perf = outcome.perf
    print(
        f"simulate_tenancy: median {statistics.median(samples):.4f}s "
        f"(min {min(samples):.4f}s, max {max(samples):.4f}s, {REPEATS} repeats); "
        f"{perf.kernels_executed:,} kernels, {perf.events_processed:,} events, "
        f"{perf.eviction_stalls:,} eviction stalls"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
