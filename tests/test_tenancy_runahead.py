"""Run-ahead replay equals the per-kernel event loop, bit for bit.

:func:`repro.sim.tenancy.simulate_tenancy` runs the picked request's kernels
back to back up to the next event instead of dispatching every kernel through
the outer loop. :func:`per_kernel_reference` below is the engine's former
per-kernel loop, kept here (and only here) as the oracle: every kernel pops
due events, re-admits the running request and takes one ``max`` step.

Times are drawn from an integer grid so that arrivals land exactly on kernel
finish times, where the ``now < horizon`` exit test must preempt at the same
boundary as the reference's ``pop_until(now)``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import EventQueue
from repro.sim.results import PerfCounters
from repro.sim.tenancy import (
    KIND_ARRIVAL,
    RequestRecord,
    SharedSystem,
    TenancyOutcome,
    TenantServiceStats,
    TenantTrace,
    _Request,
    _SharedPool,
    _TenantState,
    simulate_tenancy,
)

GB = 1 << 30


def per_kernel_reference(traces, system) -> TenancyOutcome:
    """The per-kernel loop: one outer-loop trip per kernel."""
    if not traces:
        raise ConfigurationError("simulate_tenancy needs at least one tenant trace")
    ordered = sorted(traces, key=lambda trace: trace.name)
    names = [trace.name for trace in ordered]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"tenant names must be unique, got {names}")

    perf = PerfCounters()
    events = EventQueue()
    states = {trace.name: _TenantState(trace) for trace in ordered}
    pool = _SharedPool(system, perf, states)
    records: list[RequestRecord] = []
    ready: list[_Request] = []

    def schedule_arrival(trace: TenantTrace, index: int, when: float) -> None:
        request = _Request(trace=trace, index=index, arrival=when, base=when)
        events.schedule(when, KIND_ARRIVAL, request, priority=(trace.name, index))

    for trace in ordered:
        if trace.arrivals:
            for index, when in enumerate(trace.arrivals):
                schedule_arrival(trace, index, when)
        else:
            schedule_arrival(trace, 0, trace.think_times[0])
        states[trace.name].next_request = 1

    now = 0.0
    current: _Request | None = None
    while ready or len(events):
        if not ready:
            event = events.pop()
            perf.events_processed += 1
            now = max(now, event.time)
            ready.append(event.payload)
            continue
        arrived = False
        for event in events.pop_until(now):
            perf.events_processed += 1
            ready.append(event.payload)
            arrived = True

        if current is None or arrived:
            current = min(
                ready,
                key=lambda r: (states[r.tenant].attained, r.arrival, r.tenant, r.index),
            )
        request = current
        state = states[request.tenant]
        stall = pool.admit(request, state)
        if stall > 0:
            request.stall_seconds += stall
            state.eviction_stalls += 1
            state.eviction_stall_seconds += stall
            perf.eviction_stalls += 1
            perf.eviction_stall_seconds += stall
        if request.first_start < 0:
            request.first_start = now + stall

        kernel = request.next_kernel
        previous_offset = request.trace.offsets[kernel - 1] if kernel else 0.0
        request.delay = max(request.delay, now + stall - request.base - previous_offset)
        finish = request.base + request.delay + request.trace.offsets[kernel]
        state.attained += request.trace.offsets[kernel] - previous_offset
        request.next_kernel += 1
        perf.kernels_executed += 1
        now = finish

        if request.next_kernel >= len(request.trace.offsets):
            ready.remove(request)
            pool.release(request)
            current = None
            latency = request.delay + request.trace.solo_latency
            state.latencies[request.index] = latency
            state.queue_delays[request.index] = request.first_start - request.arrival
            records.append(
                RequestRecord(
                    tenant=request.tenant,
                    index=request.index,
                    arrival=request.arrival,
                    first_start=request.first_start,
                    completion=finish,
                    latency=latency,
                    queue_delay=request.first_start - request.arrival,
                    stall_seconds=request.stall_seconds,
                )
            )
            trace = request.trace
            if not trace.arrivals and state.next_request < len(trace.think_times):
                index = state.next_request
                state.next_request += 1
                schedule_arrival(trace, index, finish + trace.think_times[index])

    incomplete = [
        state.trace.name
        for state in states.values()
        if len(state.latencies) != state.trace.request_count
    ]
    if incomplete:
        raise SimulationError(f"tenants did not complete all requests: {incomplete}")

    tenants = {
        name: TenantServiceStats(
            name=name,
            latencies=tuple(state.latencies[i] for i in range(state.trace.request_count)),
            queue_delays=tuple(state.queue_delays[i] for i in range(state.trace.request_count)),
            eviction_stalls=state.eviction_stalls,
            eviction_stall_seconds=state.eviction_stall_seconds,
            gc_interference_seconds=state.gc_interference_seconds,
            times_evicted=state.times_evicted,
            spill_bytes_written=state.spill_bytes_written,
            spill_bytes_read=state.spill_bytes_read,
        )
        for name, state in sorted(states.items())
    }
    return TenancyOutcome(tenants=tenants, records=tuple(records), makespan=now, perf=perf)


def assert_same_outcome(traces, system) -> TenancyOutcome:
    expected = per_kernel_reference(traces, system)
    actual = simulate_tenancy(traces, system)
    assert actual == expected
    # ``==`` treats 0.0 and -0.0 alike; the reprs tell every float bit apart.
    assert repr(actual) == repr(expected)
    return actual


def cumulative(steps):
    total, out = 0, []
    for step in steps:
        total += step
        out.append(float(total))
    return tuple(out)


@st.composite
def tenant_traces(draw, name):
    # Zero steps give repeated offsets: zero-length kernels.
    offsets = cumulative(draw(st.lists(st.integers(0, 4), min_size=1, max_size=8)))
    footprint = draw(st.integers(0, 3)) * GB
    if draw(st.booleans()):
        arrivals = tuple(
            float(t) for t in sorted(draw(st.lists(st.integers(0, 30), min_size=1, max_size=5)))
        )
        return TenantTrace(name=name, offsets=offsets, footprint_bytes=footprint, arrivals=arrivals)
    think = tuple(
        float(t) for t in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    )
    return TenantTrace(name=name, offsets=offsets, footprint_bytes=footprint, think_times=think)


@st.composite
def scenarios(draw):
    count = draw(st.integers(1, 4))
    traces = tuple(draw(tenant_traces(f"t{i}")) for i in range(count))
    # Capacity at or below the summed footprints forces spills and refills;
    # whole-GB footprints over 1-2 GB/s keep stall times on the half grid.
    system = SharedSystem(
        gpu_capacity_bytes=draw(st.integers(1, 4)) * GB,
        spill_write_bandwidth=float(draw(st.sampled_from((1, 2)))) * GB,
        spill_read_bandwidth=float(draw(st.sampled_from((1, 2)))) * GB,
        ssd_capacity_bytes=draw(st.integers(1, 8)) * GB,
        gc_alpha=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0))),
    )
    return traces, system


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_run_ahead_matches_per_kernel_loop(scenario):
    traces, system = scenario
    assert_same_outcome(traces, system)


def test_spills_refills_and_zero_length_kernels_match():
    """A pinned case with the features the property draws: spills, refills,
    GC amplification, zero-length kernels and a closed-loop zero think time."""
    a = TenantTrace("a", (1.0, 2.0, 2.0, 3.0), 2 * GB, arrivals=(0.0, 2.0))
    b = TenantTrace("b", (1.0, 1.0), 2 * GB, think_times=(1.0, 0.0, 2.0))
    system = SharedSystem(2 * GB, 1.0 * GB, 2.0 * GB, 4 * GB, gc_alpha=1.0)
    outcome = assert_same_outcome((a, b), system)
    assert outcome.perf.eviction_stalls > 0
    assert outcome.perf.fault_events > 0
    assert outcome.perf.kernels_executed == 2 * 4 + 3 * 2


def test_arrival_at_a_kernel_finish_preempts_at_that_boundary():
    """``long`` finishes kernel 0 at exactly 1.0, when ``short`` arrives: the
    newcomer (zero attained service) runs 1.0-2.0, then ``long`` resumes."""
    long = TenantTrace("long", (1.0, 2.0, 3.0), 0, arrivals=(0.0,))
    short = TenantTrace("short", (1.0,), 0, arrivals=(1.0,))
    outcome = assert_same_outcome((long, short), SharedSystem(GB, 1.0 * GB, 1.0 * GB, GB))
    by_tenant = {record.tenant: record for record in outcome.records}
    assert by_tenant["short"].first_start == 1.0
    assert by_tenant["short"].completion == 2.0
    assert by_tenant["long"].completion == 4.0
    assert by_tenant["long"].latency == 4.0
    assert outcome.perf.events_processed == 2
    assert outcome.perf.kernels_executed == 4
