"""Oracles for the event loop's run-level and table-driven hot paths.

Each rewritten path keeps the construction it replaced as a reference inside
this file, and random inputs must give identical answers:

* the executor's LRU victim-candidate list (:func:`lru_victim_candidates`)
  versus the old two-list construction over ``resident_tensors()`` and
  ``contains()``, on random pool/recency states and on the states real
  simulations reach;
* the FTL's :meth:`write_run`/:meth:`trim_run` versus sequences of per-page
  :meth:`write`/:meth:`trim` calls, comparing the mapping, the validity bits,
  the reverse index, block allocation and the GC counters.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import make_policy
from repro.errors import SSDError
from repro.experiments.harness import build_workload
from repro.sim.executor import ExecutionSimulator, lru_victim_candidates
from repro.ssd import FlashGeometry, FlashTranslationLayer
from repro.ssd.ftl import GCResult
from repro.uvm.memory import MemoryPool

PAGE = 4096


def reference_candidates(
    gpu: MemoryPool, last_used: OrderedDict[int, float], unavailable: set[int]
) -> list[int]:
    """The victim-candidate construction the executor used to run inline."""
    resident = [
        tid
        for tid in list(gpu.residents)
        if tid not in unavailable and tid not in last_used
    ]
    resident += [
        tid
        for tid in last_used
        if gpu.contains(tid) and tid not in unavailable
    ]
    return resident


tensor_ids = st.integers(0, 15)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), tensor_ids, st.integers(1, 3 * PAGE)),
            st.tuples(st.just("free"), tensor_ids, st.just(0)),
            st.tuples(st.just("use"), tensor_ids, st.just(0)),
            st.tuples(st.just("forget"), tensor_ids, st.just(0)),
        ),
        max_size=80,
    ),
    unavailable=st.sets(tensor_ids, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_victim_candidates_match_the_two_list_reference(ops, unavailable):
    gpu = MemoryPool("gpu", 24 * PAGE)
    last_used: OrderedDict[int, float] = OrderedDict()
    for step, (op, tid, size) in enumerate(ops):
        if op == "alloc" and gpu.can_fit(size):
            gpu.allocate(tid, size)
        elif op == "free":
            gpu.free(tid)
        elif op == "use":
            last_used[tid] = float(step)
            last_used.move_to_end(tid)
        elif op == "forget":
            last_used.pop(tid, None)
        assert lru_victim_candidates(gpu.residents, last_used, unavailable) == (
            reference_candidates(gpu, last_used, unavailable)
        )


@pytest.mark.parametrize("policy", ["base_uvm", "deepum", "g10", "flashneuron"])
def test_victim_candidates_match_the_reference_in_real_runs(policy):
    """Every candidate list a policy receives during a real simulation equals
    the reference built from the simulator's state at that moment."""
    workload = build_workload("resnet152", scale="ci")
    config = workload.config.with_gpu_memory(workload.config.gpu.memory_bytes // 2)
    inner = make_policy(policy)
    calls = []
    simulator: ExecutionSimulator | None = None

    def spy(needed_bytes, protected, resident, now):
        assert simulator is not None
        expected = reference_candidates(simulator._gpu, simulator._last_used, protected)
        assert resident == expected
        calls.append(len(resident))
        return original(needed_bytes, protected, resident, now)

    original = inner.select_victims
    inner.select_victims = spy
    simulator = ExecutionSimulator(workload.graph, config, inner, workload.report)
    simulator.run()
    assert calls, "the squeezed GPU never asked the policy for victims"


def ftl_state(ftl: FlashTranslationLayer) -> tuple:
    """Everything a later FTL operation or the wear model can observe."""
    return (
        list(ftl._mapping.items()),
        {block: list(pages) for block, pages in ftl._block_pages.items()},
        [(b.write_pointer, list(b.valid), b.erase_count) for b in ftl.blocks],
        ftl._open_block,
        list(ftl._free_blocks),
        ftl.host_pages_written,
        ftl.gc_pages_written,
        ftl.blocks_erased,
    )


def _ftl() -> FlashTranslationLayer:
    geometry = FlashGeometry(channels=1, blocks_per_channel=6, pages_per_block=4, page_size=PAGE)
    return FlashTranslationLayer(geometry, gc_threshold_blocks=2)


def _per_page_write(ftl: FlashTranslationLayer, start: int, count: int) -> GCResult:
    total = GCResult()
    for page in range(start, start + count):
        total.merge(ftl.write(page))
    return total


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "trim"]),
            st.integers(0, 24),   # first logical page
            st.integers(1, 9),    # run length
        ),
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_ftl_runs_match_per_page_operations(ops):
    run, reference = _ftl(), _ftl()
    for op, start, count in ops:
        if op == "trim":
            run.trim_run(start, count)
            for page in range(start, start + count):
                reference.trim(page)
        else:
            try:
                got = run.write_run(start, count)
            except SSDError:
                with pytest.raises(SSDError):
                    _per_page_write(reference, start, count)
                assert ftl_state(run) == ftl_state(reference)
                return
            expected = _per_page_write(reference, start, count)
            assert (got.blocks_erased, got.pages_relocated) == (
                expected.blocks_erased,
                expected.pages_relocated,
            )
        assert ftl_state(run) == ftl_state(reference)
