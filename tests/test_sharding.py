"""Sharded, resumable sweeps: plan determinism and the resume contract.

The headline guarantee of this layer (and this PR's acceptance criterion): a
figure grid run as N shards into N separate caches, merged, and then resumed
is **bit-identical** to the same grid run serially with a cold cache — and the
resumed run/report sees every cell as a cache hit.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments import (
    EXPERIMENTS,
    ResultCache,
    SweepCell,
    SweepPlan,
    SweepRunner,
    SweepSpec,
    combined_spec,
    figure11_end_to_end,
    figure11_spec,
    generate_report,
    jsonify,
    warm_cache,
)

SPEC = figure11_spec("ci", models=("bert",))  # 6 cells, 6 distinct keys


class TestSweepPlan:
    def test_manifest_covers_every_cell_with_keys_and_status(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plan = SweepPlan.build(SPEC, cache=cache)
        assert [e.cell for e in plan.entries] == list(SPEC.cells)
        assert all(len(e.key) == 64 for e in plan.entries)
        assert plan.counts() == {"cells": 6, "distinct": 6, "warm": 0, "to_execute": 6}

        # Warm one cell: the plan flips exactly that entry to cached.
        SweepRunner(cache=cache).run([SPEC.cells[0]])
        plan = SweepPlan.build(SPEC, cache=cache)
        assert [e.cached for e in plan.entries] == [True] + [False] * 5
        assert plan.counts()["warm"] == 1 and plan.counts()["to_execute"] == 5

    def test_duplicate_cells_share_a_key_and_a_shard(self):
        cell = SPEC.cells[0]
        plan = SweepPlan.build(
            [cell, dataclasses.replace(cell, seed=9), SPEC.cells[1]], shard_count=2
        )
        assert plan.counts() == {"cells": 3, "distinct": 2, "warm": 0, "to_execute": 2}
        assert plan.entries[0].key == plan.entries[1].key
        assert plan.entries[0].shard == plan.entries[1].shard

    def test_partition_is_deterministic_exhaustive_and_disjoint(self, tmp_path):
        for shard_count in (1, 2, 3, 6, 8):
            plan = SweepPlan.build(SPEC, shard_count=shard_count)
            owned = [plan.shard_entries(i) for i in range(shard_count)]
            keys = [e.key for entries in owned for e in entries]
            assert sorted(keys) == sorted(e.key for e in plan.entries)
            assert len(set(keys)) == len(keys) == 6  # each key owned exactly once

            # Cache state must not affect ownership, only hit status.
            cache = ResultCache(tmp_path / f"c{shard_count}")
            SweepRunner(cache=cache).run([SPEC.cells[2]])
            replanned = SweepPlan.build(SPEC, cache=cache, shard_count=shard_count)
            assert [e.shard for e in replanned.entries] == [e.shard for e in plan.entries]

    def test_round_trip(self):
        plan = SweepPlan.build(SPEC, shard_count=3)
        assert SweepPlan.from_dict(plan.to_dict()) == plan

    def test_invalid_shard_arguments_are_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPlan.build(SPEC, shard_count=0)
        plan = SweepPlan.build(SPEC, shard_count=2)
        with pytest.raises(ConfigurationError):
            plan.shard_entries(2)
        with pytest.raises(ConfigurationError):
            plan.shard_entries(-1)
        runner = SweepRunner()
        with pytest.raises(ConfigurationError):
            runner.run(SPEC, shard_index=0)  # missing shard_count
        with pytest.raises(ConfigurationError):
            runner.run(SPEC, shard_index=3, shard_count=3)

    def test_more_shards_than_cells_leaves_extras_empty(self):
        plan = SweepPlan.build(SPEC, shard_count=10)
        sizes = [len(plan.shard_entries(i)) for i in range(10)]
        assert sum(sizes) == 6 and max(sizes) == 1


class TestShardedRun:
    def test_shard_run_executes_only_owned_cells(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path / "c"))
        outs = runner.run(SPEC, shard_index=0, shard_count=3)
        assert runner.last_stats["executed"] == len(outs) == 2
        assert runner.last_stats["skipped"] == 4
        assert runner.last_stats["shard_index"] == 0
        assert runner.last_stats["shard_count"] == 3

    def test_acceptance_three_shards_merged_then_resumed_is_bit_identical(self, tmp_path):
        """The PR's acceptance criterion, end to end."""
        # Serial run with a cold cache: the reference output.
        serial_runner = SweepRunner(cache=ResultCache(tmp_path / "serial"))
        serial = json.dumps(
            jsonify(figure11_end_to_end(scale="ci", models=("bert",), runner=serial_runner)),
            indent=2, sort_keys=True,
        )

        # The same grid as 3 shards into 3 independent caches...
        shard_caches = [ResultCache(tmp_path / f"shard{i}") for i in range(3)]
        for index, cache in enumerate(shard_caches):
            SweepRunner(cache=cache).run(SPEC, shard_index=index, shard_count=3)

        # ...merged into one warm cache...
        merged = ResultCache(tmp_path / "merged")
        assert sum(merged.merge_from(cache) for cache in shard_caches) == 6

        # ...then resumed: zero cells execute, every cell is a cache hit,
        # and the figure is bit-identical to the serial reference.
        resumed_runner = SweepRunner(cache=merged)
        resumed = json.dumps(
            jsonify(figure11_end_to_end(scale="ci", models=("bert",), runner=resumed_runner)),
            indent=2, sort_keys=True,
        )
        assert resumed_runner.last_stats["executed"] == 0
        assert resumed_runner.last_stats["cache_hits"] == 6
        assert all(out.cached for out in resumed_runner.run(SPEC))
        assert resumed == serial

    def test_interrupted_run_resumes_without_recomputation(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        # "Crash" after the first shard of a 2-shard split.
        SweepRunner(cache=cache).run(SPEC, shard_index=0, shard_count=2)
        resumed = SweepRunner(cache=cache)
        outs = resumed.run(SPEC)
        stats = resumed.last_stats
        assert (stats["cells"], stats["cache_hits"], stats["executed"]) == (6, 3, 3)
        assert [out.cell for out in outs] == list(SPEC.cells)


class TestReportFromWarmCache:
    FIGURES = ("2", "3", "4")  # three figures over the same 4 characterization cells

    def test_combined_spec_deduplicates_across_figures(self):
        spec = combined_spec("ci", self.FIGURES)
        plan = SweepPlan.build(spec)
        counts = plan.counts()
        assert counts["cells"] == 12 and counts["distinct"] == 4

    def test_sharded_warm_then_report_marks_every_cell_warm(self, tmp_path):
        # Warm the full report grid as 3 shards into 3 separate caches.
        for index in range(3):
            runner = SweepRunner(cache=ResultCache(tmp_path / f"shard{index}"))
            stats = warm_cache(
                scale="ci", figures=self.FIGURES, runner=runner,
                shard_index=index, shard_count=3,
            )
            assert stats["cache_hits"] == 0

        merged = ResultCache(tmp_path / "merged")
        for index in range(3):
            merged.merge_from(ResultCache(tmp_path / f"shard{index}"))

        # Regenerating every figure from the merged cache is pure resume:
        # the report proves it by marking every provenance row warm.
        out_dir = tmp_path / "report"
        manifest = generate_report(
            scale="ci", figures=self.FIGURES,
            runner=SweepRunner(cache=merged),
            output_dir=out_dir, expect_warm=True,
        )
        assert manifest["totals"]["recomputed"] == 0
        assert manifest["totals"]["warm"] == 12
        for figure in manifest["figures"]:
            assert figure["to_execute"] == 0
            assert all(row["status"] == "warm" for row in figure["provenance"])

        report_md = (out_dir / "report.md").read_text(encoding="utf-8")
        assert "**12 served warm**" in report_md and "**0 recomputed**" in report_md
        assert "recomputed |" in report_md  # summary column present
        manifest_json = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        perf_totals = manifest_json["totals"].pop("perf")
        assert manifest_json["totals"] == {
            "cells": 12, "distinct": 12, "warm": 12, "recomputed": 0,
        }
        # Characterization-only figures do no simulation work.
        assert set(perf_totals) == {
            "events_processed", "pages_moved", "fault_events", "eviction_stalls",
        }
        assert all(value == 0 for value in perf_totals.values())
        for fid in self.FIGURES:
            assert (out_dir / f"figure{fid}.json").exists()

    def test_expect_warm_fails_on_a_cold_cache_but_still_writes_artifacts(self, tmp_path):
        out_dir = tmp_path / "report"
        with pytest.raises(ReproError, match="recomputed"):
            generate_report(
                scale="ci", figures=("2",),
                runner=SweepRunner(cache=ResultCache(tmp_path / "cold")),
                output_dir=out_dir, expect_warm=True,
            )
        assert (out_dir / "figure2.json").exists()
        assert (out_dir / "report.md").exists()

    def test_warm_cache_requires_a_cache(self):
        with pytest.raises(ConfigurationError):
            warm_cache(scale="ci", figures=("2",), runner=SweepRunner(cache=None))


GRID_EXPERIMENTS = [experiment for experiment in EXPERIMENTS if experiment.spec is not None]
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

# Prints the (key, shard) ownership of the whole report grid, as a machine of
# a cross-machine sweep would compute it for itself.
OWNERSHIP_SCRIPT = """
import json, sys
from repro.experiments import SweepPlan, combined_spec
plan = SweepPlan.build(combined_spec(sys.argv[1]), shard_count=int(sys.argv[2]))
print(json.dumps([[entry.key, entry.shard] for entry in plan.entries]))
"""


class TestEveryExperimentGrid:
    """Static shard ownership over every experiment's grid, at both scales.

    Each machine of a cross-machine sweep plans its shard on its own, so
    ownership has to be a pure function of the spec: every distinct key owned
    exactly once, in contiguous blocks of first-occurrence key order whose
    sizes differ by at most one key, and independent of cache state.
    """

    @pytest.mark.parametrize("scale", ["ci", "paper"])
    @pytest.mark.parametrize("experiment", GRID_EXPERIMENTS, ids=lambda e: e.id)
    def test_shards_partition_the_distinct_keys_into_balanced_blocks(
        self, experiment, scale
    ):
        spec = experiment.spec(scale)
        distinct = list(dict.fromkeys(cell.cache_key() for cell in spec.cells))
        for shard_count in (1, 2, 3, 7, len(distinct) + 1):
            plan = SweepPlan.build(spec, shard_count=shard_count)
            owner: dict[str, int] = {}
            for entry in plan.entries:
                assert owner.setdefault(entry.key, entry.shard) == entry.shard
            assert list(owner) == distinct
            shards = [owner[key] for key in distinct]
            assert shards == sorted(shards)
            sizes = [shards.count(index) for index in range(shard_count)]
            assert max(sizes) - min(sizes) <= 1

            # The shards' cells, taken together, are the spec's cells.
            owned = [e.cell for index in range(shard_count) for e in plan.shard_entries(index)]
            assert sorted(owned, key=SweepCell.cache_key) == sorted(
                spec.cells, key=SweepCell.cache_key
            )
            assert SweepPlan.from_dict(plan.to_dict()) == plan


class TestOwnershipAcrossInterpreters:
    @pytest.mark.parametrize("hash_seed", ["0", "1", "4242"])
    @pytest.mark.parametrize("scale", ["ci", "paper"])
    def test_fresh_interpreter_assigns_the_same_owners(self, scale, hash_seed):
        """Shards need no coordinator because every process agrees on owners,
        whatever its string-hash seed."""
        env = {**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": hash_seed}
        completed = subprocess.run(
            [sys.executable, "-c", OWNERSHIP_SCRIPT, scale, "5"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        plan = SweepPlan.build(combined_spec(scale), shard_count=5)
        expected = [[entry.key, entry.shard] for entry in plan.entries]
        assert json.loads(completed.stdout) == expected


@pytest.fixture(scope="module")
def serial_cache(tmp_path_factory):
    """SPEC run serially into one cold cache: the reference entries."""
    cache = ResultCache(tmp_path_factory.mktemp("serial"))
    SweepRunner(cache=cache).run(SPEC)
    return cache


class TestMergedShardsMatchSerial:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4, 6])
    def test_merged_cache_is_byte_identical_to_the_serial_cache(
        self, tmp_path, serial_cache, shard_count
    ):
        shard_caches = [ResultCache(tmp_path / f"shard{i}") for i in range(shard_count)]
        for index, cache in enumerate(shard_caches):
            SweepRunner(cache=cache).run(SPEC, shard_index=index, shard_count=shard_count)
        merged = ResultCache(tmp_path / "merged")
        assert sum(merged.merge_from(cache) for cache in shard_caches) == 6
        # A second merge of the same shards copies nothing.
        assert sum(merged.merge_from(cache) for cache in shard_caches) == 0

        def entries(cache):
            return {
                path.relative_to(cache.root).as_posix(): path.read_bytes()
                for path in sorted(cache.root.glob("*/*.json"))
            }

        assert entries(merged) == entries(serial_cache)
