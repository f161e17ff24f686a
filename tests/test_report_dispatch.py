"""One process pool per report, dispatched costliest workload first.

``generate_report`` executes the union grid of its figures in one
``SweepRunner.run``; the pool receives one task per workload, in descending
estimated cost, and the report stays byte-identical to a serial run.
"""

from __future__ import annotations

import shutil
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from repro.experiments import SweepCell, SweepRunner, ResultCache, generate_report, sweep
from repro.experiments.harness import _CACHE, clear_workload_cache
from repro.experiments.sweep import _dispatch_groups, estimate_cell_cost

FIGURES = ["2", "11", "12", "table1"]


def _report_files(out_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


class TestOnePool:
    def test_report_runs_one_pool_and_matches_a_serial_run_byte_for_byte(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        generate_report(
            scale="ci", figures=FIGURES,
            runner=SweepRunner(jobs=1, cache=ResultCache(cache_dir)),
            output_dir=tmp_path / "serial",
        )
        shutil.rmtree(cache_dir)  # same (cold) cache path, so cache_root matches

        pools: list[int] = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", CountingPool)
        manifest = generate_report(
            scale="ci", figures=FIGURES,
            runner=SweepRunner(jobs=2, cache=ResultCache(cache_dir)),
            output_dir=tmp_path / "parallel",
        )
        assert len(pools) == 1
        serial, parallel = _report_files(tmp_path / "serial"), _report_files(tmp_path / "parallel")
        assert set(parallel) == {
            "figure2.json", "figure11.json", "figure12.json", "table1.json",
            "report.json", "report.md",
        }
        assert parallel == serial

        # Provenance is what a figure-by-figure run records: Figure 11
        # computes its cells, and Figure 12 (a subset of them) finds them warm.
        figures = {figure["id"]: figure for figure in manifest["figures"]}
        assert figures["11"]["warm"] == 0
        assert all(row["status"] == "recomputed" for row in figures["11"]["provenance"])
        assert figures["12"]["to_execute"] == 0
        assert all(row["status"] == "warm" for row in figures["12"]["provenance"])


class _InlineExecutor:
    """Stand-in pool: runs each task at submit, records the submission order."""

    submitted: list[list[str]] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, cell_dicts):
        _InlineExecutor.submitted.append([data["model"] for data in cell_dicts])
        future: Future = Future()
        future.set_result(fn(cell_dicts))
        return future


class _RecordingStore(dict):
    """In-memory result store that records which model each write was for."""

    def __init__(self):
        super().__init__()
        self.writes: list[str] = []

    def put(self, key, payload, cell=None):
        self.writes.append(cell["model"])
        self[key] = payload

    def has(self, key):
        return key in self


# bert runs two simulations (2 x 3456 = 6912); resnet152 and vit only
# characterize (0.1 x 46400 = 4640, 0.1 x 18240 = 1824).
CELLS = [
    SweepCell(model="bert", policy="g10", scale="ci"),
    SweepCell(model="vit", policy=None, scale="ci"),
    SweepCell(model="bert", policy="base_uvm", scale="ci"),
    SweepCell(model="resnet152", policy=None, scale="ci"),
]


class TestDispatch:
    def test_groups_by_workload_in_descending_cost(self):
        keys = [cell.cache_key() for cell in CELLS]
        assert _dispatch_groups(CELLS, keys) == [[0, 2], [3], [1]]

    def test_workload_is_model_batch_and_scale(self):
        cells = [
            SweepCell(model="bert", policy="g10", scale="ci"),
            SweepCell(model="BERT", policy="base_uvm", scale="ci"),  # alias: same workload
            SweepCell(model="bert", policy="g10", scale="ci", batch_size=16),
            SweepCell(model="bert", policy="g10", scale="paper"),
        ]
        groups = _dispatch_groups(cells, [cell.cache_key() for cell in cells])
        assert sorted(groups) == [[0, 1], [2], [3]]

    def test_ties_break_on_the_first_cache_key(self, monkeypatch):
        # Every group sums to 1.0; bert's second key would sort first.
        monkeypatch.setattr(
            sweep, "estimate_cell_cost", lambda cell: 0.5 if cell.model == "bert" else 1.0
        )
        cells = [
            SweepCell(model="bert", scale="ci"),
            SweepCell(model="vit", scale="ci"),
            SweepCell(model="resnet152", scale="ci"),
            SweepCell(model="bert", policy="base_uvm", scale="ci"),
        ]
        assert _dispatch_groups(cells, ["c", "a", "b", "0"]) == [[1], [2], [0, 3]]

    def test_results_return_in_spec_order_when_completions_arrive_out_of_order(
        self, monkeypatch
    ):
        _InlineExecutor.submitted = []
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(sweep, "as_completed", lambda futures: list(futures)[::-1])
        store = _RecordingStore()
        results = SweepRunner(jobs=2, cache=store).run(CELLS)

        assert _InlineExecutor.submitted == [["bert", "bert"], ["resnet152"], ["vit"]]
        # Each group's payloads are cached as its future completes.
        assert store.writes == ["vit", "resnet152", "bert", "bert"]
        assert [result.cell for result in results] == CELLS
        serial = SweepRunner().run(CELLS)
        assert [result.payload for result in results] == [result.payload for result in serial]


class TestEstimate:
    @pytest.mark.parametrize(
        "scale, ranking",
        [
            ("ci", ["inceptionv3", "senet154", "resnet152", "vit", "bert"]),
            ("paper", ["senet154", "resnet152", "inceptionv3", "vit", "bert"]),
        ],
    )
    def test_ranks_models_like_the_profiled_kernel_count(self, scale, ranking):
        costs = {
            model: estimate_cell_cost(SweepCell(model=model, scale=scale)) for model in ranking
        }
        assert sorted(costs, key=costs.__getitem__, reverse=True) == ranking

    def test_estimating_leaves_the_workload_memo_empty(self):
        clear_workload_cache()
        sweep._workload_cost.cache_clear()
        for model in ("bert", "vit", "resnet152"):
            assert estimate_cell_cost(SweepCell(model=model, scale="ci")) > 0
        assert _CACHE == {}
        assert sweep._workload_cost.cache_info().currsize == 3
