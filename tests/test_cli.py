"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestFigureCommand:
    def test_figure11_ci_and_cache_hit(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ("figure", "11", "--scale", "ci", "--models", "bert", "--cache-dir", cache_dir)
        assert run_cli(*args) == 0
        cold = capsys.readouterr()
        results = json.loads(cold.out)
        assert 0.0 < results["bert"]["g10"] <= 1.0
        assert results["bert"]["g10"] > results["bert"]["base_uvm"]
        assert "6 executed" in cold.err

        # Second invocation is served entirely from the on-disk cache and
        # produces bit-identical output.
        assert run_cli(*args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "6 cached, 0 executed" in warm.err

    def test_parallel_matches_serial(self, tmp_path, capsys):
        base = ("figure", "12", "--scale", "ci", "--models", "bert", "--no-cache")
        assert run_cli(*base) == 0
        serial = capsys.readouterr().out
        assert run_cli(*base, "--jobs", "2") == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_output_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "fig19.json"
        assert run_cli(
            "figure", "19", "--scale", "ci", "--models", "bert",
            "--no-cache", "--output", str(artifact),
        ) == 0
        capsys.readouterr()
        results = json.loads(artifact.read_text())
        assert results["bert"]["0.2"] > 0.9

    def test_table_commands(self, capsys, tmp_path):
        assert run_cli("figure", "table1", "--scale", "ci",
                       "--cache-dir", str(tmp_path / "c")) == 0
        out = capsys.readouterr().out
        assert "BERT" in out and "SENet154" in out
        assert run_cli("figure", "table2", "--no-cache") == 0
        out = capsys.readouterr().out
        assert "40 GB HBM2e" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("figure", "99")


class TestRunCommand:
    def test_run_single_cell(self, tmp_path, capsys):
        artifact = tmp_path / "run.json"
        assert run_cli(
            "run", "--model", "bert", "--policy", "g10", "--scale", "ci",
            "--cache-dir", str(tmp_path / "c"), "--output", str(artifact),
        ) == 0
        out = capsys.readouterr().out
        assert "normalized_performance" in out
        payload = json.loads(artifact.read_text())
        assert payload["cell"]["model"] == "bert"
        assert not payload["result"]["failed"]


class TestRunTenantsCommand:
    def test_colocated_run_reports_slo_table_and_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "tenants.json"
        assert run_cli(
            "run", "--model", "bert", "--scale", "ci",
            "--tenants", "2", "--tenant-policies", "g10,base_uvm",
            "--arrival-load", "1.0", "--requests", "2",
            "--cache-dir", str(tmp_path / "c"), "--output", str(artifact),
        ) == 0
        captured = capsys.readouterr()
        assert "p99_latency_s" in captured.out
        assert "t0-g10" in captured.out and "t1-base_uvm" in captured.out
        assert "fairness (Jain)" in captured.err
        payload = json.loads(artifact.read_text())
        assert set(payload["tenants"]) == {"t0-g10", "t1-base_uvm"}
        assert 0.0 < payload["fairness"] <= 1.0
        assert payload["tenants"]["t0-g10"]["policy"] == "g10"
        assert len(payload["tenants"]["t0-g10"]["latencies"]) == 2

    def test_tenants_must_be_positive(self, tmp_path):
        assert run_cli(
            "run", "--model", "bert", "--scale", "ci", "--tenants", "0",
            "--no-cache",
        ) == 2  # ConfigurationError exit path


class TestSweepCommand:
    def test_grid_sweep(self, tmp_path, capsys):
        artifact = tmp_path / "sweep.json"
        assert run_cli(
            "sweep", "--models", "bert", "--policies", "g10,base_uvm",
            "--scale", "ci", "--cache-dir", str(tmp_path / "c"), "--output", str(artifact),
        ) == 0
        rows = json.loads(artifact.read_text())
        assert [row["cell"]["policy"] for row in rows] == ["g10", "base_uvm"]


class TestQueueCommands:
    def test_sweep_queue_matches_serial_and_resumes_warm(self, tmp_path, capsys):
        base = ("sweep", "--models", "bert", "--policies", "ideal,g10", "--scale", "ci")
        assert run_cli(*base, "--no-cache") == 0
        serial = capsys.readouterr().out

        queued_args = (
            *base, "--queue", "--workers", "2",
            "--queue-dir", str(tmp_path / "q"), "--cache-dir", str(tmp_path / "c"),
        )
        assert run_cli(*queued_args) == 0
        queued = capsys.readouterr()
        assert queued.out == serial  # bit-identical to the serial run
        assert "2 executed" in queued.err

        # Re-running is a pure cache resume; the drained queue is untouched.
        assert run_cli(*queued_args) == 0
        resumed = capsys.readouterr()
        assert resumed.out == serial
        assert "2 cached, 0 executed" in resumed.err

    def test_enqueue_work_status_report_roundtrip(self, tmp_path, capsys):
        """The CI competing-consumer workflow in miniature: enqueue the grid,
        drain it with a worker, verify the accounting, report fully warm."""
        qdir, cdir = str(tmp_path / "q"), str(tmp_path / "c")
        assert run_cli(
            "queue", "enqueue", "--figures", "2", "--scale", "ci",
            "--queue-dir", qdir, "--cache-dir", cdir,
        ) == 0
        assert "enqueued 4 cell(s)" in capsys.readouterr().out

        # Enqueueing is idempotent: every key is already tracked.
        assert run_cli(
            "queue", "enqueue", "--figures", "2", "--scale", "ci",
            "--queue-dir", qdir, "--cache-dir", cdir,
        ) == 0
        assert "enqueued 0 cell(s)" in capsys.readouterr().out

        assert run_cli(
            "queue", "work", "--queue-dir", qdir, "--cache-dir", cdir,
            "--worker-id", "consumer-a",
        ) == 0
        assert "executed 4 cell(s)" in capsys.readouterr().err

        assert run_cli("queue", "status", "--queue-dir", qdir) == 0
        status = capsys.readouterr().out
        assert "done       : 4" in status
        assert "total      : 4 (4 expected)" in status
        assert ("reconciled : queued + leased + done + failed == total == expected"
                " -> yes") in status

        assert run_cli(
            "report", "--figures", "2", "--scale", "ci", "--cache-dir", cdir,
            "--output-dir", str(tmp_path / "report"), "--expect-warm",
        ) == 0

    def test_requeue_stale_reclaims_a_dead_workers_cell(self, tmp_path, capsys):
        from repro.experiments import WorkQueue

        queue = WorkQueue(tmp_path / "q", lease_timeout=0.01)
        queue.enqueue_tasks([("ab12cd34", {"cell": None})])
        queue.lease("dead-worker")
        time.sleep(0.05)  # let the (tiny) lease deadline pass

        assert run_cli("queue", "requeue-stale", "--queue-dir", str(tmp_path / "q")) == 0
        assert "requeued 1 stale lease(s)" in capsys.readouterr().out
        assert run_cli("queue", "status", "--queue-dir", str(tmp_path / "q")) == 0
        assert "queued     : 1" in capsys.readouterr().out

    def test_queue_clear(self, tmp_path, capsys):
        qdir = str(tmp_path / "q")
        from repro.experiments import WorkQueue

        WorkQueue(tmp_path / "q").enqueue_tasks([("ab12cd34", {"cell": None})])
        assert run_cli("queue", "clear", "--queue-dir", qdir) == 0
        assert "cleared" in capsys.readouterr().out
        assert not (tmp_path / "q").exists()

    def test_queue_requires_the_cache(self, tmp_path, capsys):
        assert run_cli(
            "sweep", "--models", "bert", "--policies", "g10", "--scale", "ci",
            "--queue", "--no-cache",
        ) == 2
        assert "requires the result cache" in capsys.readouterr().err

    def test_workers_without_queue_rejected(self, tmp_path, capsys):
        assert run_cli(
            "sweep", "--models", "bert", "--policies", "g10", "--scale", "ci",
            "--cache-dir", str(tmp_path / "c"), "--workers", "2",
        ) == 2
        assert "require --queue" in capsys.readouterr().err


class TestShardedCommands:
    def test_figure_shards_merge_and_resume_match_serial(self, tmp_path, capsys):
        """The acceptance workflow through the CLI: 3 shards -> merge -> resume."""
        base = ("figure", "11", "--scale", "ci", "--models", "bert")
        assert run_cli(*base, "--no-cache") == 0
        serial = capsys.readouterr().out

        for index in range(3):
            assert run_cli(
                *base, "--cache-dir", str(tmp_path / f"shard{index}"),
                "--shard-index", str(index), "--shard-count", "3",
            ) == 0
            out = capsys.readouterr()
            assert out.out == ""  # shard warming renders nothing
            assert f"shard {index}/3" in out.err and "4 skipped" in out.err

        merged = str(tmp_path / "merged")
        assert run_cli(
            "cache", "merge",
            *(str(tmp_path / f"shard{i}") for i in range(3)),
            "--cache-dir", merged,
        ) == 0
        assert "merged 6 entries" in capsys.readouterr().out

        assert run_cli(*base, "--cache-dir", merged, "--resume") == 0
        resumed = capsys.readouterr()
        assert resumed.out == serial  # bit-identical to the cold serial run
        assert "6 warm, 0 to execute" in resumed.err
        assert "6 cached, 0 executed" in resumed.err

    def test_sweep_shard_prints_only_owned_cells(self, tmp_path, capsys):
        args = ("sweep", "--models", "bert", "--policies", "g10,base_uvm,deepum",
                "--scale", "ci", "--cache-dir", str(tmp_path / "c"))
        assert run_cli(*args, "--shard-index", "0", "--shard-count", "3") == 0
        out = capsys.readouterr().out
        # Header + separator + exactly the one row this shard owns (g10).
        assert len(out.strip().splitlines()) == 3
        assert "G10" in out

    def test_shard_index_without_count_is_an_error(self, tmp_path, capsys):
        assert run_cli(
            "figure", "11", "--scale", "ci", "--models", "bert",
            "--cache-dir", str(tmp_path / "c"), "--shard-index", "0",
        ) == 2
        assert "together" in capsys.readouterr().err

    def test_shard_requires_cache(self, capsys):
        assert run_cli(
            "figure", "11", "--scale", "ci", "--models", "bert",
            "--no-cache", "--shard-index", "0", "--shard-count", "2",
        ) == 2
        assert "requires the result cache" in capsys.readouterr().err

    def test_resume_requires_cache(self, capsys):
        assert run_cli(
            "figure", "11", "--scale", "ci", "--models", "bert",
            "--no-cache", "--resume",
        ) == 2
        assert "requires the result cache" in capsys.readouterr().err

    def test_shard_mode_warns_when_output_is_ignored(self, tmp_path, capsys):
        artifact = tmp_path / "fig.json"
        assert run_cli(
            "figure", "11", "--scale", "ci", "--models", "bert",
            "--cache-dir", str(tmp_path / "c"),
            "--shard-index", "0", "--shard-count", "3", "--output", str(artifact),
        ) == 0
        assert "--output ignored" in capsys.readouterr().err
        assert not artifact.exists()

    def test_report_resume_prints_the_plan(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        assert run_cli("report", "--scale", "ci", "--figures", "2",
                       "--cache-dir", cache_dir,
                       "--output-dir", str(tmp_path / "r1")) == 0
        capsys.readouterr()
        assert run_cli("report", "--scale", "ci", "--figures", "2",
                       "--cache-dir", cache_dir, "--resume",
                       "--output-dir", str(tmp_path / "r2")) == 0
        assert "4 warm, 0 to execute" in capsys.readouterr().err


class TestReportCommand:
    def test_report_renders_artifacts_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2,table2",
            "--cache-dir", str(tmp_path / "c"), "--output-dir", str(out_dir),
        ) == 0
        err = capsys.readouterr().err
        assert "2 artifacts" in err
        assert (out_dir / "figure2.json").exists()
        assert (out_dir / "table2.json").exists()
        manifest = json.loads((out_dir / "report.json").read_text())
        assert manifest["totals"]["warm"] == 0
        assert "Figure 2" in (out_dir / "report.md").read_text()

    def test_report_without_cache_totals_match_a_cached_run(self, tmp_path, capsys):
        """Without a cache the perf comes from the results in memory: the same
        totals a cached run reads, never silent zeros."""
        out_dir = tmp_path / "report"
        assert run_cli(
            "report", "--scale", "ci", "--figures", "tenancy,table2", "--no-cache",
            "--output-dir", str(out_dir),
        ) == 0
        cached_dir = tmp_path / "cached"
        assert run_cli(
            "report", "--scale", "ci", "--figures", "tenancy,table2",
            "--cache-dir", str(tmp_path / "c"), "--output-dir", str(cached_dir),
        ) == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "report.json").read_text())
        cached = json.loads((cached_dir / "report.json").read_text())
        assert manifest["totals"]["perf"]["events_processed"] > 0
        assert manifest["totals"] == cached["totals"]
        assert [f["perf"] for f in manifest["figures"]] == [f["perf"] for f in cached["figures"]]
        assert manifest["figures"][1]["perf"]["events_processed"] == 0  # table2: static
        report_md = (out_dir / "report.md").read_text()
        perf_line = next(line for line in report_md.splitlines() if "Simulation work" in line)
        assert perf_line in (cached_dir / "report.md").read_text()

    def test_report_without_cache_executes_each_distinct_cell_once(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import combined_spec, sweep

        executed: list[str] = []
        real = sweep.execute_cell

        def counting(cell):
            executed.append(cell.cache_key())
            return real(cell)

        monkeypatch.setattr(sweep, "execute_cell", counting)
        figures = "11,12,13,14"
        assert run_cli(
            "report", "--scale", "ci", "--figures", figures, "--no-cache",
            "--output-dir", str(tmp_path / "report"),
        ) == 0
        capsys.readouterr()
        distinct = {cell.cache_key() for cell in combined_spec("ci", figures.split(",")).cells}
        assert sorted(executed) == sorted(distinct)
        assert len(executed) == 30

    def test_report_shard_then_expect_warm(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        for index in range(2):
            assert run_cli(
                "report", "--scale", "ci", "--figures", "2", "--cache-dir", cache_dir,
                "--shard-index", str(index), "--shard-count", "2",
            ) == 0
        capsys.readouterr()
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2", "--cache-dir", cache_dir,
            "--output-dir", str(tmp_path / "report"), "--expect-warm",
        ) == 0
        assert "4 warm, 0 recomputed" in capsys.readouterr().err

    def test_expect_warm_cold_cache_fails(self, tmp_path, capsys):
        assert run_cli(
            "report", "--scale", "ci", "--figures", "2",
            "--cache-dir", str(tmp_path / "cold"),
            "--output-dir", str(tmp_path / "report"), "--expect-warm",
        ) == 2
        assert "recomputed" in capsys.readouterr().err


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        run_cli("run", "--model", "bert", "--scale", "ci", "--cache-dir", cache_dir)
        capsys.readouterr()
        assert run_cli("cache", "info", "--cache-dir", cache_dir) == 0
        out = capsys.readouterr().out
        assert "entries    : 1" in out
        assert "stale tmp  : 0" in out
        assert run_cli("cache", "clear", "--cache-dir", cache_dir) == 0
        assert "removed 1" in capsys.readouterr().out
        assert run_cli("cache", "path", "--cache-dir", cache_dir) == 0
        assert cache_dir in capsys.readouterr().out

    def test_merge_requires_sources(self, tmp_path, capsys):
        assert run_cli("cache", "merge", "--cache-dir", str(tmp_path / "c")) == 2
        assert "at least one source" in capsys.readouterr().err

    def test_non_merge_actions_reject_stray_sources(self, tmp_path, capsys):
        """`cache clear shard0` must not silently clear the default cache."""
        assert run_cli("cache", "clear", "shard0", "--cache-dir", str(tmp_path / "c")) == 2
        assert "--cache-dir" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        """The acceptance-criteria invocation, end to end in a fresh process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "figure", "11", "--scale", "ci",
             "--models", "bert", "--jobs", "2"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert results["bert"]["g10"] > results["bert"]["base_uvm"]
        # The default cache landed in the working directory.
        assert (tmp_path / ".repro_cache").is_dir()


class TestRegistryListings:
    def test_list_policies(self, capsys):
        assert run_cli("run", "--list-policies") == 0
        out = capsys.readouterr().out
        for name in ("ideal", "base_uvm", "deepum", "flashneuron",
                     "g10", "g10_gds", "g10_host"):
            assert name in out
        assert "G10-GDS" in out  # display labels shown alongside keys

    def test_list_models(self, capsys):
        assert run_cli("run", "--list-models") == 0
        out = capsys.readouterr().out
        for name in ("bert", "vit", "inceptionv3", "resnet152", "senet154"):
            assert name in out
        assert "Hugging Face / CoLA" in out

    def test_run_without_model_or_listing_is_an_error(self, capsys):
        assert run_cli("run") == 2
        assert "--model" in capsys.readouterr().err

    def test_paper_style_policy_label_accepted(self, capsys):
        # "G10+Host" used to normalize to "g10host" and be rejected.
        assert run_cli("run", "--model", "bert", "--policy", "G10+Host",
                       "--scale", "ci", "--no-cache") == 0
        assert "G10-Host" in capsys.readouterr().out

    def test_plugins_flag_experiment_selectable_as_figure(self, tmp_path, capsys, monkeypatch):
        """--plugins loads before the parser, so plugin experiment ids parse."""
        plugin = tmp_path / "cli_exp_plugin.py"
        plugin.write_text(
            "from repro import register_experiment\n"
            "@register_experiment(id='plugin_exp', title='Plugin experiment',\n"
            "                     replace=True)\n"
            "def render(scale='ci', runner=None):\n"
            "    return {'scale': scale}\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "")  # restored after the test
        from repro.registry import EXPERIMENT_REGISTRY
        try:
            assert run_cli("figure", "plugin_exp", "--scale", "ci", "--no-cache",
                           "--plugins", "cli_exp_plugin") == 0
            assert json.loads(capsys.readouterr().out) == {"scale": "ci"}
        finally:
            EXPERIMENT_REGISTRY.unregister("plugin_exp")

    def test_plugins_flag_registers_policy(self, tmp_path, capsys, monkeypatch):
        plugin = tmp_path / "cli_test_plugin.py"
        plugin.write_text(
            "from repro import register_policy\n"
            "from repro.baselines import BaseUVMPolicy\n"
            "@register_policy('cli_plugin_policy', replace=True)\n"
            "class CliPluginPolicy(BaseUVMPolicy):\n"
            "    name = 'CLI Plugin Policy'\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "")  # restored after the test
        from repro.registry import POLICY_REGISTRY
        try:
            assert run_cli(
                "run", "--model", "bert", "--policy", "cli_plugin_policy",
                "--scale", "ci", "--no-cache", "--plugins", "cli_test_plugin",
            ) == 0
            assert "CLI Plugin Policy" in capsys.readouterr().out
        finally:
            POLICY_REGISTRY.unregister("cli_plugin_policy")
