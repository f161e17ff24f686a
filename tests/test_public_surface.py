"""The package's public surface.

Every ``__all__`` must name only importable objects and exactly what a star
import yields, so deleting a subsystem cannot leave a dangling export. The
work queue, its HTTP backend and ``repro serve`` were deleted in favour of one
execution path (serial or process pool over the result cache, plus static
shards and ``repro cache merge`` across machines); their names stay gone.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.experiments import ResultCache

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro"

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.analysis.lint",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.graph",
    "repro.models",
    "repro.profiling",
    "repro.sim",
    "repro.ssd",
    "repro.uvm",
]

REMOVED_NAMES = {
    "repro.experiments": (
        "DEFAULT_LEASE_TIMEOUT",
        "DEFAULT_MAX_ATTEMPTS",
        "HttpResultCache",
        "HttpWorkQueue",
        "Lease",
        "LeaseHeartbeat",
        "QueueBackend",
        "QueueRunner",
        "QueueServer",
        "ResultStore",
        "WorkQueue",
        "backend_from_info",
        "cache_from_info",
        "default_queue_root",
        "default_worker_id",
        "enqueue_report",
        "run_worker",
        "sanitize_worker_id",
    ),
    "repro.errors": ("QueueConnectionError", "QueueError"),
}

REMOVED_MODULES = (
    "repro.experiments.backend",
    "repro.experiments.http_queue",
    "repro.experiments.queue",
    "repro.experiments.server",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
    namespace: dict[str, object] = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)


def test_every_package_with_exports_is_checked():
    declared = {
        ".".join(("repro", *init.parent.relative_to(PACKAGE_DIR).parts))
        for init in PACKAGE_DIR.rglob("__init__.py")
        if "__all__" in init.read_text(encoding="utf-8")
    }
    assert declared == set(PACKAGES)


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in REMOVED_NAMES.items() for name in names],
)
def test_queue_names_are_gone(module, name):
    imported = importlib.import_module(module)
    assert not hasattr(imported, name)
    assert name not in getattr(imported, "__all__", ())


@pytest.mark.parametrize("module", REMOVED_MODULES)
def test_queue_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None


def test_result_cache_has_no_connect_info():
    assert not hasattr(ResultCache, "connect_info")
