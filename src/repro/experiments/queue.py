"""File-backed distributed work queue: sweep cells as competing-consumer tasks.

The sharded sweeps of PR 2 partition a grid *statically*: every shard owns a
contiguous block of cache keys, so one slow shard straggles the whole run and
a killed worker strands its cells until a human reruns the shard. This module
replaces static ownership with a :class:`WorkQueue` that workers drain
*dynamically* — a task is exactly one :class:`~repro.experiments.sweep.SweepCell`
plus its sweep cache key, the same content hash the
:class:`~repro.experiments.cache.ResultCache` stores results under, so queue
execution is idempotent and merges into the existing cache/report machinery
unchanged.

Design: one task is one JSON file that moves between state directories via
atomic ``rename`` — the only primitive the queue needs from the filesystem::

    <root>/queued/<key>.a<attempts>.json
    <root>/leased/<key>.a<attempts>.d<deadline_us>.w<worker>.json
    <root>/done/<key>.json
    <root>/failed/<key>.json

* **Enqueue** — task files are *created* atomically via an exclusive hard
  link from a unique temporary, so two producers enqueueing overlapping
  grids concurrently can never create two files for one key; the loser
  counts the key as skipped. Keys parked in ``failed/`` by an earlier run
  are reclaimed with a fresh attempt budget instead of being skipped, so
  re-running a sweep retries its failures.
* **Lease** — a worker claims the first queued task (keys drain in
  deterministic, name-sorted order) by renaming it into ``leased/``; the
  rename target encodes the lease deadline and worker id, so claiming,
  publishing the deadline and recording ownership are a single atomic step
  (losers get ``FileNotFoundError`` and try the next task).
* **Ack** — the holder renames its leased file into ``done/<key>.json``.
  Completion is keyed on the cache key alone: acking an already-done key, or
  a lease that was expired and reassigned, is harmless because every worker
  computes the *same* content-addressed payload.
* **Lease timeout** — a worker that dies (SIGKILL, OOM, machine loss) leaves
  its leased file behind; once the encoded deadline passes,
  :meth:`WorkQueue.requeue_stale` renames it back into ``queued/`` with the
  attempt counter intact. Attempts exceeding ``max_attempts`` park the task
  in ``failed/`` instead of retrying forever.

Because a task is always exactly one file, ``queued + leased + done + failed
== total`` at every instant, cells can never be lost, and a key can never be
completed twice (there is never more than one file per key to rename into
``done/``). Every transition is appended to ``<root>/events.jsonl``; besides
auditing (the concurrency stress suite uses it to prove that no cell was
computed twice beyond lease-timeout retries), the log records how many tasks
were ever added, so :meth:`WorkQueue.status` can compare the files it
*observes* against the count the queue *expects* — a reconciliation that
actually fails if task files go missing.

:class:`QueueRunner` spins N local worker processes over one queue —
``repro sweep --queue --workers N`` — while ``repro queue enqueue`` /
``repro queue work`` run the same loop as independent OS processes (the CI
sweep runs two competing consumers with separate caches and merges them).

Fault injection: when the ``REPRO_QUEUE_FAULT_DELAY`` environment variable is
set, :func:`run_worker` sleeps that many seconds between leasing a task and
executing it. The hook exists so tests can deterministically kill a worker
mid-lease; production code never sets it.

This class is the *file* implementation of the
:class:`~repro.experiments.backend.QueueBackend` contract; the network-backed
sibling (:mod:`~repro.experiments.http_queue` speaking to ``repro serve``)
satisfies the same contract, and ``tests/test_queue_conformance.py`` runs one
shared suite against both. Deadline math runs on the backend's injectable
clock, which defaults to the process-wide monotonic-with-epoch clock
(:func:`~repro.experiments.backend.default_clock`) — wall-clock NTP steps can
no longer instantly expire a healthy lease or stall ``requeue_stale``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import ConfigurationError, QueueError
from .backend import (
    KEY_RE as _KEY_RE,
    Lease,
    QueueBackend,
    ResultStore,
    backend_from_info,
    cache_from_info,
    default_clock,
    default_worker_id,
    sanitize_worker_id,
)
from .cache import _tmp_path
from .sweep import SweepCell, execute_cell

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "Lease",
    "LeaseHeartbeat",
    "QueueRunner",
    "WorkQueue",
    "default_queue_root",
    "run_worker",
]

#: Bump when the task-file layout changes; foreign/mismatched files are ignored.
QUEUE_SCHEMA_VERSION = 1

#: Default queue directory name (relative to the current working directory).
DEFAULT_QUEUE_DIR = ".repro_queue"

#: Default lease timeout: how long a worker may sit on a task before another
#: worker may assume it died and reclaim the cell.
DEFAULT_LEASE_TIMEOUT = 300.0

#: Default cap on lease attempts per task before it is parked in ``failed/``.
DEFAULT_MAX_ATTEMPTS = 5

#: Test-only fault-injection hook (seconds to sleep between lease and execute).
FAULT_DELAY_ENV = "REPRO_QUEUE_FAULT_DELAY"

_QUEUED_RE = re.compile(r"^(?P<key>[0-9a-f]{2,64})\.a(?P<attempts>\d+)\.json$")
_LEASED_RE = re.compile(
    r"^(?P<key>[0-9a-f]{2,64})\.a(?P<attempts>\d+)"
    r"\.d(?P<deadline>\d+)\.w(?P<worker>[A-Za-z0-9_-]+)\.json$"
)
#: Lenient fallback for lease files the strict regex rejects (e.g. a worker id
#: with dots written by an older release): recover the key/attempts so the
#: task can be reclaimed instead of stranded.
_LOOSE_LEASED_RE = re.compile(
    r"^(?P<key>[0-9a-f]{2,64})\.a(?P<attempts>\d+)"
    r"\.d(?P<deadline>\d+)\.w(?P<worker>.+)\.json$"
)

# Queue workers fork where the platform allows it (cheap, inherits warm
# imports and loaded plugins, matches ProcessPoolExecutor's default) and fall
# back to spawn elsewhere.
try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _MP = multiprocessing.get_context("spawn")


def default_queue_root() -> Path:
    """The queue root honouring the ``REPRO_QUEUE_DIR`` environment variable."""
    return Path(os.environ.get("REPRO_QUEUE_DIR", DEFAULT_QUEUE_DIR))


class WorkQueue(QueueBackend):
    """Crash-safe, file-backed task queue keyed on sweep cache keys.

    Args:
        root: Queue directory (shared by every competing consumer).
        lease_timeout: Seconds before an unacked lease may be reclaimed.
        max_attempts: Lease attempts per task before it is parked in
            ``failed/``; ``None`` retries forever (property tests use this).
        clock: Time source returning seconds (injectable for tests). Defaults
            to the process-wide monotonic-with-epoch clock, so a wall-clock
            step can never expire a healthy lease or stall reclaim.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int | None = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] | None = None,
    ):
        if lease_timeout <= 0:
            raise ConfigurationError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_attempts is not None and max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be >= 1 or None, got {max_attempts}")
        self.root = Path(root) if root is not None else default_queue_root()
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = max_attempts
        self._clock = clock if clock is not None else default_clock()
        self._queued = self.root / "queued"
        self._leased = self.root / "leased"
        self._done = self.root / "done"
        self._failed = self.root / "failed"
        #: Cached (mtime_ns, size, mapping) of the advisory priority manifest.
        self._priority_cache: tuple[int, int, dict[str, float]] | None = None

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _listdir(directory: Path) -> list[Path]:
        try:
            return sorted(p for p in directory.iterdir() if p.is_file())
        except FileNotFoundError:
            return []

    def _log(self, event: str, **fields: object) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"ts": round(self._clock(), 6), "pid": os.getpid(), "event": event, **fields},
            sort_keys=True,
        )
        # O_APPEND writes of one short line are atomic on POSIX, so competing
        # consumers can share the log without interleaving records. The audit
        # log is append-only history, not task/lease state: no consumer ever
        # reads it to decide a transition, so atomic-rename publication
        # (QUE001) deliberately does not apply.
        with (self.root / "events.jsonl").open(  # repro-lint: disable=QUE001 -- append-only audit log, not queue state
            "a", encoding="utf-8"
        ) as fh:
            fh.write(line + "\n")

    def events(self) -> list[dict]:
        """Every logged transition, oldest first (corrupt lines skipped)."""
        path = self.root / "events.jsonl"
        records = []
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def _state_keys(self, directory: Path) -> set[str]:
        keys = set()
        for path in self._listdir(directory):
            if directory in (self._queued, self._leased):
                regex = _QUEUED_RE if directory is self._queued else _LEASED_RE
                match = regex.match(path.name)
                if match:
                    keys.add(match["key"])
                elif directory is self._leased:
                    # Unparseable leases still pin their key (so producers
                    # cannot re-create a task file for it mid-recovery).
                    parsed = self._lease_key_loose(path)
                    if parsed is not None:
                        keys.add(parsed[0])
            elif path.suffix == ".json" and _KEY_RE.match(path.stem):
                keys.add(path.stem)
        return keys

    def failed_keys(self) -> set[str]:
        """Keys parked in ``failed/`` after exhausting their attempt budget."""
        return self._state_keys(self._failed)

    def _create_task(self, target: Path, key: str, task: dict) -> bool:
        """Atomically create ``target`` unless it already exists.

        The entry is written to a unique temporary (the same collision-free
        naming the result cache uses) and hard-linked into place: the link is
        an *exclusive* create, so two producers racing on one key cannot both
        succeed. Returns whether this producer won the creation.
        """
        target.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": QUEUE_SCHEMA_VERSION, "key": key, "cell": task.get("cell")}
        tmp = _tmp_path(target)
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, separators=(",", ":")))
            try:
                os.link(tmp, target)
            except FileExistsError:
                return False
            return True
        finally:
            tmp.unlink(missing_ok=True)

    # -- priority ordering -----------------------------------------------------

    @property
    def _priority_path(self) -> Path:
        return self.root / "priorities.json"

    def set_priorities(self, costs: dict[str, float]) -> None:
        """Record estimated costs so :meth:`lease` drains slowest-first.

        The manifest is *advisory*: it only orders the queued directory
        listing, so a missing/stale manifest degrades to the deterministic
        name-sorted drain, never to incorrectness. Writes are atomic
        (tmp + rename) and merge with the existing manifest so concurrent
        producers enqueueing different grids keep each other's estimates.
        """
        merged = dict(self._load_priorities())
        merged.update({key: float(cost) for key, cost in costs.items()})
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = _tmp_path(self._priority_path)
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(merged, separators=(",", ":"), sort_keys=True))
            os.replace(tmp, self._priority_path)
        finally:
            tmp.unlink(missing_ok=True)
        self._priority_cache = None

    def _load_priorities(self) -> dict[str, float]:
        """The advisory cost manifest (mtime/size-cached; {} when absent)."""
        try:
            stat = self._priority_path.stat()
        except OSError:
            return {}
        cached = self._priority_cache
        if cached is not None and cached[0] == stat.st_mtime_ns and cached[1] == stat.st_size:
            return cached[2]
        try:
            data = json.loads(self._priority_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        mapping = {
            str(key): float(value)
            for key, value in data.items()
            if isinstance(value, (int, float))
        }
        self._priority_cache = (stat.st_mtime_ns, stat.st_size, mapping)
        return mapping

    def _drain_order(self, paths: list[Path]) -> list[Path]:
        """Queued tasks in drain order: highest estimated cost first, then
        name order (the historical deterministic order; also the total order
        when no priorities were recorded)."""
        costs = self._load_priorities()
        if not costs:
            return paths
        def rank(path: Path) -> tuple[float, str]:
            match = _QUEUED_RE.match(path.name)
            key = match["key"] if match else path.name
            return (-costs.get(key, 0.0), path.name)
        return sorted(paths, key=rank)

    # -- producer side ---------------------------------------------------------

    def enqueue_tasks(
        self, tasks: Iterable[tuple[str, dict]], warm: frozenset[str] | set[str] = frozenset()
    ) -> dict[str, int]:
        """Add raw ``(key, task)`` pairs, idempotently.

        Keys already queued, leased or done are skipped — task creation is an
        exclusive link, so even two producers enqueueing concurrently cannot
        duplicate a key. Keys found in ``failed/`` are *retried*: the parked
        task moves back to ``queued/`` with a fresh attempt budget. Keys in
        ``warm`` go straight to ``done/`` — their results are already in the
        cache, but recording them keeps ``status`` totals reconciled with the
        sweep manifest.
        """
        counts = {"queued": 0, "warm": 0, "retried": 0, "skipped": 0}
        active = (
            self._state_keys(self._queued)
            | self._state_keys(self._leased)
            | self._state_keys(self._done)
        )
        failed = self.failed_keys()
        for key, task in tasks:
            if not _KEY_RE.match(key):
                raise ConfigurationError(f"queue keys must be lowercase hex, got {key!r}")
            if key in active:
                counts["skipped"] += 1
                continue
            if key in failed:
                # A previous run exhausted this task's attempts; re-running
                # the sweep asks for it again, so give it a fresh budget.
                self._queued.mkdir(parents=True, exist_ok=True)
                try:
                    (self._failed / f"{key}.json").rename(self._queued / f"{key}.a0.json")
                except FileNotFoundError:
                    counts["skipped"] += 1  # another producer reclaimed it
                else:
                    counts["retried"] += 1
                active.add(key)
                continue
            target = (
                self._done / f"{key}.json"
                if key in warm
                else self._queued / f"{key}.a0.json"
            )
            if self._create_task(target, key, task):
                counts["warm" if key in warm else "queued"] += 1
            else:
                counts["skipped"] += 1
            active.add(key)
        self._log("enqueue", **counts)
        return counts

    # ``enqueue`` (cells → tasks, warm detection, priority recording) is
    # inherited from :class:`QueueBackend` — it is pure orchestration over
    # ``enqueue_tasks``/``set_priorities`` and identical for every backend.

    # -- consumer side ---------------------------------------------------------

    def lease(self, worker: str | None = None) -> Lease | None:
        """Claim the next task, or ``None`` when nothing is queued.

        Tasks drain in deterministic order: highest recorded priority cost
        first (``slowest-first`` enqueueing), then key-sorted — which is the
        entire order when no priorities were recorded. The claim is a
        single atomic rename whose target filename publishes the lease
        deadline and worker id; a task whose attempt counter would exceed
        ``max_attempts`` is parked in ``failed/`` instead.
        """
        worker = sanitize_worker_id(worker) if worker else default_worker_id()
        for path in self._drain_order(self._listdir(self._queued)):
            match = _QUEUED_RE.match(path.name)
            if match is None:
                continue  # foreign file; never touch it
            key = match["key"]
            attempts = int(match["attempts"]) + 1
            if self.max_attempts is not None and attempts > self.max_attempts:
                self._failed.mkdir(parents=True, exist_ok=True)
                try:
                    path.rename(self._failed / f"{key}.json")
                except FileNotFoundError:
                    continue
                self._log("fail", key=key, attempts=attempts - 1)
                continue
            deadline_us = int((self._clock() + self.lease_timeout) * 1e6)
            target = self._leased / f"{key}.a{attempts}.d{deadline_us}.w{worker}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                path.rename(target)
            except FileNotFoundError:
                continue  # lost the race; try the next task
            try:
                with target.open("r", encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, json.JSONDecodeError):
                entry = {}
            self._log("lease", key=key, worker=worker, attempts=attempts)
            return Lease(
                key=key,
                attempts=attempts,
                deadline=deadline_us / 1e6,
                worker=worker,
                path=target,
                task={"cell": entry.get("cell")},
            )
        return None

    def ack(self, lease: Lease) -> bool:
        """Mark a leased task complete (idempotent, keyed on the cache key).

        Returns ``True`` when the key is done — including when another worker
        already completed it, or when this worker's expired lease was requeued
        and could be reclaimed straight into ``done/``. Returns ``False`` only
        when the lease was reassigned and the new holder still owns the task.
        """
        done = self._done / f"{lease.key}.json"
        done.parent.mkdir(parents=True, exist_ok=True)
        try:
            Path(lease.path).rename(done)
            self._log("ack", key=lease.key, worker=lease.worker, attempts=lease.attempts)
            return True
        except FileNotFoundError:
            pass
        if done.exists():
            return True
        # The lease expired and was requeued: complete it from queued/ (the
        # result is already in the cache, so recomputing would be pure waste).
        for path in self._listdir(self._queued):
            match = _QUEUED_RE.match(path.name)
            if match is None or match["key"] != lease.key:
                continue
            try:
                path.rename(done)
            except FileNotFoundError:
                continue
            self._log("ack", key=lease.key, worker=lease.worker, attempts=lease.attempts,
                      reclaimed=True)
            return True
        return done.exists()

    def release(self, lease: Lease) -> bool:
        """Voluntarily give a task back (e.g. after an execution error)."""
        target = self._queued / f"{lease.key}.a{lease.attempts}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            Path(lease.path).rename(target)
        except FileNotFoundError:
            return False
        self._log("release", key=lease.key, worker=lease.worker, attempts=lease.attempts)
        return True

    def renew(self, lease: Lease) -> Lease | None:
        """Extend a held lease; ``None`` when it was already reclaimed.

        The renewal is one atomic rename publishing a fresh deadline, so a
        long-running cell's lease never expires under it while the worker is
        demonstrably alive (see :func:`run_worker`'s heartbeat).
        """
        deadline_us = int((self._clock() + self.lease_timeout) * 1e6)
        target = self._leased / (
            f"{lease.key}.a{lease.attempts}.d{deadline_us}.w{lease.worker}.json"
        )
        try:
            Path(lease.path).rename(target)
        except FileNotFoundError:
            return None
        self._log("renew", key=lease.key, worker=lease.worker, attempts=lease.attempts)
        return replace(lease, path=target, deadline=deadline_us / 1e6)

    def _lease_key_loose(self, path: Path) -> tuple[str, int] | None:
        """Best-effort ``(key, attempts)`` of a lease file the strict regex
        rejects — from a lenient filename parse first, falling back to the
        task file's own ``key`` field. ``None`` marks a genuinely foreign
        file that must never be touched."""
        match = _LOOSE_LEASED_RE.match(path.name)
        if match is not None:
            return match["key"], int(match["attempts"])
        if path.suffix != ".json":
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        key = entry.get("key") if isinstance(entry, dict) else None
        if isinstance(key, str) and _KEY_RE.match(key):
            return key, 0
        return None

    def requeue_stale(self, now: float | None = None) -> list[str]:
        """Move every expired lease back to ``queued/`` (dead-worker recovery).

        A lease file the strict regex cannot parse (e.g. a dotted-FQDN worker
        id written by an older release) has no readable deadline, so it used
        to be skipped forever — the task was never requeued and ``status``
        undercounted. Such files are now treated as *stale immediately*: the
        key/attempts are recovered leniently (filename first, task payload as
        fallback) and the task is requeued, with a warning record in
        ``events.jsonl``. Files that yield no key at all are foreign and stay
        untouched.
        """
        now = self._clock() if now is None else now
        requeued = []
        for path in self._listdir(self._leased):
            match = _LEASED_RE.match(path.name)
            if match is None:
                parsed = self._lease_key_loose(path)
                if parsed is None:
                    continue  # foreign file; never touch it
                key, attempts = parsed
                target = self._queued / f"{key}.a{attempts}.json"
                target.parent.mkdir(parents=True, exist_ok=True)
                try:
                    path.rename(target)
                except FileNotFoundError:
                    continue
                self._log("requeue", key=key, attempts=attempts, warning=True,
                          reason="unparseable-lease", lease_file=path.name)
                requeued.append(key)
                continue
            if int(match["deadline"]) / 1e6 > now:
                continue
            target = self._queued / f"{match['key']}.a{match['attempts']}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                path.rename(target)
            except FileNotFoundError:
                continue
            self._log("requeue", key=match["key"], worker=match["worker"],
                      attempts=int(match["attempts"]))
            requeued.append(match["key"])
        return requeued

    # -- introspection ---------------------------------------------------------

    def status(self) -> dict[str, object]:
        """Per-state task counts, expired-lease visibility, and reconciliation.

        ``total`` counts the distinct keys *observed* across the state
        directories; ``expected`` counts the tasks the events log says were
        ever added. A task is always exactly one file, so when the queue is
        quiescent ``queued + leased + done + failed == total == expected`` —
        and unlike the structural sum, ``expected`` genuinely fails if task
        files are lost or mangled. While workers are actively renaming, a key
        observed mid-move is deduplicated into its most-advanced state.
        """
        rank = {"queued": 0, "leased": 1, "failed": 2, "done": 3}
        states: dict[str, str] = {}
        stale = 0
        now = self._clock()

        def record(key: str, state: str) -> None:
            if rank[state] >= rank.get(states.get(key, "queued"), -1):
                states[key] = state

        for path in self._listdir(self._queued):
            match = _QUEUED_RE.match(path.name)
            if match:
                states.setdefault(match["key"], "queued")
        for path in self._listdir(self._leased):
            match = _LEASED_RE.match(path.name)
            if match:
                record(match["key"], "leased")
                if int(match["deadline"]) / 1e6 <= now:
                    stale += 1
            else:
                # An unparseable lease still holds a real task: count it as
                # leased *and* stale (requeue_stale reclaims it immediately)
                # instead of silently undercounting the queue.
                parsed = self._lease_key_loose(path)
                if parsed is not None:
                    record(parsed[0], "leased")
                    stale += 1
        for directory, state in ((self._failed, "failed"), (self._done, "done")):
            for path in self._listdir(directory):
                if path.suffix == ".json" and _KEY_RE.match(path.stem):
                    record(path.stem, state)

        counts = {state: 0 for state in rank}
        for state in states.values():
            counts[state] += 1
        expected = sum(
            int(event.get("queued", 0)) + int(event.get("warm", 0))
            for event in self.events()
            if event.get("event") == "enqueue"
        )
        return {
            "root": str(self.root),
            **counts,
            "stale": stale,
            "total": len(states),
            "expected": expected,
        }

    def clear(self) -> None:
        """Delete the queue directory (tasks, events log, everything)."""
        import shutil

        if self.root.exists():
            shutil.rmtree(self.root)

    def log_event(self, event: str, **fields: object) -> None:
        """Append an out-of-band record (e.g. a worker error) to the audit log."""
        self._log(event, **fields)

    def describe(self) -> str:
        return str(self.root)

    def connect_info(self) -> dict:
        return {
            "kind": "file",
            "root": str(self.root),
            "lease_timeout": self.lease_timeout,
            "max_attempts": self.max_attempts,
        }


class LeaseHeartbeat:
    """Renews a held lease on a background thread partway through its deadline.

    Long paper-scale cells used to depend on a generous ``--lease-timeout``:
    any cell slower than the timeout was presumed dead, reclaimed, and
    recomputed. The heartbeat renews the lease (one atomic rename) every
    ``interval`` seconds — half the lease timeout by default — so a live
    worker's lease never expires, while a SIGKILLed worker's heartbeat dies
    with it and its lease still expires on schedule. If the lease was already
    reclaimed (e.g. an operator forced ``requeue-stale``), renewal stops and
    the worker keeps computing: completion stays idempotent via the
    content-addressed cache and :meth:`WorkQueue.ack`.
    """

    def __init__(self, queue: WorkQueue, lease: Lease, interval: float | None = None):
        self._queue = queue
        self._lease = lease
        self._interval = queue.lease_timeout / 2 if interval is None else interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.key[:12]}", daemon=True
        )

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def lease(self) -> Lease:
        """The currently held lease (latest renewal); only read after exit."""
        return self._lease

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            renewed = self._queue.renew(self._lease)
            if renewed is None:
                return
            self._lease = renewed


def run_worker(
    queue: QueueBackend,
    cache: ResultStore,
    worker_id: str | None = None,
    poll_interval: float = 0.05,
    heartbeat_interval: float | None = None,
) -> int:
    """Drain a queue: lease cells, execute, cache, ack — until nothing is left.

    The loop exits once the queue is drained (every task done or failed). When
    queued is empty but peers still hold leases, the worker idles, reviving
    expired leases via :meth:`WorkQueue.requeue_stale` so cells claimed by a
    dead worker are never stranded. While a cell executes, a
    :class:`LeaseHeartbeat` renews its lease partway through the deadline
    (``heartbeat_interval`` overrides the default of half the lease timeout),
    so long cells no longer depend on a generous ``--lease-timeout``.
    Execution errors release the task for retry (bounded by the queue's
    ``max_attempts``) instead of killing the worker. Returns the number of
    cells this worker actually executed.
    """
    worker_id = sanitize_worker_id(worker_id) if worker_id else default_worker_id()
    fault_delay = float(os.environ.get(FAULT_DELAY_ENV, "0") or 0)
    executed = 0
    while True:
        lease = queue.lease(worker_id)
        if lease is None:
            if queue.drained():
                return executed
            queue.requeue_stale()
            time.sleep(poll_interval)
            continue
        if fault_delay:
            time.sleep(fault_delay)
        heartbeat = LeaseHeartbeat(queue, lease, interval=heartbeat_interval)
        try:
            with heartbeat:
                if cache.get(lease.key) is None:
                    payload = execute_cell(lease.cell())
                    cache.put(lease.key, payload, cell=lease.task.get("cell"))
                    executed += 1
            queue.ack(heartbeat.lease)
        except Exception as exc:  # noqa: BLE001 - fault isolation per task
            queue.log_event("error", key=lease.key, worker=worker_id, error=repr(exc))
            queue.release(heartbeat.lease)


def _worker_main(
    queue_info: Mapping[str, object],
    cache_info: Mapping[str, object],
    worker_id: str,
    poll_interval: float,
) -> None:
    """Entry point of a :class:`QueueRunner` worker process.

    Receives picklable connection descriptors instead of live objects, so the
    same runner drives file-backed queues (reopen the directory) and HTTP
    queues (reconnect to the server) identically.
    """
    run_worker(
        backend_from_info(queue_info),
        cache_from_info(cache_info),
        worker_id=worker_id,
        poll_interval=poll_interval,
    )


class QueueRunner:
    """Drives N local worker processes over one queue backend.

    This is the single-machine orchestration of the competing-consumer model
    (``repro sweep --queue --workers N``, or ``--queue-url`` for the HTTP
    backend); cross-machine deployments run ``repro queue work`` processes
    against a shared queue directory or a ``repro serve`` URL instead.
    """

    def __init__(
        self,
        queue: QueueBackend,
        cache: ResultStore,
        workers: int = 1,
        poll_interval: float = 0.05,
    ):
        if cache is None:
            raise ConfigurationError("queue execution requires a result cache")
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self.cache = cache
        self.workers = workers
        self.poll_interval = poll_interval

    def run(self, cells: Sequence[SweepCell]) -> dict[str, int]:
        """Enqueue cells (idempotently) and drain the queue to completion.

        Failure reporting is scoped to *this run's* cells: tasks another
        sweep parked in ``failed/`` under the same queue directory do not
        poison an unrelated run.
        """
        keys = {cell.cache_key() for cell in cells}
        counts = self.queue.enqueue(cells, cache=self.cache)
        self.drain(keys)
        return counts

    def drain(self, keys: set[str] | None = None) -> None:
        """Spawn workers until the queue is empty; raise on permanent failures.

        Workers normally drain everything in one round; additional rounds only
        happen when every worker exited while an externally-held lease was
        still pending (e.g. a killed ``repro queue work`` process whose lease
        had not yet expired). ``keys`` limits the permanent-failure check to
        one run's cells; ``None`` checks every failed task in the queue.
        """
        max_rounds = (self.queue.max_attempts or DEFAULT_MAX_ATTEMPTS) + 2
        for _ in range(max_rounds):
            pending = self.queue.pending()
            if pending == 0:
                break
            queue_info = self.queue.connect_info()
            cache_info = self.cache.connect_info()
            processes = [
                _MP.Process(
                    target=_worker_main,
                    args=(
                        queue_info,
                        cache_info,
                        sanitize_worker_id(f"qr{os.getpid()}-w{index}"),
                        self.poll_interval,
                    ),
                    daemon=True,
                )
                for index in range(min(self.workers, pending))
            ]
            for process in processes:
                process.start()
            for process in processes:
                process.join()
            self.queue.requeue_stale()
        status = self.queue.status()
        if int(status["queued"]) + int(status["leased"]) > 0:  # type: ignore[call-overload]
            raise QueueError(
                f"queue {self.queue.describe()} did not drain: "
                f"{status['queued']} queued, {status['leased']} leased"
            )
        failed = self.queue.failed_keys()
        if keys is not None:
            failed &= keys
        if failed:
            raise QueueError(
                f"{len(failed)} cell(s) failed permanently after "
                f"{self.queue.max_attempts} lease attempts; see the failed "
                f"tasks and events log of queue {self.queue.describe()}"
            )
