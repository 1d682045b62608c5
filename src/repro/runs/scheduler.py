"""Cell scheduler: one lease state machine driven by every transport.

:class:`_SweepState` owns the whole queue / retry / journal /
exactly-once contract for a batch of :class:`~repro.runs.store.CellSpec`.
Three transports drive it: :func:`run_cells` runs leases in-process
(``workers <= 1``) or on a ``ProcessPoolExecutor``, and the TCP
:class:`~repro.runs.net.Coordinator` leases them to network workers.

- **cache first** — cells already in the store are journalled
  ``finished (cached)`` without executing (``force=True`` bypasses);
- **longest-expected-first** — pending cells are leased in order of
  prior duration from the store (unknown cells first: they might be the
  longest), so the big cells start early and the tail of the sweep is
  short;
- **leases** — a lease is journalled ``started`` with its attempt
  number and carries the backoff to sleep before executing; the pool
  transport keeps ``workers + 1`` leases in flight, so ``started``
  means "running or next in line";
- **idempotent commit** — a payload is stored at most once per key;
- **bounded retry with backoff** — a failed lease, or one whose
  executor died, consumes one attempt; the cell re-queues up to
  ``retries`` more times, each retry sleeping an exponentially growing,
  capped delay first (the msgsim self-healing agents' retransmission
  idiom); exhausted cells are journalled ``failed`` and the sweep
  *completes* with a non-zero ``failed`` count instead of aborting;
- **per-cell timeout** — enforced *inside* the executor via ``SIGALRM``
  (pool futures cannot be cancelled once running); on platforms or
  threads without signal support the timeout degrades to unbounded.

Workers execute :func:`execute_cell` — replication is serial inside the
worker (the cell is the fan-out unit).  A fork-started worker never
inherits the parent's enabled hub (the hub disarms itself after fork, see
:mod:`repro.obs.hub`); instead, when the sweep ships events, each worker
enables its *own* per-cell JSONL sink under ``<sweep_dir>/events/`` and
records a resource profile (wall/CPU/rusage/cache counters) into the
``runs-cell/v1`` payload's ``telemetry`` block — the raw material the
coordinator merges into the sweep timeline and ``runs watch`` renders.
"""

from __future__ import annotations

import resource
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..core.state import CACHE_STATS
from ..obs import HUB as _OBS
from .journal import Journal
from .store import CellSpec, ResultStore, build_payload, cell_key

__all__ = [
    "CellTimeout",
    "DEFAULT_TIMEOUT",
    "DEFAULT_RETRIES",
    "WORKER_SAMPLE_RATE",
    "backoff_delay",
    "execute_cell",
    "run_cells",
]

#: Per-cell wall-clock budget (seconds); generous — cells are CI-sized
#: by default and a hung cell should fail long before the sweep does.
DEFAULT_TIMEOUT = 900.0
#: Extra attempts after the first failure.
DEFAULT_RETRIES = 2
#: Backoff: ``min(cap, base * 2**attempt)`` seconds before retry *attempt*.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 8.0
#: Round-event thinning for worker sinks (``HUB.enable(sample_rate=...)``):
#: per-round events are trend data, not liveness — heartbeats/progress are
#: wall-clock throttled separately — so 1-in-16 keeps per-cell files small
#: and the per-event flush off the hot path's back.
WORKER_SAMPLE_RATE = 16


class CellTimeout(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


def backoff_delay(
    attempt: int, *, base: float = BACKOFF_BASE, cap: float = BACKOFF_CAP
) -> float:
    """Capped exponential backoff before retry ``attempt`` (0-based)."""
    return min(cap, base * (2.0**attempt))


@contextmanager
def _deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`CellTimeout` after ``seconds`` of wall clock.

    Uses ``SIGALRM``/``setitimer`` — available on the main thread of a
    POSIX process, which is exactly where pool workers run their tasks.
    Elsewhere (Windows, non-main threads) it is a no-op.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise CellTimeout(f"cell exceeded {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(float(seconds), 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_cell(
    cell: CellSpec,
    timeout: float | None = None,
    delay: float = 0.0,
    backend: str | None = None,
    events_dir: str | Path | None = None,
    profile_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Worker entry point: one cell to a ``runs-cell/v1`` payload.

    ``delay`` is the retry backoff, slept in the worker so the parent's
    collection loop never blocks.  ``backend`` selects the replication
    engine inside the worker (payloads stay backend-agnostic).  No store
    I/O happens here — the parent owns the store, keeping writes
    single-process and atomic.

    ``events_dir`` enables this process's telemetry hub onto a per-cell
    JSONL sink ``<events_dir>/cell-<key>.jsonl`` for the duration of the
    cell (``obs-events/v1`` plus the engine's ``cell.heartbeat`` /
    ``cell.progress`` liveness records, round events thinned to
    1-in-:data:`WORKER_SAMPLE_RATE`).  If the hub is already active in
    this process — a serial in-process sweep under ``--obs-out`` — the
    caller's sink wins and no per-cell file is written.  ``profile_dir``
    additionally wraps the cell in :mod:`cProfile` (stats to
    ``<profile_dir>/cell-<key>.pstats``) and ``tracemalloc`` (peak into
    the telemetry block).  Every executed cell records a resource
    profile regardless: wall seconds, ``getrusage`` user/sys CPU deltas,
    max RSS, and state-cache hit/miss deltas.
    """
    if delay > 0:
        time.sleep(delay)
    key = cell_key(cell)
    events_path: Path | None = None
    if events_dir is not None and not _OBS.active:
        events_path = Path(events_dir) / f"cell-{key}.jsonl"
    profiler = None
    peak_traced: int | None = None
    if profile_dir is not None:
        import cProfile
        import tracemalloc

        profiler = cProfile.Profile()
        tracemalloc.start()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    hits0, misses0 = CACHE_STATS.hits, CACHE_STATS.misses
    started = time.perf_counter()
    if events_path is not None:
        _OBS.enable(
            events_path,
            sample_rate=WORKER_SAMPLE_RATE,
            cell_key=key,
            experiment_id=cell.experiment_id,
            label=cell.spec.label,
            n_reps=cell.n_reps,
        )
    try:
        with _deadline(timeout):
            if profiler is not None:
                profiler.enable()
            try:
                results = cell.run(backend=backend)
            finally:
                if profiler is not None:
                    profiler.disable()
    finally:
        if events_path is not None:
            _OBS.disable()
        if profile_dir is not None:
            import tracemalloc

            peak_traced = int(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    duration = time.perf_counter() - started
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    profile_path: Path | None = None
    if profiler is not None:
        root = Path(profile_dir)
        root.mkdir(parents=True, exist_ok=True)
        profile_path = root / f"cell-{key}.pstats"
        profiler.dump_stats(profile_path)
    telemetry = {
        "wall_s": duration,
        "cpu_user_s": ru1.ru_utime - ru0.ru_utime,
        "cpu_sys_s": ru1.ru_stime - ru0.ru_stime,
        "max_rss_bytes": int(ru1.ru_maxrss) * 1024,
        "cache_hits": int(CACHE_STATS.hits - hits0),
        "cache_misses": int(CACHE_STATS.misses - misses0),
        "rounds": int(sum(r.rounds for r in results)),
        "peak_traced_bytes": peak_traced,
        "events_file": events_path.name if events_path is not None else None,
        "profile_file": profile_path.name if profile_path is not None else None,
    }
    return build_payload(cell, results, duration_s=duration, telemetry=telemetry)


#: Obs counter bumped by each terminal cell status.
_STATUS_COUNTERS = {
    "cached": "runs.cells_cached",
    "finished": "runs.cells_run",
    "failed": "runs.cells_failed",
}


class _SweepState:
    """Queue, leases and completion accounting for one batch of cells.

    A transport takes a cell with :meth:`lease` and answers each lease
    with :meth:`commit` or :meth:`fail`; :meth:`release_worker` hands
    back every lease of an executor that died.  ``worker`` names the
    lessee: the TCP coordinator passes its worker ids, local transports
    pass ``None``, and only named workers' records carry a ``worker``
    field.  Every public method holds :attr:`lock`, which also keeps the
    journal single-writer across the coordinator's handler threads.
    """

    def __init__(
        self,
        cells: Iterable[CellSpec],
        *,
        store: ResultStore,
        journal: Journal | None = None,
        retries: int = DEFAULT_RETRIES,
        force: bool = False,
        max_cells: int | None = None,
    ):
        self.lock = threading.RLock()
        self.store = store
        self.journal = journal
        self.retries = int(retries)
        self.cells: dict[str, CellSpec] = {}
        for cell in cells:
            self.cells.setdefault(cell_key(cell), cell)
        self.attempts: dict[str, int] = {}
        self.leases: dict[str, dict[str, Any]] = {}
        self.done: dict[str, str] = {}  # key -> "cached" | "run"
        self.failed: dict[str, dict[str, Any]] = {}  # key -> failure record

        for key, cell in self.cells.items():
            self._journal("scheduled", key, n_reps=cell.n_reps)
        _OBS.count("runs.cells_scheduled", len(self.cells))
        pending: list[str] = []
        for key in self.cells:
            if not force and store.has(key):
                self.done[key] = "cached"
                self._journal("finished", key, cached=True)
                self._cell_event(key, "cached", seconds=0.0)
            else:
                pending.append(key)
        # Longest-expected-first; cells with no prior duration sort first
        # (they might be the longest — pessimism keeps the tail short).
        pending.sort(key=lambda k: -(store.duration(k) or float("inf")))
        if max_cells is not None and max_cells >= 0:
            pending, self.deferred = pending[:max_cells], pending[max_cells:]
        else:
            self.deferred = []
        self.pending: deque[str] = deque(pending)

    def _journal(
        self, record_type: str, key: str, worker: str | None = None, **fields: Any
    ) -> None:
        if self.journal is None:
            return
        if worker is not None:
            fields["worker"] = worker
        cell = self.cells[key]
        self.journal.append(
            record_type,
            key=key,
            experiment_id=cell.experiment_id,
            label=cell.spec.label,
            **fields,
        )

    def _cell_event(self, key: str, status: str, **fields: Any) -> None:
        if _OBS.active:
            cell = self.cells[key]
            _OBS.count(_STATUS_COUNTERS[status])
            _OBS.event(
                "cell",
                {
                    "key": key,
                    "experiment_id": cell.experiment_id,
                    "label": cell.spec.label,
                    "status": status,
                    **fields,
                },
            )

    def lease(self, worker: str | None = None) -> dict[str, Any] | None:
        """Grant the next pending cell, or ``None`` when nothing is pending.

        The lease carries the attempt number and the backoff to sleep
        before executing it, and is journalled ``started``.
        """
        with self.lock:
            while self.pending:
                key = self.pending.popleft()
                if key in self.done or key in self.failed or key in self.leases:
                    continue  # stale: a late delivery or a re-queued copy got there first
                attempt = self.attempts.get(key, 0)
                lease = self.leases[key] = {
                    "key": key,
                    "worker": worker,
                    "attempt": attempt,
                    "delay_s": backoff_delay(attempt - 1) if attempt else 0.0,
                    "granted_unix": time.time(),
                }
                self._journal("started", key, worker, attempt=attempt)
                return lease
            return None

    def commit(self, key: Any, payload: Any, worker: str | None = None) -> dict[str, Any]:
        """Store a cell's payload, at most once per key."""
        with self.lock:
            if key not in self.cells:
                return {"type": "error", "error": f"unknown cell {key!r}"}
            if key in self.done or key in self.failed:
                # Duplicate delivery (an expired lease re-ran elsewhere, or
                # a resend): idempotent — ack without store/journal writes.
                self.leases.pop(key, None)
                return {"type": "ack", "committed": False, "duplicate": True}
            if not isinstance(payload, dict) or payload.get("key") != key:
                return {"type": "error", "error": f"payload does not match leased cell {key}"}
            try:
                self.store.put(payload)
            except ValueError as exc:
                return {"type": "error", "error": str(exc)}
            seconds = float(payload.get("duration_s") or 0.0)
            self.leases.pop(key, None)
            self.done[key] = "run"
            self._journal("finished", key, worker, cached=False, seconds=seconds)
            self._cell_event(key, "finished", seconds=seconds)
            return {"type": "ack", "committed": True, "duplicate": False}

    def fail(self, key: Any, error: str) -> dict[str, Any]:
        """A lease's execution raised: one attempt consumed."""
        with self.lock:
            if key not in self.cells:
                return {"type": "error", "error": f"unknown cell {key!r}"}
            self.leases.pop(key, None)
            if key in self.done or key in self.failed:
                return {"type": "ack", "requeued": False, "duplicate": True}
            return {"type": "ack", "requeued": self._requeue(key, error)}

    def release_worker(self, worker: str | None, error: str) -> list[str]:
        """``worker`` is gone: each of its leases consumes one attempt and
        re-queues at the head of the queue.  Returns the released keys."""
        with self.lock:
            released = [k for k, lease in self.leases.items() if lease["worker"] == worker]
            for key in reversed(released):
                del self.leases[key]
                self._requeue(key, error, front=True)
            return released

    def _requeue(self, key: str, error: str, front: bool = False) -> bool:
        """Re-queue after a lost attempt, or fail once retries are exhausted."""
        attempts = self.attempts[key] = self.attempts.get(key, 0) + 1
        if attempts <= self.retries:
            if front:
                self.pending.appendleft(key)
            else:
                self.pending.append(key)
            return True
        cell = self.cells[key]
        self._journal("failed", key, error=error, attempts=attempts)
        self.failed[key] = {
            "key": key,
            "experiment_id": cell.experiment_id,
            "label": cell.spec.label,
            "error": error,
            "attempts": attempts,
        }
        self._cell_event(key, "failed", error=error)
        return False

    def complete(self) -> bool:
        with self.lock:
            return len(self.done) + len(self.failed) + len(self.deferred) == len(self.cells)

    def summary(self, wall_s: float) -> dict[str, Any]:
        with self.lock:
            cached = sum(1 for v in self.done.values() if v == "cached")
            return {
                "cells": len(self.cells),
                "cached": cached,
                "run": len(self.done) - cached,
                "failed": len(self.failed),
                "deferred": len(self.deferred),
                "failures": list(self.failed.values()),
                "wall_s": wall_s,
            }


def run_cells(
    cells: Sequence[CellSpec],
    *,
    store: ResultStore,
    journal: Journal | None = None,
    workers: int | None = 0,
    timeout: float | None = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    force: bool = False,
    max_cells: int | None = None,
    backend: str | None = None,
    events_dir: str | Path | None = None,
    profile_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Execute a batch of cells through the cache and a local transport.

    ``workers <= 1`` runs cells in this process; more runs them on a
    process pool of that size, where a worker process that dies costs
    its in-flight cells one attempt each instead of aborting the batch
    (see :func:`_run_pool`).  Returns a summary dict (cell/cached/run/
    failed/deferred counts, the failure list, wall time).  ``max_cells``
    caps how many *pending* cells execute this invocation — the rest are
    journalled ``scheduled`` only and picked up by a later resume (an
    operational budget knob, also the deterministic interruption used by
    the resumability tests).  ``backend`` is forwarded to every
    :func:`execute_cell` call; payloads and cache keys do not depend on
    it.  ``events_dir``/``profile_dir`` turn on per-cell event shipping
    and cProfile+tracemalloc profiling in the workers (see
    :func:`execute_cell`); like ``backend`` they are execution knobs
    outside the cache key.
    """
    t_start = time.perf_counter()
    for directory in (events_dir, profile_dir):
        if directory is not None:
            Path(directory).mkdir(parents=True, exist_ok=True)
    execute = partial(
        execute_cell,
        timeout=timeout,
        backend=backend,
        events_dir=events_dir,
        profile_dir=profile_dir,
    )
    with _OBS.span("runs.schedule"):
        state = _SweepState(
            cells, store=store, journal=journal, retries=retries, force=force, max_cells=max_cells
        )
        if int(workers or 0) <= 1:
            _run_inline(state, execute)
        else:
            _run_pool(state, execute, int(workers))
    wall_s = time.perf_counter() - t_start
    _OBS.gauge("runs.wall_s", wall_s)
    return state.summary(wall_s)


def _run_inline(state: _SweepState, execute: Callable[..., dict[str, Any]]) -> None:
    """In-process transport: one lease at a time, on the caller's thread."""
    while (lease := state.lease()) is not None:
        key = lease["key"]
        try:
            payload = execute(state.cells[key], delay=lease["delay_s"])
        except Exception as exc:
            state.fail(key, repr(exc))
        else:
            state.commit(key, payload)


def _run_pool(state: _SweepState, execute: Callable[..., dict[str, Any]], workers: int) -> None:
    """Process-pool transport: at most ``workers + 1`` leases in flight.

    The next lease is submitted before a finished payload is committed,
    so no worker waits on the parent's store write.  A worker process
    that dies breaks the pool, and the pool cannot say whose cell killed
    it: every in-flight lease consumes one attempt and re-queues first on
    a fresh pool.  Those suspects then run one lease at a time until each
    has finished or failed, so a second death is charged to its own cell
    alone and the healthy suspects keep their remaining attempts.
    """
    suspects: set[str] = set()
    while state.pending:
        finished: list[tuple[str, dict[str, Any]]] = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures: dict[Future, str] = {}
                while True:
                    window = 1 if suspects else workers + 1
                    while len(futures) < window and (lease := state.lease()) is not None:
                        cell = state.cells[lease["key"]]
                        futures[pool.submit(execute, cell, delay=lease["delay_s"])] = lease["key"]
                    for key, payload in finished:
                        state.commit(key, payload)
                    finished.clear()
                    if not futures:
                        break
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    broken: BrokenProcessPool | None = None
                    for future in done:
                        key = futures.pop(future)
                        try:
                            finished.append((key, future.result()))
                        except BrokenProcessPool as exc:
                            broken = exc
                            continue
                        except Exception as exc:
                            state.fail(key, repr(exc))
                        suspects.discard(key)
                    if broken is not None:
                        raise broken
        except BrokenProcessPool as exc:
            for key, payload in finished:
                state.commit(key, payload)
            suspects.update(state.release_worker(None, f"worker process died: {exc!r}"))
            suspects.difference_update(state.failed)
