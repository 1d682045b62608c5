"""In-process budget checks (``python -m repro bench``).

``perfbench/`` is the measurement of record for throughput and for the
perf trajectory across changes.  This harness keeps only the cells that
carry a budget nothing else measures:

- ``obs/overhead@unit/sampling-slackrate/sync``: the telemetry hub's
  per-round cost on a 2000-user sampling cell, enabled (budget ≤ 5% of a
  round, also in counter-sampled mode) and disabled (budget < 2%); see
  :mod:`repro.obs`;
- ``obs/aggregate``: the sweep-timeline merge
  (:func:`repro.obs.aggregate.merge_events`) over a synthetic 200-cell
  sweep's event files, budget ≤ 50 µs per merged event;
- ``runs/overhead``: the sweep orchestrator run serial, with 2 workers,
  batched and fully cached (see :mod:`repro.runs`) — a cached re-run is
  free and the batched leg beats serial;
- ``engine/huge/sampling/sync``: one n = 10^6 replication under
  ``tracemalloc`` against the pinned 96 MiB traced ceiling.  It runs
  only when ``--only`` selects it.

``tests/test_obs.py``, ``tests/test_memory.py`` and the CI
``bench-smoke`` / ``memory-guardrail`` jobs assert the budgets.  Results
go to a ``bench-engine/v1`` JSON payload (the interpreter and NumPy
versions and a provenance stamp, then one record per cell) plus an ASCII
table on stdout.

Usage::

    python -m repro bench                            # default cells -> BENCH_engine.json
    python -m repro bench --only engine/huge         # the million-user memory cell
    python -m repro bench --out /tmp/b.json --seed 3
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["run_bench", "render_bench"]


#: Instance size and round budget of the default cells (the obs cell runs
#: four times the budget; the runs cell halves the instance).
N_USERS, N_RESOURCES, MAX_ROUNDS = 2_000, 64, 64

#: The engine config the obs cell times: slack-proportional sampling,
#: started from a pile.
OBS_CELL: dict[str, Any] = {
    "name": "unit/sampling-slackrate/sync",
    "generator": "uniform_slack",
    "generator_kwargs": {"n": N_USERS, "m": N_RESOURCES},
    "protocol": "qos-sampling",
    "protocol_kwargs": {"rate": {"name": "slack-proportional"}},
    "schedule": "synchronous",
}

#: Pinned peak-tracemalloc budget for one million-user replication
#: (instance build + full run).  Measured ~78 MB after the dtype/memory
#: audit (narrow index arrays, chunked mover math); 96 MiB leaves
#: headroom for allocator jitter while still catching any full-width
#: int64 regression (pre-audit layouts blow well past it).  CI's
#: guardrail fails at 1.2x this value.
HUGE_MEMORY_CEILING_BYTES = 96 * 1024 * 1024

#: Million-user single-replication cells (the ROADMAP's scale milestone),
#: run only when selected via ``--only``; each carries its memory ceiling
#: into the payload so the CI guardrail reads the budget from there.
HUGE_CELLS: list[dict[str, Any]] = [
    {
        "name": "engine/huge/sampling/sync",
        "generator": "uniform_slack",
        "generator_kwargs": {"n": 1_000_000, "m": 1_024, "slack": 0.25},
        "protocol": "qos-sampling",
        "schedule": "synchronous",
        "max_rounds": 256,
        "memory_ceiling_bytes": HUGE_MEMORY_CEILING_BYTES,
    },
]


def _build_cell(cell: dict[str, Any]):
    from .registry import build_instance, build_protocol, build_schedule

    instance = build_instance(cell["generator"], **dict(cell["generator_kwargs"]))
    protocol = build_protocol(cell["protocol"], **dict(cell.get("protocol_kwargs", {})))
    schedule = build_schedule(cell["schedule"], **dict(cell.get("schedule_kwargs", {})))
    return instance, protocol, schedule


def _time_huge_cell(cell: dict[str, Any], *, seed: int = 0) -> dict[str, Any]:
    """One million-user replication, timed and memory-audited.

    The run is wrapped in ``tracemalloc`` (NumPy registers its data
    allocations with it), so ``peak_traced_bytes`` is the cell-local
    allocation peak the pinned ceiling is stated over.  ``peak_rss_bytes``
    (``ru_maxrss``) rides along for context but is process-monotonic —
    earlier cells in the same process inflate it — so the ceiling check
    uses the traced number.  One timed repetition: at this size a single
    run is seconds of work and best-of-N would double the harness cost
    for a cell whose headline metric is memory, not nanoseconds.
    """
    import resource
    import tracemalloc

    from .sim.engine import run

    tracemalloc.start()
    try:
        started = time.perf_counter()
        instance, protocol, schedule = _build_cell(cell)
        result = run(
            instance,
            protocol,
            seed=seed,
            schedule=schedule,
            max_rounds=cell["max_rounds"],
            initial="pile",
        )
        elapsed = time.perf_counter() - started
        peak_traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak_rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    ceiling = int(cell["memory_ceiling_bytes"])
    rounds = max(1, result.rounds)
    return {
        "kind": "huge",
        "name": cell["name"],
        "generator": cell["generator"],
        "protocol": cell["protocol"],
        "schedule": cell["schedule"],
        "n_users": instance.n_users,
        "n_resources": instance.n_resources,
        "seconds": elapsed,
        "rounds": int(result.rounds),
        "status": result.status,
        "rounds_per_sec": rounds / elapsed,
        "user_rounds_per_sec": rounds * instance.n_users / elapsed,
        "peak_traced_bytes": int(peak_traced),
        "peak_rss_bytes": peak_rss,
        "memory_ceiling_bytes": ceiling,
        "within_ceiling": bool(peak_traced <= ceiling),
    }


def _time_obs_cell(
    cell: dict[str, Any], *, max_rounds: int, repeats: int = 5, seed: int = 0
) -> dict[str, Any]:
    """Telemetry overhead on one engine cell: hub disabled vs enabled.

    The enabled run uses the in-memory ring buffer only (no JSONL sink) —
    the configuration the ≤5% overhead budget is defined over.  The
    disabled budget (< 2% of a round) is stated over
    ``per_round_cost_disabled_us``: the null spans plus the ``active``
    guard the engine pays per round with the hub off.  Cache hit/miss
    counters from the run ride along.

    Noise discipline.  The true enabled cost is single-digit microseconds
    per round against rounds of hundreds of microseconds — a ~1% effect
    that an end-to-end before/after ratio cannot resolve on a shared
    machine (observed run-to-run CPU-time noise here is ±10% with
    multi-second load epochs; the ratio of two such measurements flaps
    between -25% and +30%).  So the cell records both end-to-end
    throughput numbers (best-of-``repeats``, interleaved, CPU time) only
    as context, and derives ``overhead_pct`` from a *direct*
    measurement: a tight loop timing exactly what the engine adds per
    round when the hub is enabled (the reused ``engine.round`` +
    ``engine.protocol-step`` span pair plus one ``round`` event) minus
    the disabled-side cost (null spans + ``active`` guard), divided by
    the cell's per-round time.  The tiny pure-Python loop amortizes over
    tens of thousands of iterations and is stable to a few percent
    *relative* — a few hundredths of a point on the reported overhead —
    where the end-to-end ratio is unusable.
    """
    from .obs import HUB
    from .sim.engine import run

    instance, protocol, schedule = _build_cell(cell)

    def one_run() -> tuple[float, Any]:
        started = time.process_time()
        result = run(
            instance,
            protocol,
            seed=seed,
            schedule=schedule,
            max_rounds=max_rounds,
            initial="pile",
        )
        elapsed = time.process_time() - started
        return elapsed, result

    best_off = float("inf")
    best_on = float("inf")
    last_result = None
    counters: dict[str, float] = {}
    for _ in range(repeats):
        t_off, result = one_run()
        best_off = min(best_off, t_off)
        with HUB.enabled(label="bench-obs"):
            t_on, result = one_run()
            sample_counters = dict(HUB.counters)
        if t_on < best_on:
            best_on = t_on
            counters = sample_counters
        last_result = result
    assert last_result is not None
    rounds = max(1, last_result.rounds)

    def per_round_cost(iters: int = 50_000) -> float:
        from .obs.hub import HEARTBEAT_INTERVAL_S, PROGRESS_INTERVAL_S

        round_span = HUB.span("engine.round")
        step_span = HUB.span("engine.protocol-step")
        started = time.process_time()
        for i in range(iters):
            with round_span:
                with step_span:
                    pass
            if HUB.active:  # mirrors the engine's per-round guard block
                if HUB.tick("round"):
                    HUB.event(
                        "round",
                        {"round": i, "moved": 0, "attempted": 0, "messages": 0, "unsatisfied": 0},
                    )
                if HUB.every("cell.heartbeat", HEARTBEAT_INTERVAL_S):
                    HUB.event("cell.heartbeat", {"round": i, "unsatisfied": 0})
                if HUB.every("cell.progress", PROGRESS_INTERVAL_S):
                    HUB.event(
                        "cell.progress",
                        {
                            "round": i,
                            "max_rounds": iters,
                            "unsatisfied": 0,
                            "n_users": 0,
                            "moves": 0,
                            "messages": 0,
                        },
                    )
        return (time.process_time() - started) / iters

    cost_off = per_round_cost()  # null spans + guard: the disabled tax
    with HUB.enabled(label="bench-obs-micro"):
        cost_on = per_round_cost()
    sample_rate = 16
    with HUB.enabled(label="bench-obs-micro-sampled", sample_rate=sample_rate):
        cost_sampled = per_round_cost()
    round_seconds = best_off / rounds
    overhead_pct = 100.0 * max(0.0, cost_on - cost_off) / round_seconds
    overhead_pct_sampled = 100.0 * max(0.0, cost_sampled - cost_off) / round_seconds

    return {
        "kind": "obs",
        "name": f"obs/overhead@{cell['name']}",
        "generator": cell["generator"],
        "protocol": cell["protocol"],
        "schedule": cell["schedule"],
        "n_users": instance.n_users,
        "n_resources": instance.n_resources,
        "seconds": best_on,
        "rounds": int(last_result.rounds),
        "status": last_result.status,
        "enabled_rounds_per_sec": rounds / best_on,
        "disabled_rounds_per_sec": rounds / best_off,
        "per_round_cost_enabled_us": cost_on * 1e6,
        "per_round_cost_disabled_us": cost_off * 1e6,
        "per_round_cost_sampled_us": cost_sampled * 1e6,
        "sample_rate": sample_rate,
        "overhead_pct": overhead_pct,
        "overhead_pct_sampled": overhead_pct_sampled,
        "cache_hits": int(counters.get("state.cache_hits", 0)),
        "cache_misses": int(counters.get("state.cache_misses", 0)),
    }


def _time_runs_cell(*, n: int, m: int, max_rounds: int, reps: int) -> dict[str, Any]:
    """Sweep-orchestrator overhead: serial vs 2-worker vs batched vs cached.

    Four independent cells run through :func:`repro.runs.run_cells` four
    times into throwaway stores: ``workers=1`` with the scalar engine
    (serial baseline), ``workers=2`` scalar (the documented speedup claim
    — embarrassingly parallel cells should approach 2x minus pool
    spin-up), ``workers=1`` with the batched engine (one process, whole
    batch lockstep), and a cached re-run on the 2-worker store (pure
    store-lookup cost, ~free).
    """
    import shutil
    import tempfile

    from .runs import run_cells
    from .runs.store import CellSpec, ResultStore
    from .sim.parallel import RunSpec

    # The slack-proportional rate converges slowly, so every rep burns the
    # whole round budget — deterministic work heavy enough that two workers
    # amortize the pool spin-up (the speedup claim needs real work to split).
    cell_n, cell_m = max(512, n // 2), max(16, m // 2)
    n_reps = max(8, 2 * reps)
    cells = [
        CellSpec(
            spec=RunSpec(
                generator="uniform_slack",
                generator_kwargs={"n": cell_n, "m": cell_m, "slack": 0.25},
                protocol="qos-sampling",
                protocol_kwargs={"rate": {"name": "slack-proportional"}},
                initial="pile",
                max_rounds=max_rounds,
                label=f"bench-runs-{i}",
            ),
            n_reps=n_reps,
            base_seed=i,
        )
        for i in range(4)
    ]

    tmp = Path(tempfile.mkdtemp(prefix="bench-runs-"))
    try:
        started = time.perf_counter()
        run_cells(
            cells, store=ResultStore(tmp / "serial"), workers=1, timeout=None,
            backend="serial",
        )
        seconds = time.perf_counter() - started

        store_2w = ResultStore(tmp / "parallel")
        started = time.perf_counter()
        run_cells(cells, store=store_2w, workers=2, timeout=None, backend="serial")
        seconds_2w = time.perf_counter() - started

        started = time.perf_counter()
        run_cells(
            cells, store=ResultStore(tmp / "batched"), workers=1, timeout=None,
            backend="batched",
        )
        batched_seconds = time.perf_counter() - started

        started = time.perf_counter()
        cached_summary = run_cells(cells, store=store_2w, workers=2, timeout=None)
        cached_seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "kind": "runs",
        "name": "runs/overhead",
        "generator": "uniform_slack",
        "protocol": "qos-sampling",
        "schedule": "synchronous",
        "n_users": cell_n,
        "n_resources": cell_m,
        "cells": len(cells),
        "reps": n_reps,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seconds": seconds,
        "seconds_2w": seconds_2w,
        "speedup_2w": seconds / seconds_2w if seconds_2w else float("inf"),
        "batched_seconds": batched_seconds,
        "speedup_batched": seconds / batched_seconds if batched_seconds else float("inf"),
        "cached_seconds": cached_seconds,
        "cached_cells": cached_summary["cached"],
    }


def _time_aggregate_cell(
    *, cells: int = 200, events_per_cell: int = 50, repeats: int = 3
) -> dict[str, Any]:
    """Timeline-merge cost on a synthetic 200-cell sweep's event files.

    Builds ``cells`` per-cell ``obs-events/v1`` files (one meta header +
    heartbeats/rounds each, one file torn mid-record — the tolerance path
    must be on the timed path, it always runs in production), then times
    :func:`repro.obs.aggregate.merge_events` best-of-``repeats``.  The
    headline ``events_per_sec`` is the merge's throughput; the derived
    ``per_event_cost_us`` is what the budget test pins.
    """
    import shutil
    import tempfile

    from .obs.aggregate import merge_events

    tmp = Path(tempfile.mkdtemp(prefix="bench-aggregate-"))
    try:
        events_dir = tmp / "events"
        events_dir.mkdir()
        base_t = 1_700_000_000.0
        for i in range(cells):
            lines = [
                json.dumps(
                    {
                        "type": "meta",
                        "t": base_t + i,
                        "schema": "obs-events/v1",
                        "meta": {"label": f"bench-cell-{i}"},
                    }
                )
            ]
            for j in range(events_per_cell - 1):
                kind = "cell.heartbeat" if j % 10 == 0 else "round"
                lines.append(
                    json.dumps(
                        {
                            "type": kind,
                            "t": base_t + i + 0.01 * j,
                            "round": j,
                            "unsatisfied": cells - i,
                        }
                    )
                )
            (events_dir / f"cell-{i:032x}.jsonl").write_text("\n".join(lines) + "\n")
        with (events_dir / f"cell-{0:032x}.jsonl").open("a") as fh:
            fh.write('{"type": "round", "t": 1.0, "trunc')  # torn final line

        best = float("inf")
        summary: dict[str, Any] = {}
        for _ in range(repeats):
            started = time.perf_counter()
            summary = merge_events(events_dir, out=tmp / "timeline.jsonl")
            elapsed = time.perf_counter() - started
            best = min(best, elapsed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    records = max(1, summary.get("records", 0))
    return {
        "kind": "aggregate",
        "name": "obs/aggregate",
        "cells": cells,
        "records": int(summary.get("records", 0)),
        "bad_lines": int(summary.get("bad_lines", 0)),
        "seconds": best,
        "events_per_sec": records / best,
        "per_event_cost_us": best / records * 1e6,
    }


def _cell_filter(only: str | None):
    """Name predicate for ``--only``: glob, or prefix when glob-free."""
    import fnmatch

    if only is None:
        return lambda name: True
    pattern = only if any(ch in only for ch in "*?[") else only + "*"
    return lambda name: fnmatch.fnmatch(name, pattern)



def run_bench(
    *,
    out: str | Path = "BENCH_engine.json",
    seed: int = 0,
    only: str | None = None,
) -> dict[str, Any]:
    """Run every selected cell, write the JSON payload, return it.

    ``only`` restricts the harness to cells whose name matches the given
    glob (a bare string matches as a prefix).  The ``engine/huge/*``
    family runs only under an explicit ``only`` — e.g.
    ``only="engine/huge"``, the mode CI's memory-ceiling guardrail uses —
    so the default harness stays seconds-cheap.
    """
    want = _cell_filter(only)
    cells: list[dict[str, Any]] = []
    if want("runs/overhead"):
        cells.append(
            _time_runs_cell(n=N_USERS, m=N_RESOURCES, max_rounds=MAX_ROUNDS, reps=4)
        )
    if want("obs/aggregate"):
        cells.append(_time_aggregate_cell())
    if want(f"obs/overhead@{OBS_CELL['name']}"):
        cells.append(_time_obs_cell(OBS_CELL, max_rounds=4 * MAX_ROUNDS, seed=seed))
    if only is not None:
        for cell in HUGE_CELLS:
            if want(cell["name"]):
                cells.append(_time_huge_cell(cell, seed=seed))

    from .obs import provenance_stamp

    payload = {
        "schema": "bench-engine/v1",
        "created_unix": time.time(),
        "scale": "smoke",
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "provenance": provenance_stamp(seed_key=str(seed)),
        "cells": cells,
    }
    out_path = Path(out)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def render_bench(payload: dict[str, Any]) -> str:
    """Human-readable table of one harness run."""
    from .analysis.tables import render_table

    rows = []
    for c in payload["cells"]:
        if c["kind"] == "obs":
            metric = f"{c['overhead_pct']:+.2f}% overhead"
            detail = (
                f"{c['enabled_rounds_per_sec']:,.0f} on / "
                f"{c['disabled_rounds_per_sec']:,.0f} off rounds/s; "
                f"{c['overhead_pct_sampled']:+.2f}% @1/{c['sample_rate']}"
            )
        elif c["kind"] == "aggregate":
            metric = f"{c['per_event_cost_us']:.1f}us/event"
            detail = (
                f"{c['cells']} cells, {c['records']:,} records merged, "
                f"{c['events_per_sec']:,.0f} events/s, "
                f"{c['bad_lines']} torn line(s) tolerated"
            )
        elif c["kind"] == "huge":
            mib = 1024 * 1024
            verdict = "OK" if c["within_ceiling"] else "OVER"
            metric = f"{c['peak_traced_bytes'] / mib:,.1f} MiB traced"
            detail = (
                f"ceiling {c['memory_ceiling_bytes'] / mib:,.0f} MiB, {verdict}; "
                f"rss {c['peak_rss_bytes'] / mib:,.0f} MiB; "
                f"{c['rounds']} rounds, {c['status']}"
            )
        else:  # runs
            metric = f"x{c['speedup_batched']:.2f} batched"
            detail = (
                f"{c['cells']} cells: {c['seconds']:.2f}s serial, "
                f"{c['seconds_2w']:.2f}s 2w (x{c['speedup_2w']:.2f}), "
                f"{c['batched_seconds']:.2f}s batched, "
                f"{c['cached_seconds']:.3f}s cached"
            )
        rows.append(
            [
                c["name"],
                c.get("n_users", ""),
                c.get("n_resources", ""),
                f"{c['seconds']:.3f}",
                metric,
                detail,
            ]
        )
    title = (
        f"bench budgets — python {payload['python']}, numpy {payload['numpy']}"
    )
    return render_table(["cell", "n", "m", "seconds", "budget metric", "notes"], rows, title=title)
