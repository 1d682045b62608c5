"""Layer spans for the traced run, installed from the benchmark's own code.

The tracer wraps the public entry points of each ``repro`` layer.  A span
records its name, parent span, start and end, plus a few attributes read
from the call's arguments or result (rounds, moves, cache outcomes).
Spans stay in memory and are aggregated per pass; the benchmark writes
the last traced pass out at the end.  A layer's self time is its span
minus the time its child spans cover.

Functions are wrapped where they are defined *and* wherever another
``repro`` module imported them by name (``from .engine import run``), so
every call site sees the wrapper.  Methods are wrapped on every class that
defines them.  :meth:`Tracer.uninstall` restores the originals, which lets
one process alternate untraced and traced passes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Any, Callable

_ns = time.perf_counter_ns

#: The suite's experiment ids in catalogue order; each has an ``experiments.<ID>_s`` metric.
EXPERIMENT_IDS = (
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10",
    "F11", "F12", "F13", "T1", "T2", "T3", "F14", "T5", "T4",
)

#: Per-layer metrics: name -> (unit, better, end-to-end metric it should move, workload).
LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    "workloads.build_s": ("s", "lower", "setup_s", "engine-large (10^6 build)"),
    "workloads.builds": ("count", "lower", "setup_s", "engine-large"),
    "core.state.apply_migrations_s": ("s", "lower", "pass_s", "suite-ci (T1), engine-large short leg"),
    "core.state.apply_migrations_calls": ("count", "lower", "pass_s", "suite-ci, engine-large"),
    "core.state.satisfied_mask_s": ("s", "lower", "pass_s", "suite-ci, engine-large short leg"),
    "core.state.cache_hit_ratio": ("ratio", "higher", "pass_s", "suite-ci, engine-large short leg"),
    "core.protocols.step_s": ("s", "lower", "short_leg_s", "engine-large, suite-ci"),
    "core.protocols.is_quiescent_s": ("s", "lower", "short_leg_s", "engine-large, suite-ci"),
    "core.protocols.move_ratio": ("ratio", "higher", "pass_s", "engine-large, suite-ci"),
    "core.feasibility.max_satisfied_s": ("s", "lower", "pass_s", "suite-ci (T2)"),
    "core.feasibility.max_satisfied_calls": ("count", "lower", "pass_s", "suite-ci (T2)"),
    "core.feasibility.exact_ratio": ("ratio", "higher", "pass_s", "suite-ci (T2)"),
    "sim.engine.run_s": ("s", "lower", "short_leg_s", "engine-large, suite-ci"),
    "sim.engine.rounds": ("count", "lower", "short_leg_s", "engine-large, suite-ci"),
    "sim.engine.round_us": ("us", "lower", "short_leg_s", "engine-large, suite-ci"),
    "sim.batch.run_s": ("s", "lower", "pass_s", "engine-large batched runs"),
    "sim.batch.rep_rounds": ("count", "lower", "pass_s", "engine-large batched runs"),
    "sim.batch.rep_round_us": ("us", "lower", "pass_s", "engine-large batched runs"),
    "sim.parallel.replicate_s": ("s", "lower", "pass_s", "suite-ci"),
    "sim.parallel.fallback_ratio": ("ratio", "lower", "pass_s", "suite-ci"),
    "sim.parallel.fallback_s": ("s", "lower", "pass_s", "suite-ci"),
    "sim.opensystem.run_s": ("s", "lower", "short_leg_s", "suite-ci (F12)"),
    "msgsim.run_s": ("s", "lower", "short_leg_s", "suite-ci (T3, F13)"),
    "msgsim.calls": ("count", "lower", "short_leg_s", "suite-ci (T3, F13)"),
    "fluid.run_s": ("s", "lower", "short_leg_s", "suite-ci (F11)"),
    **{f"experiments.{eid}_s": ("s", "lower", "pass_s", f"suite-ci ({eid})") for eid in EXPERIMENT_IDS},
    "experiments.enumerate_s": ("s", "lower", "pass_s", "sweep-ci"),
    "runs.run_cells_s": ("s", "lower", "pass_s", "sweep-ci"),
    "runs.execute_cell_s": ("s", "lower", "pass_s", "sweep-ci cold"),
    "runs.store_put_s": ("s", "lower", "pass_s", "sweep-ci cold"),
    "runs.store_has_s": ("s", "lower", "short_leg_s", "sweep-ci warm"),
    "runs.journal_append_s": ("s", "lower", "pass_s", "sweep-ci"),
    "runs.cells_run": ("count", "lower", "pass_s", "sweep-ci cold"),
    "runs.cells_cached": ("count", "higher", "short_leg_s", "sweep-ci warm"),
    "runs.cells_failed": ("count", "lower", "pass_s", "sweep-ci"),
    "runs.retries": ("count", "lower", "pass_s", "sweep-ci"),
    "obs.merge_events_s": ("s", "lower", "pass_s", "sweep-ci cold"),
    "trace.overhead": ("ratio", "lower", "none", "all"),
    "trace.uncovered_share": ("ratio", "lower", "none", "all"),
}


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        # Each span: [name, parent index, start ns, end ns, attrs or None].
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.active = False
        self._patches: list[tuple[Any, str, Any]] = []
        # Pool children forked from a traced pass inherit the wrappers;
        # their spans could never reach this process, so they record none.
        os.register_at_fork(after_in_child=self._disarm)

    def _disarm(self) -> None:
        self.active = False
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, stack[-1] if stack else -1, _ns(), 0, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _ns()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, attr: str, name: str, attrs: Callable | None = None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, attrs: Callable | None = None) -> None:
        self._set(cls, attr, self.wrap(name, vars(cls)[attr], attrs))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        from repro.core.protocols.base import Protocol
        from repro.core.state import State
        from repro.experiments import ExperimentDef
        from repro.runs.journal import Journal
        from repro.runs.store import ResultStore

        for module, attr, name, attrs in (
            ("repro.registry", "build_instance", "workloads.build_instance", None),
            ("repro.core.feasibility", "max_satisfied", "core.feasibility.max_satisfied", _exact_attr),
            ("repro.sim.engine", "run", "sim.engine.run", _run_result_attrs),
            ("repro.sim.batch", "run_batch", "sim.batch.run_batch", _batch_result_attrs),
            ("repro.sim.parallel", "replicate", "sim.parallel.replicate", _replicate_attrs),
            ("repro.sim.opensystem", "run_open_system", "sim.opensystem.run_open_system", None),
            ("repro.msgsim.runner", "run_message_sim", "msgsim.run_message_sim", None),
            ("repro.fluid.model", "run_fluid", "fluid.run_fluid", None),
            ("repro.fluid.wardrop", "wardrop_equilibrium", "fluid.wardrop_equilibrium", None),
            ("repro.runs.sweep", "enumerate_sweep", "experiments.enumerate_sweep", None),
            ("repro.runs.scheduler", "run_cells", "runs.run_cells", _run_cells_attrs),
            ("repro.obs.aggregate", "merge_events", "obs.merge_events", None),
        ):
            self.wrap_function(module, attr, name, attrs)
        self.wrap_method(State, "apply_migrations", "core.state.apply_migrations")
        self.wrap_method(State, "satisfied_mask", "core.state.satisfied_mask")
        for cls in _subclasses(Protocol):
            for attr in ("step", "is_quiescent"):
                if attr in vars(cls):
                    self.wrap_method(cls, attr, f"core.protocols.{attr}")
        self.wrap_method(
            ExperimentDef, "run", "experiments.run", lambda a, k, r: {"id": a[0].experiment_id}
        )
        self.wrap_method(
            ResultStore, "put", "runs.store_put", lambda a, k, r: {"cell_s": a[1]["duration_s"]}
        )
        self.wrap_method(ResultStore, "has", "runs.store_has")
        self.wrap_method(Journal, "append", "runs.journal_append", _journal_attrs)


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _exact_attr(args, kwargs, result):
    return {"exact": bool(result.exact)}


def _run_result_attrs(args, kwargs, result):
    return {
        "rounds": int(result.rounds),
        "moves": int(result.total_moves),
        "attempts": int(result.total_attempts),
    }


def _batch_result_attrs(args, kwargs, result):
    return {
        "rounds": int(result.rounds.sum()),
        "moves": int(result.total_moves.sum()),
        "attempts": int(result.total_attempts.sum()),
    }


def _replicate_attrs(args, kwargs, result):
    from repro.sim.batch import batch_support

    spec = args[0] if args else kwargs["spec"]
    return {"label": spec.label, "fallback": batch_support(spec)}


def _run_cells_attrs(args, kwargs, result):
    return {"run": result["run"], "cached": result["cached"], "failed": result["failed"]}


def _journal_attrs(args, kwargs, result):
    retry = len(args) > 1 and args[1] == "started" and kwargs.get("attempt", 0) > 0
    return {"retry": True} if retry else None


def aggregate(spans: list[list[Any]], wall_s: float, cache_hit_ratio: float) -> dict[str, Any]:
    """Fold one traced pass into per-layer metric values and an engine breakdown.

    ``cache_hit_ratio`` is the pass's delta of ``repro.core.state.cache_stats()``,
    which the state layer counts itself.
    """
    n = len(spans)
    dur = [0.0] * n
    child = [0.0] * n
    exp_of = [-1] * n
    rep_of = [-1] * n
    for i, (name, parent, start, end, _) in enumerate(spans):
        dur[i] = (end - start) / 1e9
        if parent >= 0:
            child[parent] += dur[i]
            exp_of[i] = exp_of[parent]
            rep_of[i] = rep_of[parent]
        if name == "experiments.run":
            exp_of[i] = i
        elif name == "sim.parallel.replicate":
            rep_of[i] = i

    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    batched_reps: set[int] = set()
    sums = {"engine_rounds": 0, "batch_rounds": 0, "moves": 0, "attempts": 0}
    exact = [0, 0]
    cell_s = 0.0
    retries = 0
    cells = {"run": 0, "cached": 0, "failed": 0}
    per_exp: dict[str, dict[str, float]] = {}
    top_s = 0.0
    for i, (name, parent, _, _, attrs) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            top_s += dur[i]
        if name == "sim.batch.run_batch":
            if rep_of[i] >= 0:
                batched_reps.add(rep_of[i])
            sums["batch_rounds"] += attrs["rounds"]
            sums["moves"] += attrs["moves"]
            sums["attempts"] += attrs["attempts"]
        elif name == "sim.engine.run":
            sums["engine_rounds"] += attrs["rounds"]
            sums["moves"] += attrs["moves"]
            sums["attempts"] += attrs["attempts"]
        elif name == "core.feasibility.max_satisfied":
            exact[0] += attrs["exact"]
            exact[1] += 1
        elif name == "runs.store_put":
            cell_s += attrs["cell_s"]
        elif name == "runs.journal_append" and attrs:
            retries += 1
        elif name == "runs.run_cells":
            for key in cells:
                cells[key] += attrs[key]
        elif name == "experiments.run":
            per_exp[attrs["id"]] = {"wall_s": dur[i], "batched_s": 0.0, "serial_s": 0.0}

    replicates = [i for i, s in enumerate(spans) if s[0] == "sim.parallel.replicate"]
    fallback = [i for i in replicates if spans[i][4]["fallback"] is not None]
    for i in replicates:
        engine = "batched_s" if i in batched_reps else "serial_s"
        if exp_of[i] >= 0:
            per_exp[spans[exp_of[i]][4]["id"]][engine] += dur[i]
    # Scalar runs that an experiment drives directly, outside replicate.
    for i, s in enumerate(spans):
        if s[0] == "sim.engine.run" and rep_of[i] < 0 and exp_of[i] >= 0:
            per_exp[spans[exp_of[i]][4]["id"]]["serial_s"] += dur[i]

    def tot(name):
        return total.get(name, 0.0)

    values = {
        "workloads.build_s": tot("workloads.build_instance"),
        "workloads.builds": calls.get("workloads.build_instance", 0),
        "core.state.apply_migrations_s": tot("core.state.apply_migrations"),
        "core.state.apply_migrations_calls": calls.get("core.state.apply_migrations", 0),
        "core.state.satisfied_mask_s": tot("core.state.satisfied_mask"),
        "core.state.cache_hit_ratio": cache_hit_ratio,
        "core.protocols.step_s": self_s.get("core.protocols.step", 0.0),
        "core.protocols.is_quiescent_s": tot("core.protocols.is_quiescent"),
        "core.protocols.move_ratio": sums["moves"] / sums["attempts"] if sums["attempts"] else 0.0,
        "core.feasibility.max_satisfied_s": tot("core.feasibility.max_satisfied"),
        "core.feasibility.max_satisfied_calls": exact[1],
        "core.feasibility.exact_ratio": exact[0] / exact[1] if exact[1] else 0.0,
        "sim.engine.run_s": self_s.get("sim.engine.run", 0.0),
        "sim.engine.rounds": sums["engine_rounds"],
        "sim.engine.round_us": 1e6 * tot("sim.engine.run") / sums["engine_rounds"] if sums["engine_rounds"] else 0.0,
        "sim.batch.run_s": tot("sim.batch.run_batch"),
        "sim.batch.rep_rounds": sums["batch_rounds"],
        "sim.batch.rep_round_us": 1e6 * tot("sim.batch.run_batch") / sums["batch_rounds"] if sums["batch_rounds"] else 0.0,
        "sim.parallel.replicate_s": self_s.get("sim.parallel.replicate", 0.0),
        "sim.parallel.fallback_ratio": len(fallback) / len(replicates) if replicates else 0.0,
        "sim.parallel.fallback_s": sum(dur[i] for i in fallback),
        "sim.opensystem.run_s": tot("sim.opensystem.run_open_system"),
        "msgsim.run_s": tot("msgsim.run_message_sim"),
        "msgsim.calls": calls.get("msgsim.run_message_sim", 0),
        "fluid.run_s": tot("fluid.run_fluid") + tot("fluid.wardrop_equilibrium"),
        "experiments.enumerate_s": tot("experiments.enumerate_sweep"),
        "runs.run_cells_s": self_s.get("runs.run_cells", 0.0),
        "runs.execute_cell_s": cell_s,
        "runs.store_put_s": tot("runs.store_put"),
        "runs.store_has_s": tot("runs.store_has"),
        "runs.journal_append_s": tot("runs.journal_append"),
        "runs.cells_run": cells["run"],
        "runs.cells_cached": cells["cached"],
        "runs.cells_failed": cells["failed"],
        "runs.retries": retries,
        "obs.merge_events_s": tot("obs.merge_events"),
        "trace.uncovered_share": max(0.0, 1.0 - top_s / wall_s) if wall_s > 0 else 0.0,
    }
    for eid in EXPERIMENT_IDS:
        values[f"experiments.{eid}_s"] = per_exp.get(eid, {}).get("wall_s", 0.0)
    engines = {
        "replicate_calls": len(replicates),
        "batched_calls": len(batched_reps),
        "fallback_reasons": _reason_counts(spans, fallback),
        "per_experiment": per_exp,
    }
    return {"values": values, "engines": engines, "self_s": self_s, "total_s": total, "calls": calls}


def _reason_counts(spans, indices) -> dict[str, int]:
    out: dict[str, int] = {}
    for i in indices:
        reason = spans[i][4]["fallback"]
        out[reason] = out.get(reason, 0) + 1
    return out
