"""The experiment suite: one entry per reproduced table/figure.

Each experiment is a plain function (see the per-module docstrings for the
claim being reproduced) plus two parameter presets:

- ``ci`` — seconds-scale, used by the ``benchmarks/`` suite;
- ``full`` — the sizes recorded in ``EXPERIMENTS.md`` (minutes-scale),
  launched via ``python -m repro run <ID> --scale full``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..obs import HUB as _OBS
from .common import (
    ExperimentResult,
    cell,
    cell_spec,
    collecting_cells,
    convergence_stats,
    enumerate_cells,
)
from .extensions import f10_multi_probe, f11_fluid_limit, f12_churn
from .heterogeneity import f4_hetero_users, f5_hetero_resources, t2_infeasible
from .protocols_table import f6_rate_ablation, t1_protocols
from .robustness import f7_asynchrony, f8_failures, f9_topology, f13_msg_loss
from .scaling import f1_scaling_n, f2_slack, f3_scaling_m, f14_scaling_huge
from .validation import t3_msgsim, t4_cells, t4_drift_and_oblivious, t5_tail

__all__ = [
    "ExperimentResult",
    "ExperimentDef",
    "EXPERIMENTS",
    "run_experiment",
    "cell",
    "cell_spec",
    "collecting_cells",
    "enumerate_cells",
    "convergence_stats",
    "f1_scaling_n",
    "f2_slack",
    "f3_scaling_m",
    "f4_hetero_users",
    "f5_hetero_resources",
    "f6_rate_ablation",
    "f7_asynchrony",
    "f8_failures",
    "f9_topology",
    "f10_multi_probe",
    "f11_fluid_limit",
    "f12_churn",
    "f13_msg_loss",
    "f14_scaling_huge",
    "t1_protocols",
    "t2_infeasible",
    "t3_msgsim",
    "t4_drift_and_oblivious",
    "t5_tail",
]


@dataclass(frozen=True)
class ExperimentDef:
    """An experiment plus its CI and full-scale parameter presets.

    ``cells`` — when set — gives the experiment's *cell decomposition*,
    the :class:`~repro.runs.store.CellSpec` list its runner would
    execute, without simulating anything.  ``True`` dry-runs the runner
    itself through :func:`enumerate_cells`; a function with the runner's
    signature returns the list directly (T4, whose decomposition covers
    only part (b)).  The sweep orchestrator (:mod:`repro.runs`) schedules
    those cells; experiments whose runners drive simulations directly
    (F8, F11, F12, F13, T3) leave it ``None`` and are not sweepable.
    """

    experiment_id: str
    fn: Callable[..., ExperimentResult]
    description: str
    ci: dict[str, Any] = field(default_factory=dict)
    full: dict[str, Any] = field(default_factory=dict)
    cells: Callable[..., list] | bool | None = None

    def _preset(self, scale: str, overrides: dict[str, Any]) -> dict[str, Any]:
        if scale not in ("ci", "full"):
            raise ValueError("scale must be 'ci' or 'full'")
        kwargs = dict(self.ci if scale == "ci" else self.full)
        kwargs.update(overrides)
        return kwargs

    def run(self, scale: str = "ci", **overrides: Any) -> ExperimentResult:
        kwargs = self._preset(scale, overrides)
        with _OBS.span("experiments.run"):
            return self.fn(**kwargs)

    def list_cells(self, scale: str = "ci", **overrides: Any) -> list:
        """The cells this experiment would run at ``scale`` (nothing executes)."""
        if self.cells is None:
            raise ValueError(
                f"{self.experiment_id} has no cell decomposition "
                "(its runner drives simulations directly)"
            )
        kwargs = self._preset(scale, overrides)
        if self.cells is True:
            cells = enumerate_cells(self.fn, **kwargs)
        else:
            cells = self.cells(**kwargs)
        return [replace(c, experiment_id=self.experiment_id) for c in cells]


EXPERIMENTS: dict[str, ExperimentDef] = {
    "F1": ExperimentDef(
        "F1",
        f1_scaling_n,
        "convergence rounds vs n (log growth)",
        ci={"ns": (250, 500, 1000, 2000, 4000), "n_reps": 7},
        full={"ns": (250, 500, 1000, 2000, 4000, 8000, 16000, 32000), "n_reps": 25},
        cells=True,
    ),
    "F2": ExperimentDef(
        "F2",
        f2_slack,
        "convergence rounds vs slack (tight is hard)",
        ci={"n": 1024, "m": 32, "n_reps": 7},
        full={"n": 8192, "m": 256, "n_reps": 25},
        cells=True,
    ),
    "F3": ExperimentDef(
        "F3",
        f3_scaling_m,
        "convergence rounds vs m at fixed load factor",
        ci={"ms": (8, 16, 32, 64), "n_reps": 7},
        full={"ms": (8, 16, 32, 64, 128, 256, 512), "n_reps": 25},
        cells=True,
    ),
    "F4": ExperimentDef(
        "F4",
        f4_hetero_users,
        "heterogeneous threshold profiles",
        ci={"n": 1024, "m": 32, "n_reps": 5, "max_rounds": 20_000},
        full={"n": 8192, "m": 256, "n_reps": 20},
        cells=True,
    ),
    "F5": ExperimentDef(
        "F5",
        f5_hetero_resources,
        "heterogeneous resources (speeds, convex, M/M/1)",
        ci={"n": 1024, "m": 32, "n_reps": 5, "max_rounds": 20_000},
        full={"n": 8192, "m": 256, "n_reps": 20},
        cells=True,
    ),
    "F6": ExperimentDef(
        "F6",
        f6_rate_ablation,
        "migration-rate rule ablation (U-shape)",
        ci={"ps": (0.125, 0.5, 1.0), "n": 1024, "m": 32, "n_reps": 7},
        full={"n": 8192, "m": 256, "n_reps": 25},
        cells=True,
    ),
    "F7": ExperimentDef(
        "F7",
        f7_asynchrony,
        "activation schedules (1/alpha slowdown)",
        ci={"alphas": (1.0, 0.25), "partitions": (4,), "n": 1024, "m": 32, "n_reps": 7},
        full={"n": 8192, "m": 256, "n_reps": 25},
        cells=True,
    ),
    "F8": ExperimentDef(
        "F8",
        f8_failures,
        "crash/recovery self-stabilisation",
        ci={"failure_counts": (1, 4), "n": 1024, "m": 32, "n_reps": 5, "settle_rounds": 50},
        full={"n": 8192, "m": 256, "n_reps": 20},
    ),
    "F9": ExperimentDef(
        "F9",
        f9_topology,
        "restricted one-hop visibility on resource graphs",
        ci={
            "topologies": ("complete", "random-regular", "ring"),
            "n": 512,
            "m": 16,
            "n_reps": 5,
            "max_rounds": 50_000,
        },
        full={"n": 4096, "m": 64, "n_reps": 20},
        cells=True,
    ),
    "F10": ExperimentDef(
        "F10",
        f10_multi_probe,
        "power of d choices: probes vs rounds vs messages (extension)",
        ci={"ds": (1, 2, 4), "n": 1024, "m": 32, "n_reps": 7},
        full={"n": 8192, "m": 256, "n_reps": 25},
        cells=True,
    ),
    "F11": ExperimentDef(
        "F11",
        f11_fluid_limit,
        "fluid-limit validation: discrete -> mean-field as n grows (extension)",
        ci={"ns": (500, 2000, 8000), "n_reps": 5},
        full={"ns": (1000, 4000, 16000, 64000, 256000), "n_reps": 15},
    ),
    "F12": ExperimentDef(
        "F12",
        f12_churn,
        "steady-state QoS under churn vs offered load (extension)",
        ci={"rhos": (0.6, 0.95, 1.2), "m": 16, "q": 8, "rounds": 300, "warmup": 80, "n_reps": 3},
        full={"n_reps": 10},
    ),
    "F13": ExperimentDef(
        "F13",
        f13_msg_loss,
        "self-healing message protocol under loss/duplication/reordering",
        ci={"p_losses": (0.0, 0.05, 0.2), "n": 96, "m": 8, "n_reps": 3, "max_time": 600.0},
        full={"n": 512, "m": 32, "n_reps": 10},
    ),
    "T1": ExperimentDef(
        "T1",
        t1_protocols,
        "protocol comparison table",
        ci={"n": 1024, "m": 32, "n_reps": 5, "max_rounds": 5_000},
        full={"n": 8192, "m": 256, "n_reps": 20},
        cells=True,
    ),
    "T2": ExperimentDef(
        "T2",
        t2_infeasible,
        "infeasible instances vs OPT_sat",
        ci={"overload_factors": (1.25, 2.0), "m": 16, "q": 8, "n_reps": 5},
        full={"m": 64, "q": 16, "n_reps": 20},
        # Enumeration builds each overloaded instance and solves its
        # OPT_sat exactly — milliseconds per instance, still no simulation.
        cells=True,
    ),
    "T3": ExperimentDef(
        "T3",
        t3_msgsim,
        "round engine vs message-passing execution",
        ci={"n": 192, "m": 16, "n_reps": 5},
        full={"n": 1024, "m": 64, "n_reps": 20},
    ),
    "F14": ExperimentDef(
        "F14",
        f14_scaling_huge,
        "huge-n scaling law: rounds vs n across 10^3..10^6 (one replication per decade point)",
        ci={"ns": (1_000, 4_000, 16_000), "n_reps": 3},
        full={"ns": (1_000, 10_000, 100_000, 1_000_000), "n_reps": 5},
        cells=True,
    ),
    "T5": ExperimentDef(
        "T5",
        t5_tail,
        "convergence-time distribution: w.h.p. bound + geometric tail",
        ci={"slacks": (0.25,), "n": 512, "m": 16, "n_reps": 250, "delta": 0.1},
        full={"n_reps": 2000, "delta": 0.05},
        cells=True,
    ),
    "T4": ExperimentDef(
        "T4",
        t4_drift_and_oblivious,
        "drift premise + QoS-aware vs oblivious balancing",
        ci={"n": 512, "m": 16, "n_drift_runs": 4, "n_reps": 5, "max_rounds": 5_000},
        full={"n": 4096, "m": 128, "n_drift_runs": 12, "n_reps": 20},
        cells=t4_cells,
    ),
}


def run_experiment(experiment_id: str, scale: str = "ci", **overrides: Any) -> ExperimentResult:
    """Run one experiment by id at the given scale."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key].run(scale, **overrides)
