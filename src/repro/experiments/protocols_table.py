"""Experiments T1 and F6: protocol comparison and migration-rate ablation."""

from __future__ import annotations

from typing import Sequence

from .common import ExperimentResult, cell, convergence_stats

__all__ = ["t1_protocols", "f6_rate_ablation", "DEFAULT_PROTOCOLS"]

#: (label, protocol name, protocol kwargs) rows of the T1 table.
DEFAULT_PROTOCOLS: list[tuple[str, str, dict]] = [
    ("qos-sampling(p=0.5)", "qos-sampling", {}),
    ("permit", "permit", {}),
    ("naive-greedy", "naive-greedy", {}),
    ("blind-random", "blind-random", {}),
    ("best-response", "best-response", {}),
    ("sweep-best-response", "sweep-best-response", {}),
    ("selfish-rebalance", "selfish-rebalance", {}),
]


def t1_protocols(
    *,
    n: int = 4096,
    m: int = 128,
    slack: float = 0.1,
    protocols: Sequence[tuple[str, str, dict]] | None = None,
    n_reps: int = 15,
    max_rounds: int = 20_000,
    workers: int | None = 0,
) -> ExperimentResult:
    """Table T1: all protocols on one uniform low-slack instance.

    Expected shape: the permit protocol needs the fewest rounds (no
    overshoot) at twice the messages per round; damped sampling is close;
    naive greedy pays a herding penalty that grows as slack shrinks; blind
    random is far behind; sequential best response uses the fewest *moves*
    but its rounds equal its moves (it is serialised); QoS-oblivious
    rebalancing happens to satisfy uniform instances (balanced = satisfying
    here) — T4 shows where it fails.
    """
    headers = [
        "protocol",
        "sat%",
        "rounds (median)",
        "ci90-lo",
        "ci90-hi",
        "moves/user",
        "messages/user",
        "phases",
    ]
    rows = []
    per_protocol: dict[str, dict] = {}
    from ..registry import build_protocol

    for label, name, kwargs in protocols or DEFAULT_PROTOCOLS:
        # Paired design: every protocol row replays the same seed stream
        # on the one shared workload (common random numbers), so the table
        # contrasts protocols, not seed draws.
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol=name,
                protocol_kwargs=kwargs,
                n_reps=n_reps,
                max_rounds=max_rounds,
                workers=workers,
                label=f"t1-{label}",
                seed_key="t1/uniform-low-slack",
            )
        )
        per_protocol[label] = stats
        phases = getattr(build_protocol(name, **kwargs), "phases", 1)
        rows.append(
            [
                label,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
                stats["messages_mean"] / n,
                phases,
            ]
        )
    findings = []
    med = {k: v["rounds_median"] for k, v in per_protocol.items()}
    if med.get("permit") and med.get("naive-greedy"):
        findings.append(
            f"naive/permit round ratio: {med['naive-greedy'] / med['permit']:.2f}x"
        )
    if med.get("qos-sampling(p=0.5)") and med.get("blind-random"):
        findings.append(
            f"blind/sampling round ratio: {med['blind-random'] / med['qos-sampling(p=0.5)']:.2f}x"
        )
    return ExperimentResult(
        experiment_id="T1",
        title=f"protocol comparison (n={n}, m={m}, slack={slack}, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"stats": per_protocol},
    )


def f6_rate_ablation(
    ps: Sequence[float] = (0.0625, 0.125, 0.25, 0.5, 0.75, 1.0),
    *,
    n: int = 4096,
    m: int = 128,
    slack: float = 0.05,
    n_reps: int = 15,
    max_rounds: int = 20_000,
    workers: int | None = 0,
) -> ExperimentResult:
    """Figure F6: migration-rate rule ablation on a low-slack instance.

    Expected shape: a U — tiny ``p`` wastes rounds (too timid), ``p = 1``
    herds (too bold); the adaptive rules sit near the bottom of the U
    without hand-tuning.
    """
    headers = ["rate rule", "sat%", "rounds (median)", "ci90-lo", "ci90-hi", "moves/user"]
    rows = []
    medians: dict[str, float | None] = {}

    def add(label: str, protocol_kwargs: dict) -> None:
        # Paired rate arms on the one shared workload (common random
        # numbers): the U-shape is a within-seed contrast.
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol="qos-sampling",
                protocol_kwargs=protocol_kwargs,
                n_reps=n_reps,
                max_rounds=max_rounds,
                workers=workers,
                label=f"f6-{label}",
                seed_key="f6/uniform-low-slack",
            )
        )
        medians[label] = stats["rounds_median"]
        rows.append(
            [
                label,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
            ]
        )

    for p in ps:
        add(f"const({p:g})", {"rate": {"name": "const", "p": p}})
    add("slack-proportional", {"rate": {"name": "slack-proportional"}})
    add("adaptive-backoff", {"rate": {"name": "adaptive-backoff"}})

    findings = []
    const_meds = [(p, medians.get(f"const({p:g})")) for p in ps]
    valid = [(p, v) for p, v in const_meds if v is not None]
    if len(valid) >= 3:
        best_p, best_v = min(valid, key=lambda t: t[1])
        findings.append(f"best constant rate: p={best_p:g} at {best_v:g} rounds")
        lo_p, lo_v = valid[0]
        hi_p, hi_v = valid[-1]
        findings.append(
            f"U-shape edges: p={lo_p:g} -> {lo_v:g} rounds; p={hi_p:g} -> {hi_v:g} rounds"
        )
    return ExperimentResult(
        experiment_id="F6",
        title=f"migration-rate ablation (n={n}, m={m}, slack={slack})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians},
    )
