"""The claim each experiment reproduces, checked on its ``ci``-scale result.

These restate the predicates the ``benchmarks/bench_<id>.py`` files assert,
narrowed to the parameters of the ``ci`` preset (for example F10's ``ci``
preset probes d = 1, 2, 4, so its herding reversal is checked at d = 4;
the bench file checks it at d = 8).  F14 has no bench file; its check is
the scaling verdict its runner computes.  Every experiment runs on its own
fixed seeds, so a predicate that fails here fails on every run.
"""

from __future__ import annotations

from typing import Any, Callable


class ClaimFailed(Exception):
    """An experiment's output does not support its claim."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ClaimFailed(message)


def _all_satisfied(result, column: int) -> None:
    for row in result.rows:
        require(row[column] == 100, f"row {row[0]!r} is not fully satisfied: {row[column]}")


def f1(r):
    require(r.extra["verdict"] == "logarithmic", f"growth verdict {r.extra['verdict']!r}")
    _all_satisfied(r, 2)


def f2(r):
    med = r.extra["medians"]
    require(med[0] >= 2 * med[-1], f"tight slack {med[0]} < 2x loose slack {med[-1]}")


def f3(r):
    med = r.extra["medians"]
    require(med[-1] <= 4 * med[0], f"rounds grow too fast in m: {med}")


def f4(r):
    rows = {(row[0], row[1]): row for row in r.rows}
    require(rows[("staggered", "permit")][2] == 100, "staggered/permit not fully satisfied")
    require(rows[("zipf(a=1.5)", "permit")][2] == 100, "zipf/permit not fully satisfied")
    for proto in ("qos-sampling", "permit", "best-response"):
        trap = rows[("two-class trap (random)", proto)]
        require(trap[3] == 100 and trap[4] < 100, f"trap row for {proto} is not a quiescent trap")


def f5(r):
    _all_satisfied(r, 2)


def f6(r):
    med = r.extra["medians"]
    require(med["const(0.125)"] > med["const(0.5)"], "timid rate is not slower than p=0.5")
    require(med["const(1)"] > med["const(0.5)"], "bold rate is not slower than p=0.5")


def f7(r):
    norm = r.extra["normalised"]
    base = norm["synchronous"]
    for label, value in norm.items():
        require(value is not None and value <= 2.5 * base, f"{label} normalised {value} vs {base}")


def f8(r):
    for row in r.rows:
        require(row[1] == 100, f"{row[0]} failures: not every run re-converged")
        require(row[2] is not None and row[2] < 100, f"{row[0]} failures: recovery {row[2]}")


def f9(r):
    rows = {row[0]: row for row in r.rows}
    require(rows["complete"][1] == 100, "complete topology is not always satisfied")
    require(rows["ring"][1] <= rows["complete"][1], "ring converges more often than complete")
    med = r.extra["medians"]
    if med.get("ring") is not None:
        require(med["ring"] > med["complete"], "ring is not slower than complete")


def f10(r):
    med = r.extra["medians"]
    require(med[2] <= med[1], f"two choices slower than one: {med}")
    require(med[4] > med[2], f"no herding reversal at d=4: {med}")


def f11(r):
    devs = r.extra["single_devs"]
    require(devs[-1] < 0.25 * devs[0], f"fluid deviation does not shrink: {devs}")


def f12(r):
    stats = r.extra["stats"]
    for proto in ("qos-sampling", "permit"):
        require(stats[(0.6, proto)] > 0.97, f"{proto} at rho=0.6: {stats[(0.6, proto)]}")
        require(0.02 < stats[(1.2, proto)] < 0.6, f"{proto} at rho=1.2: {stats[(1.2, proto)]}")


def f13(r):
    require(r.extra["bitexact_p0"], "null fault plan is not bit-exact")
    require(r.extra["all_conserved"], "a run broke conservation")
    ticks, msgs = [], []
    for row in r.rows:
        require(row[1] == 100 and row[2] is not None, f"p_loss={row[0]} deadlocked")
        ticks.append(row[2])
        msgs.append(row[3])
    require(msgs == sorted(msgs) and ticks == sorted(ticks), "loss does not degrade monotonically")


def f14(r):
    require(r.extra["verdict"] == "logarithmic", f"growth verdict {r.extra['verdict']!r}")
    _all_satisfied(r, 2)


def t1(r):
    stats = r.extra["stats"]
    permit = stats["permit"]["rounds_median"]
    sampling = stats["qos-sampling(p=0.5)"]["rounds_median"]
    naive = stats["naive-greedy"]["rounds_median"]
    br = stats["best-response"]["rounds_median"]
    require(permit <= sampling <= naive, f"permit {permit}, sampling {sampling}, naive {naive}")
    require(br > 20 * sampling, f"best-response {br} not > 20x sampling {sampling}")


def t2(r):
    by_key = {(row[0], row[2], row[3]): row for row in r.rows}
    for factor in sorted({row[0] for row in r.rows}):
        pile = by_key[(factor, "pile", "permit")][6]
        rand = by_key[(factor, "random", "permit")][6]
        require(pile >= 99.0, f"permit from pile reaches {pile}% of OPT at {factor}")
        require(rand <= pile, f"permit random start {rand} beats pile {pile} at {factor}")


def t3(r):
    engine_row, msg_row = r.rows
    require(engine_row[1] == 100.0 and msg_row[1] == 100.0, "a T3 execution is not satisfied")
    ratio = msg_row[2] / engine_row[2]
    require(1 / 3 <= ratio <= 3, f"tick/round ratio {ratio}")


def t4(r):
    rows = {row[0]: row for row in r.rows}
    require(rows["overload-potential drift"][1] < 0, "overload drift is not negative")
    require(rows["unsatisfied-count drift"][1] < 0, "unsatisfied drift is not negative")
    require(rows["overload satisfied/OPT_sat% [permit]"][1] > 95, "permit below 95% of OPT")
    oblivious = "overload satisfied/OPT_sat% [selfish-rebalance (QoS-oblivious)]"
    require(rows[oblivious][1] < 5, "QoS-oblivious balancing is not near 0% of OPT")


def t5(r):
    for row in r.rows:
        median, whp = row[1], row[3]
        require(whp <= 2.5 * median, f"w.h.p. bound {whp} vs median {median}")
        require(row[6] is None or row[6] > 0.8, f"tail fit R^2 {row[6]}")


CLAIMS: dict[str, Callable[[Any], None]] = {
    "F1": f1, "F2": f2, "F3": f3, "F4": f4, "F5": f5, "F6": f6, "F7": f7,
    "F8": f8, "F9": f9, "F10": f10, "F11": f11, "F12": f12, "F13": f13,
    "F14": f14, "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5,
}
