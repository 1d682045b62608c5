"""Repository benchmark: suite-ci, engine-large and sweep-ci.

Run from the repository root:

    python3 perfbench/run.py --workload suite-ci --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times passes over the workload with no wrappers
installed and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced passes with passes traced at every layer boundary and
reports the per-layer metrics, the tracing overhead and the share of wall
time no layer span covers.  Either way every operation's output is
checked, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are for people: the host stamp, the metrics under the names the workloads
were designed around, and any failures.

The program is imported from ``src/`` under the current directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from common import environment_stamp, median, now, peak_rss_mib, run_setup_probes

#: Set-up is repeated in this many fresh interpreters, besides the benchmark's own.
SETUP_PROBES = 4
#: Timed passes a run makes at least, however long they take.
MIN_PASSES = 3
#: No new pass starts after this many seconds, so a run ends well within 180 s.
HARD_STOP_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "short_leg_s": "s",
    "peak_rss_mib": "MiB",
}


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "suite-ci":
        from suite import SuiteCI as cls
    elif name == "engine-large":
        from engine import EngineLarge as cls
    elif name == "sweep-ci":
        from sweep import SweepCI as cls
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return cls(seed, work_dir)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("suite-ci", "engine-large", "sweep-ci"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def timed_passes(run_one, seconds: float):
    """Run passes until the next one would end past ``seconds``."""
    passes = []
    started = now()
    while True:
        passes.append(run_one())
        elapsed = now() - started
        walls = [p.wall_s for p in passes if p.wall_s > 0] or [elapsed / len(passes)]
        if len(passes) >= MIN_PASSES and elapsed + median(walls) > seconds:
            return passes
        if elapsed > HARD_STOP_S:
            return passes


def traced_passes(workload, seconds: float, root: Path, seed: int):
    """Alternate untraced and traced passes; returns (all passes, per-layer metrics)."""
    from repro.core.state import cache_stats
    from tracing import LAYER_METRICS, Tracer, aggregate

    tracer = Tracer()
    untraced, traced, folded = [], [], []

    def pair() -> None:
        untraced.append(workload.run_pass())
        tracer.reset()
        before = cache_stats()
        tracer.install()
        tracer.active = True
        try:
            p = workload.run_pass()
        finally:
            tracer.active = False
            tracer.uninstall()
        after = cache_stats()
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        traced.append(p)
        folded.append(aggregate(tracer.spans, p.wall_s, hits / lookups if lookups else 0.0))

    started = now()
    while True:
        pair()
        elapsed = now() - started
        if elapsed + elapsed / len(traced) > seconds or elapsed > HARD_STOP_S:
            break
    metrics = {}
    for name, (unit, *_rest) in LAYER_METRICS.items():
        if name == "trace.overhead":
            value = median([p.wall_s for p in traced]) / median([p.wall_s for p in untraced])
        else:
            value = median([f["values"][name] for f in folded])
        metrics[name] = {"value": value, "unit": unit}
    write_trace(root, workload.name, seed, tracer.spans, folded[-1])
    print("engine attribution:", json.dumps(folded[-1]["engines"], sort_keys=True))
    return untraced + traced, metrics


def write_trace(root: Path, workload: str, seed: int, spans, folded) -> None:
    """Write the last traced pass: one span per line, then the folded totals."""
    out = root / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            fh.write(json.dumps([i, parent, name, start, end - start, attrs]) + "\n")
        summary = {k: folded[k] for k in ("engines", "self_s", "total_s", "calls")}
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    print(f"trace: {path.relative_to(root)} ({len(spans)} spans)")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro under the current directory; run it from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work_dir = root / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed, work_dir)
        if args.setup_probe:
            t0 = now()
            workload.setup()
            print(now() - t0)
            return 0
        return measure(workload, args, root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload, args, root: Path) -> int:
    t0 = now()
    workload.setup()
    setup_samples = [now() - t0]
    print(json.dumps({"env": environment_stamp(root)}, sort_keys=True))

    if args.trace:
        passes, metrics = traced_passes(workload, args.seconds, root, args.seed)
    else:
        passes = timed_passes(workload.run_pass, args.seconds)
    self_rss = peak_rss_mib()
    # Probes run last, so the children's peak so far is the sweep pools'.
    children_rss = peak_rss_mib(children=True)
    if not args.trace:
        setup_samples += run_setup_probes(workload.name, args.seed, SETUP_PROBES)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timed = [p for p in passes if p.wall_s > 0] or passes
    if not args.trace:
        rss = max(self_rss, children_rss) if workload.name == "sweep-ci" else self_rss
        values = {
            "setup_s": median(setup_samples),
            "pass_s": median([p.wall_s for p in timed]),
            "short_leg_s": median([p.short_s for p in timed]),
            "peak_rss_mib": rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    report = {
        "workload": workload.name,
        "passes": len(passes),
        "pass_s": [round(p.wall_s, 4) for p in passes],
        "op_s": {op: [round(p.per_op.get(op, 0.0), 4) for p in passes] for op in passes[0].per_op},
        "setup_samples_s": [round(s, 4) for s in setup_samples],
        "failed_frac": failed / attempted if attempted else 1.0,
        **workload.report(timed),
    }
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    for why in [w for p in passes for w in p.failures][:20]:
        print("FAILED:", why)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
