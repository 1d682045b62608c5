"""engine-large: the six batched-kernel configs at n = 10^5, plus one n = 10^6 run.

Each config runs twice per pass from a pile start: one replication on the
scalar engine (``replicate(spec, 1, backend="serial")``, what ``repro
simulate`` does) and eight lockstep replications on the batched engine.
The configs restate ``repro.bench.BATCHED_CELLS`` so that the workload
stays fixed when the program's own bench table changes.
"""

from __future__ import annotations

import json
from pathlib import Path

from common import Pass, now

N, M, SLACK = 100_000, 3_125, 0.25
HUGE_N, HUGE_M = 1_000_000, 1_024
R_BATCH = 8
#: Generous enough that every config ends by satisfaction or quiescence.
MAX_ROUNDS = 10_000

#: (name, protocol, protocol kwargs, schedule, schedule kwargs)
CONFIGS = (
    ("sampling/sync", "qos-sampling", {}, "synchronous", {}),
    ("sampling/alpha", "qos-sampling", {}, "alpha", {"alpha": 0.5}),
    ("sampling-slackrate/sync", "qos-sampling", {"rate": {"name": "slack-proportional"}}, "synchronous", {}),
    ("multi-probe/alpha", "multi-probe", {"d": 2}, "alpha", {"alpha": 0.5}),
    ("permit/alpha", "permit", {}, "alpha", {"alpha": 0.25}),
    ("neighborhood/sync", "neighborhood", {"topology": "random-regular"}, "synchronous", {}),
)
HUGE = "huge/sampling/sync"

#: ``--seed`` selects one of these base seeds; the per-rep outcome of every
#: run under each of them was recorded in fingerprints.json, so every seed
#: the benchmark can be given is checked against a recorded result.
SEED_POOL = 16

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def fingerprint(result) -> list:
    return [
        result.status,
        int(result.rounds),
        int(result.total_moves),
        int(result.total_attempts),
        int(result.total_messages),
        int(result.n_satisfied),
    ]


def specs():
    from repro.sim.parallel import RunSpec

    out = []
    for name, protocol, pkw, schedule, skw in CONFIGS:
        out.append((name, RunSpec(
            generator="uniform_slack",
            generator_kwargs={"n": N, "m": M, "slack": SLACK},
            protocol=protocol,
            protocol_kwargs=pkw,
            schedule=schedule,
            schedule_kwargs=skw,
            max_rounds=MAX_ROUNDS,
            initial="pile",
            label=f"perfbench-{name}",
        )))
    huge = RunSpec(
        generator="uniform_slack",
        generator_kwargs={"n": HUGE_N, "m": HUGE_M, "slack": SLACK},
        max_rounds=MAX_ROUNDS,
        initial="pile",
        label=f"perfbench-{HUGE}",
    )
    return out, (HUGE, huge)


class EngineLarge:
    name = "engine-large"

    def __init__(self, seed: int, work_dir) -> None:
        self.base_seed = seed % SEED_POOL
        self.single = [0, 0.0]  # user-rounds, host seconds
        self.batched = [0, 0.0]

    def setup(self) -> None:
        import repro.sim.parallel
        from repro.registry import build_instance

        # Looked up per call, so the traced run's wrapper is the one called.
        self.parallel = repro.sim.parallel
        self.specs, self.huge = specs()
        build_instance("uniform_slack", n=N, m=M, slack=SLACK)
        build_instance("uniform_slack", n=HUGE_N, m=HUGE_M, slack=SLACK)
        self.expected = json.loads(FINGERPRINTS.read_text())[str(self.base_seed)]

    def tasks(self):
        """(name, leg, spec, reps, backend) for every run of one pass."""
        for name, spec in self.specs:
            yield name, "r1", spec, 1, "serial"
            yield name, "r8", spec, R_BATCH, "batched"
        yield self.huge[0], "r1", self.huge[1], 1, "serial"

    def run_pass(self) -> Pass:
        p = Pass()
        started = now()
        singles = {}
        for name, leg, spec, reps, backend in self.tasks():
            t0 = now()
            try:
                results = self.parallel.replicate(spec, reps, base_seed=self.base_seed, backend=backend, workers=0)
            except Exception as exc:  # an operation that raises counts as failed
                p.fail(f"{name}@{leg} raised {exc!r}")
                continue
            seconds = now() - t0
            user_rounds = sum(r.n_users * r.rounds for r in results)
            if leg == "r1":
                p.short_s += seconds
                self.single[0] += user_rounds
                self.single[1] += seconds
                singles[name] = results[0]
            else:
                self.batched[0] += user_rounds
                self.batched[1] += seconds
            p.per_op[f"{name}@{leg}"] = seconds
            got = [fingerprint(r) for r in results]
            want = self.expected[name][leg]
            if got != want:
                p.fail(f"{name}@{leg}: per-rep outcome {got} differs from recorded {want}")
            elif leg == "r8" and (name not in singles or results[0].summary() != singles[name].summary()):
                p.fail(f"{name}: batched rep 0 differs from the serial run")
            else:
                p.ok()
        p.wall_s = now() - started
        return p

    def report(self, passes) -> dict:
        return {
            "base_seed": self.base_seed,
            "single_urps": self.single[0] / self.single[1] if self.single[1] else None,
            "batched_urps": self.batched[0] / self.batched[1] if self.batched[1] else None,
        }
