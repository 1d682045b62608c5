"""suite-ci: every experiment once, as ``repro run <ID> --scale ci`` runs it."""

from __future__ import annotations

import hashlib

from claims import CLAIMS
from common import Pass, now

#: The two experiments that take about three quarters of a pass (T2's
#: OPT_sat search, T1's scalar best-response rounds).  The rest of the
#: suite is the short leg, which pass_s alone would hide.
LONG_LEG = ("T1", "T2")


class SuiteCI:
    name = "suite-ci"

    def __init__(self, seed: int, work_dir) -> None:
        # The experiments replay their own fixed seed streams: those streams
        # are part of the reproduced artefact, so --seed does not reach them.
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        import repro.experiments
        # Imported lazily by replicate; importing them here keeps that in set-up.
        import repro.registry
        import repro.sim.batch  # noqa: F401

        self.experiments = repro.experiments.EXPERIMENTS
        self.run_experiment = repro.experiments.run_experiment

    def run_pass(self) -> Pass:
        p = Pass()
        short = 0.0
        started = now()
        for eid in self.experiments:
            t0 = now()
            try:
                result = self.run_experiment(eid, "ci")
            except Exception as exc:  # an operation that raises counts as failed
                p.fail(f"{eid} raised {exc!r}")
                continue
            elapsed = now() - t0
            if eid not in LONG_LEG:
                short += elapsed
            p.per_op[eid] = elapsed
            try:
                CLAIMS[eid](result)
            except Exception as exc:
                p.fail(f"{eid}: {exc}")
            else:
                p.ok()
            # Review-only: T2's table changes legitimately once OPT_sat is exact.
            self.digests[eid] = hashlib.sha256(result.render().encode()).hexdigest()[:16]
        p.wall_s = now() - started
        p.short_s = short
        return p

    def report(self, passes) -> dict:
        return {"table_digests": self.digests}
