"""sweep-ci: a cold sweep into a fresh directory, then the same sweep again warm.

T1, T2 and F4 are left out so that the ``runs`` layer (scheduler, store,
journal, timeline merge, cell enumeration) does a large share of the work.
"""

from __future__ import annotations

import json
import shutil

from common import Pass, median, nproc, now

EXPERIMENTS = ["F1", "F2", "F3", "F5", "F6", "F7", "F9", "F10", "F14", "T4", "T5"]

#: Fields that differ between executions of the same cell.
VOLATILE = ("provenance", "duration_s", "telemetry")


class SweepCI:
    name = "sweep-ci"

    def __init__(self, seed: int, work_dir) -> None:
        # Like suite-ci, the cells replay the experiments' fixed seed streams.
        self.work_dir = work_dir
        self.workers = min(2, nproc())
        self.count = 0
        self.reference: dict[str, str] | None = None

    def setup(self) -> None:
        from repro.runs.sweep import run_sweep

        self.run_sweep = run_sweep
        # One untimed cold + warm pair: first-call imports in the parent and
        # a first pool start, so the timed passes start warm.
        out = self._fresh_dir()
        self.run_sweep(EXPERIMENTS, out=out, scale="ci", workers=self.workers)
        self.run_sweep(EXPERIMENTS, out=out, scale="ci", workers=self.workers)
        shutil.rmtree(out)

    def _fresh_dir(self):
        self.count += 1
        return self.work_dir / f"sweep-{self.count}"

    def run_pass(self) -> Pass:
        p = Pass()
        out = self._fresh_dir()
        try:
            t0 = now()
            cold = self.run_sweep(EXPERIMENTS, out=out, scale="ci", workers=self.workers)
            cold_s = now() - t0
            after_cold = self._read_store(out)
            t1 = now()
            warm = self.run_sweep(EXPERIMENTS, out=out, scale="ci", workers=self.workers)
            warm_s = now() - t1
            after_warm = self._read_store(out)
        except Exception as exc:  # the pass's cells are unaccounted for
            p.fail(f"sweep raised {exc!r}")
            return p
        finally:
            shutil.rmtree(out, ignore_errors=True)
        p.wall_s = cold_s + warm_s
        p.short_s = warm_s
        p.per_op = {"cold": cold_s, "warm": warm_s}
        if self.reference is None:
            self.reference = after_cold
        bad = {f["key"]: f"failed in the cold pass: {f['error']}" for f in cold["failures"]}
        for key in set(self.reference) | set(after_cold) | set(after_warm):
            if key in bad:
                continue
            if key not in after_cold:
                bad[key] = "not finished by the cold pass"
            elif after_warm.get(key) != after_cold[key]:
                bad[key] = "stored payload changed in the warm pass"
            elif self.reference.get(key) != after_cold[key]:
                bad[key] = "stored payload differs from the first pass"
        # Cells the warm pass executed instead of serving from the cache.
        misses = warm["cells"] - warm["cached"]
        failed = min(cold["cells"], len(bad) + misses)
        p.attempted = cold["cells"]
        p.failures = [f"cell {k}: {why}" for k, why in sorted(bad.items())]
        if misses:
            p.failures.append(f"warm pass served {warm['cached']} of {warm['cells']} cells from the cache")
        p.failed = failed
        return p

    def _read_store(self, out) -> dict[str, str]:
        """Every stored payload by cell key, minus the fields that differ per execution."""
        snap = {}
        for path in (out / "store").rglob("*.json"):
            payload = json.loads(path.read_text())
            for name in VOLATILE:
                payload.pop(name, None)
            snap[payload["key"]] = json.dumps(payload, sort_keys=True)
        return snap

    def report(self, passes) -> dict:
        ok = [p for p in passes if p.per_op]
        return {
            "workers": self.workers,
            "sweep_cold_s": median([p.per_op["cold"] for p in ok]) if ok else None,
            "sweep_warm_s": median([p.per_op["warm"] for p in ok]) if ok else None,
        }
