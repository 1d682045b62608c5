"""Record engine-large's per-rep outcomes for every base seed in its pool.

Run from the repository root as ``python3 perfbench/record_fingerprints.py``.
The benchmark compares each engine-large run against this record, so
re-record only when a change is meant to alter simulated trajectories.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from engine import FINGERPRINTS, R_BATCH, SEED_POOL, fingerprint, specs  # noqa: E402


def main() -> None:
    from repro.sim.parallel import replicate

    configs, huge = specs()
    record = {}
    for seed in range(SEED_POOL):
        per_seed = {}
        for name, spec in configs:
            per_seed[name] = {
                "r1": [fingerprint(r) for r in replicate(spec, 1, base_seed=seed, backend="serial")],
                "r8": [
                    fingerprint(r)
                    for r in replicate(spec, R_BATCH, base_seed=seed, backend="batched", workers=0)
                ],
            }
        per_seed[huge[0]] = {
            "r1": [fingerprint(r) for r in replicate(huge[1], 1, base_seed=seed, backend="serial")]
        }
        record[str(seed)] = per_seed
        print(f"seed {seed} recorded", flush=True)
    FINGERPRINTS.write_text(dumps(record))


def dumps(record: dict) -> str:
    """One line per base seed, so a re-record diffs seed by seed."""
    rows = [f"{json.dumps(seed)}: {json.dumps(record[seed], sort_keys=True)}" for seed in record]
    return "{\n" + ",\n".join(rows) + "\n}\n"


if __name__ == "__main__":
    main()
