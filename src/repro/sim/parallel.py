"""Replicated runs, optionally fanned out across processes or batched.

Convergence times of randomized dynamics are distributions; every figure
row aggregates dozens of replications.  This module runs them:

- :class:`RunSpec` — a *plain-data* description of one configuration
  (generator name + kwargs, protocol name + kwargs, schedule, engine
  options).  Being plain data it pickles cleanly, lands in traces
  verbatim, and is the unit the CLI and the benches share.
- :func:`run_spec` — execute one replication of a spec (module-level, so
  process pools can import it).
- :func:`replicate` — run ``n_reps`` replications with independent spawned
  seeds: on the vectorized batched engine (:mod:`repro.sim.batch`) when
  the spec supports it, serially, on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, or — the hybrid
  backend — sharded across the pool with each shard batched.

Per the HPC guides, parallelism is process-based (the work is pure Python
+ NumPy and releases no GIL).  On the scalar path the fan-out unit is a
whole replication — large enough that pickling overhead is negligible.
The batched backend sidesteps the per-replication Python round loop
entirely by stacking all replications into ``(R, n)`` arrays; the hybrid
backend composes the two axes (processes × lockstep batch), sharding the
replication set contiguously and running each shard through
:func:`~repro.sim.batch.replicate_batched` with its *global* replication
indices — per-rep seeds depend only on those indices, so the result is
bit-identical to every other backend regardless of shard count.  See
:mod:`repro.sim.batch` for the RNG stream contract and kernel coverage.
"""

from __future__ import annotations

import inspect
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ..obs import HUB as _OBS
from .engine import RunResult, run
from .rng import seed_from_key

__all__ = [
    "RunSpec",
    "run_spec",
    "replicate",
    "spec_seed_key",
    "set_default_backend",
]

#: Backend used when ``replicate`` is called without an explicit one.
#: ``"auto"`` picks the batched engine whenever the spec supports it.
_DEFAULT_BACKEND = "auto"

_BACKENDS = ("auto", "batched", "serial", "hybrid")

#: Does GENERATORS[name] accept an ``rng`` kwarg?  The signature probe is
#: pure reflection on a fixed registry, so it is cached per generator name
#: instead of re-running once per replication.
_GEN_ACCEPTS_RNG: dict[str, bool] = {}


def set_default_backend(backend: str) -> str:
    """Set the process-wide default ``replicate`` backend; returns the old one.

    ``"auto"`` (the default) selects the batched engine for supported
    specs (sharded across the process pool when one is requested),
    ``"batched"`` forces the single-process batched engine where
    possible, ``"hybrid"`` forces the processes × batch composition,
    ``"serial"`` always uses the scalar engine (optionally fanned out
    over processes).
    """
    global _DEFAULT_BACKEND
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend
    return previous


@dataclass(frozen=True)
class RunSpec:
    """Plain-data description of one simulation configuration.

    ``instance_seed_key`` controls whether the generated instance is
    re-drawn per replication (``"per-rep"``) or fixed across replications
    (``"fixed"``, default) — fixed isolates protocol randomness, per-rep
    averages over the instance distribution as well.
    """

    generator: str
    generator_kwargs: dict[str, Any] = field(default_factory=dict)
    protocol: str = "qos-sampling"
    protocol_kwargs: dict[str, Any] = field(default_factory=dict)
    schedule: str = "synchronous"
    schedule_kwargs: dict[str, Any] = field(default_factory=dict)
    max_rounds: int = 100_000
    initial: str = "random"
    instance_seed_key: str = "fixed"
    label: str = ""

    def describe(self) -> dict:
        return {
            "generator": self.generator,
            "generator_kwargs": dict(self.generator_kwargs),
            "protocol": self.protocol,
            "protocol_kwargs": dict(self.protocol_kwargs),
            "schedule": self.schedule,
            "schedule_kwargs": dict(self.schedule_kwargs),
            "max_rounds": self.max_rounds,
            "initial": self.initial,
            "instance_seed_key": self.instance_seed_key,
            "label": self.label,
        }


def _spec_components(spec: RunSpec, seed: int):
    """Build the (instance, protocol, schedule) triple a spec describes.

    Shared by the scalar per-replication path (:func:`run_spec`) and the
    batched path (:func:`repro.sim.batch.replicate_batched`), so both
    backends simulate the *same* instance for a given spec and seed.
    """
    # Imported here so worker processes initialise lazily and the module
    # import graph stays cycle-free (registry imports workloads/protocols).
    from ..registry import GENERATORS, build_instance, build_protocol, build_schedule

    gen_kwargs = dict(spec.generator_kwargs)
    # Generators that accept an rng get a derived, stable one.
    if spec.instance_seed_key == "per-rep":
        instance_seed = seed_from_key(seed, "instance")
    else:
        instance_seed = seed_from_key(
            0, "instance", spec.generator, str(sorted(gen_kwargs.items()))
        )
    accepts_rng = _GEN_ACCEPTS_RNG.get(spec.generator)
    if accepts_rng is None:
        gen_fn = GENERATORS[spec.generator]
        accepts_rng = "rng" in inspect.signature(gen_fn).parameters
        _GEN_ACCEPTS_RNG[spec.generator] = accepts_rng
    if accepts_rng and "rng" not in gen_kwargs:
        gen_kwargs["rng"] = instance_seed
    instance = build_instance(spec.generator, **gen_kwargs)

    protocol_kwargs = dict(spec.protocol_kwargs)
    if spec.protocol == "neighborhood" and "m" not in protocol_kwargs:
        protocol_kwargs["m"] = instance.n_resources
    protocol = build_protocol(spec.protocol, **protocol_kwargs)
    schedule = build_schedule(spec.schedule, **spec.schedule_kwargs)
    return instance, protocol, schedule


def run_spec(spec: RunSpec, seed: int) -> RunResult:
    """Execute one replication of ``spec`` with the given root seed."""
    instance, protocol, schedule = _spec_components(spec, seed)
    return run(
        instance,
        protocol,
        seed=seed_from_key(seed, "run"),
        schedule=schedule,
        max_rounds=spec.max_rounds,
        initial=spec.initial,
    )


def _default_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, min(cpus - 1, 8))


def _run_batched_shard(
    spec: RunSpec, indices: list[int], base_seed: int, seed_key: str
) -> list[RunResult]:
    """One hybrid shard: batch the given *global* replication indices.

    Module-level so process pools can pickle it.  Seeds derive from the
    global indices (not the shard-local positions), which is the whole
    bit-identity argument: resharding changes who computes a replication,
    never what it computes.
    """
    from .batch import replicate_batched

    return replicate_batched(
        spec,
        len(indices),
        base_seed=base_seed,
        seed_key=seed_key,
        rep_indices=indices,
    )


def _shard_indices(n_reps: int, n_shards: int) -> list[list[int]]:
    """Split ``range(n_reps)`` into ``n_shards`` contiguous, near-even shards."""
    base, extra = divmod(n_reps, n_shards)
    shards = []
    start = 0
    for j in range(n_shards):
        size = base + (1 if j < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def spec_seed_key(spec: RunSpec) -> str:
    """Stable string identifying the *full* configuration of a spec.

    Replication seeds are derived from this key, so two cells differing in
    **any** field — generator kwargs included — get statistically
    independent seed streams.  (Seeding from ``label or protocol`` alone,
    as earlier versions did, silently reused one seed stream across every
    unlabeled cell of a sweep: replications were correlated across cells
    and across experiments.)
    """
    return json.dumps(spec.describe(), sort_keys=True, default=str)


def replicate(
    spec: RunSpec,
    n_reps: int,
    *,
    base_seed: int = 0,
    workers: int | None = 0,
    seed_key: str | None = None,
    backend: str | None = None,
) -> list[RunResult]:
    """Run ``n_reps`` independent replications of ``spec``.

    ``backend`` selects the execution engine: ``"auto"`` (the default, via
    :func:`set_default_backend`) runs supported specs on the vectorized
    batched engine when there is more than one replication — sharded
    across the process pool (the *hybrid* composition) whenever a pool is
    requested via ``workers``; ``"batched"`` forces the single-process
    batched engine wherever the spec supports it (falling back to the
    scalar path otherwise); ``"hybrid"`` forces the processes × batch
    composition (degenerating to plain batched when only one shard makes
    sense, and to the scalar pool when the spec has no kernel);
    ``"serial"`` always uses the scalar engine.  ``workers=0`` (default)
    means no pool — the right choice inside tests and small benches;
    ``workers=None`` picks ``min(cpus - 1, 8)``; any other value sets the
    pool size explicitly.  ``workers`` is ignored by ``backend="batched"``
    (one process does the whole batch).

    Seeds are derived from ``base_seed`` plus :func:`spec_seed_key`, so
    every distinct configuration gets its own stream.  Pass an explicit
    ``seed_key`` to opt in to **common random numbers**: cells sharing the
    same ``seed_key`` and ``base_seed`` see identical seed streams, the
    right design for paired protocol comparisons on one workload.  Seed
    derivation *and* stream construction are backend-independent (both
    paths run ``default_rng`` on the same derived integers), so per-rep
    results are bit-identical across backends — which is why the backend
    is not part of a cell's identity in the run store.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    backend = backend if backend is not None else _DEFAULT_BACKEND
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")

    from .batch import batch_support

    batched = False
    hybrid = False
    reason: str | None = None
    if backend in ("batched", "hybrid") or (backend == "auto" and n_reps >= 2):
        reason = batch_support(spec)
        if reason is None:
            if backend == "batched":
                batched = True
            else:
                # auto/hybrid: shard across the pool when one is wanted.
                pool_size = _default_workers() if workers is None else int(workers)
                n_shards = min(max(1, pool_size), n_reps)
                if n_shards >= 2:
                    hybrid = True
                else:
                    batched = True
        # An unsupported spec under backend="hybrid" degrades to the
        # scalar pool below — same graceful fallback as "batched"/"auto".

    key = seed_key if seed_key is not None else spec_seed_key(spec)
    with _OBS.span("parallel.replicate"):
        if hybrid:
            serial = False
            shards = _shard_indices(n_reps, n_shards)
            with ProcessPoolExecutor(max_workers=n_shards) as pool:
                shard_results = list(
                    pool.map(
                        _run_batched_shard,
                        [spec] * n_shards,
                        shards,
                        [base_seed] * n_shards,
                        [key] * n_shards,
                    )
                )
            # Contiguous shards in submission order: concatenation restores
            # global replication order.
            results = [r for shard in shard_results for r in shard]
        elif batched:
            from .batch import replicate_batched

            serial = False
            results = replicate_batched(
                spec, n_reps, base_seed=base_seed, seed_key=key
            )
        else:
            seeds = [seed_from_key(base_seed, key, str(i)) for i in range(n_reps)]
            serial = workers == 0 or workers == 1 or n_reps == 1
            # Telemetry: worker processes inherit a *disabled* hub, so the
            # fanned-out path records the replicate-level span and counters
            # only; serial replication additionally nests one engine.run
            # span per rep.
            if serial:
                results = [run_spec(spec, s) for s in seeds]
            else:
                pool_size = _default_workers() if workers is None else int(workers)
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    # One explicit chunk per worker: the spec is pickled
                    # once per chunk instead of once per replication.
                    chunksize = max(1, n_reps // (pool_size * 4))
                    results = list(
                        pool.map(run_spec, [spec] * n_reps, seeds, chunksize=chunksize)
                    )
    if _OBS.active:
        if not (batched or hybrid) and reason is None:
            reason = batch_support(spec)  # never a batching candidate
        _OBS.count("parallel.replications", n_reps)
        _OBS.event(
            "replicate",
            {
                "label": spec.label,
                "protocol": spec.protocol,
                "generator": spec.generator,
                "n_reps": n_reps,
                "serial": serial,
                "backend": "hybrid" if hybrid else ("batched" if batched else "serial"),
                # batch_support's reason; None when the spec has a kernel.
                "fallback": reason,
                "statuses": sorted({r.status for r in results}),
            },
        )
    return results
