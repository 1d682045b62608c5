"""Batched replication engine: R replications lockstep in stacked arrays.

Every figure row aggregates dozens of replications of one
:class:`~repro.sim.parallel.RunSpec`, and the scalar engine's Python round
loop is the hot path.  The sampling-family dynamics are pure elementwise
draws plus bincount-style congestion updates, so they vectorize *across
replications*: this module runs ``R`` replications simultaneously as
``(R, n_users)`` / ``(R, n_resources)`` arrays — one vectorized step per
round for the whole batch — and decomposes the outcome into the same
per-rep :class:`~repro.sim.engine.RunResult` summaries the experiments
consume.

RNG stream contract
-------------------

Each replication owns an independent generator stream (integer seeds go
through ``numpy.random.default_rng``, exactly like the scalar path) and
the batched engine makes that stream's calls in **exactly the scalar
engine's order and sizes** (initial-state draw, then per executed round:
the alpha activation mask, the mover target/probe draws, the commit
uniforms — in each kernel's scalar order).  All arithmetic between draws
is elementwise-identical IEEE float work, so the scalar engine fed the
*same* stream reproduces a batched replication **bit for bit** — and
because :func:`replicate_batched` derives the same per-rep integer seeds
as the serial path, ``backend="serial"`` and ``backend="batched"``
produce **bit-identical** per-rep results, not just distributionally
equivalent ones.  The differential tests pin both.

Termination is per-replication via an ``alive`` mask: a replication that
satisfies, goes quiescent, or exhausts the budget leaves the batch and
**stops consuming RNG draws** — its stream state afterwards equals a solo
run's, which is what makes mixed-length batches replayable.

Kernel coverage
---------------

Batched kernels exist for
:class:`~repro.core.protocols.QoSSamplingProtocol` (without
``resample_on_self``) and its ``p = 1`` baseline
:class:`~repro.core.protocols.NaiveGreedyProtocol`,
:class:`~repro.core.protocols.MultiProbeProtocol`,
:class:`~repro.core.protocols.PermitProtocol`,
:class:`~repro.core.protocols.NeighborhoodSamplingProtocol`,
:class:`~repro.core.protocols.BlindRandomProtocol` and
:class:`~repro.core.protocols.BestResponseProtocol` — under the
constant, slack-proportional and adaptive-backoff rate rules (permit,
blind-random and best-response have no rate), with synchronous and alpha
schedules,
complete or restricted access maps, and any latency profile.  Scheduled
events batch too (:func:`batch_events_support`): resource failures and
recoveries, user arrivals, and explicit-user departures apply per
replication at round boundaries with the scalar event code itself, so
churn/failure schedules keep their bit-exact RNG contract.  Everything
else — sweep best response, selfish rebalancing, custom rates,
partition/staggered schedules, per-rep instance seeding, random-count
departures — transparently falls back to the scalar engine via
:func:`~repro.sim.parallel.replicate`'s backend selection; see
:func:`batch_support` for the reason a given spec is not batchable.

A kernel reports its attempts apart from its moves (blind-random's
self-targets are attempts that move nobody), and a replication is checked
for quiescence after a round with no attempts, the scalar engine's own
condition.  The best-response kernel scans each row's movers in the
order of ``rng.permutation(count)``, which consumes the stream exactly
like the scalar ``rng.permutation(movers)`` and returns the same order
as indices, so the first mover with a satisfying target in it is the
scalar protocol's mover.

Filter-first kernels
--------------------

Most movers of a round commit nothing, so the kernels evaluate a verdict
or a bound once per live (row, resource) cell, gather it per mover, and
run the exact per-mover math only on the survivors.  No draw moves, so
the trajectories stay bit-identical; three arguments make each filter
exact:

- *Slack-proportional commit bound* (sampling kernel).  The commit
  uniforms are drawn up front, and a mover commits only if
  ``unif < clip(free / contention, floor, 1)``.  Its free target capacity
  is at most its row's largest ``max(0, cap_max - ld)`` over all
  resources, where ``cap_max`` is each resource's largest capacity over
  the instance's distinct thresholds.  IEEE subtraction, division by
  the same contention value and ``clip`` are all monotone, so the
  per-resource bound is ``>=`` every mover's probability and
  ``unif < bound`` drops only movers that would not commit.
- *Room verdict* (neighborhood kernel, uniform threshold and unit
  weights).  Every non-self probe asks the same question of its target,
  ``ell(ld + 1) <= q0``, so it is answered once per cell with the same
  elementwise latency expression and gathered as a bool; a self-probe is
  rejected by ``not_self`` either way.
- *Regular-graph neighbour draw* (``ResourceGraph.sample_neighbor``).
  When every resource has the same degree ``d``, ``integers(0, d, size=k)``
  consumes the stream exactly like the per-element array bound (one
  bounded draw per element from the same 32-bit source) and returns the
  same values; a test pins this NumPy property.

Incremental unsatisfied set
---------------------------

Only unsatisfied users act, so a round's work should scale with them, not
with ``R * n``.  The engine carries the unsatisfied set from round to
round as sorted flat ``(row, user)`` positions (``upos``) plus each
member's flat resource (``ures``); per-row counts are segment bounds
(``searchsorted``), and the movers are the set itself (synchronous) or
the members whose full-width alpha draw activates them.  The refresh is
exact under a uniform threshold ``q0``:

- a user is unsatisfied iff its ``(row, resource)`` cell has
  ``ell(ld) > q0``;
- a satisfied user is never a mover, so it stays on its cell, and it can
  turn unsatisfied only if that cell flipped from good to bad;
- hence ``unsat(t+1)`` is a subset of ``unsat(t)`` plus the residents of
  cells that flipped, and filtering ``unsat(t)`` by the new ``(A, m)``
  bad mask (one gather over the set) is exact for every row without such
  a flip.

A row with a flip is rescanned in full, and so is every row in the first
round after a state rebuild (start, events) and in every round whose set
fills over half the live user slots, where one sequential pass costs less
than gathering at the set's positions (the neighborhood dynamics spend
most rounds there).  Row compaction re-bases the set instead of
discarding it.  Mixed thresholds always rescan: a load
increase on a cell can flip residents whose own thresholds lie between
the old and the new latency while leaving the others satisfied, and only
the per-user scan finds them.  The set equals the full rescan's
positions, so every stream sees the same calls and trajectories stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.instance import Instance
from ..core.memory import index_dtype, iter_chunks
from ..core.protocols.bestresponse import BestResponseProtocol
from ..core.protocols.multiprobe import MultiProbeProtocol
from ..core.protocols.naive import BlindRandomProtocol, NaiveGreedyProtocol
from ..core.protocols.neighborhood import NeighborhoodSamplingProtocol
from ..core.protocols.permit import PermitProtocol
from ..core.protocols.rates import (
    AdaptiveBackoffRate,
    ConstantRate,
    SlackProportionalRate,
)
from ..core.protocols.sampling import QoSSamplingProtocol
from ..core.state import State
from ..obs import HUB as _OBS
from ..obs.hub import HEARTBEAT_INTERVAL_S, PROGRESS_INTERVAL_S
from .engine import RunResult, _seed_value
from .events import (
    Event,
    ResourceFailure,
    ResourceRecovery,
    UserArrival,
    UserDeparture,
)
from .rng import seed_from_key
from .schedule import AlphaSchedule, Schedule, SynchronousSchedule

__all__ = [
    "BatchRunResult",
    "run_batch",
    "batch_support",
    "batch_supported",
    "batch_events_support",
    "replicate_batched",
]

#: Rate rules with a batched commit kernel.
_KERNEL_RATES = (ConstantRate, SlackProportionalRate, AdaptiveBackoffRate)

#: Spec-level protocol names with a batched kernel (see ``_kernel_kind``).
_KERNEL_PROTOCOL_NAMES = (
    "qos-sampling",
    "naive-greedy",
    "multi-probe",
    "permit",
    "neighborhood",
    "blind-random",
    "best-response",
)

#: Kernels whose commit step is a migration-rate rule.
_RATED_KINDS = ("sampling", "multiprobe", "neighborhood")


@dataclass
class BatchRunResult:
    """Stacked outcome of ``R`` lockstep replications of one configuration.

    Per-rep arrays are indexed by replication; :meth:`decompose` lowers the
    batch into the per-rep :class:`~repro.sim.engine.RunResult` summaries
    the experiment layer (and the ``runs-cell/v1`` store) consume, so
    downstream code never sees which backend produced a cell.
    """

    statuses: list[str]
    rounds: np.ndarray
    total_moves: np.ndarray
    total_attempts: np.ndarray
    total_messages: np.ndarray
    n_satisfied: np.ndarray
    satisfying_rounds: np.ndarray  # -1 encodes "never satisfied"
    n_users: int
    n_resources: int
    protocol: dict
    schedule: dict
    seeds: list[int | None]
    final_assignment: np.ndarray = field(repr=False)
    # Events fire at the same boundary for every replication, so one scalar
    # covers the batch (None = the run had no events).
    last_event_round: int | None = None

    @property
    def n_reps(self) -> int:
        return len(self.statuses)

    def decompose(self) -> list[RunResult]:
        """Per-rep :class:`RunResult` summaries, in replication order."""
        out = []
        for i in range(self.n_reps):
            sr = int(self.satisfying_rounds[i])
            out.append(
                RunResult(
                    status=self.statuses[i],
                    rounds=int(self.rounds[i]),
                    total_moves=int(self.total_moves[i]),
                    total_attempts=int(self.total_attempts[i]),
                    total_messages=int(self.total_messages[i]),
                    n_satisfied=int(self.n_satisfied[i]),
                    n_users=self.n_users,
                    n_resources=self.n_resources,
                    satisfying_round=None if sr < 0 else sr,
                    last_event_round=self.last_event_round,
                    protocol=self.protocol,
                    schedule=self.schedule,
                    seed=self.seeds[i],
                )
            )
        return out


def _kernel_kind(protocol) -> str | None:
    """Which batched kernel runs this protocol instance (None = no kernel).

    Exact-type checks on purpose: a subclass may override ``propose`` and
    silently diverge from the vectorized math, so it falls back to the
    scalar engine instead.
    """
    t = type(protocol)
    if t is QoSSamplingProtocol or t is NaiveGreedyProtocol:
        return "sampling"
    if t is MultiProbeProtocol:
        return "multiprobe"
    if t is PermitProtocol:
        return "permit"
    if t is NeighborhoodSamplingProtocol:
        return "neighborhood"
    if t is BlindRandomProtocol:
        return "blind"
    if t is BestResponseProtocol:
        return "bestresponse"
    return None


def _kernel_support(protocol, schedule) -> str | None:
    """Why this protocol/schedule pair has no batched kernel (None = it has)."""
    kind = _kernel_kind(protocol)
    if kind is None:
        return f"protocol {getattr(protocol, 'name', protocol)!r} has no batched kernel"
    if kind == "sampling" and protocol.resample_on_self:
        return "resample_on_self makes the per-round draw count data-dependent"
    if kind in _RATED_KINDS and type(protocol.rate) not in _KERNEL_RATES:
        return f"rate {protocol.rate.name!r} has no batched kernel"
    if type(schedule) not in (SynchronousSchedule, AlphaSchedule):
        return f"schedule {schedule.name!r} has no batched kernel"
    return None


def batch_events_support(events: Sequence[Event]) -> str | None:
    """Why these events cannot run on the batched engine — ``None`` if they can.

    Supported events are exactly those whose *instance* transformation is
    deterministic: all replications must keep simulating the same instance
    (only assignments differ per rep).  Random-count departures draw a
    different surviving-user set per replication, so they fall back.
    """
    for ev in events:
        if isinstance(ev, UserDeparture):
            if ev.users is None:
                return (
                    "random-count user departures draw a different instance "
                    "per replication"
                )
        elif not isinstance(ev, (ResourceFailure, ResourceRecovery, UserArrival)):
            return f"event {type(ev).__name__} has no batched application"
    return None


def batch_support(spec) -> str | None:
    """Why ``spec`` cannot run on the batched engine — ``None`` if it can.

    The decision is a pure function of the spec (no instance is built), so
    backend auto-selection is deterministic across processes and resumes.
    """
    if spec.initial not in ("random", "pile"):
        return f"initial={spec.initial!r} (batched engine supports 'random'/'pile')"
    if spec.instance_seed_key != "fixed":
        return "per-rep instance seeding: each replication simulates a different instance"
    if spec.protocol not in _KERNEL_PROTOCOL_NAMES:
        return f"protocol {spec.protocol!r} has no batched kernel"
    from ..registry import (  # lazy: registry is heavy
        build_protocol,
        build_rate,
        build_schedule,
    )

    try:
        schedule = build_schedule(spec.schedule, **dict(spec.schedule_kwargs))
    except Exception as exc:
        return f"spec does not build: {exc!r}"
    if spec.protocol == "neighborhood":
        # The graph needs the instance's m, which batch_support must not
        # build — check the rate and topology name directly instead; the
        # actual graph construction (and its validation) happens inside
        # replicate_batched via the shared _spec_components path.
        from ..workloads.topology import TOPOLOGIES

        kwargs = dict(spec.protocol_kwargs)
        if kwargs.get("topology") not in TOPOLOGIES:
            return f"spec does not build: unknown topology {kwargs.get('topology')!r}"
        try:
            rate = build_rate(kwargs.get("rate"))
        except Exception as exc:
            return f"spec does not build: {exc!r}"
        rate = rate if rate is not None else ConstantRate(0.5)
        if type(rate) not in _KERNEL_RATES:
            return f"rate {rate.name!r} has no batched kernel"
        if type(schedule) not in (SynchronousSchedule, AlphaSchedule):
            return f"schedule {schedule.name!r} has no batched kernel"
        return None
    try:
        protocol = build_protocol(spec.protocol, **dict(spec.protocol_kwargs))
    except Exception as exc:
        return f"spec does not build: {exc!r}"
    return _kernel_support(protocol, schedule)


def batch_supported(spec) -> bool:
    """True when ``spec`` runs on the batched engine (see :func:`batch_support`)."""
    return batch_support(spec) is None


def _batch_initial(
    instance: Instance, initial: str, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Stacked ``(R, n)`` initial assignments, mirroring the scalar draws."""
    n, m = instance.n_users, instance.n_resources
    assignment = np.empty((len(rngs), n), dtype=index_dtype(m))
    if initial == "random":
        if instance.access is None:
            for i, rng in enumerate(rngs):
                assignment[i] = rng.integers(0, m, size=n)
        else:
            users = np.arange(n, dtype=np.int64)
            for i, rng in enumerate(rngs):
                assignment[i] = instance.access.sample(users, rng)
    elif initial == "pile":
        assignment[:] = State.worst_case_pile(instance).assignment
    else:
        raise ValueError(
            f"unknown initial state spec for the batched engine: {initial!r}"
        )
    return assignment


class _BatchEngine:
    """One lockstep batch: live-row state plus the per-kernel round step.

    Live-batch state arrays hold only still-running replications and are
    compacted whenever one dies, so steady-state rounds never
    gather/scatter the full batch.  ``rows`` maps live positions back to
    replication ids; ``assignment`` (full ``R`` rows) is refreshed on
    death.  ``asgF`` carries each live row's flat offset (position * m)
    baked into the values, so every per-mover gather/scatter is one flat
    ``take``/put.  While events are pending every replication stays live
    (the scalar engine neither satisfies nor goes quiescent with events
    outstanding), which is what makes the shared-instance rebuild at an
    event boundary sound.
    """

    def __init__(
        self,
        instance: Instance,
        protocol,
        kind: str,
        schedule: Schedule,
        rngs: list[np.random.Generator],
        max_rounds: int,
        initial: str,
        events: Sequence[Event],
    ):
        self.protocol = protocol
        self.kind = kind
        self.schedule = schedule
        self.max_rounds = max_rounds
        self.rate = getattr(protocol, "rate", None)
        self.backoff = type(self.rate) is AdaptiveBackoffRate
        self.phases = int(getattr(protocol, "phases", 1))
        self.d = int(getattr(protocol, "d", 1))
        self.graph = getattr(protocol, "graph", None)
        self.alpha_draws = isinstance(schedule, AlphaSchedule) and schedule.alpha < 1.0
        self.alpha = schedule.alpha if isinstance(schedule, AlphaSchedule) else 1.0
        self.events = sorted(events, key=lambda e: e.round_index)
        self.event_idx = 0
        self.last_event_round: int | None = None

        R = len(rngs)
        self.R = R
        self.rows = np.arange(R, dtype=np.int64)
        self.live_rngs = list(rngs)
        self.row_off = np.arange(R, dtype=np.int64) * instance.n_resources

        self.statuses = ["max_rounds"] * R
        self.rounds = np.zeros(R, dtype=np.int64)
        self.rounds_executed = np.zeros(R, dtype=np.int64)
        self.total_moves = np.zeros(R, dtype=np.int64)
        self.total_attempts = np.zeros(R, dtype=np.int64)
        self.total_messages = np.zeros(R, dtype=np.int64)
        self.n_satisfied_final = np.zeros(R, dtype=np.int64)
        self.satisfying_rounds = np.full(R, -1, dtype=np.int64)
        self.quiescence_dirty = np.ones(R, dtype=bool)

        self._bind_instance(instance)
        self._rebuild_state(_batch_initial(instance, initial, rngs))

    # -- instance-dependent caches (rebound after churn/failure events) ------

    def _bind_instance(self, instance: Instance) -> None:
        self.instance = instance
        n, m, R = instance.n_users, instance.n_resources, self.R
        self.n, self.m = n, m
        thresholds = instance.thresholds
        weights = instance.weights
        profile = instance.latencies
        self.thresholds = thresholds
        self.weights = weights
        self.profile = profile
        self.access = instance.access
        self.affine = profile.is_affine
        self.slopes, self.offsets = profile._slopes, profile._offsets
        # Uniformity specializations: homogeneous thresholds/weights/latencies
        # collapse per-mover gathers into scalar broadcasts.  Every branch
        # they gate computes bit-identical values to the general path
        # (1.0 * x + 0.0 only ever feeds comparisons, where the zero sign
        # cannot matter).
        self.uthr = n > 0 and bool((thresholds == thresholds[0]).all())
        self.q0 = float(thresholds[0]) if self.uthr else 0.0
        self.uw = bool((weights == 1.0).all())
        self.u_affine = (
            self.affine
            and m > 0
            and bool((self.slopes == self.slopes[0]).all())
            and bool((self.offsets == self.offsets[0]).all())
        )
        self.s0 = float(self.slopes[0]) if self.u_affine else 0.0
        self.o0 = float(self.offsets[0]) if self.u_affine else 0.0
        self.identity = self.u_affine and self.s0 == 1.0 and self.o0 == 0.0
        # Row-independent per-user/per-resource lookups, tiled once so a flat
        # position into the (A, n)/(A, m) live block indexes them directly.
        self.wF = None if self.uw else np.tile(weights, R)
        self.thrF = None if self.uthr else np.tile(thresholds, R)
        aff_general = self.affine and not self.u_affine
        self.slF = np.tile(self.slopes, R) if aff_general else None
        self.offF = np.tile(self.offsets, R) if aff_general else None
        if type(self.rate) is SlackProportionalRate:
            # Per-resource capacity at the one q (uniform thresholds), and
            # the commit bound's capacity row: the largest capacity any
            # user's threshold gives on each resource.  A max over the
            # distinct thresholds, not the capacity at the largest one:
            # capacity need not be monotone in q at float edges (M/M/1
            # gives cap(0.9) = 1 but cap(1 - 1e-10) = -1 at mu = 3).
            if self.uthr:
                cap_row = profile.capacities_at(
                    np.arange(m, dtype=np.int64), np.full(m, self.q0)
                ).astype(np.float64)
                self.capRF = np.tile(cap_row, R)
                self.cap_max = cap_row
            else:
                self.capRF = None
                uq = np.unique(thresholds)
                self.cap_max = np.empty(m, dtype=np.float64)
                for f, idx in profile._groups:
                    self.cap_max[idx] = f.capacity_vec(uq).max(initial=-1)
        # Reused per-round scratch, sliced to the live count.
        self.usr_buf = np.empty((R, n), dtype=np.float64)
        self.unsat_buf = np.empty((R, n), dtype=bool)

    def _rebuild_state(self, assignment: np.ndarray) -> None:
        """(Re-)stack assignment/load/rate state; every replication is live."""
        R, m = self.R, self.m
        self.assignment = assignment
        # Flat values span [0, R*m); the dtype audit stores them in the
        # narrowest width that holds that bound.
        asgF = assignment.astype(index_dtype(R * m))
        asgF += self.row_off[:, None].astype(asgF.dtype)
        self.asgF = asgF
        ld = np.empty((R, m), dtype=np.float64)
        for i in range(R):  # per-row bincount: same bucket order as State
            ld[i] = np.bincount(assignment[i], weights=self.weights, minlength=m)
        self.ld = ld
        # The scalar engine's protocol.reset/schedule.reset consume no RNG
        # for the supported kernels; the only per-run rate state is the
        # backoff probability vector, kept stacked here.
        self.P = np.full((R, self.n), self.rate.p0) if self.backoff else None
        # The unsatisfied set (see the module docstring): sorted flat
        # positions, their flat resources, the (A, m) over-threshold mask
        # it was read from (None: the next refresh rescans in full), and
        # the last full rescan's (A, n) mask, which mixed thresholds
        # refresh every round.
        self.upos = self.ures = None
        self.res_bad = None
        self.unsat_mask = None

    # -- events ---------------------------------------------------------------

    def _apply_events(self, round_index: int) -> None:
        """Apply every event due at this boundary, per replication.

        Each replication replays the *scalar* event code with its own RNG
        stream, so arrival placements consume exactly the scalar draws.
        Supported events transform the instance deterministically, so the
        first replication's rebuilt instance serves the whole batch; only
        the assignments differ per rep.
        """
        applied = False
        while (
            self.event_idx < len(self.events)
            and self.events[self.event_idx].round_index <= round_index
        ):
            ev = self.events[self.event_idx]
            instance = self.instance
            row_off = self.row_off
            new_instance = None
            new_rows: list[np.ndarray] = []
            for k in range(self.R):
                asg_k = self.asgF[k].astype(np.int64) - int(row_off[k])
                inst_k, st_k = ev.apply(
                    instance, State(instance, asg_k), self.live_rngs[k]
                )
                if new_instance is None:
                    new_instance = inst_k
                new_rows.append(np.asarray(st_k.assignment))
            if (
                self.kind == "neighborhood"
                and self.graph.n_resources != new_instance.n_resources
            ):  # mirrors NeighborhoodSamplingProtocol.reset's validation
                raise ValueError("resource graph size does not match the instance")
            self._bind_instance(new_instance)
            assignment = np.empty((self.R, self.n), dtype=index_dtype(self.m))
            for k in range(self.R):
                assignment[k] = new_rows[k]
            self._rebuild_state(assignment)
            self.last_event_round = round_index
            self.satisfying_rounds[:] = -1  # re-converge after perturbation
            self.event_idx += 1
            applied = True
        if applied:
            self.quiescence_dirty[:] = True

    # -- latency helpers ------------------------------------------------------

    def _res_latencies(self, ld: np.ndarray) -> np.ndarray:
        """``ell_r(ld[k, r])`` per live (row, resource) cell."""
        if self.affine:
            return self.slopes * ld + self.offsets
        out = np.empty_like(ld)
        for k in range(ld.shape[0]):  # grouped evaluation, one row at a time
            out[k] = self.profile.evaluate(ld[k])
        return out

    def _probe_latency(self, t_probe, tf_probe, hyp):
        """``ell_t(hyp)`` per probe — only ever fed to comparisons."""
        if self.identity:
            return hyp
        if self.u_affine:
            return self.s0 * hyp + self.o0
        if self.affine:
            return self.slF.take(tf_probe) * hyp + self.offF.take(tf_probe)
        return self.profile.evaluate_at(t_probe, hyp)

    def _unsatisfied(self, A):
        """``(A, n)`` unsatisfied mask of the live rows (a scratch view)."""
        res_lat = self._res_latencies(self.ld)
        if self.uthr:
            # Uniform threshold: mark bad *resources* once, then one bool
            # gather — 1/8th the bandwidth of the float gather + compare.
            res_bad = res_lat > self.q0
            return np.take(res_bad.reshape(-1), self.asgF, out=self.unsat_buf[:A])
        usr_lat = np.take(res_lat.reshape(-1), self.asgF, out=self.usr_buf[:A])
        return np.greater(usr_lat, self.thresholds, out=self.unsat_buf[:A])

    def _refresh_unsat(self, A: int) -> None:
        """Bring ``upos``/``ures`` up to this round's unsatisfied set.

        Under a uniform threshold the set is last round's, filtered by
        the new over-threshold mask, in every row where no cell went from
        good to bad; such a row, and every row of the first round after a
        state rebuild, is rescanned in full.  So is every row while the
        set fills over half the live user slots: one sequential pass then
        costs less than gathering at the set's positions.  Mixed
        thresholds always rescan (see the module docstring).
        """
        asg_flat = self.asgF.reshape(-1)
        flip = None
        if self.uthr:
            bad = self._res_latencies(self.ld) > self.q0
            prev, self.res_bad = self.res_bad, bad
            old = self.upos
            if prev is not None and 2 * old.size <= A * self.n:
                flip = np.greater(bad, prev).any(axis=1)
        if flip is None or flip.all():
            self.unsat_mask = self._unsatisfied(A)
            upos = np.flatnonzero(self.unsat_mask)
        else:
            bad_flat = bad.reshape(-1)
            ures = asg_flat.take(old)
            keep = bad_flat.take(ures)
            if not flip.any():
                idx = np.flatnonzero(keep)
                self.upos, self.ures = old.take(idx), ures.take(idx)
                return
            # Rescan the flipped rows; filter the others.
            keep &= ~flip.take(old // self.n)
            fr = np.flatnonzero(flip)
            scan = np.flatnonzero(bad_flat.take(self.asgF[fr]))
            scan += ((fr - np.arange(fr.size)) * self.n)[scan // self.n]
            # Row-disjoint sorted runs: a stable sort merges them.
            upos = np.sort(np.concatenate([old[keep], scan]), kind="stable")
        self.upos, self.ures = upos, asg_flat.take(upos)

    def _drop_rows(self, keep: np.ndarray) -> None:
        """Compact the live block to the rows in ``keep`` (bool per live row).

        Flat offsets baked into ``asgF`` and the unsatisfied set are
        re-based, so the next refresh filters instead of rescanning.
        """
        A = keep.size
        kept = np.flatnonzero(keep)
        # Rows each surviving row moves up by, indexed by its old position.
        shift = np.arange(A) - (np.cumsum(keep) - 1)
        self.rows, self.ld = self.rows[kept], self.ld[kept]
        self.asgF = self.asgF[kept]
        self.asgF -= (shift[kept] * self.m)[:, None].astype(self.asgF.dtype)
        if self.backoff:
            self.P = self.P[kept]
        if self.res_bad is not None:
            self.res_bad = self.res_bad[kept]
        if self.unsat_mask is not None:
            self.unsat_mask = self.unsat_mask[kept]
        self.live_rngs = [self.live_rngs[k] for k in kept.tolist()]
        row = self.upos // self.n
        sel = np.flatnonzero(keep.take(row))
        self.upos = self.upos.take(sel) - shift.take(row.take(sel)) * self.n
        self.ures = self.asgF.reshape(-1).take(self.upos)

    # -- commit machinery -----------------------------------------------------

    def _contention(self, ures, A):
        """The slack-proportional rate's contention, per flat (row, resource).

        ``max(1, unsatisfied users on the resource)``, counted from the
        unsatisfied users' flat resources ``ures``; movers gather it at
        their own resource.
        """
        if self.uthr and self.uw:
            # uniform q + unit weights: everyone on an over-threshold
            # resource is unsatisfied, and a mover's own resource is over
            # threshold — so the unsatisfied count there is just its load
            # count, already tracked in ``ld``.
            return np.maximum(self.ld.reshape(-1), 1.0)
        # Integer bincounts are exact, so accumulating per chunk is
        # bit-identical to one whole-width pass (memory contract).
        occ = np.zeros(A * self.m, dtype=np.int64)
        for cs, ce in iter_chunks(ures.size):
            occ += np.bincount(ures[cs:ce], minlength=A * self.m)
        return np.maximum(occ, 1)

    def _commit_bound(self, contention, A):
        """Per flat (row, resource) upper bound on :meth:`_slack_probs`.

        Any mover's free target capacity is at most its row's largest
        ``max(0, cap_max - ld)``; dividing by the mover's own contention and
        clipping are monotone in IEEE arithmetic, so the bound gathered at a
        mover's resource is ``>=`` its commit probability, bit for bit.
        """
        free_max = np.maximum(0.0, (self.cap_max - self.ld).max(axis=1))
        ub = free_max[:, None] / contention.reshape(A, self.m)
        return np.clip(ub, self.rate.floor, 1.0).reshape(-1)

    def _slack_probs(self, t_v, tf_v, of_v, u_pos_v, contention):
        """SlackProportionalRate.commit_probs, batchwide and bit-identical."""
        if self.uthr:
            caps = self.capRF.take(tf_v)
        else:
            caps = self.profile.capacities_at(
                t_v, self.thrF.take(u_pos_v)
            ).astype(np.float64)
        free = np.maximum(0.0, caps - self.ld.reshape(-1).take(tf_v))
        return np.clip(free / contention.take(of_v), self.rate.floor, 1.0)

    def _row_bounds(self, flat_pos: np.ndarray, A: int) -> np.ndarray:
        """Row boundaries of sorted row-major flat ``(row, user)`` positions."""
        return np.searchsorted(flat_pos, np.arange(A + 1, dtype=np.int64) * self.n)

    def _row_uniforms(self, bounds: np.ndarray, A: int) -> np.ndarray:
        """One ``random(count)`` call per row with entries, in row order.

        The scalar protocols return early when a filter leaves nobody, so
        a row with zero entries draws nothing.
        """
        unif = np.empty(int(bounds[A]), dtype=np.float64)
        b = bounds.tolist()  # Python-int sizes skip NumPy's size coercion
        for k in range(A):
            s, e = b[k], b[k + 1]
            if s != e:  # in place: the same draws as random(e - s)
                self.live_rngs[k].random(out=unif[s:e])
        return unif

    def _draw_targets(
        self, pos: np.ndarray, bounds: np.ndarray, A: int, d: int = 1
    ) -> np.ndarray:
        """``d`` uniform accessible targets per mover, one call per row.

        Mover-major: a size ``(k, d)`` draw fills row-major, so one flat
        draw of ``k * d`` consumes the stream and returns the values of
        the scalar ``(k, d)`` draw exactly.
        """
        t = np.empty(pos.size * d, dtype=np.int64)
        u_all = pos % self.n if self.access is not None else None
        b = bounds.tolist()
        for k in range(A):
            s, e = b[k], b[k + 1]
            if s == e:  # the scalar propose draws nothing for 0 movers
                continue
            rng = self.live_rngs[k]
            if self.access is None:
                t[s * d : e * d] = rng.integers(0, self.m, size=(e - s) * d)
            else:
                t[s * d : e * d] = self.access.sample(np.repeat(u_all[s:e], d), rng)
        return t

    def _resident_min(self, A) -> np.ndarray | None:
        """Flat ``(A * m)`` smallest threshold among satisfied residents.

        The binding constraint a polite arrival must not violate
        (``stability.satisfied_resident_min`` per row).  min over a set of
        floats is order-independent, so any exact accumulation matches the
        scalar ``np.minimum.at``.  Under a uniform threshold it is ``q0``
        on a cell with a satisfied resident and ``inf`` elsewhere, while
        every arrival is already held to its own ``q0``: it never binds,
        and None says so.
        """
        if self.uthr:
            return None
        resF = np.full(A * self.m, np.inf)
        sat_pos = np.flatnonzero(~self.unsat_mask)
        if sat_pos.size:
            sat_asg = self.asgF.reshape(-1).take(sat_pos)
            np.minimum.at(resF, sat_asg, self.thrF.take(sat_pos))
        return resF

    def _commit_select(self, valid_pos, valid_own, valid_t, valid_tf, A):
        """Rate-rule commit over the valid movers (multi-probe/neighborhood)."""
        if valid_pos.size == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, None
        unif = self._row_uniforms(self._row_bounds(valid_pos, A), A)
        rate = self.rate
        if type(rate) is ConstantRate:
            keep = unif < rate.p
        elif self.backoff:
            keep = unif < self.P.reshape(-1).take(valid_pos)
        else:
            contention = self._contention(self.ures, A)
            keep = unif < self._slack_probs(
                valid_t, valid_tf, valid_own, valid_pos, contention
            )
        idx = np.flatnonzero(keep)
        return valid_pos.take(idx), valid_t.take(idx), valid_tf.take(idx), None

    # -- kernels -------------------------------------------------------------
    # Each takes the movers' flat positions and flat own resources, their
    # row bounds and row offsets, and returns the committed (flat users,
    # resources, flat targets) plus the per-row attempt counts, or None
    # when every attempt commits.

    def _kernel_sampling(self, pos, own, bounds, rkm, A):
        # Targets then uniforms: each stream sees the scalar call order.
        t = self._draw_targets(pos, bounds, A)
        unif = self._row_uniforms(bounds, A)

        # The committed set is one AND of independent masks — commit,
        # moving, would-satisfy — so the commit test runs first and the
        # latency math only touches its survivors.  Constant and backoff
        # rates test the commit itself; the slack-proportional rate tests
        # a per-resource upper bound on its probability (see
        # ``_commit_bound``), and only the survivors that also move to a
        # satisfying target pay for the exact probability.
        rate = self.rate
        ldf = self.ld.reshape(-1)
        if type(rate) is ConstantRate:
            cand = np.flatnonzero(unif < rate.p)
        elif self.backoff:
            cand = np.flatnonzero(unif < self.P.reshape(-1).take(pos))
        else:
            contention = self._contention(self.ures, A)
            ub = self._commit_bound(contention, A)
            cand = np.flatnonzero(unif < ub.take(own))

        pos_c, t_c, rkm_c = pos.take(cand), t.take(cand), rkm.take(cand)
        own_c = own.take(cand)
        # The probe math here is purely elementwise per mover, so it
        # streams over chunks (bit-exact by construction) and only the
        # surviving indices are kept full-width.
        parts = []
        for cs, ce in iter_chunks(pos_c.size):
            p_ch, t_ch = pos_c[cs:ce], t_c[cs:ce]
            tf_ch = rkm_c[cs:ce] + t_ch
            moving = tf_ch != own_c[cs:ce]
            hyp = ldf.take(tf_ch) + (
                np.where(moving, 1.0, 0.0)
                if self.uw
                else np.where(moving, self.wF.take(p_ch), 0.0)
            )
            lat = self._probe_latency(t_ch, tf_ch, hyp)
            thr_c = self.q0 if self.uthr else self.thrF.take(p_ch)
            part = np.flatnonzero((lat <= thr_c) & moving)
            if cs:
                part += cs
            parts.append(part)
        if not parts:
            idx = np.empty(0, dtype=np.int64)
        elif len(parts) == 1:
            idx = parts[0]
        else:
            idx = np.concatenate(parts)
        fu_f, t_f = pos_c.take(idx), t_c.take(idx)
        tf_f = rkm_c.take(idx) + t_f
        if type(rate) is SlackProportionalRate:
            probs = self._slack_probs(t_f, tf_f, own_c.take(idx), fu_f, contention)
            keep = np.flatnonzero(unif.take(cand.take(idx)) < probs)
            fu_f, t_f, tf_f = fu_f.take(keep), t_f.take(keep), tf_f.take(keep)
        return fu_f, t_f, tf_f, None

    def _kernel_multiprobe(self, pos, own, bounds, rkm, A):
        M, d = pos.size, self.d
        cand = self._draw_targets(pos, bounds, A, d)
        rkm_d = np.repeat(rkm, d)
        tfc = rkm_d + cand  # flat probe targets, (M*d,)
        ldf = self.ld.reshape(-1)
        # The scalar protocol adds the mover's weight unconditionally (even
        # for own-resource probes — those are masked out below, not here).
        hyp = ldf.take(tfc) + (
            1.0 if self.uw else np.repeat(self.wF.take(pos), d)
        )
        lat = self._probe_latency(cand, tfc, hyp).reshape(M, d)
        thr = self.q0 if self.uthr else self.thrF.take(pos)[:, None]
        valid = (lat <= thr) & (tfc.reshape(M, d) != own.astype(np.int64)[:, None])
        # Max headroom = min post-arrival latency among valid probes.
        lat_masked = np.where(valid, lat, np.inf)
        best = np.argmin(lat_masked, axis=1)
        ar = np.arange(M)
        has = valid[ar, best]
        vidx = np.flatnonzero(has)
        valid_pos = pos.take(vidx)
        valid_tf = tfc[ar * d + best].take(vidx)
        valid_t = valid_tf - rkm.take(vidx)
        return self._commit_select(valid_pos, own.take(vidx), valid_t, valid_tf, A)

    def _kernel_neighborhood(self, pos, own, bounds, rkm, A):
        M = pos.size
        n = self.n
        own_r = own.astype(np.int64) - rkm
        t = np.empty(M, dtype=np.int64)
        for k in range(A):
            s, e = bounds[k], bounds[k + 1]
            if s == e:
                continue
            t[s:e] = self.graph.sample_neighbor(own_r[s:e], self.live_rngs[k])
        tf = rkm + t
        not_self = t != own_r
        if self.uthr and self.uw:
            # Every non-self probe asks the same question of its target:
            # is there room for one more unit at q0?  Answer it once per
            # live (row, resource) cell, then gather a bool per mover.
            # (the same elementwise expressions as _probe_latency: with
            # hyp >= 1, ``1.0 * hyp + 0.0`` is ``hyp`` exactly)
            room = self._res_latencies(self.ld + 1.0) <= self.q0
            ok = room.reshape(-1).take(tf)
        else:
            # Mirrors State.would_satisfy: a self-probe evaluates the target
            # at its *current* load (the user already counts), others add
            # weight.
            hyp = self.ld.reshape(-1).take(tf) + (
                np.where(not_self, 1.0, 0.0)
                if self.uw
                else np.where(not_self, self.wF.take(pos), 0.0)
            )
            lat = self._probe_latency(t, tf, hyp)
            ok = lat <= (self.q0 if self.uthr else self.thrF.take(pos))
        ok &= not_self
        if self.access is not None:
            # The resource graph knows nothing about per-user accessibility:
            # drop probes of forbidden resources (wasted, like a self-sample).
            ok &= self.access.contains(pos % n, t)
        vidx = np.flatnonzero(ok)
        return self._commit_select(
            pos.take(vidx), own.take(vidx), t.take(vidx), tf.take(vidx), A
        )

    def _kernel_permit(self, pos, own, bounds, rkm, A):
        t = self._draw_targets(pos, bounds, A)
        tf = rkm + t
        pidx = np.flatnonzero(tf != own)
        if pidx.size == 0:
            z = np.empty(0, dtype=np.int64)
            return z, z, z, None
        pos_p, t_p, tf_p = pos.take(pidx), t.take(pidx), tf.take(pidx)
        resF = self._resident_min(A)

        # Group probes by (rep, target), each group sorted by threshold
        # descending.  Flat targets separate replications, so one global
        # sort reproduces every rep's scalar lexsort exactly (stable sorts,
        # identical keys within a rep).
        if self.uthr:
            order = np.argsort(tf_p, kind="stable")
            q_s = self.q0
        else:
            q_p = self.thrF.take(pos_p)
            order = np.lexsort((-q_p, tf_p))
            q_s = q_p.take(order)
        pos_s, t_s, tf_s = pos_p.take(order), t_p.take(order), tf_p.take(order)
        P2 = pos_s.size
        seg_start = np.empty(P2, dtype=bool)
        seg_start[0] = True
        np.not_equal(tf_s[1:], tf_s[:-1], out=seg_start[1:])
        starts = np.flatnonzero(seg_start)
        seg_id = np.cumsum(seg_start) - 1
        within = np.arange(P2, dtype=np.int64) - starts[seg_id]

        # Cumulative granted weight within each group.  Unit weights:
        # the integer rank + 1 is the exact float64 sum of 1.0s.  General
        # weights: per-segment cumsum keeps the scalar summation order.
        if self.uw:
            cw = (within + 1).astype(np.float64)
        else:
            gw = self.wF.take(pos_s)
            cw = np.empty(P2, dtype=np.float64)
            bnd = np.append(starts, P2)
            for si in range(starts.size):
                a, b = bnd[si], bnd[si + 1]
                np.cumsum(gw[a:b], out=cw[a:b])

        ldf = self.ld.reshape(-1)
        x = ldf.take(tf_s) + cw
        latv = self._probe_latency(t_s, tf_s, x)
        bound = q_s if resF is None else np.minimum(resF.take(tf_s), q_s)
        cond = latv <= bound
        # Largest prefix before the first violation: both sides are
        # monotone, so the scalar's early-exit scan grants exactly the
        # entries ranked before the first failing one.
        fail = np.where(cond, P2, within)
        first_fail = np.minimum.reduceat(fail, starts)
        gidx = np.flatnonzero(within < first_fail[seg_id])
        return pos_s.take(gidx), t_s.take(gidx), tf_s.take(gidx), None

    def _kernel_blind(self, pos, own, bounds, rkm, A):
        jump_p = self.protocol.jump_p
        if jump_p < 1.0:
            jidx = np.flatnonzero(self._row_uniforms(bounds, A) < jump_p)
            pos, own, rkm = pos.take(jidx), own.take(jidx), rkm.take(jidx)
            bounds = self._row_bounds(pos, A)
        # Every jumper is an attempt; a self-target is a wasted one.
        t = self._draw_targets(pos, bounds, A)
        tf = rkm + t
        midx = np.flatnonzero(tf != own)
        return pos.take(midx), t.take(midx), tf.take(midx), np.diff(bounds)

    def _br_targets(self, p, ownf, k, resF):
        """``bestresponse._satisfying_targets`` for flat mover ``p`` of row ``k``."""
        u = int(p) - k * self.n
        if self.access is None:
            allowed = np.arange(self.m, dtype=np.int64)
        else:
            allowed = self.access.allowed(u)
        allowed = allowed[allowed != int(ownf) - k * self.m]
        af = allowed + k * self.m
        lat = self._probe_latency(
            allowed, af, self.ld.reshape(-1).take(af) + self.weights[u]
        )
        ok = lat <= self.thresholds[u]
        if resF is not None:
            ok &= lat <= resF.take(af)
        return allowed[ok], lat[ok]

    def _kernel_bestresponse(self, pos, own, bounds, rkm, A):
        # rng.permutation(count) consumes the stream exactly like the
        # scalar rng.permutation(movers) and yields the same order as
        # indices, so scanning it finds the scalar protocol's mover.  The
        # first scanned mover usually moves, so the scan reads the
        # permutation lazily instead of listing it.
        proto = self.protocol
        resF = self._resident_min(A) if proto.polite else None
        fu, tt = [], []
        b = bounds.tolist()
        for k in range(A):
            s, e = b[k], b[k + 1]
            if s == e:
                continue
            rng = self.live_rngs[k]
            for j in rng.permutation(e - s):
                i = s + int(j)
                cand, lat = self._br_targets(pos[i], own[i], k, resF)
                if cand.size:
                    break
            else:
                continue
            if proto.greedy:
                t = cand[int(np.argmin(lat))]
            else:
                t = cand[rng.integers(0, cand.size)]
            fu.append(pos[i])
            tt.append(t)
        fu_f = np.asarray(fu, dtype=np.int64)
        t_f = np.asarray(tt, dtype=np.int64)
        tf_f = (fu_f // self.n) * self.m + t_f
        return fu_f, t_f, tf_f, None

    # -- the round loop -------------------------------------------------------

    def run(self) -> None:
        kernel = {
            "sampling": self._kernel_sampling,
            "multiprobe": self._kernel_multiprobe,
            "permit": self._kernel_permit,
            "neighborhood": self._kernel_neighborhood,
            "blind": self._kernel_blind,
            "bestresponse": self._kernel_bestresponse,
        }[self.kind]
        max_rounds = self.max_rounds
        n_events = len(self.events)

        for round_index in range(max_rounds + 1):
            if self.event_idx < n_events:
                self._apply_events(round_index)
            rows = self.rows
            A = rows.size
            if A == 0:
                break
            n, m = self.n, self.m
            row_off = self.row_off

            self._refresh_unsat(A)
            ubounds = self._row_bounds(self.upos, A)
            n_unsat = np.diff(ubounds)

            # Same liveness contract as the scalar engine: wall-clock
            # throttled heartbeat/progress so a sweep worker running the
            # batched backend is never dark to the coordinator.
            if _OBS.active:
                if _OBS.every("cell.heartbeat", HEARTBEAT_INTERVAL_S):
                    _OBS.event(
                        "cell.heartbeat",
                        {
                            "round": round_index,
                            "live": int(A),
                            "unsatisfied": int(self.upos.size),
                        },
                    )
                if _OBS.every("cell.progress", PROGRESS_INTERVAL_S):
                    _OBS.event(
                        "cell.progress",
                        {
                            "round": round_index,
                            "max_rounds": max_rounds,
                            "live": int(A),
                            "reps": self.R,
                            "unsatisfied": int(self.upos.size),
                            "n_users": n,
                        },
                    )

            has_pending = self.event_idx < n_events
            sat_now = n_unsat == 0
            # The scalar engine records the first all-satisfied round even
            # with events outstanding (events reset it), but only *stops*
            # once none remain — satisfied reps keep executing (and keep
            # drawing their alpha masks) until the last event has fired.
            newly = sat_now & (self.satisfying_rounds[rows] < 0)
            if newly.any():
                self.satisfying_rounds[rows[newly]] = round_index
            if not has_pending and sat_now.any():
                dead = rows[sat_now]
                for r in dead:
                    self.statuses[r] = "satisfying"
                self.rounds[dead] = self.satisfying_rounds[dead]
                self.n_satisfied_final[dead] = n
                self.assignment[dead] = self.asgF[sat_now] - row_off[:A][sat_now][:, None]
                keep = ~sat_now
                self._drop_rows(keep)
                rows, n_unsat = self.rows, n_unsat[keep]
                A = rows.size
                if A == 0:
                    break
                ubounds = self._row_bounds(self.upos, A)
            asgF, ld = self.asgF, self.ld
            if round_index == max_rounds:
                self.rounds[rows] = self.rounds_executed[rows]
                self.n_satisfied_final[rows] = n - n_unsat
                self.assignment[rows] = asgF - row_off[:A][:, None]
                break

            # -- per-rep RNG draws, in each stream's scalar order ------------
            # Streams are independent, so interleaving *across* replications
            # is free; what the parity contract fixes is the order *within*
            # each stream — alpha mask, then the kernel's own draw sequence.
            # Movers are a subset of the unsatisfied set: all of it under a
            # synchronous schedule, its activated members under alpha.
            if self.alpha_draws:
                draws = self.usr_buf[:A]
                for k in range(A):
                    self.live_rngs[k].random(out=draws[k])
                act = np.flatnonzero(draws.reshape(-1).take(self.upos) < self.alpha)
                pos, own = self.upos.take(act), self.ures.take(act)
                bounds = self._row_bounds(pos, A)
                counts = np.diff(bounds)
            else:
                pos, own, bounds, counts = self.upos, self.ures, ubounds, n_unsat
            self.rounds_executed[rows] = round_index + 1
            self.total_messages[rows] += counts * self.phases

            if pos.size:
                rkm = np.repeat(row_off[:A], counts)  # per-mover row offset
                fu_f, t_f, tf_f, n_attempts = kernel(pos, own, bounds, rkm, A)
                n_committed = np.bincount(fu_f // n, minlength=A)
                if n_attempts is None:
                    n_attempts = n_committed
                if fu_f.size:
                    asg_flat = asgF.reshape(-1)
                    of_f = asg_flat.take(fu_f)
                    if self.uw:
                        # unit weights: plain integer bincounts; the integer
                        # count equals the serial sum of 1.0s exactly
                        sub = np.bincount(of_f, minlength=A * m)
                        add = np.bincount(tf_f, minlength=A * m)
                    else:
                        w_f = self.wF.take(fu_f)
                        sub = np.bincount(of_f, weights=w_f, minlength=A * m)
                        add = np.bincount(tf_f, weights=w_f, minlength=A * m)
                    ld_flat = ld.reshape(-1)
                    ld_flat -= sub  # (ld - sub) + add: the scalar IEEE order
                    ld_flat += add
                    asg_flat[fu_f] = tf_f
                self.total_moves[rows] += n_committed
                self.total_attempts[rows] += n_attempts
            else:
                fu_f = tf_f = t_f = np.empty(0, dtype=np.int64)
                n_committed = n_attempts = np.zeros(A, dtype=np.int64)

            if self.backoff:
                # Mirrors AdaptiveBackoffRate.observe: quiet users recover,
                # movers keep p, movers *still* unsatisfied post-move back
                # off (from the original p, not the recovered one).
                rate = self.rate
                recovered = np.minimum(self.P * rate.recover, 1.0)
                if fu_f.size:
                    p_moved = self.P.reshape(-1).take(fu_f)
                    recovered.reshape(-1)[fu_f] = p_moved
                    post_lat = self._probe_latency(
                        t_f, tf_f, ld.reshape(-1).take(tf_f)
                    )
                    collided = post_lat > (
                        self.q0 if self.uthr else self.thrF.take(fu_f)
                    )
                    recovered.reshape(-1)[fu_f[collided]] = np.maximum(
                        p_moved[collided] * rate.backoff, rate.floor
                    )
                self.P = recovered

            # -- per-rep quiescence (attempt-free rounds; same dirty dance) --
            self.quiescence_dirty[rows[n_committed > 0]] = True
            if has_pending:
                continue  # the scalar engine defers quiescence past events
            check = (n_attempts == 0) & self.quiescence_dirty[rows]
            if check.any():
                dead_q = np.zeros(A, dtype=bool)
                for k in np.nonzero(check)[0]:
                    r = rows[k]
                    # Judge the loads the run carries, as the scalar engine
                    # does: a fresh bincount can differ from the
                    # incrementally updated weighted loads in the last bit.
                    state = State(self.instance, asgF[k] - k * m)
                    state.loads = ld[k].copy()
                    verdict = self.protocol.is_quiescent(state)
                    if verdict:
                        self.statuses[r] = "quiescent"
                        self.rounds[r] = self.rounds_executed[r]
                        self.n_satisfied_final[r] = n - int(n_unsat[k])
                        self.assignment[r] = asgF[k] - k * m
                        dead_q[k] = True
                    elif verdict is False:
                        self.quiescence_dirty[r] = False
                if dead_q.any():
                    self._drop_rows(~dead_q)


def run_batch(
    instance: Instance,
    protocol,
    *,
    seeds: list[int | np.random.Generator],
    schedule: Schedule | None = None,
    max_rounds: int = 100_000,
    initial: str = "random",
    events: Sequence[Event] = (),
) -> BatchRunResult:
    """Run ``len(seeds)`` replications of one configuration lockstep.

    ``seeds`` are integer seeds (each becomes an independent
    ``numpy.random.default_rng(seed)`` stream, the scalar path's mapping)
    or pre-built generators (exact-replay tests pass these to compare
    streams against the scalar engine).  ``events`` are applied per
    replication at their round boundaries with the scalar event code
    (:func:`batch_events_support` lists what batches).
    Raises :class:`ValueError` for protocol/schedule/event combinations
    without a batched kernel — callers that want graceful degradation go
    through :func:`~repro.sim.parallel.replicate`, which falls back to the
    scalar path instead.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    schedule = schedule if schedule is not None else SynchronousSchedule()
    reason = _kernel_support(protocol, schedule)
    if reason is not None:
        raise ValueError(f"no batched kernel: {reason}")
    for e in events:
        if not isinstance(e, Event):
            raise TypeError(f"expected Event, got {type(e)!r}")
    reason = batch_events_support(events)
    if reason is not None:
        raise ValueError(f"no batched kernel: {reason}")

    rngs = [
        s if isinstance(s, np.random.Generator) else np.random.default_rng(s)
        for s in seeds
    ]
    seed_values: list[int | None] = [_seed_value(s) for s in seeds]

    engine = _BatchEngine(
        instance,
        protocol,
        _kernel_kind(protocol),
        schedule,
        rngs,
        max_rounds,
        initial,
        events,
    )
    engine.run()

    return BatchRunResult(
        statuses=engine.statuses,
        rounds=engine.rounds,
        total_moves=engine.total_moves,
        total_attempts=engine.total_attempts,
        total_messages=engine.total_messages,
        n_satisfied=engine.n_satisfied_final,
        satisfying_rounds=engine.satisfying_rounds,
        n_users=engine.n,
        n_resources=engine.m,
        protocol=protocol.describe(),
        schedule=schedule.describe(),
        seeds=seed_values,
        final_assignment=engine.assignment,
        last_event_round=engine.last_event_round,
    )


def replicate_batched(
    spec,
    n_reps: int,
    *,
    base_seed: int = 0,
    seed_key: str | None = None,
    rep_indices: Sequence[int] | None = None,
) -> list[RunResult]:
    """Batched analogue of :func:`~repro.sim.parallel.replicate`.

    Seeds are derived exactly as the serial path derives them (same
    ``seed_from_key`` chain including the per-rep ``"run"`` subkey) and
    feed the same ``default_rng`` stream construction, so a batched cell
    is not merely replayable rep-by-rep — its per-rep results are
    bit-identical to what ``backend="serial"`` would produce.  Raises for
    specs without a batched kernel; ``replicate`` handles the graceful
    fallback.

    ``rep_indices`` runs an arbitrary slice of a larger replication set:
    seeds are derived from the given global indices instead of
    ``range(n_reps)``, which is how the hybrid backend shards one logical
    batch across processes without changing any per-rep stream.
    """
    from .parallel import _spec_components, spec_seed_key

    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    reason = batch_support(spec)
    if reason is not None:
        raise ValueError(f"spec has no batched kernel: {reason}")
    if rep_indices is None:
        indices: Sequence[int] = range(n_reps)
    else:
        indices = [int(i) for i in rep_indices]
        if len(indices) != n_reps:
            raise ValueError("rep_indices must have exactly n_reps entries")
    key = seed_key if seed_key is not None else spec_seed_key(spec)
    rep_seeds = [seed_from_key(base_seed, key, str(i)) for i in indices]
    # instance_seed_key == "fixed" (enforced above): the instance does not
    # depend on the replication seed, so one build serves the whole batch.
    instance, protocol, schedule = _spec_components(spec, rep_seeds[0])
    batch = run_batch(
        instance,
        protocol,
        seeds=[seed_from_key(s, "run") for s in rep_seeds],
        schedule=schedule,
        max_rounds=spec.max_rounds,
        initial=spec.initial,
    )
    return batch.decompose()
