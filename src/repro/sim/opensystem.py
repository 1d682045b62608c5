"""Open-system simulation: continuous arrivals and departures.

The closed-system engine (:func:`repro.sim.engine.run`) measures
convergence to an absorbing state.  Real deployments never absorb: users
arrive, are served for a while, and leave.  This runner models the open
system —

- each round, every present user departs independently with probability
  ``departure_prob`` (geometric lifetimes, mean ``1/departure_prob``
  rounds);
- ``Poisson(arrival_rate)`` new users arrive, each with a threshold drawn
  from the configured sampler, landing on a uniformly random resource;
- the migration protocol runs as usual on whoever is present.

The population hovers around ``arrival_rate / departure_prob`` (an
M/G/∞-style balance), and the quantity of interest is the **steady-state
satisfied fraction** after a warm-up window — how well the protocol keeps
QoS under perpetual churn, as a function of the *offered load*
``rho = expected population / QoS capacity``.  Experiment F12 sweeps
``rho`` across the critical point ``rho = 1``.

Implementation note: instances are immutable, so the runner keeps plain
arrays (thresholds, assignment) and materialises an
:class:`~repro.core.instance.Instance`/:class:`~repro.core.state.State`
pair each round — O(population) per round, the same order as the protocol
step itself.  Protocol state is reset when the population changes shape
(documented limitation: per-user adaptive rate state does not survive
churn; the stock protocols are stateless).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.instance import Instance
from ..core.latency import LatencyFunction, LatencyProfile
from ..core.protocols.base import Protocol
from ..core.state import State
from .rng import make_rng

__all__ = ["OpenSystemResult", "run_open_system"]

ThresholdSampler = Callable[[int, np.random.Generator], np.ndarray]


@dataclass
class OpenSystemResult:
    """Steady-state metrics of an open-system run."""

    rounds: int
    warmup: int
    total_arrivals: int
    total_departures: int
    population: np.ndarray  # per-round, post-churn
    satisfied_fraction: np.ndarray  # per-round, post-step
    moves: np.ndarray  # per-round migrations

    @property
    def mean_population(self) -> float:
        return float(self.population[self.warmup :].mean())

    @property
    def steady_satisfied_fraction(self) -> float:
        """Time-averaged satisfied fraction after warm-up."""
        return float(self.satisfied_fraction[self.warmup :].mean())

    @property
    def p10_satisfied_fraction(self) -> float:
        return float(np.quantile(self.satisfied_fraction[self.warmup :], 0.10))

    @property
    def moves_per_round(self) -> float:
        return float(self.moves[self.warmup :].mean())

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "mean_population": self.mean_population,
            "steady_satisfied_fraction": self.steady_satisfied_fraction,
            "p10_satisfied_fraction": self.p10_satisfied_fraction,
            "moves_per_round": self.moves_per_round,
            "total_arrivals": self.total_arrivals,
            "total_departures": self.total_departures,
        }


def run_open_system(
    *,
    m: int,
    arrival_rate: float,
    departure_prob: float,
    threshold_sampler: ThresholdSampler | float,
    protocol: Protocol,
    latency: LatencyFunction | None = None,
    rounds: int = 500,
    warmup: int = 100,
    initial_population: int | None = None,
    seed: int | np.random.Generator = 0,
) -> OpenSystemResult:
    """Simulate the open system for ``rounds`` rounds.

    ``threshold_sampler`` is either a constant threshold or a callable
    ``(count, rng) -> thresholds``.  ``initial_population`` defaults to the
    equilibrium ``arrival_rate / departure_prob`` so the warm-up only has
    to mix the assignment, not grow the population.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be non-negative")
    if not (0.0 < departure_prob <= 1.0):
        raise ValueError("departure_prob must be in (0, 1]")
    if warmup >= rounds:
        raise ValueError("warmup must be smaller than rounds")
    rng = make_rng(seed)

    if isinstance(threshold_sampler, (int, float)):
        q_value = float(threshold_sampler)
        sampler: ThresholdSampler = lambda k, g: np.full(k, q_value)  # noqa: E731
    else:
        sampler = threshold_sampler

    # The resources never change, so one (immutable) profile serves every
    # round's instance; only the thresholds are rebuilt per round.
    profile = (
        LatencyProfile([latency] * m)
        if latency is not None
        else LatencyProfile.identical(m)
    )

    def make_instance(thresholds: np.ndarray) -> Instance:
        return Instance(thresholds=thresholds, latencies=profile, name="open-system")

    pop0 = (
        int(round(arrival_rate / departure_prob))
        if initial_population is None
        else int(initial_population)
    )
    pop0 = max(pop0, 1)
    thresholds = np.asarray(sampler(pop0, rng), dtype=np.float64)
    assignment = rng.integers(0, m, size=pop0)

    population = np.zeros(rounds, dtype=np.int64)
    satisfied = np.zeros(rounds, dtype=np.float64)
    moves = np.zeros(rounds, dtype=np.int64)
    total_arrivals = 0
    total_departures = 0

    for t in range(rounds):
        # -- churn ------------------------------------------------------------
        n = thresholds.size
        stay = rng.random(n) >= departure_prob
        total_departures += int(n - stay.sum())
        thresholds = thresholds[stay]
        assignment = assignment[stay]

        k = int(rng.poisson(arrival_rate))
        if k:
            total_arrivals += k
            newcomers = np.asarray(sampler(k, rng), dtype=np.float64)
            thresholds = np.concatenate([thresholds, newcomers])
            assignment = np.concatenate([assignment, rng.integers(0, m, size=k)])
        if thresholds.size == 0:
            # Population died out this round; nothing to step.
            population[t] = 0
            satisfied[t] = 1.0
            moves[t] = 0
            continue

        # -- protocol step -----------------------------------------------------
        instance = make_instance(thresholds)
        state = State(instance, assignment)
        protocol.reset(instance, rng)
        outcome = protocol.step(
            state, np.ones(instance.n_users, dtype=bool), rng
        )
        assignment = state.assignment

        population[t] = instance.n_users
        satisfied[t] = state.n_satisfied / instance.n_users
        moves[t] = outcome.n_moved

    return OpenSystemResult(
        rounds=rounds,
        warmup=warmup,
        total_arrivals=total_arrivals,
        total_departures=total_departures,
        population=population,
        satisfied_fraction=satisfied,
        moves=moves,
    )
