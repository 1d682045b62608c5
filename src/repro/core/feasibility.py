"""Feasibility theory: do satisfying states exist, and what does OPT look like?

This module contains the *exact* combinatorial side of the reproduction:

- :func:`greedy_assignment` — the threshold-sorted greedy packing that
  constructs a satisfying state whenever one exists on **identical
  machines** (exactness verified against the brute-force oracle in the
  test suite); on heterogeneous profiles a successful packing is still an
  exact witness but a failure is inconclusive.
- :func:`segment_dp_assignment` — exact feasibility for **arbitrary**
  latency profiles via the contiguity theorem (any satisfying assignment
  can be rearranged into contiguous segments of the threshold-sorted user
  order) and a DP over segments x remaining machine types.
- :func:`brute_force_assignment` — exponential exact oracle for tiny
  instances (test reference).
- :func:`max_satisfied` — the maximum number of simultaneously satisfiable
  users (OPT_sat) for infeasible instances: exact in O(m*n) for identical
  machines (the better of a greedy ``m - 1``-machine cover and a
  segment-split DP over the top users), greedy heuristic otherwise.
- :func:`multiplicative_slack` / :func:`additive_slack` — how much the
  thresholds can be tightened while staying feasible; the experiment suite
  sweeps generated slack and these functions audit it.

Background: with identical machines (``ell(x) = x``) a set ``S`` of
unit-weight users on one resource is fully satisfied iff
``|S| <= min_{u in S} q_u``.  Sorting thresholds in descending order
``q(1) >= ... >= q(n)``, the largest prefix that fits on one resource is
``t* = max{t : t <= q(t)}``, and recursing on the remainder with one fewer
resource is optimal (an exchange argument: replacing any group member with
a higher-threshold user never decreases the group minimum, so groups can be
made contiguous in sorted order; and extending the first group never hurts
the rest).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

import numpy as np

from .instance import Instance
from .state import State

__all__ = [
    "FeasibilityResult",
    "MaxSatisfiedResult",
    "is_pointwise_ordered",
    "greedy_assignment",
    "segment_dp_assignment",
    "brute_force_assignment",
    "is_feasible",
    "max_satisfied",
    "max_satisfied_brute_force",
    "multiplicative_slack",
    "additive_slack",
]


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility check.

    ``feasible`` is authoritative only when ``exact`` is True; otherwise a
    False value means "greedy failed", which proves nothing on
    heterogeneous profiles (see :func:`segment_dp_assignment`).
    """

    feasible: bool
    exact: bool
    method: str
    state: State | None = None


@dataclass(frozen=True)
class MaxSatisfiedResult:
    """Best-known number of simultaneously satisfiable users with witness."""

    n_satisfied: int
    exact: bool
    method: str
    state: State | None = None


def _require_exact_model(instance: Instance, what: str) -> None:
    if not instance.unit_weights:
        raise NotImplementedError(f"{what} requires unit weights")
    if instance.access is not None and not instance.access.is_complete():
        raise NotImplementedError(f"{what} requires complete accessibility")


def is_pointwise_ordered(instance: Instance, probe_loads: int | None = None) -> bool:
    """Are the latency functions totally ordered pointwise?

    Resources ``r`` and ``s`` are comparable iff ``ell_r(x) <= ell_s(x)``
    for all probed loads, or vice versa.  Identical and speed-scaled
    profiles are always ordered; mixed profiles (e.g. affine with crossing
    lines) generally are not.  Probing is over loads ``0..n`` (or
    ``probe_loads``), which is sufficient because only loads up to ``n``
    are reachable.
    """
    n = instance.n_users if probe_loads is None else int(probe_loads)
    grid = np.arange(n + 1, dtype=np.float64)
    values = np.stack([f(grid) for f in instance.latencies.functions])
    # Sort rows by value at the largest probed load, then check the sorted
    # stack is monotone across rows at every load.
    order = np.lexsort(values.T[::-1])
    sorted_vals = values[order]
    diffs = np.diff(sorted_vals, axis=0)
    # inf - inf produces NaN; treat equal-infinite entries as ordered.
    with np.errstate(invalid="ignore"):
        ok = (diffs >= -1e-12) | np.isnan(diffs)
    return bool(np.all(ok))


def _resource_strength_order(instance: Instance) -> np.ndarray:
    """Resources ordered strongest (lowest latency at high load) first."""
    n = instance.n_users
    grid = np.arange(n + 1, dtype=np.float64)
    values = np.stack([f(grid) for f in instance.latencies.functions])
    finite = np.where(np.isfinite(values), values, np.finfo(np.float64).max)
    # Lexicographic by latency at the highest load first, tie-broken by
    # lower loads: the machine that stays cheap when full is strongest.
    keys = finite[:, ::-1]
    return np.lexsort(keys.T[::-1])


def _greedy_prefix_size(
    instance: Instance, resource: int, sorted_thresholds: np.ndarray, start: int
) -> int:
    """Largest ``t`` such that the ``t`` users ``start..start+t-1`` (thresholds
    sorted descending) fit together on ``resource``.

    The predicate ``ell_r(t) <= q(start + t - 1)`` is monotone (latency
    non-decreasing in ``t``, sorted thresholds non-increasing), so binary
    search applies.
    """
    f = instance.latencies[resource]
    remaining = sorted_thresholds.size - start
    if remaining <= 0:
        return 0
    lo, hi = 0, remaining  # invariant: predicate holds at lo, fails at hi+1
    if f(1) > sorted_thresholds[start]:
        return 0
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if f(mid) <= sorted_thresholds[start + mid - 1]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _pack_prefixes(
    instance: Instance, resources: Iterable[int], order: np.ndarray
) -> tuple[np.ndarray, int]:
    """Give each resource in turn the largest feasible prefix of the users
    not yet placed, in threshold-descending ``order``.

    Returns the partial assignment (``-1`` = unplaced) and the number of
    users placed, who are exactly ``order[:placed]``.
    """
    sorted_q = instance.thresholds[order]
    assignment = np.full(instance.n_users, -1, dtype=np.int64)
    start = 0
    for r in resources:
        if start >= instance.n_users:
            break
        t = _greedy_prefix_size(instance, int(r), sorted_q, start)
        assignment[order[start : start + t]] = r
        start += t
    return assignment, start


def greedy_assignment(instance: Instance) -> FeasibilityResult:
    """Threshold-sorted greedy packing; exact for identical machines.

    Users are sorted by threshold descending; resources are processed
    strongest-first; each resource takes the largest feasible prefix of the
    remaining users.  A successful packing is always an exact feasibility
    witness.  A *failure* proves infeasibility only for identical machines
    (symmetry makes the maximal-prefix choice safe); for heterogeneous
    profiles a machine must sometimes take a non-maximal or later segment —
    e.g. thresholds ``[3, 3, 1]`` on speeds ``[2, 0.5]`` are feasible only
    with the demanding user *sharing* the fast machine — so greedy failure
    is inconclusive there (``exact=False``; use
    :func:`segment_dp_assignment`).
    """
    _require_exact_model(instance, "greedy_assignment")
    order = np.argsort(-instance.thresholds, kind="stable")
    assignment, start = _pack_prefixes(
        instance, _resource_strength_order(instance), order
    )
    if start < instance.n_users:
        # Failure is conclusive for identical machines (symmetry) and for
        # uniform thresholds (each machine then packs exactly its capacity
        # cap_r(q), so failure means total capacity < n on any profile).
        uniform_q = bool(np.all(instance.thresholds == instance.thresholds[0]))
        return FeasibilityResult(
            feasible=False,
            exact=instance.identical_resources or uniform_q,
            method="greedy",
            state=None,
        )
    state = State(instance, assignment)
    assert state.is_satisfying(), "greedy produced a non-satisfying packing"
    return FeasibilityResult(feasible=True, exact=True, method="greedy", state=state)


def segment_dp_assignment(
    instance: Instance, *, state_limit: int = 2_000_000
) -> FeasibilityResult:
    """Exact feasibility for arbitrary latency profiles (moderate sizes).

    Based on the **contiguity theorem**: if a satisfying assignment exists,
    one exists in which every resource serves a contiguous segment of the
    threshold-descending user order.  (Order any solution's groups by their
    minimum threshold descending and redistribute the sorted users
    segment-by-segment: the new minimum of the ``j``-th segment is the
    ``(len_1 + ... + len_j)``-th largest threshold overall, which is at
    least the minimum over the union of the first ``j`` original groups,
    i.e. at least the ``j``-th group's original minimum — so every group
    constraint still holds.)

    The DP walks the sorted users left to right, choosing for each segment
    a *latency type* (distinct latency function) with remaining
    multiplicity and a segment length up to the maximal feasible prefix.
    State space is ``n * prod(count_t + 1)`` over distinct types — cheap
    for identical or few-type farms, exponential for all-distinct speeds;
    ``state_limit`` guards against the latter (raises ``ValueError``).
    """
    _require_exact_model(instance, "segment_dp_assignment")
    n = instance.n_users
    order = np.argsort(-instance.thresholds, kind="stable")
    sorted_q = instance.thresholds[order]

    # Group resources into types by their latency function.
    type_to_resources: dict[object, list[int]] = {}
    for r, f in enumerate(instance.latencies.functions):
        type_to_resources.setdefault(f, []).append(r)
    types = list(type_to_resources.keys())
    counts = tuple(len(type_to_resources[t]) for t in types)

    n_states = (n + 1) * int(np.prod([c + 1 for c in counts], dtype=np.float64))
    if n_states > state_limit:
        raise ValueError(
            f"segment DP state space {n_states} exceeds limit {state_limit}"
        )

    # Representative resource per type for prefix-size computation.
    reps = [type_to_resources[t][0] for t in types]

    import sys
    from functools import lru_cache

    # Each recursion level places at least one user.
    if sys.getrecursionlimit() < n + 200:
        sys.setrecursionlimit(n + 200)

    @lru_cache(maxsize=None)
    def solve(start: int, remaining: tuple[int, ...]) -> tuple[int, int] | None:
        """First (type index, segment length) of a feasible completion, or
        None.  Length 0 with no remaining types means failure unless done."""
        if start >= n:
            return (-1, 0)  # done
        for ti in range(len(types)):
            if remaining[ti] == 0:
                continue
            t_max = _greedy_prefix_size(instance, reps[ti], sorted_q, start)
            nxt = list(remaining)
            nxt[ti] -= 1
            nxt_t = tuple(nxt)
            # Try longer segments first: succeeds faster on easy instances.
            for t in range(t_max, 0, -1):
                if solve(start + t, nxt_t) is not None:
                    return (ti, t)
        return None

    first = solve(0, counts)
    if first is None:
        return FeasibilityResult(False, True, "segment-dp", None)

    # Reconstruct the witness by replaying the memoised decisions.
    assignment = np.full(n, -1, dtype=np.int64)
    start, remaining = 0, counts
    pools = {ti: list(type_to_resources[types[ti]]) for ti in range(len(types))}
    while start < n:
        decision = solve(start, remaining)
        assert decision is not None and decision[0] >= 0
        ti, t = decision
        resource = pools[ti].pop()
        assignment[order[start : start + t]] = resource
        nxt = list(remaining)
        nxt[ti] -= 1
        remaining = tuple(nxt)
        start += t
    # Park unused resources implicitly (they stay empty).
    state = State(instance, assignment)
    assert state.is_satisfying(), "segment DP produced a non-satisfying witness"
    return FeasibilityResult(True, True, "segment-dp", state)


def _assignments_iter(n: int, m: int) -> Iterator[tuple[int, ...]]:
    return product(range(m), repeat=n)


def brute_force_assignment(instance: Instance, limit: int = 2_000_000) -> FeasibilityResult:
    """Exact feasibility by exhaustive search over all ``m**n`` assignments.

    Test oracle only; refuses instances whose search space exceeds
    ``limit``.
    """
    _require_exact_model(instance, "brute_force_assignment")
    n, m = instance.n_users, instance.n_resources
    if m**n > limit:
        raise ValueError(f"search space m**n = {m**n} exceeds limit {limit}")
    for candidate in _assignments_iter(n, m):
        state = State(instance, np.asarray(candidate, dtype=np.int64))
        if state.is_satisfying():
            return FeasibilityResult(True, True, "brute-force", state)
    return FeasibilityResult(False, True, "brute-force", None)


def is_feasible(instance: Instance) -> bool:
    """Convenience wrapper: authoritative feasibility or raise.

    Tries, in order: greedy (fast; exact witness on success, exact failure
    for identical machines), the segment DP (exact for any profile with a
    tractable type structure), and brute force (tiny instances).  Raises
    :class:`NotImplementedError` when none applies — many-distinct-type
    profiles at scale.
    """
    result = greedy_assignment(instance)
    if result.exact:
        return result.feasible
    try:
        return segment_dp_assignment(instance).feasible
    except ValueError:
        pass
    if instance.n_resources ** instance.n_users <= 2_000_000:
        return brute_force_assignment(instance).feasible
    raise NotImplementedError(
        "exact feasibility is unavailable: too many distinct latency types "
        "for the segment DP and too large for brute force"
    )


# ---------------------------------------------------------------------------
# OPT_sat: maximum simultaneously satisfiable users
# ---------------------------------------------------------------------------


def max_satisfied_brute_force(instance: Instance, limit: int = 2_000_000) -> MaxSatisfiedResult:
    """Exact OPT_sat by exhaustive assignment search (test oracle)."""
    _require_exact_model(instance, "max_satisfied_brute_force")
    n, m = instance.n_users, instance.n_resources
    if m**n > limit:
        raise ValueError(f"search space m**n = {m**n} exceeds limit {limit}")
    best, best_state = -1, None
    for candidate in _assignments_iter(n, m):
        state = State(instance, np.asarray(candidate, dtype=np.int64))
        s = state.n_satisfied
        if s > best:
            best, best_state = s, state
    return MaxSatisfiedResult(best, True, "brute-force", best_state)


def _segment_split(caps: list[int], m: int, n: int) -> list[int] | None:
    """Cut points ``0 = c_0 < c_1 < ... < c_m = T`` for the largest ``T``
    whose top-``T`` users split into ``m`` contiguous non-empty segments,
    each no longer than the cap of its last user, with the caps of the
    segment ends summing to at least ``n``; None if no ``T`` qualifies.

    ``caps`` is non-increasing.  ``g_j(i)``, the best cap sum over splits
    of users ``[0, i)`` into ``j`` segments, is
    ``caps[i-1] + max g_{j-1}(a)`` over ``a`` in ``[i - caps[i-1], i)``.
    Both window ends only move right (caps never increase), so a monotone
    deque yields each layer in O(n): O(m*n) in all.
    """
    unreachable = -1
    g = [0] + [unreachable] * n
    back: list[list[int]] = []
    for j in range(1, m + 1):
        nxt = [unreachable] * (n + 1)
        arg = [0] * (n + 1)
        window: deque[int] = deque()  # start points, g strictly decreasing
        for i in range(j, n + 1):
            v = g[i - 1]
            if v != unreachable:
                while window and g[window[-1]] <= v:
                    window.pop()
                window.append(i - 1)
            lo = i - caps[i - 1]
            while window and window[0] < lo:
                window.popleft()
            if window:
                a = window[0]
                nxt[i] = g[a] + caps[i - 1]
                arg[i] = a
        g = nxt
        back.append(arg)
    reach = [i for i in range(n + 1) if g[i] >= n]
    if not reach:
        return None
    cuts = [reach[-1]]
    for arg in reversed(back):
        cuts.append(arg[cuts[-1]])
    return cuts[::-1]


def _max_satisfied_identical(instance: Instance) -> MaxSatisfiedResult:
    """Exact OPT_sat on identical machines (``ell(x) = x``), in O(m*n).

    A user with threshold ``q`` is satisfied iff its resource's load is at
    most its cap ``min(floor(q), n)``.  Any optimum falls in one of two
    cases (``docs/THEORY.md`` Theorem 3):

    - **A** — some resource holds no satisfied user, so it can absorb every
      unsatisfied one and the rest is the largest set packable on ``m - 1``
      machines: the greedy maximal-prefix cover.
    - **B** — every resource holds a satisfied user.  Then the satisfied
      users can be taken to be the top ``T`` in threshold order, split into
      ``m`` contiguous segments, each loaded up to its last user's cap; the
      leftovers fit into that slack iff the caps of the segment ends sum to
      at least ``n`` (:func:`_segment_split`).
    """
    n, m = instance.n_users, instance.n_resources
    order = np.argsort(-instance.thresholds, kind="stable")
    caps = np.minimum(np.floor(instance.thresholds[order]), n).astype(np.int64)

    assignment, best = _pack_prefixes(instance, range(m - 1), order)
    cuts = _segment_split(caps.tolist(), m, n)
    if cuts is not None and cuts[-1] > best:
        best = cuts[-1]
        bounds = np.asarray(cuts)
        lengths = np.diff(bounds)
        slack = caps[bounds[1:] - 1] - lengths
        # Leftovers fill the slack resource by resource.
        before = np.cumsum(slack) - slack
        fill = np.clip(n - best - before, 0, slack)
        resources = np.arange(m)
        assignment[order[:best]] = np.repeat(resources, lengths)
        assignment[order[best:]] = np.repeat(resources, fill)
    else:
        assignment[order[best:]] = m - 1  # the spare resource
    state = State(instance, assignment)
    assert state.n_satisfied == best, "OPT_sat witness misses its count"
    return MaxSatisfiedResult(best, True, "segment-split-dp", state)


def max_satisfied(instance: Instance) -> MaxSatisfiedResult:
    """Maximum number of simultaneously satisfiable users (OPT_sat).

    Exact for identical machines with unit weights and complete access:
    OPT_sat is the better of "one resource holds no satisfied user" (a
    greedy cover of ``m - 1`` machines) and "every resource holds one" (a
    segment-split DP), see :func:`_max_satisfied_identical`.

    For heterogeneous profiles the result is a greedy lower bound
    (``exact=False``): pack satisfying groups greedily, then dump leftovers
    on the resource where they break the fewest users.
    """
    _require_exact_model(instance, "max_satisfied")
    if instance.identical_resources:
        return _max_satisfied_identical(instance)
    n, m = instance.n_users, instance.n_resources

    # Greedy heuristic (lower bound): greedy feasible packing of a maximal
    # satisfied set, leftovers dumped where they hurt least.  A complete
    # packing is an exact witness (see greedy_assignment).
    order = np.argsort(-instance.thresholds, kind="stable")
    assignment, start = _pack_prefixes(
        instance, _resource_strength_order(instance), order
    )
    if start == n:
        return MaxSatisfiedResult(n, True, "greedy-feasible", State(instance, assignment))
    # Dump all leftovers on the single resource where the resulting load
    # breaks the fewest packed users (often an empty resource).
    leftovers = order[start:]
    base_loads = np.bincount(assignment[assignment >= 0], minlength=m).astype(np.float64)
    best_r, best_broken = 0, np.inf
    for r in range(m):
        new_load = base_loads[r] + leftovers.size
        lat = instance.latencies[r](new_load)
        members = np.nonzero(assignment == r)[0]
        broken = int(np.count_nonzero(instance.thresholds[members] < lat))
        if broken < best_broken:
            best_r, best_broken = r, broken
    assignment[leftovers] = best_r
    state = State(instance, assignment)
    return MaxSatisfiedResult(int(state.n_satisfied), False, "greedy-dump", state)


# ---------------------------------------------------------------------------
# Slack
# ---------------------------------------------------------------------------


def _tightened(instance: Instance, *, factor: float = 1.0, delta: float = 0.0) -> Instance:
    q = instance.thresholds * factor - delta
    if np.any(q <= 0):
        raise ValueError("tightening makes a threshold non-positive")
    return Instance(
        thresholds=q,
        latencies=instance.latencies,
        weights=instance.weights.copy(),
        access=instance.access,
        name=instance.name,
    )


def multiplicative_slack(instance: Instance, tol: float = 1e-3) -> float:
    """Largest ``eps`` in [0, 1) such that thresholds scaled by ``(1-eps)``
    remain feasible; 0.0 if the instance is tight (or infeasible).

    Requires an exact feasibility method (see :func:`is_feasible`).
    """
    if not is_feasible(instance):
        return 0.0
    lo, hi = 0.0, 1.0  # feasible at lo; infeasible at hi (thresholds -> 0)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        try:
            ok = is_feasible(_tightened(instance, factor=1.0 - mid))
        except ValueError:
            ok = False
        if ok:
            lo = mid
        else:
            hi = mid
    return lo


def additive_slack(instance: Instance, tol: float = 1e-3) -> float:
    """Largest ``delta >= 0`` with thresholds ``q_u - delta`` feasible."""
    if not is_feasible(instance):
        return 0.0
    q_min = float(instance.thresholds.min())
    lo, hi = 0.0, q_min
    while hi - lo > tol:
        mid = (lo + hi) / 2
        try:
            ok = is_feasible(_tightened(instance, delta=mid))
        except ValueError:
            ok = False
        if ok:
            lo = mid
        else:
            hi = mid
    return lo
