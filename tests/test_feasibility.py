"""Feasibility theory: greedy exactness, OPT_sat, slack."""

import numpy as np
import pytest

from repro.core.certify import certify_max_satisfied_witness
from repro.core.feasibility import (
    additive_slack,
    brute_force_assignment,
    greedy_assignment,
    is_feasible,
    is_pointwise_ordered,
    max_satisfied,
    max_satisfied_brute_force,
    multiplicative_slack,
    segment_dp_assignment,
)
from repro.core.instance import AccessMap, Instance
from repro.core.latency import AffineLatency, LatencyProfile
from repro.registry import build_instance

from conftest import random_small_instance


def _partitions_at_most(n, parts, cap):
    """Non-increasing positive integer partitions of ``n`` into <= ``parts``
    parts, each at most ``cap``."""
    if n == 0:
        yield []
        return
    if parts == 0:
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_at_most(n - first, parts - 1, first):
            yield [first] + rest


def _count_satisfied_for_loads(loads_desc, q_desc):
    """Max satisfied users for a fixed load vector, identical machines.

    Eligibility ``q_u >= x`` is nested in the load ``x``, so serving the
    most loaded resources first with the highest-threshold users is optimal.
    """
    total = ptr = 0
    for x in loads_desc:
        take = 0
        while take < x and ptr < q_desc.size and q_desc[ptr] >= x:
            ptr += 1
            take += 1
        total += take
    return total


def opt_sat_by_partitions(instance):
    """OPT_sat oracle on identical machines: every assignment is its sorted
    load partition, so maximise the nested-eligibility count over all
    partitions of ``n`` into at most ``m`` parts."""
    q_desc = np.sort(instance.thresholds)[::-1]
    n, m = instance.n_users, instance.n_resources
    return max(
        _count_satisfied_for_loads(loads, q_desc)
        for loads in _partitions_at_most(n, m, n)
    )


def _random_thresholds(rng, n, m, kind):
    if kind == "integer":
        return rng.integers(1, n + 2, size=n).astype(np.float64)
    if kind == "fractional":
        return rng.uniform(0.5, n + 1.0, size=n)
    # Some users can never be satisfied (q < 1); the rest are tight.
    tight = rng.integers(1, n // m + 3, size=n).astype(np.float64)
    return np.where(rng.random(n) < 0.3, rng.uniform(0.05, 0.99, size=n), tight)


class TestPointwiseOrder:
    def test_identical_and_related_are_ordered(self, small_uniform, related_instance):
        assert is_pointwise_ordered(small_uniform)
        assert is_pointwise_ordered(related_instance)

    def test_crossing_affine_not_ordered(self):
        # slopes/offsets cross: (1x + 0) vs (0.5x + 2) cross at x = 4.
        inst = Instance(
            thresholds=np.full(6, 5.0),
            latencies=LatencyProfile([AffineLatency(1.0), AffineLatency(0.5, 2.0)]),
        )
        assert not is_pointwise_ordered(inst)


class TestGreedyExactness:
    def test_matches_brute_force_on_random_identical_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            inst = random_small_instance(rng)
            greedy = greedy_assignment(inst)
            brute = brute_force_assignment(inst)
            assert greedy.exact
            assert greedy.feasible == brute.feasible, inst.thresholds
            if greedy.feasible:
                assert greedy.state is not None and greedy.state.is_satisfying()

    def test_greedy_success_is_exact_witness_on_related_machines(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            speeds = rng.choice([0.5, 1.0, 2.0], size=m)
            thresholds = rng.integers(1, 7, size=n).astype(np.float64)
            inst = Instance.related_machines(thresholds, speeds)
            greedy = greedy_assignment(inst)
            brute = brute_force_assignment(inst)
            if greedy.feasible:
                assert brute.feasible and greedy.state.is_satisfying()
            elif greedy.exact:
                assert not brute.feasible

    def test_greedy_counterexample_on_related_machines(self):
        # Feasible, but greedy fails and must say so inconclusively.
        inst = Instance.related_machines([3.0, 3.0, 1.0], [2.0, 0.5])
        greedy = greedy_assignment(inst)
        assert not greedy.feasible and not greedy.exact
        assert brute_force_assignment(inst).feasible

    def test_segment_dp_matches_brute_force_on_related_machines(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            speeds = rng.choice([0.5, 1.0, 2.0, 3.0], size=m)
            thresholds = rng.integers(1, 8, size=n).astype(np.float64)
            inst = Instance.related_machines(thresholds, speeds)
            dp = segment_dp_assignment(inst)
            brute = brute_force_assignment(inst)
            assert dp.exact
            assert dp.feasible == brute.feasible, (thresholds, speeds)
            if dp.feasible:
                assert dp.state is not None and dp.state.is_satisfying()

    def test_segment_dp_matches_brute_force_on_mixed_profiles(self):
        from repro.core.latency import MM1Latency, PolynomialLatency

        rng = np.random.default_rng(13)
        pool = [AffineLatency(1.0), AffineLatency(0.5, 2.0), MM1Latency(5.0),
                PolynomialLatency(degree=2)]
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            fns = [pool[int(i)] for i in rng.integers(0, len(pool), size=m)]
            thresholds = rng.integers(1, 9, size=n).astype(np.float64)
            inst = Instance(thresholds=thresholds, latencies=LatencyProfile(fns))
            dp = segment_dp_assignment(inst)
            brute = brute_force_assignment(inst)
            assert dp.feasible == brute.feasible

    def test_segment_dp_state_limit(self):
        inst = Instance.related_machines([2.0] * 10, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            segment_dp_assignment(inst, state_limit=3)

    def test_known_feasible(self):
        inst = Instance.identical_machines([2.0, 2.0, 1.0], 2)
        res = greedy_assignment(inst)
        assert res.feasible and res.state.is_satisfying()

    def test_known_infeasible(self):
        # Three users needing an empty-but-for-them resource, two machines.
        inst = Instance.identical_machines([1.0, 1.0, 1.0], 2)
        res = greedy_assignment(inst)
        assert res.exact and not res.feasible

    def test_requires_unit_weights(self):
        inst = Instance(
            thresholds=np.asarray([2.0, 2.0]),
            latencies=LatencyProfile.identical(2),
            weights=np.asarray([1.0, 2.0]),
        )
        with pytest.raises(NotImplementedError):
            greedy_assignment(inst)

    def test_requires_complete_access(self):
        inst = Instance(
            thresholds=np.asarray([2.0, 2.0]),
            latencies=LatencyProfile.identical(2),
            access=AccessMap([[0], [1]], 2),
        )
        with pytest.raises(NotImplementedError):
            greedy_assignment(inst)


class TestIsFeasible:
    def test_identical(self):
        assert is_feasible(Instance.identical_machines([2.0, 2.0, 2.0, 2.0], 2))
        assert not is_feasible(Instance.identical_machines([1.0] * 3, 2))

    def test_non_ordered_small_falls_back_to_brute_force(self):
        inst = Instance(
            thresholds=np.asarray([2.5, 2.5, 2.5]),
            latencies=LatencyProfile([AffineLatency(1.0), AffineLatency(0.5, 2.0)]),
        )
        # Whatever the answer, it must be authoritative (no exception).
        assert isinstance(is_feasible(inst), bool)


class TestMaxSatisfied:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            inst = random_small_instance(rng, max_n=6, max_m=3, max_q=5)
            exact = max_satisfied(inst)
            brute = max_satisfied_brute_force(inst)
            assert exact.exact
            assert exact.n_satisfied == brute.n_satisfied, inst.thresholds
            assert exact.state is not None
            assert exact.state.n_satisfied == exact.n_satisfied

    def test_feasible_instance_satisfies_all(self, small_uniform):
        res = max_satisfied(small_uniform)
        assert res.n_satisfied == small_uniform.n_users

    def test_overloaded_uniform_formula(self):
        # n > m*q with uniform thresholds: OPT_sat = (m-1)*q.
        m, q = 4, 3
        for n in (13, 15, 20):
            inst = Instance.identical_machines([float(q)] * n, m)
            res = max_satisfied(inst)
            assert res.n_satisfied == (m - 1) * q

    def test_docstring_example(self):
        # thresholds [5,1,1,1,1,1], m=2: OPT is 2 (big user absorbs fillers).
        inst = Instance.identical_machines([5.0, 1, 1, 1, 1, 1], 2)
        res = max_satisfied(inst)
        assert res.exact
        assert res.n_satisfied == 2

    def test_feasible_related_instance_via_greedy_path(self):
        # 3 machines at speed 1 (cap 2 each) + 2 at speed 4 (cap 8 each)
        # hold 22 users at q = 2.
        inst = Instance.related_machines([2.0] * 22, [1.0] * 3 + [4.0] * 2)
        res = max_satisfied(inst)
        assert res.n_satisfied == 22

    @pytest.mark.parametrize("kind", ["integer", "fractional", "below-one"])
    def test_matches_partition_oracle_on_random_instances(self, kind):
        rng = np.random.default_rng({"integer": 31, "fractional": 37, "below-one": 41}[kind])
        for _ in range(250):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 7))
            inst = Instance.identical_machines(_random_thresholds(rng, n, m, kind), m)
            res = max_satisfied(inst)
            assert res.exact and res.method == "segment-split-dp"
            assert res.n_satisfied == opt_sat_by_partitions(inst), (inst.thresholds, m)
            assert res.state.n_satisfied == res.n_satisfied

    def test_partition_oracle_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            inst = random_small_instance(rng, max_n=6, max_m=3, max_q=5)
            brute = max_satisfied_brute_force(inst)
            assert opt_sat_by_partitions(inst) == brute.n_satisfied

    def test_single_resource(self):
        # Everyone shares the one resource at load n: OPT_sat counts q >= n.
        inst = Instance.identical_machines([6.0, 5.5, 5.0, 4.9, 2.0], 1)
        res = max_satisfied(inst)
        assert res.exact and res.n_satisfied == 3 == opt_sat_by_partitions(inst)
        assert certify_max_satisfied_witness(inst, res)[0]

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3), (4, 6)])
    def test_no_more_users_than_resources(self, n, m):
        # A user alone on a resource is satisfied iff q >= 1.
        thresholds = [0.5] + [1.0] * (n - 1)
        inst = Instance.identical_machines(thresholds, m)
        res = max_satisfied(inst)
        assert res.exact and res.n_satisfied == n - 1
        assert res.n_satisfied == opt_sat_by_partitions(inst)
        assert certify_max_satisfied_witness(inst, res)[0]

    @pytest.mark.parametrize(
        "m,q,n",
        [(16, 8, 160), (16, 8, 256), (64, 16, 1280), (64, 16, 2048)],
        ids=["t2-ci-1.25", "t2-ci-2.0", "t2-full-1.25", "t2-full-2.0"],
    )
    def test_t2_instances_exact_with_certified_witness(self, m, q, n):
        inst = build_instance("overloaded", n=n, m=m, q=float(q))
        res = max_satisfied(inst)
        assert res.exact and res.method == "segment-split-dp"
        assert res.n_satisfied == (m - 1) * q
        ok, issues = certify_max_satisfied_witness(inst, res)
        assert ok, issues[:3]

    def test_heuristic_lower_bound_on_infeasible_related(self):
        inst = Instance.related_machines([2.0] * 40, [1.0] * 3 + [2.0] * 2)
        res = max_satisfied(inst)
        assert not res.exact
        assert 0 < res.n_satisfied < 40
        assert res.state is not None
        assert res.state.n_satisfied == res.n_satisfied


class TestSlack:
    def test_multiplicative_slack_uniform(self):
        # q=4, n=8, m=4: can tighten to q'=2 => eps = 0.5.
        inst = Instance.identical_machines([4.0] * 8, 4)
        eps = multiplicative_slack(inst, tol=1e-3)
        assert eps == pytest.approx(0.5, abs=5e-3)

    def test_zero_slack_when_tight(self):
        inst = Instance.identical_machines([2.0] * 8, 4)
        assert multiplicative_slack(inst) == pytest.approx(0.0, abs=5e-3)

    def test_infeasible_slack_is_zero(self):
        inst = Instance.identical_machines([1.0] * 3, 2)
        assert multiplicative_slack(inst) == 0.0
        assert additive_slack(inst) == 0.0

    def test_additive_slack(self):
        # q=4, need q' >= 2: delta just under 2.
        inst = Instance.identical_machines([4.0] * 8, 4)
        delta = additive_slack(inst, tol=1e-3)
        assert delta == pytest.approx(2.0, abs=5e-3)


def test_brute_force_limit():
    inst = Instance.identical_machines([2.0] * 30, 4)
    with pytest.raises(ValueError):
        brute_force_assignment(inst, limit=10)
