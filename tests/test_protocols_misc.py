"""Naive/blind protocols, neighborhood sampling, and rate rules."""

import networkx as nx
import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.protocols.naive import BlindRandomProtocol, NaiveGreedyProtocol
from repro.core.protocols.neighborhood import (
    NeighborhoodSamplingProtocol,
    ResourceGraph,
)
from repro.core.protocols.rates import (
    AdaptiveBackoffRate,
    ConstantRate,
    SlackProportionalRate,
)
from repro.core.state import State
from repro.workloads.topology import ring_graph


class TestNaiveGreedy:
    def test_commits_every_eligible_probe(self, small_uniform, rng):
        state = State.worst_case_pile(small_uniform)
        proto = NaiveGreedyProtocol()
        proto.reset(small_uniform, rng)
        proposal = proto.propose(state, np.ones(12, dtype=bool), rng)
        # every mover that sampled a satisfying non-self target commits;
        # with 3 empty resources of capacity 4 and 12 users, expect many.
        assert proposal.size >= 6


class TestBlindRandom:
    def test_moves_without_checking(self, small_uniform, rng):
        state = State.worst_case_pile(small_uniform)
        proto = BlindRandomProtocol()
        proto.reset(small_uniform, rng)
        proposal = proto.propose(state, np.ones(12, dtype=bool), rng)
        assert proposal.size == 12  # everyone unsatisfied jumps

    def test_satisfied_users_stay(self, small_uniform, rng):
        state = State(small_uniform, np.asarray([0, 1, 2, 3] * 3))
        proto = BlindRandomProtocol()
        assert proto.propose(state, np.ones(12, dtype=bool), rng).size == 0

    def test_jump_probability(self, small_uniform):
        rng = np.random.default_rng(5)
        state = State.worst_case_pile(small_uniform)
        proto = BlindRandomProtocol(jump_p=0.25)
        total = sum(
            proto.propose(state, np.ones(12, dtype=bool), rng).size
            for _ in range(200)
        )
        assert 300 < total < 900  # expectation 600

    def test_never_quiescent(self, trap_state):
        assert BlindRandomProtocol().is_quiescent(trap_state) is None

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            BlindRandomProtocol(jump_p=0.0)


class TestResourceGraph:
    def test_requires_exact_node_set(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            ResourceGraph(g, 4)

    def test_requires_connected(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            ResourceGraph(g, 4)

    def test_sample_neighbor_stays_adjacent(self, rng):
        graph = ring_graph(8)
        starts = rng.integers(0, 8, size=500)
        samples = graph.sample_neighbor(starts, rng)
        for s, t in zip(starts, samples):
            assert t in graph.neighbors_of(int(s))

    def test_neighbors_of(self):
        graph = ring_graph(5)
        assert sorted(graph.neighbors_of(0)) == [1, 4]

    @pytest.mark.parametrize(
        "d", [1, 2, 3, 5, 7, 8, 13, 1000, 2**31 - 1, 3 * 10**9]
    )
    def test_scalar_bound_draw_equals_array_bound_draw(self, d):
        # sample_neighbor on a regular graph relies on NumPy drawing
        # integers(0, d, size=k) exactly like integers(0, [d] * k): same
        # values, same stream consumption.  A NumPy change that breaks
        # this breaks the engines' bit-identity, so fail here first.
        for seed in range(5):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            scalar = a.integers(0, d, size=200_000)
            array = b.integers(0, np.full(200_000, d, dtype=np.int64))
            assert scalar.dtype == array.dtype
            assert np.array_equal(scalar, array)
            assert a.bit_generator.state == b.bit_generator.state

    @staticmethod
    def _array_bound_sample(graph, starts, rng):
        lo = graph.offsets[starts]
        return graph.neighbors[lo + rng.integers(0, np.diff(graph.offsets)[starts])]

    def test_regular_graph_draw_matches_array_bound_formula(self):
        from repro.workloads.topology import TOPOLOGIES

        graph = TOPOLOGIES["random-regular"](40, seed=3)
        assert graph._degree == 4
        starts = np.random.default_rng(1).integers(0, 40, size=5000)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        got = graph.sample_neighbor(starts, a)
        assert np.array_equal(got, self._array_bound_sample(graph, starts, b))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("topology", ["star", "barabasi-albert"])
    def test_irregular_graph_takes_array_bound_path(self, topology):
        from repro.workloads.topology import TOPOLOGIES

        graph = TOPOLOGIES[topology](40, seed=3)
        assert graph._degree is None
        starts = np.random.default_rng(1).integers(0, 40, size=5000)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        got = graph.sample_neighbor(starts, a)
        assert np.array_equal(got, self._array_bound_sample(graph, starts, b))
        assert a.bit_generator.state == b.bit_generator.state


class TestNeighborhoodProtocol:
    def test_targets_are_one_hop(self, rng):
        inst = Instance.identical_machines([3.0] * 12, 6)
        graph = ring_graph(6)
        proto = NeighborhoodSamplingProtocol(graph, rate=ConstantRate(1.0))
        proto.reset(inst, rng)
        state = State.worst_case_pile(inst)
        for _ in range(30):
            proposal = proto.propose(state, np.ones(12, dtype=bool), rng)
            for u, t in zip(proposal.users, proposal.targets):
                own = int(state.assignment[u])
                assert t in graph.neighbors_of(own)
            proto.step(state, np.ones(12, dtype=bool), rng)
            if state.is_satisfying():
                break

    def test_size_mismatch_rejected(self, rng):
        inst = Instance.identical_machines([3.0] * 6, 4)
        proto = NeighborhoodSamplingProtocol(ring_graph(6))
        with pytest.raises(ValueError):
            proto.reset(inst, rng)

    def test_local_quiescence(self, rng):
        # A user stuck behind full neighbours while distant capacity exists.
        inst = Instance.identical_machines([1.0, 2.0, 2.0, 9.0, 9.0], 3)
        graph = ring_graph(3)
        proto = NeighborhoodSamplingProtocol(graph)
        proto.reset(inst, rng)
        # r0 = {q1, q9, q9} (load 3: q1 unsat), r1 = {q2, q2} (load 2),
        # r2 empty.  q1's neighbours on the ring are r1 (2+1=3 > 1) and r2
        # (0+1 = 1 <= 1): improvable -> not quiescent.
        state = State(inst, np.asarray([0, 1, 1, 0, 0]))
        assert proto.is_quiescent(state) is False
        # Fill r2 so the neighbourhood offers nothing.
        inst2 = Instance.identical_machines([1.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0], 3)
        state2 = State(inst2, np.asarray([0, 1, 1, 0, 0, 2, 2]))
        proto2 = NeighborhoodSamplingProtocol(graph)
        proto2.reset(inst2, rng)
        assert proto2.is_quiescent(state2) is True


class TestRates:
    def test_constant_rate_statistics(self, small_uniform):
        rng = np.random.default_rng(0)
        rate = ConstantRate(0.5)
        state = State.worst_case_pile(small_uniform)
        users = np.arange(12)
        targets = np.ones(12, dtype=np.int64)
        total = sum(
            int(rate.commit_mask(state, users, targets, rng).sum())
            for _ in range(500)
        )
        assert 2700 < total < 3300  # expectation 3000

    def test_constant_rate_p1_commits_all(self, small_uniform, rng):
        rate = ConstantRate(1.0)
        state = State.worst_case_pile(small_uniform)
        mask = rate.commit_mask(state, np.arange(12), np.ones(12, dtype=np.int64), rng)
        assert mask.all()

    def test_constant_rate_validation(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)
        with pytest.raises(ValueError):
            ConstantRate(1.5)

    def test_slack_proportional_bounds(self, small_uniform, rng):
        rate = SlackProportionalRate(floor=0.1)
        rate.reset(small_uniform, rng)
        state = State.worst_case_pile(small_uniform)
        users = np.arange(12)
        targets = np.full(12, 1, dtype=np.int64)
        mask = rate.commit_mask(state, users, targets, rng)
        assert mask.dtype == bool and mask.shape == (12,)

    def test_adaptive_backoff_punishes_collisions(self, small_uniform, rng):
        rate = AdaptiveBackoffRate(p0=1.0, backoff=0.5)
        rate.reset(small_uniform, rng)
        state = State.worst_case_pile(small_uniform)
        # Pretend users 0..5 moved and are still unsatisfied (they are: all
        # on r0 with load 12 > 4).
        rate.observe(state, np.arange(6))
        assert np.allclose(rate._p[:6], 0.5)
        assert np.allclose(rate._p[6:], 1.0)
        # Quiet users recover toward 1.
        rate.observe(state, np.arange(0))
        assert np.allclose(rate._p[:6], 1.0)

    def test_adaptive_backoff_floor(self, small_uniform, rng):
        rate = AdaptiveBackoffRate(p0=1.0, backoff=0.01, floor=0.25)
        rate.reset(small_uniform, rng)
        state = State.worst_case_pile(small_uniform)
        rate.observe(state, np.arange(12))
        assert np.all(rate._p >= 0.25)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBackoffRate(backoff=1.5)
        with pytest.raises(ValueError):
            AdaptiveBackoffRate(recover=0.5)
        with pytest.raises(ValueError):
            SlackProportionalRate(floor=0.0)
