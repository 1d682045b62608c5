"""Engine-throughput micro-benches under ``pytest-benchmark``.

Each measures one vectorized operation: one synchronous round at 100k
users, and the satisfaction query at 1M users, cached vs uncached.
"""

import numpy as np

from repro.core.protocols import QoSSamplingProtocol
from repro.core.state import State, caching_disabled
from repro.workloads.generators import uniform_slack


def bench_engine_round_100k_users(benchmark):
    inst = uniform_slack(100_000, 3125, slack=0.25)
    rng = np.random.default_rng(0)
    protocol = QoSSamplingProtocol()
    protocol.reset(inst, rng)
    base = State.worst_case_pile(inst)
    active = np.ones(inst.n_users, dtype=bool)

    def one_round():
        state = base.copy()
        protocol.step(state, active, rng)
        return state

    state = benchmark(one_round)
    assert state.n_satisfied > 0


def bench_satisfaction_query_1m_users(benchmark):
    inst = uniform_slack(1_000_000, 31_250, slack=0.25)
    rng = np.random.default_rng(0)
    state = State.uniform_random(inst, rng)

    result = benchmark(state.satisfied_mask)
    assert result.shape == (1_000_000,)


def bench_satisfaction_query_1m_users_uncached(benchmark):
    """The uncached reference: what every call cost before memoization."""
    inst = uniform_slack(1_000_000, 31_250, slack=0.25)
    rng = np.random.default_rng(0)
    state = State.uniform_random(inst, rng)

    with caching_disabled():
        result = benchmark(state.satisfied_mask)
    assert result.shape == (1_000_000,)
