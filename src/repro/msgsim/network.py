"""Event-driven asynchronous message network.

A tiny discrete-event simulator: agents exchange messages over channels
with configurable random delays; delivery order between different channel
instances is therefore arbitrary (within the delay distribution), which is
exactly the asynchrony the protocol must tolerate.

Determinism: given the same agents, delay model and seed, execution is
bit-for-bit reproducible — ties in delivery time are broken by a global
sequence number.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Protocol as TypingProtocol

import numpy as np

from ..obs import HUB as _OBS
from ..sim.rng import make_rng
from .messages import Message

__all__ = [
    "Agent",
    "DelayModel",
    "ConstantDelay",
    "ExponentialDelay",
    "Network",
    "MOVE_MESSAGES",
]

#: Message type names whose in-flight copies make resource load views
#: transiently inconsistent with user positions (tracked per copy).
MOVE_MESSAGES = ("Join", "Leave", "AdmitJoin", "AdmitLeave")


class Agent(TypingProtocol):
    """Anything that can receive messages on the network."""

    agent_id: str

    def handle(self, msg: Message, network: "Network") -> None:  # pragma: no cover
        ...


class DelayModel:
    """Produces per-message channel delays."""

    def sample(self, rng: np.random.Generator) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units (lockstep-like)."""

    delay: float = 0.01

    def sample(self, rng):
        return self.delay


@dataclass(frozen=True)
class ExponentialDelay(DelayModel):
    """Memoryless delays with the given mean — the adversarial-ish default."""

    mean: float = 0.05
    floor: float = 1e-4

    def sample(self, rng):
        return self.floor + float(rng.exponential(self.mean))


class Network:
    """The event queue plus delivery bookkeeping.

    ``lossy`` is the contract between the transport and the protocol
    agents: ``False`` (this class) promises exactly-once in-order-per-time
    delivery to live agents, so agents run the lean fire-and-forget
    protocol; ``True`` (see
    :class:`~repro.msgsim.faults.UnreliableNetwork`) warns agents that
    messages may be dropped, duplicated, delayed or lost to crashes, and
    they respond by enabling acknowledgements, retransmission and
    watchdogs.
    """

    #: Reliable transport: agents may skip acks/retransmission machinery.
    lossy: bool = False

    def __init__(self, *, delay_model: DelayModel | None = None, seed: int | np.random.Generator = 0):
        self.rng = make_rng(seed)
        self.delay_model = delay_model or ExponentialDelay()
        self.agents: dict[str, Agent] = {}
        self.now: float = 0.0
        # (time, seq, dst, msg) heap entries: ``seq`` is unique, so tuple
        # comparison breaks time ties by send order and never reaches dst.
        self._queue: list[tuple[float, int, str, Message]] = []
        self._seq = itertools.count()
        #: message counts by type name (Tick excluded: it is a timer).
        self.message_counts: dict[str, int] = {}
        #: Join/Leave messages still in flight — while positive, resource
        #: load views are transiently inconsistent with user positions.
        self.in_flight_moves: int = 0

    def register(self, agent: Agent) -> None:
        if agent.agent_id in self.agents:
            raise ValueError(f"duplicate agent id {agent.agent_id!r}")
        self.agents[agent.agent_id] = agent

    # -- sending -----------------------------------------------------------------

    def send(self, dst: str, msg: Message) -> None:
        """Send over a channel with a sampled delay."""
        if dst not in self.agents:
            raise KeyError(f"unknown agent {dst!r}")
        self._record_send(msg)
        self._enqueue(dst, msg)

    def _record_send(self, msg: Message) -> None:
        """Count a send attempt (protocol cost, whether or not delivered)."""
        name = type(msg).__name__
        self.message_counts[name] = self.message_counts.get(name, 0) + 1

    def _enqueue(self, dst: str, msg: Message, delay: float | None = None) -> None:
        """Put one copy on the wire (per-copy in-flight bookkeeping)."""
        if delay is None:
            delay = self.delay_model.sample(self.rng)
        self._push(self.now + delay, dst, msg)
        if type(msg).__name__ in MOVE_MESSAGES:
            self.in_flight_moves += 1

    def schedule_timer(self, dst: str, delay: float, msg: Message) -> None:
        """Self-timer: delivered after ``delay``, not counted as a message."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._push(self.now + delay, dst, msg)

    def _push(self, time: float, dst: str, msg: Message) -> None:
        heapq.heappush(self._queue, (time, next(self._seq), dst, msg))

    # -- running -----------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.message_counts.values())

    def step(self) -> bool:
        """Deliver the next event; False when the queue is empty."""
        if not self._queue:
            return False
        time, _, dst, msg = heapq.heappop(self._queue)
        self.now = time
        if type(msg).__name__ in MOVE_MESSAGES:
            self.in_flight_moves -= 1
        if self._deliverable(dst, msg):
            self.agents[dst].handle(msg, self)
        return True

    def _deliverable(self, dst: str, msg: Message) -> bool:
        """Delivery-side fault hook; the reliable network delivers all."""
        return True

    def run(
        self,
        *,
        max_time: float = float("inf"),
        max_events: int = 10_000_000,
        stop_condition: Callable[["Network"], bool] | None = None,
        check_every: int = 64,
    ) -> str:
        """Process events until stop; returns the stop reason.

        ``stop_condition`` is an *observer* (measurement oracle) evaluated
        every ``check_every`` events — it may read global state for
        experiment accounting, but agents never can.

        Telemetry: the whole delivery loop runs under one
        ``msgsim.deliver`` span; per-event hub calls would dominate the
        loop, so delivered-event totals are accumulated locally and pushed
        as counters once at exit.
        """
        reason = "max_events"
        delivered = 0
        with _OBS.span("msgsim.deliver"):
            for count in range(1, max_events + 1):
                if self._queue and self._queue[0][0] > max_time:
                    reason = "max_time"
                    break
                if not self.step():
                    reason = "drained"
                    break
                delivered = count
                if stop_condition is not None and count % check_every == 0:
                    if stop_condition(self):
                        reason = "stopped"
                        break
        if _OBS.active:
            _OBS.count("msgsim.events_delivered", delivered)
            _OBS.gauge("msgsim.clock", self.now)
        return reason
