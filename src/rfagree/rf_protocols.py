"""Byzantine-tolerant agreement on a direction, built in four layers.

Each of t+1 phases is led by a rotating king (node ids 0..t), so at least
one phase has a correct king.  Within a phase:

1. the king picks a direction and sends it to everyone over the quantum
   estimation link; node i's estimate w_i is its phase input;
2. weak consensus: each node sends w_i to all others, keeps the set S_i of
   peers whose estimate landed within 3*delta of its own, and outputs w_i if
   |S_i| >= m - t, otherwise bottom;
3. graded consensus: nodes exchange flags (did weak consensus produce a
   direction?), cluster the flagged estimates with a 10*delta radius, adopt
   the largest cluster's direction if their own weak output was bottom, and
   grade 1 exactly when that cluster has at least m - t members;
4. the grades are fed to classical bit consensus; on a 1 decision everyone
   outputs its graded direction, on 0 everyone outputs bottom.

A node records the first non-bottom phase output as its final answer and
keeps participating normally in the remaining phases (each phase starts
afresh from the new king's broadcast), which keeps later phases well formed.
Since the accept/reject bit comes out of classical consensus, all correct
nodes accept in the same phase.

Every threshold is a multiple of the per-link estimation accuracy; with
channel noise epsilon the effective accuracy (1-eps)*delta + 5*eps/2 is
substituted throughout, since the stack only ever relies on "the link
returns a delta-approximation".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from .classical_consensus import KING_ROUND, PhaseKingNode, coerce_bit, rounds_for
from .geometry import distance, random_direction
from .netsim import (
    CLASSICAL_ROUND,
    DIRECTION_EXCHANGE,
    FLAG_EXCHANGE,
    KING_BROADCAST,
    QUANTUM_STEPS,
    RoundEngine,
    RoundStep,
)
from .quantum_link import ChannelParams, QuantumMessage, received_direction, ted_accuracy_bound


@dataclass(frozen=True)
class ProtocolParams:
    """Network size, fault bound, per-link accuracy, and channel settings."""

    m: int
    t: int
    delta: float
    channel: ChannelParams

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 nodes, got m={self.m}")
        if self.t < 0 or 3 * self.t >= self.m:
            raise ValueError(f"fault bound must satisfy t < m/3, got m={self.m}, t={self.t}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")

    @property
    def delta_eff(self) -> float:
        """Per-link accuracy after channel noise; all thresholds scale from it."""
        return ted_accuracy_bound(self.delta, self.channel.epsilon)


def weak_consensus(w, estimates, m: int, t: int, delta: float) -> Optional[Sequence[float]]:
    """Keep w if at least m - t estimates (self included) are 3*delta-close."""
    close = 0
    for j in range(m):
        if distance(w, estimates[j]) <= 3.0 * delta:
            close += 1
    return w if close >= m - t else None


def graded_consensus(
    w, estimates, flags, own_flag: int, m: int, t: int, delta: float
) -> tuple[Sequence[float], int]:
    """Cluster flagged estimates; returns (direction, grade).

    For every flagged j, T[j] counts flagged nodes within 10*delta of j's
    estimate.  The largest cluster (lowest id on ties) elects the fallback
    direction for nodes whose own weak output was bottom; grade is 1 iff the
    winning cluster reaches m - t members.  With no flags at all there is
    nothing to adopt: keep the own direction with grade 0, which is safe
    because graded consistency only constrains runs where some correct node
    grades 1.

    Each unordered pair's distance is computed once and every count starts
    at 1 for j itself; both are exact, since ``distance`` is symmetric bit
    for bit and ``distance(x, x) == 0``.
    """
    flagged = [j for j in range(m) if flags[j] == 1]
    if not flagged:
        return w, 0
    vecs = [estimates[j] for j in flagged]
    sizes = [1] * len(flagged)
    radius = 10.0 * delta
    for a in range(len(flagged)):
        for b in range(a + 1, len(flagged)):
            if distance(vecs[a], vecs[b]) <= radius:
                sizes[a] += 1
                sizes[b] += 1
    best = sizes.index(max(sizes))  # the first, so the lowest id, on ties
    best_size = sizes[best]
    v = w if own_flag == 1 else vecs[best]
    g = 1 if best_size >= m - t else 0
    return v, g


class HonestNode:
    """Per-phase protocol state of one correct node, all in local coordinates.

    The node never sees its own frame: frame application is the channel's
    physics, handled by the engine.  a[self] is the node's own direction
    (no quantum link to oneself), and missing receptions become the local
    +z sentinel, which lands far from honest clusters almost surely.
    """

    def __init__(self, node_id: int, params: ProtocolParams):
        self.node_id = node_id
        self.params = params
        self.w = None
        self.flag = 0
        self.a = None
        self.v = None
        self.g = 0
        self.y = None
        self._cc = None

    def begin_phase(self, king_id: int, king_rng) -> None:
        self.w = random_direction(king_rng).tolist() if self.node_id == king_id else None
        self.flag = 0
        self.a = None
        self.v = None
        self.g = 0
        self.y = None
        self._cc = None

    def payload(self, step: RoundStep):
        """What this node broadcasts in ``step``."""
        if step.kind in QUANTUM_STEPS:
            return QuantumMessage.uniform(self.w, self.params.channel.n)
        if step.kind == FLAG_EXCHANGE:
            return self.flag
        return self._cc.payload(step.cc_round)

    def receive_king(self, delivery) -> None:
        self.w = received_direction(delivery)

    def receive_directions(self, inbox) -> None:
        """inbox: sender -> tally or None, for every other node."""
        p = self.params
        a = {self.node_id: self.w}
        for j, delivery in inbox.items():
            a[j] = received_direction(delivery)
        self.a = a
        self.flag = 0 if weak_consensus(self.w, a, p.m, p.t, p.delta_eff) is None else 1

    def receive_flags(self, inbox) -> None:
        p = self.params
        flags = {self.node_id: self.flag}
        for j, delivery in inbox.items():
            flags[j] = coerce_bit(delivery)
        self.v, self.g = graded_consensus(
            self.w, self.a, flags, self.flag, p.m, p.t, p.delta_eff
        )
        self._cc = PhaseKingNode(self.node_id, p.m, p.t, self.g)

    def cc_absorb(self, r: int, zeros: int, ones: int) -> None:
        self._cc.absorb(r, zeros, ones)

    def finish_phase(self):
        """Classical decision: output the graded direction on 1, bottom on 0."""
        self.y = self._cc.output()
        return self.v if self.y == 1 else None


@dataclass
class PhaseResult:
    """Everything one king phase produced, for correct nodes only."""

    phase: int
    king_id: int
    king_honest: bool
    king_direction: Optional[list]  # king-local coordinates
    inputs: dict
    values: dict
    grades: dict
    decisions: dict
    outputs: dict


@dataclass
class TrialResult:
    params: ProtocolParams
    frames: list
    faulty_ids: tuple
    phases: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    accept_phase: dict = field(default_factory=dict)
    transcript: list = field(default_factory=list)  # netsim.Round per round


def phase_steps(m: int, t: int, phase: int, king_id: int):
    """The rounds of one king phase, in order."""
    everyone = tuple(range(m))
    yield RoundStep(KING_BROADCAST, phase, king_id, None, (king_id,))
    yield RoundStep(DIRECTION_EXCHANGE, phase, king_id, None, everyone)
    yield RoundStep(FLAG_EXCHANGE, phase, king_id, None, everyone)
    for r in range(rounds_for(t)):
        # In a king round only the classical king (node r // 3) speaks.
        senders = (r // 3,) if r % 3 == KING_ROUND else everyone
        yield RoundStep(CLASSICAL_ROUND, phase, king_id, r, senders)


def start_phase(nodes: dict, king_id: int, node_rng) -> None:
    """Reset ``nodes`` for a new phase; the king draws from ``node_rng(king_id)``."""
    for i, node in nodes.items():
        node.begin_phase(king_id, node_rng(i) if i == king_id else None)


def node_payloads(step: RoundStep, nodes: dict) -> dict:
    """{sender: payload} for every sender of ``step`` among ``nodes``."""
    return {i: nodes[i].payload(step) for i in step.senders if i in nodes}


def absorb_round(step: RoundStep, nodes: dict, deliveries, m: int) -> None:
    """Hand each of ``nodes`` its inbox from the deliveries of ``step``.

    ``deliveries``, the step's :class:`~rfagree.netsim.PerSender`, is counted
    per sender in a classical round and read per receiver (inbox) in any other.
    """
    if step.kind == KING_BROADCAST:
        king = step.king_id
        for i, node in nodes.items():
            if i != king:
                node.receive_king(deliveries.inbox(i)[king])
    elif step.kind == CLASSICAL_ROUND:
        # Phase king decides by symbol counts: per receiver, the 0s and 1s
        # delivered to it (absent and malformed symbols count as neither).
        # A broadcast symbol, a correct or a faulty sender's, is counted
        # once for every node and taken back from its own sender; a slot
        # of an equivocating sender counts for its receiver alone.
        broadcast = deliveries.broadcast
        both = [0, 0]
        for symbol in broadcast.values():
            if symbol == 0 or symbol == 1:
                both[symbol] += 1
        zeros = [both[0]] * m
        ones = [both[1]] * m
        for sender, symbols in deliveries.per_slot.items():
            for (_, receiver), symbol in zip(deliveries.slots[sender], symbols):
                if symbol == 1:
                    ones[receiver] += 1
                elif symbol == 0:
                    zeros[receiver] += 1
        for i, node in nodes.items():
            own = broadcast.get(i)
            node.cc_absorb(step.cc_round, zeros[i] - (own == 0), ones[i] - (own == 1))
    elif step.kind == DIRECTION_EXCHANGE:
        for i, node in nodes.items():
            node.receive_directions(deliveries.inbox(i))
    else:
        for i, node in nodes.items():
            node.receive_flags(deliveries.inbox(i))


def run_king_phase(
    engine: RoundEngine,
    params: ProtocolParams,
    nodes: dict,
    faulty_set,
    adversary,
    king_id: int,
    phase: int,
) -> PhaseResult:
    """One complete king phase driven over the round engine."""
    start_phase(nodes, king_id, engine.node_rng)
    for step in phase_steps(params.m, params.t, phase, king_id):
        deliveries = engine.run_round(step, node_payloads(step, nodes), faulty_set, adversary)
        absorb_round(step, nodes, deliveries, params.m)

    outputs = {i: node.finish_phase() for i, node in nodes.items()}
    king_honest = king_id in nodes
    return PhaseResult(
        phase=phase,
        king_id=king_id,
        king_honest=king_honest,
        king_direction=nodes[king_id].w if king_honest else None,
        inputs={i: node.w for i, node in nodes.items()},
        values={i: node.v for i, node in nodes.items()},
        grades={i: node.g for i, node in nodes.items()},
        decisions={i: node.y for i, node in nodes.items()},
        outputs=outputs,
    )


def run_rf_consensus(
    params: ProtocolParams,
    frames: list,
    faulty_ids,
    adversary,
    master_seed: int,
    trial: int = 0,
) -> TrialResult:
    """Full run: t+1 king phases, kings are node ids 0..t.

    Each correct node's recorded output is frozen at its first accepting
    phase; later phases still run in full.
    """
    faulty_set = frozenset(faulty_ids)
    if len(faulty_set) > params.t:
        raise ValueError(f"{len(faulty_set)} faulty nodes exceeds bound t={params.t}")
    engine = RoundEngine(
        m=params.m,
        channel=params.channel,
        frames=frames,
        master_seed=master_seed,
        trial=trial,
    )
    nodes = {i: HonestNode(i, params) for i in range(params.m) if i not in faulty_set}
    result = TrialResult(
        params=params,
        frames=frames,
        faulty_ids=tuple(sorted(faulty_set)),
        outputs={i: None for i in nodes},
        accept_phase={i: None for i in nodes},
    )
    for k in range(params.t + 1):
        phase_result = run_king_phase(engine, params, nodes, faulty_set, adversary, k, k)
        result.phases.append(phase_result)
        for i in nodes:
            if result.outputs[i] is None and phase_result.outputs[i] is not None:
                result.outputs[i] = phase_result.outputs[i]
                result.accept_phase[i] = k
    result.transcript = engine.transcript
    return result
