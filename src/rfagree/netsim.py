"""Synchronous round engine over a complete graph of m nodes.

Communication model:

* public: before the faulty nodes commit their messages for a round, the
  adversary is shown every delivery of the previous round plus every honest
  message of the current round (a rushing adversary, the strongest reading).
  Round by round that covers every delivery before the last, and every
  honest payload was already in an earlier rushing view;
* authenticated: the engine stamps sender identities, so the adversary can
  only fill slots whose sender is in its faulty set; anything else raises
  :class:`AuthenticationError`;
* synchronous: every (sender, receiver) slot of a round is resolved in that
  round, possibly as ``Absent``; receivers substitute protocol-level
  defaults and continue, so no execution can stall.

Quantum payloads travel as Bloch segments in the sender's local coordinates
(the emitting hardware's frame).  At delivery the engine applies the sender
frame to obtain the physical, global-frame state and measures it in the
receiver's frame; that keeps the only stochastic step in one place and makes
the logged wire data independent of how the hidden global frame is oriented.

Randomness is derived per (trial, round, sender, receiver) from counter-based
Philox streams, so replays are stable: adding adversary draws or reordering
queries can never shift honest randomness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .quantum_link import ChannelParams, MeasurementTally, QuantumMessage, measure_batch

KING_BROADCAST = "king_broadcast"
DIRECTION_EXCHANGE = "direction_exchange"
FLAG_EXCHANGE = "flag_exchange"
CLASSICAL_ROUND = "classical_round"

QUANTUM_STEPS = (KING_BROADCAST, DIRECTION_EXCHANGE)


class AuthenticationError(Exception):
    """Adversary tried to emit on a slot owned by a correct sender."""


class RoundStep(NamedTuple):
    kind: str
    phase: int
    king_id: int
    cc_round: Optional[int]
    slots: tuple


class TranscriptEntry(NamedTuple):
    round_index: int
    phase: int
    step: str
    cc_round: Optional[int]
    sender: int
    receiver: int
    kind: str  # "quantum" | "bit" | "absent"
    payload: object  # QuantumMessage (sender-local coords) | int | None
    tally: Optional[MeasurementTally]


@dataclass
class AdversaryView:
    """What the adversary sees before filling the current round's slots.

    ``previous`` is ``(step, deliveries)`` of the last resolved round, or
    None before the first.  ``node_rng`` hands out the per-round stream a
    node would use if it were honest, but only for nodes the adversary
    controls; honest randomness stays private.
    """

    step: RoundStep
    honest_payloads: dict
    previous: Optional[tuple]
    rng: np.random.Generator
    node_rng: object = None


def broadcast_slots(m: int, sender: int) -> tuple:
    return tuple((sender, r) for r in range(m) if r != sender)


def exchange_slots(m: int) -> tuple:
    return tuple((s, r) for s in range(m) for r in range(m) if r != s)


def substream(key0: int, key1: int, c1: int, c2: int, c3: int) -> np.random.Generator:
    """Independent Philox stream for one (key, counter-tag) combination."""
    bits = np.random.Philox(
        counter=[0, c1 & 0xFFFFFFFFFFFFFFFF, c2 & 0xFFFFFFFFFFFFFFFF, c3 & 0xFFFFFFFFFFFFFFFF],
        key=[key0 & 0xFFFFFFFFFFFFFFFF, key1 & 0xFFFFFFFFFFFFFFFF],
    )
    return np.random.Generator(bits)


def deliver_quantum(
    msg: QuantumMessage,
    sender_frame: np.ndarray,
    receiver_frame: np.ndarray,
    params: ChannelParams,
    rng: np.random.Generator,
):
    """Physically deliver a quantum message; returns a tally or None.

    The wire payload is in sender-local coordinates; malformed payloads
    (bad counts, over-long Bloch vectors) degrade to an absent message, so a
    faulty sender gains nothing from breaking the format.
    """
    try:
        msg.validate(params.n)
    except (ValueError, TypeError, OverflowError):
        return None
    global_msg = QuantumMessage(
        tuple((sender_frame @ np.asarray(state, dtype=np.float64), count) for state, count in msg.segments)
    )
    return measure_batch(global_msg, receiver_frame, params, rng)


@dataclass
class RoundEngine:
    """Executes rounds for one trial and accumulates the transcript."""

    m: int
    channel: ChannelParams
    frames: list
    master_seed: int
    trial: int
    transcript: list = field(default_factory=list)
    round_index: int = 0
    previous: Optional[tuple] = field(default=None, init=False)

    # Counter word c1 tags the purpose: 0 for setup draws, 1 + round for
    # per-round streams.  c2/c3 carry node or link ids; sender == receiver
    # never occurs on a slot, so (node, node) is free for per-node draws.
    def setup_rng(self, node: int) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 0, node, 0)

    def node_rng(self, node: int) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 1 + self.round_index, node, node)

    def link_rng(self, sender: int, receiver: int) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 1 + self.round_index, sender, receiver)

    def adversary_rng(self) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 1 + self.round_index, self.m, 0)

    def _fast_link_rng(self, sender: int, receiver: int) -> np.random.Generator:
        """Same stream as :meth:`link_rng` without per-call construction.

        Resets the counter of one cached Philox instance, which is an order
        of magnitude cheaper; only for engine-internal draws that are fully
        consumed before the next reset.
        """
        cached = getattr(self, "_fast", None)
        if cached is None:
            bits = np.random.Philox(key=[0, 0])
            cached = (bits, np.random.Generator(bits), bits.state)
            self._fast = cached
        bits, gen, state = cached
        inner = state["state"]
        inner["counter"][:] = (0, 1 + self.round_index, sender, receiver)
        inner["key"][:] = (
            self.master_seed & 0xFFFFFFFFFFFFFFFF,
            self.trial & 0xFFFFFFFFFFFFFFFF,
        )
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bits.state = state
        return gen

    def run_round(self, step: RoundStep, honest_payloads: dict, faulty_set, adversary) -> dict:
        """Resolve every slot of ``step``; returns {(sender, receiver): delivery}.

        Deliveries are MeasurementTally for quantum payloads, int for bits,
        and None for absent or malformed messages.  A classical symbol must
        be a Python ``int`` (not ``bool``); anything else, numpy integers
        included, is delivered as absent.  Honest payloads must cover
        exactly the honest slots; the adversary fills the rest after seeing
        them (missing faulty slots count as absent).
        """
        faulty_payloads = {}
        if faulty_set:

            def faulty_node_rng(node):
                if node not in faulty_set:
                    raise AuthenticationError(f"node {node} is not under adversary control")
                return self.node_rng(node)

            # Shallow copy: the rushing view must not let a strategy swap
            # out honest envelopes (payload objects are immutable by
            # convention).
            view = AdversaryView(
                step=step,
                honest_payloads=dict(honest_payloads),
                previous=self.previous,
                rng=self.adversary_rng(),
                node_rng=faulty_node_rng,
            )
            faulty_slots = tuple(s for s in step.slots if s[0] in faulty_set)
            emitted = adversary.emit(view, faulty_slots)
            for slot, payload in emitted.items():
                if slot[0] not in faulty_set:
                    raise AuthenticationError(
                        f"adversary emitted on slot {slot} owned by correct sender"
                    )
                faulty_payloads[slot] = payload

        quantum_step = step.kind in QUANTUM_STEPS
        deliveries = {}
        for slot in step.slots:
            sender, receiver = slot
            if sender in faulty_set:
                payload = faulty_payloads.get(slot)
            else:
                payload = honest_payloads[slot]

            tally = None
            if quantum_step and isinstance(payload, QuantumMessage):
                tally = deliver_quantum(
                    payload,
                    self.frames[sender],
                    self.frames[receiver],
                    self.channel,
                    self._fast_link_rng(sender, receiver),
                )
                if tally is None:
                    payload = None  # malformed: degrade to absent
                kind = "quantum" if tally is not None else "absent"
                deliveries[slot] = tally
            elif not quantum_step and isinstance(payload, int) and not isinstance(payload, bool):
                kind = "bit"
                deliveries[slot] = payload
            else:
                kind = "absent"
                payload = None
                deliveries[slot] = None

            self.transcript.append(
                TranscriptEntry(
                    round_index=self.round_index,
                    phase=step.phase,
                    step=step.kind,
                    cc_round=step.cc_round,
                    sender=sender,
                    receiver=receiver,
                    kind=kind,
                    payload=payload,
                    tally=tally,
                )
            )
        self.round_index += 1
        # Not copied: correct nodes absorb these deliveries before the next
        # round shows them to the adversary.
        self.previous = (step, deliveries)
        return deliveries
