"""Synchronous round engine over a complete graph of m nodes.

Communication model:

* broadcast: in every round a correct node sends one payload to every other
  node, so honest traffic is one payload per honest sender; only a faulty
  sender can send different things to different receivers;
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
frame to obtain the physical, global-frame state (once per sender and
message in a round, however many slots carry it) and measures it in each
receiver's frame; that keeps the only stochastic step in one place and makes
the logged wire data independent of how the hidden global frame is oriented.

The engine writes each resolved round down once, as a :class:`Round` of its
step, deliveries and wire payloads; the adversary's view of the previous
round is the last of them, and the estimation oracle and the transcript
export read them all.

Randomness is derived per (trial, round, sender, receiver) from counter-based
Philox streams, so replays are stable: adding adversary draws or reordering
queries can never shift honest randomness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .quantum_link import ChannelParams, QuantumMessage, measure_batch

KING_BROADCAST = "king_broadcast"
DIRECTION_EXCHANGE = "direction_exchange"
FLAG_EXCHANGE = "flag_exchange"
CLASSICAL_ROUND = "classical_round"

QUANTUM_STEPS = (KING_BROADCAST, DIRECTION_EXCHANGE)


class AuthenticationError(Exception):
    """Adversary tried to emit on a slot owned by a correct sender."""


class RoundStep(NamedTuple):
    """One round of a king phase.

    ``senders`` are the nodes that broadcast in it, in ascending order; each
    one's slots run to every other node, receivers ascending.
    """

    kind: str
    phase: int
    king_id: int
    cc_round: Optional[int]
    senders: tuple


class Round(NamedTuple):
    """One resolved round: what every slot of ``step`` carried and delivered.

    ``payloads[slot]`` is the wire payload (a message in sender-local
    coordinates, or a symbol) and ``deliveries[slot]`` what the receiver got
    (a tally, or the symbol); both are None exactly where the slot was absent
    or malformed.
    """

    step: RoundStep
    deliveries: dict
    payloads: dict


@dataclass
class AdversaryView:
    """What the adversary sees before filling the current round's slots.

    ``honest_payloads`` maps each honest sender of the step to the one
    payload it broadcasts.  ``previous`` is the :class:`Round` resolved
    last, or None before the first; its payloads add nothing to what earlier
    rushing views showed.  ``rng`` is the adversary's stream for this round,
    ``substream(*stream)``; it is built on first read, since most rounds
    never draw from it.  ``node_rng`` hands out the per-round stream a node
    would use if it were honest, but only for nodes the adversary controls;
    honest randomness stays private.
    """

    step: RoundStep
    honest_payloads: dict
    previous: Optional[Round]
    stream: tuple
    node_rng: object = None

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        return substream(*self.stream)


def substream(key0: int, key1: int, c1: int, c2: int, c3: int) -> np.random.Generator:
    """Independent Philox stream for one (key, counter-tag) combination."""
    bits = np.random.Philox(
        counter=[0, c1 & 0xFFFFFFFFFFFFFFFF, c2 & 0xFFFFFFFFFFFFFFFF, c3 & 0xFFFFFFFFFFFFFFFF],
        key=[key0 & 0xFFFFFFFFFFFFFFFF, key1 & 0xFFFFFFFFFFFFFFFF],
    )
    return np.random.Generator(bits)


#: What a malformed quantum payload raises on its way through the link.
_MALFORMED = (ValueError, TypeError, OverflowError)


def global_message(msg: QuantumMessage, sender_frame: np.ndarray) -> Optional[QuantumMessage]:
    """``msg`` with its states taken from sender-local to global coordinates.

    Returns None for a payload whose states cannot be rotated.  The rotated
    message is validated where it is measured: a rotation keeps |r| to
    within rounding, far inside BLOCH_TOL, so one check suffices.
    """
    try:
        return QuantumMessage(
            tuple((sender_frame @ np.asarray(state, dtype=np.float64), count) for state, count in msg.segments)
        )
    except _MALFORMED:
        return None


def measure_link(
    global_msg: QuantumMessage,
    receiver_frame: np.ndarray,
    params: ChannelParams,
    rng: np.random.Generator,
):
    """``measure_batch`` on one link; a malformed message gives None."""
    try:
        return measure_batch(global_msg, receiver_frame, params, rng)
    except _MALFORMED:
        return None


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
    faulty sender gains nothing from breaking the format.  One link of what
    :meth:`RoundEngine.run_round` does for a whole round.
    """
    rotated = global_message(msg, sender_frame)
    return None if rotated is None else measure_link(rotated, receiver_frame, params, rng)


@dataclass
class RoundEngine:
    """Executes rounds for one trial; ``transcript`` keeps one :class:`Round` each."""

    m: int
    channel: ChannelParams
    frames: list
    master_seed: int
    trial: int
    transcript: list = field(default_factory=list)
    round_index: int = 0

    # Counter word c1 tags the purpose: 0 for setup draws (the frames, see
    # harness.trial_frames), 1 + round for per-round streams.  c2/c3 carry
    # node or link ids; sender == receiver never occurs on a slot, so
    # (node, node) is free for per-node draws.
    def node_rng(self, node: int) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 1 + self.round_index, node, node)

    def link_rng(self, sender: int, receiver: int) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 1 + self.round_index, sender, receiver)

    def adversary_stream(self) -> tuple:
        """The :func:`substream` arguments of this round's adversary stream."""
        return (self.master_seed, self.trial, 1 + self.round_index, self.m, 0)

    def adversary_rng(self) -> np.random.Generator:
        return substream(*self.adversary_stream())

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

        Slots run sender-major over ``step.senders``, each to every other
        node in ascending order.  ``honest_payloads`` maps every honest
        sender to the one payload it broadcasts; the adversary fills the
        faulty senders' slots one by one after seeing them (missing faulty
        slots count as absent), so it alone can equivocate.  Deliveries are
        MeasurementTally for quantum payloads, int for bits, and None for
        absent or malformed messages.  A classical symbol must be a Python
        ``int`` (not ``bool``); anything else, numpy integers included, is
        delivered as absent.  The resolved round is appended to
        ``transcript`` as one :class:`Round`.
        """
        slots = [(s, r) for s in step.senders for r in range(self.m) if r != s]
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
                previous=self.transcript[-1] if self.transcript else None,
                stream=self.adversary_stream(),
                node_rng=faulty_node_rng,
            )
            faulty_slots = tuple(s for s in slots if s[0] in faulty_set)
            emitted = adversary.emit(view, faulty_slots)
            for slot, payload in emitted.items():
                if slot[0] not in faulty_set:
                    raise AuthenticationError(
                        f"adversary emitted on slot {slot} owned by correct sender"
                    )
                faulty_payloads[slot] = payload

        quantum_step = step.kind in QUANTUM_STEPS
        # (sender, id(payload)) -> the payload in global coordinates, or None:
        # each message is rotated once per round, however many slots carry
        # it.  Keyed by sender too, since faulty senders may share one object.
        rotated = {}
        deliveries = {}
        payloads = {}
        for slot in slots:
            sender, receiver = slot
            if sender in faulty_set:
                payload = faulty_payloads.get(slot)
            else:
                payload = honest_payloads[sender]

            delivery = None
            if quantum_step:
                if isinstance(payload, QuantumMessage):
                    key = (sender, id(payload))
                    if key in rotated:
                        global_msg = rotated[key]
                    else:
                        global_msg = rotated[key] = global_message(payload, self.frames[sender])
                    if global_msg is not None:
                        delivery = measure_link(
                            global_msg,
                            self.frames[receiver],
                            self.channel,
                            self._fast_link_rng(sender, receiver),
                        )
                payloads[slot] = None if delivery is None else payload
            elif isinstance(payload, int) and not isinstance(payload, bool):
                delivery = payload
            deliveries[slot] = delivery
        self.round_index += 1
        # A delivered symbol is its own wire payload.  Not copied: correct
        # nodes absorb these deliveries before the next round shows them to
        # the adversary.
        self.transcript.append(Round(step, deliveries, payloads if quantum_step else deliveries))
        return deliveries
