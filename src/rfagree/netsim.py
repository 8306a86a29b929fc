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
(the emitting hardware's frame).  At delivery the engine takes them through
:func:`~rfagree.quantum_link.link_cells`, which applies the sender frame to
obtain the physical, global-frame state, checks it and applies the channel
noise in one pass (once per sender and message in a round, however many
slots carry it), then measures it in each receiver's frame; that keeps the
only stochastic step in one place and makes the logged wire data
independent of how the hidden global frame is oriented.

The engine writes each resolved round down once, as a :class:`Round` of its
step, deliveries and wire payloads; the adversary's view of the previous
round is the last of them, and the estimation oracle and the transcript
export read them all.  A quantum round keeps one tally per link.  A
classical round is kept per sender (:class:`ClassicalDeliveries`): an honest
sender's symbol once, checked once, and only faulty senders' symbols per
slot; phase king counts it that way (``rf_protocols.absorb_round``), and the
per-slot view the transcript export reads is derived from it in one place.

Randomness is derived per (trial, round, sender, receiver) from counter-based
Philox streams, so replays are stable: adding adversary draws or reordering
queries can never shift honest randomness.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .quantum_link import ChannelParams, QuantumMessage, frame_axes, link_cells, measure_batch

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


class ClassicalDeliveries(Mapping):
    """A classical round's deliveries, held per sender; read as {slot: symbol}.

    ``honest`` maps each correct sender of the round to the one symbol all
    of its receivers got, and ``faulty`` maps each faulty sender to the list
    of what its slots delivered, in ``slots[sender]`` order (every other
    node, ascending); a symbol is None where it was absent or malformed.
    As a mapping it is the per-slot view, the one derivation of it: slots
    run sender-major over ``senders``, as in a quantum round's dict.
    """

    __slots__ = ("senders", "slots", "honest", "faulty")

    def __init__(self, senders: tuple, slots: list, honest: dict, faulty: dict):
        self.senders = senders
        self.slots = slots
        self.honest = honest
        self.faulty = faulty

    def __getitem__(self, slot):
        sender, receiver = slot
        if receiver != sender and receiver in range(len(self.slots)):
            if sender in self.honest:
                return self.honest[sender]
            if sender in self.faulty:
                # Slot k of a sender goes to node k, or k + 1 past the sender.
                return self.faulty[sender][receiver - (receiver > sender)]
        raise KeyError(slot)

    def __iter__(self):
        for sender in self.senders:
            yield from self.slots[sender]

    def __len__(self):
        return len(self.senders) * (len(self.slots) - 1)

    def values(self) -> list:
        """Every slot's symbol in slot order, as a new list."""
        honest, faulty = self.honest, self.faulty
        width = len(self.slots) - 1
        out = []
        for sender in self.senders:
            out += [honest[sender]] * width if sender in honest else faulty[sender]
        return out

    def inbox(self, receiver: int) -> dict:
        """{sender: symbol} of every slot to ``receiver``."""
        honest, faulty = self.honest, self.faulty
        return {
            s: honest[s] if s in honest else faulty[s][receiver - (receiver > s)]
            for s in self.senders
            if s != receiver
        }


class Round(NamedTuple):
    """One resolved round: what every slot of ``step`` carried and delivered.

    ``payloads[slot]`` is the wire payload (a message in sender-local
    coordinates, or a symbol) and ``deliveries[slot]`` what the receiver got
    (a tally, or the symbol); both are None exactly where the slot was absent
    or malformed.  A quantum round keeps both as dicts, one entry per slot.
    A classical round keeps one :class:`ClassicalDeliveries` as both, since
    a delivered symbol is its own wire payload: it holds an honest sender's
    symbol once, and per slot only what faulty senders sent.
    """

    step: RoundStep
    deliveries: Mapping
    payloads: Mapping


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


_MASK64 = 0xFFFFFFFFFFFFFFFF


def substream(key0: int, key1: int, c1: int, c2: int, c3: int) -> np.random.Generator:
    """Independent Philox stream for one (key, counter-tag) combination."""
    bits = np.random.Philox(
        counter=[0, c1 & _MASK64, c2 & _MASK64, c3 & _MASK64],
        key=[key0 & _MASK64, key1 & _MASK64],
    )
    return np.random.Generator(bits)


#: What a malformed quantum payload raises on its way through the link.
_MALFORMED = (ValueError, TypeError, OverflowError)


def prepare_message(msg: QuantumMessage, sender_frame: np.ndarray, params: ChannelParams):
    """The :func:`link_cells` of ``msg`` sent from ``sender_frame``, or None.

    Everything a delivery does that depends on the message alone: rotation
    to global coordinates, the format check and channel noise.  A malformed
    payload gives None.
    """
    try:
        return link_cells(msg, sender_frame, params)
    except _MALFORMED:
        return None


def _symbol(payload):
    """``payload`` as a delivered classical symbol: a Python ``int``, not a ``bool``; else None."""
    return payload if isinstance(payload, int) and not isinstance(payload, bool) else None


@dataclass
class RoundEngine:
    """Executes rounds for one trial; ``transcript`` keeps one :class:`Round` each.

    ``frames`` is taken once as one C-ordered float64 array of shape
    (m, 3, 3): ``@`` picks its BLAS kernel by memory layout, so the layout
    of the caller's frames would otherwise reach the last bits of every
    rotation.
    """

    m: int
    channel: ChannelParams
    frames: np.ndarray
    master_seed: int
    trial: int
    transcript: list = field(default_factory=list)
    round_index: int = 0

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        # Per receiver: its axes for measure_batch; per sender: its slots.
        self._axes = [frame_axes(frame) for frame in self.frames]
        self._slots = [tuple((s, r) for r in range(self.m) if r != s) for s in range(self.m)]
        # The link rewind's state dict holds plain lists, which the Philox
        # state setter indexes several times faster than the arrays that
        # ``state`` returns.  The key is read back from a Philox keyed as
        # substream keys it, so it is the same words.  The buffer is empty
        # (``buffer_pos`` 4), so its words are never read.
        bits = np.random.Philox(key=[self.master_seed & _MASK64, self.trial & _MASK64])
        state = bits.state
        state["state"] = {"counter": [0, 0, 0, 0], "key": state["state"]["key"].tolist()}
        state["buffer"] = [0, 0, 0, 0]
        self._link_philox = (bits, np.random.Generator(bits), state)

    # Counter word c1 tags the purpose: 0 for setup draws (the frames, see
    # harness.trial_frames), 1 + round for per-round streams.  c2/c3 carry
    # node or link ids; sender == receiver never occurs on a slot, so
    # (node, node) is free for per-node draws.
    def node_rng(self, node: int) -> np.random.Generator:
        return substream(self.master_seed, self.trial, 1 + self.round_index, node, node)

    def adversary_stream(self) -> tuple:
        """The :func:`substream` arguments of this round's adversary stream."""
        return (self.master_seed, self.trial, 1 + self.round_index, self.m, 0)

    def _fast_link_rng(self, sender: int, receiver: int) -> np.random.Generator:
        """This round's stream for link (sender, receiver), without per-call construction.

        The same stream as ``substream(master_seed, trial, 1 + round_index,
        sender, receiver)``: it rewinds the engine's one Philox instance,
        whose key is the trial's, to the link's counter, which is an order
        of magnitude cheaper; only for engine-internal draws that are fully
        consumed before the next rewind.
        """
        bits, gen, state = self._link_philox
        state["state"]["counter"] = [0, 1 + self.round_index, sender, receiver]
        bits.state = state
        return gen

    def run_round(self, step: RoundStep, honest_payloads: dict, faulty_set, adversary) -> Mapping:
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
        ``transcript`` as one :class:`Round`, whose ``deliveries`` this
        returns: a dict for a quantum round, a :class:`ClassicalDeliveries`
        for a classical one.

        Work that depends on the payload alone runs once per sender and
        payload: an honest symbol is checked and stored once, and a quantum
        message taken through ``link_cells`` once; measurement and its
        draws run per link, and faulty symbols per slot.
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
                previous=self.transcript[-1] if self.transcript else None,
                stream=self.adversary_stream(),
                node_rng=faulty_node_rng,
            )
            faulty_slots = tuple(
                itertools.chain.from_iterable(
                    self._slots[s] for s in step.senders if s in faulty_set
                )
            )
            emitted = adversary.emit(view, faulty_slots)
            for slot, payload in emitted.items():
                if slot[0] not in faulty_set:
                    raise AuthenticationError(
                        f"adversary emitted on slot {slot} owned by correct sender"
                    )
                faulty_payloads[slot] = payload

        deliveries = {}
        if step.kind in QUANTUM_STEPS:
            payloads = {}
            # (sender, id(payload)) -> the payload's link cells, or None:
            # each message is prepared once per round, however many slots
            # carry it.  Keyed by sender too, since faulty senders may share
            # one object.  Nothing is kept on the message: its state arrays
            # may change between rounds.
            prepared = {}
            for sender in step.senders:
                faulty = sender in faulty_set
                for slot in self._slots[sender]:
                    payload = faulty_payloads.get(slot) if faulty else honest_payloads[sender]
                    delivery = None
                    if isinstance(payload, QuantumMessage):
                        key = (sender, id(payload))
                        if key in prepared:
                            cells = prepared[key]
                        else:
                            cells = prepared[key] = prepare_message(
                                payload, self.frames[sender], self.channel
                            )
                        if cells is not None:
                            receiver = slot[1]
                            delivery = measure_batch(
                                cells,
                                self._axes[receiver],
                                self.channel,
                                self._fast_link_rng(sender, receiver),
                            )
                    deliveries[slot] = delivery
                    payloads[slot] = None if delivery is None else payload
        else:
            honest = {}
            faulty = {}
            for sender in step.senders:
                if sender in faulty_set:
                    faulty[sender] = [
                        _symbol(faulty_payloads.get(slot)) for slot in self._slots[sender]
                    ]
                else:
                    honest[sender] = _symbol(honest_payloads[sender])
            # A delivered symbol is its own wire payload.  Not copied:
            # correct nodes absorb these deliveries before the next round
            # shows them to the adversary.
            deliveries = payloads = ClassicalDeliveries(step.senders, self._slots, honest, faulty)
        self.round_index += 1
        self.transcript.append(Round(step, deliveries, payloads))
        return deliveries
