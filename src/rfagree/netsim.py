"""Synchronous round engine over a complete graph of m nodes.

Communication model:

* broadcast: in every round a correct node sends one payload to every other
  node, so honest traffic is one payload per honest sender; a faulty sender
  may broadcast too, or send different things to different receivers;
* public: before the faulty nodes commit their messages for a round, the
  adversary is shown every delivery of the previous round plus every honest
  message of the current round (a rushing adversary, the strongest reading).
  Round by round that covers every delivery before the last, and every
  honest payload was already in an earlier rushing view;
* authenticated: the engine stamps sender identities, so the adversary can
  only fill slots whose sender is in its faulty set, one by one or as that
  sender's broadcast; anything else raises :class:`AuthenticationError`;
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
export read them all.  Both kinds of round are kept per sender
(:class:`PerSender`): a broadcaster's payload once, checked once, whether
the sender is correct or faulty, and per slot only what faulty senders
that equivocate sent, and a quantum round's tallies, one per link.  They
are read per sender (phase king's symbol counts, the estimation oracle and
the transcript export) or per receiver (each node's inbox).

Randomness is derived per (trial, round, sender, receiver) from counter-based
Philox streams, so replays are stable: adding adversary draws or reordering
queries can never shift honest randomness.
"""

from __future__ import annotations

import functools
import itertools
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


class PerSender:
    """A round's wire payloads or deliveries, held per sender; read per sender or per receiver.

    ``broadcast`` maps each sender whose one entry all its receivers got to
    that entry, None where nothing was delivered: in a round's payloads,
    every correct sender, and every faulty sender that the adversary gave
    no slot key (see :meth:`RoundEngine.run_round`).  ``per_slot`` maps
    each other sender to the list of its slots' entries, in
    ``slots[sender]`` order (every other node, ascending); an entry is None
    where the slot was absent or malformed.  A quantum round's deliveries
    are tallies, one per link, so every sender is in their ``per_slot``.
    Phase king (``rf_protocols.absorb_round``), the adversaries, the
    estimation oracle (``harness.quantum_links``) and the transcript export
    (``harness.transcript_records``) read these two dicts; a receiver reads
    its slots through :meth:`inbox`.
    """

    __slots__ = ("senders", "slots", "broadcast", "per_slot")

    def __init__(self, senders: tuple, slots: list, broadcast: dict, per_slot: dict):
        self.senders = senders
        self.slots = slots
        self.broadcast = broadcast
        self.per_slot = per_slot

    def __len__(self):
        """The number of slots; tracing's count, kept until the engine counts (ROADMAP item 6)."""
        return len(self.senders) * (len(self.slots) - 1)

    def values(self) -> list:
        """Every slot's entry in slot order, as a new list.

        The transcript export writes a quantum round's tallies with it, and
        tracing counts absent deliveries with it until the engine keeps its
        own counters (ROADMAP item 6).
        """
        broadcast, per_slot = self.broadcast, self.per_slot
        width = len(self.slots) - 1
        out = []
        for sender in self.senders:
            out += [broadcast[sender]] * width if sender in broadcast else per_slot[sender]
        return out

    def inbox(self, receiver: int) -> dict:
        """{sender: entry} of every slot to ``receiver``."""
        broadcast, per_slot = self.broadcast, self.per_slot
        # Slot k of a sender goes to node k, or k + 1 past the sender.
        return {
            s: broadcast[s] if s in broadcast else per_slot[s][receiver - (receiver > s)]
            for s in self.senders
            if s != receiver
        }


class Round(NamedTuple):
    """One resolved round: what every slot of ``step`` carried and delivered.

    ``payloads`` holds the wire payloads (messages in sender-local
    coordinates, or symbols) and ``deliveries`` what the receivers got
    (tallies, or the symbols), both per sender as a :class:`PerSender`; an
    entry is None exactly where its slot was absent or malformed.  A
    classical round keeps one object as both, since a delivered symbol is
    its own wire payload.  A quantum round's payloads hold a broadcaster's
    message once, and per slot only what equivocating faulty senders sent;
    its deliveries hold every link's tally.
    """

    step: RoundStep
    deliveries: PerSender
    payloads: PerSender


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


def _words(*words) -> np.ndarray:
    """``words`` masked to 64 bits, as the exact uint64 array Philox takes.

    Philox reads a list of Python ints through a float64 array when a word
    is 2**63 or more, which rounds it; a uint64 array is taken as it is.
    """
    return np.array([w & _MASK64 for w in words], dtype=np.uint64)


def substream(key0: int, key1: int, c1: int, c2: int, c3: int) -> np.random.Generator:
    """Independent Philox stream for one (key, counter-tag) combination."""
    bits = np.random.Philox(counter=_words(0, c1, c2, c3), key=_words(key0, key1))
    return np.random.Generator(bits)


def rewindable_philox(key0: int, key1: int) -> tuple:
    """(bits, generator, state) of one Philox keyed as :func:`substream` keys it.

    Setting ``state["state"]["counter"]`` to ``[0, c1, c2, c3]`` (a new
    list, or the one there written in place) and then ``bits.state =
    state`` rewinds ``generator`` to the start of
    ``substream(key0, key1, c1, c2, c3)``, an order of magnitude cheaper
    than building that stream; only for draws that are fully consumed
    before the next rewind.  The state dict holds plain lists, which the
    state setter indexes several times faster than the arrays that
    ``bits.state`` returns.  The buffer is empty (``buffer_pos`` 4), so its
    words are never read.
    """
    key = _words(key0, key1)
    bits = np.random.Philox(key=key)
    state = bits.state
    state["state"] = {"counter": [0, 0, 0, 0], "key": key.tolist()}
    state["buffer"] = [0, 0, 0, 0]
    return bits, np.random.Generator(bits), state


#: What a malformed quantum payload raises on its way through the link.
_MALFORMED = (ValueError, TypeError, OverflowError)


def prepare_message(msg, sender_frame: np.ndarray, params: ChannelParams):
    """The :func:`link_cells` of ``msg`` sent from ``sender_frame``, or None.

    Everything a delivery does that depends on the message alone: rotation
    to global coordinates, the format check and channel noise.  A payload
    that is not a well-formed :class:`QuantumMessage` gives None.
    """
    if not isinstance(msg, QuantumMessage):
        return None
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
        bits, gen, state = rewindable_philox(self.master_seed, self.trial)
        # The counter list inside ``state``, rewritten in place per link.
        self._link_philox = (bits, gen, state, state["state"]["counter"])
        # (senders, faulty set) -> the faulty senders' slots, in slot order.
        self._faulty_slots = {}

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
        whose key is the trial's, to the link's counter (see
        :func:`rewindable_philox`); only for engine-internal draws that are
        fully consumed before the next rewind.
        """
        bits, gen, state, counter = self._link_philox
        counter[1:] = 1 + self.round_index, sender, receiver
        bits.state = state
        return gen

    def run_round(self, step: RoundStep, honest_payloads: dict, faulty_set, adversary) -> PerSender:
        """Resolve every slot of ``step``; returns its deliveries as a :class:`PerSender`.

        Slots run sender-major over ``step.senders``, each to every other
        node in ascending order.  ``honest_payloads`` maps every honest
        sender to the one payload it broadcasts.  The adversary fills the
        faulty senders' slots after seeing them.  A key of the dict its
        ``emit`` returns is either a faulty sender (a Python ``int``, not a
        ``bool``), whose one payload goes on every slot of that sender, or a
        ``(sender, receiver)`` slot, whose payload goes on that slot alone
        and overrides the sender's broadcast there; slots given neither are
        absent.  So only the adversary can equivocate.  Deliveries are
        MeasurementTally for quantum payloads, int for bits, and None for
        absent or malformed messages.  A classical symbol must be a Python
        ``int`` (not ``bool``); anything else, numpy integers included, is
        delivered as absent.  The resolved round is appended to
        ``transcript`` as one :class:`Round`, whose ``deliveries`` this
        returns, for either kind of round.

        Work that depends on the payload alone runs once per sender and
        payload, whether the sender is correct or faulty: a broadcaster's
        symbol is checked and stored once, and its quantum message taken
        through ``link_cells`` once.  Each link then gets only its stream
        rewind (:meth:`_fast_link_rng`, which writes the counter into one
        Philox state in place) and ``measure_batch``; a one-segment message
        takes the fast paths of both, anything else their loops.  Only the
        senders given slot keys are resolved slot by slot.  The faulty
        senders' slots that ``emit`` is offered are built once per
        ``(step.senders, faulty_set)`` and kept, so ``faulty_set`` must be
        hashable (a frozenset); the keys ``emit`` returns are checked
        against the round's own ``faulty_set`` every round.
        """
        broadcast = {}  # faulty sender -> the payload on all of its slots
        per_slot = {}  # slot -> payload
        equivocators = set()  # the faulty senders given slot keys
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
            cache_key = (step.senders, faulty_set)
            faulty_slots = self._faulty_slots.get(cache_key)
            if faulty_slots is None:
                faulty_slots = self._faulty_slots[cache_key] = tuple(
                    itertools.chain.from_iterable(
                        self._slots[s] for s in step.senders if s in faulty_set
                    )
                )
            for key, payload in adversary.emit(view, faulty_slots).items():
                if isinstance(key, int) and not isinstance(key, bool):
                    sender = key
                    broadcast[sender] = payload
                else:
                    sender = key[0]
                    per_slot[key] = payload
                    equivocators.add(sender)
                if sender not in faulty_set:
                    raise AuthenticationError(
                        f"adversary emitted {key!r} for correct sender {sender}"
                    )

        slots = self._slots
        sent = {}  # broadcaster -> its one payload, None where nothing was delivered
        slot_sent = {}  # sender given slot keys -> its payload per slot
        if step.kind in QUANTUM_STEPS:
            # Looked up here, not at import: tracing replaces the module's name.
            measure = measure_batch
            frames, axes, channel, link_rng = self.frames, self._axes, self.channel, self._fast_link_rng
            tallies = {}  # sender -> its tally per slot
            for sender in step.senders:
                if sender in equivocators:
                    default = broadcast.get(sender)
                    # id(payload) -> its link cells, or None: each message
                    # is prepared once per sender, however many slots carry
                    # it.  Nothing is kept on the message: its state arrays
                    # may change between rounds.
                    prepared = {}
                    tallies[sender] = slot_tallies = []
                    slot_sent[sender] = slot_payloads = []
                    for slot in slots[sender]:
                        payload = per_slot.get(slot, default)
                        key = id(payload)
                        if key not in prepared:
                            prepared[key] = prepare_message(payload, frames[sender], channel)
                        cells, r = prepared[key], slot[1]
                        delivery = None
                        if cells is not None:
                            delivery = measure(cells, axes[r], channel, link_rng(sender, r))
                        slot_tallies.append(delivery)
                        slot_payloads.append(None if delivery is None else payload)
                    continue
                payload = broadcast.get(sender) if sender in faulty_set else honest_payloads[sender]
                cells = prepare_message(payload, frames[sender], channel)
                sent[sender] = None if cells is None else payload
                tallies[sender] = [
                    None if cells is None else measure(cells, axes[r], channel, link_rng(sender, r))
                    for _, r in slots[sender]
                ]
            payloads = PerSender(step.senders, slots, sent, slot_sent)
            deliveries = PerSender(step.senders, slots, {}, tallies)
        else:
            for sender in step.senders:
                if sender in equivocators:
                    default = broadcast.get(sender)
                    slot_sent[sender] = [
                        _symbol(per_slot.get(slot, default)) for slot in slots[sender]
                    ]
                elif sender in faulty_set:
                    sent[sender] = _symbol(broadcast.get(sender))
                else:
                    sent[sender] = _symbol(honest_payloads[sender])
            # A delivered symbol is its own wire payload.  Not copied:
            # correct nodes absorb these deliveries before the next round
            # shows them to the adversary.
            deliveries = payloads = PerSender(step.senders, slots, sent, slot_sent)
        self.round_index += 1
        self.transcript.append(Round(step, deliveries, payloads))
        return deliveries
