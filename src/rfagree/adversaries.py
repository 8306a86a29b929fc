"""Byzantine strategy catalog.

One strategy object controls all faulty nodes of a trial jointly and fills
every slot whose sender is faulty, after seeing the current round's honest
traffic (the engine guarantees the rushing order) and the previous round's
deliveries.  ``emit`` returns {sender: payload} for a faulty sender that
broadcasts, as most strategies here do, and {(sender, receiver): payload}
for the slots of one that equivocates; see ``RoundEngine.run_round``.  The
catalog is a test battery, not a worst-case construction: each strategy
probes a different part of the stack (thresholds, grades, the classical
subprotocol, replay).

Strategies only read wire-visible data (payloads, tallies, bits) plus their
own random streams, never honest private state, so every strategy is
automatically covariant under a relabeling of the hidden global frame.
"""

from __future__ import annotations

import math

from .classical_consensus import CLAIM_ROUND
from .geometry import any_orthogonal, angle_from_chord, random_direction, rotate_about
from .netsim import CLASSICAL_ROUND, DIRECTION_EXCHANGE, FLAG_EXCHANGE, KING_BROADCAST
from .quantum_link import SENTINEL, QuantumMessage, received_direction
from .rf_protocols import HonestNode, absorb_round, node_payloads, start_phase


class Adversary:
    name = "abstract"

    def __init__(self, faulty_ids, params):
        self.faulty_set = frozenset(faulty_ids)
        self.params = params
        if len(self.faulty_set) > params.t:
            raise ValueError(
                f"{len(self.faulty_set)} faulty nodes exceeds fault bound t={params.t}"
            )

    def emit(self, view, slots) -> dict:
        raise NotImplementedError

    def senders(self, view) -> list:
        """The faulty senders of the view's step, ascending: the keys of a broadcast."""
        return [s for s in view.step.senders if s in self.faulty_set]


def _king_estimates(previous, receivers) -> dict:
    """Estimates (local coords) that ``receivers`` took from the king broadcast.

    ``previous`` is the view's last resolved round, the king broadcast when
    the direction exchange is being emitted.
    """
    king = previous.step.king_id
    inbox = previous.deliveries.inbox
    return {r: received_direction(inbox(r)[king]) for r in receivers if r != king}


class HonestShadow(Adversary):
    """Faulty nodes run the real protocol; baseline for every metric.

    Shadow nodes are driven by the same payload builder, inbox router and
    per-node streams as correct nodes, so a run with this strategy is
    bit-identical to an all-honest run.
    """

    name = "honest-shadow"

    def __init__(self, faulty_ids, params):
        super().__init__(faulty_ids, params)
        self.nodes = {i: HonestNode(i, params) for i in sorted(self.faulty_set)}

    def emit(self, view, slots):
        previous = view.previous
        if previous is not None:
            absorb_round(previous.step, self.nodes, previous.deliveries, self.params.m)
        if view.step.kind == KING_BROADCAST:
            start_phase(self.nodes, view.step.king_id, view.node_rng)
        return node_payloads(view.step, self.nodes)


class Crash(Adversary):
    """Faulty nodes never send anything."""

    name = "crash"

    def emit(self, view, slots):
        return {}


class RandomNoise(Adversary):
    """Independent uniform garbage on every slot."""

    name = "random-noise"

    def emit(self, view, slots):
        step = view.step
        rng = view.rng
        out = {}
        for slot in slots:
            if step.kind in (KING_BROADCAST, DIRECTION_EXCHANGE):
                out[slot] = QuantumMessage.uniform(
                    random_direction(rng), self.params.channel.n
                )
            elif step.kind == CLASSICAL_ROUND and step.cc_round % 3 == CLAIM_ROUND:
                out[slot] = int(rng.integers(0, 3))  # claim rounds are 3-valued
            else:
                out[slot] = int(rng.integers(0, 2))
        return out


class Equivocator(Adversary):
    """A faulty king splits receivers into two direction clusters.

    The cluster directions sit a configurable chord ``separation`` apart and
    are written in the faulty king's local frame.  In the direction exchange
    every faulty node sends each receiver that receiver's cluster direction
    (the king is sent the first), with the same local coordinates.  Only the
    king's own messages land on the cluster: a faulty non-king sends those
    coordinates from its own frame, so physically they point about as far
    from the receiver's cluster as a random direction does and reinforce
    nothing.  In phases with an honest king the faulty nodes send their
    estimates of the king's direction, as correct nodes would, so every
    phase stays well formed.  Faulty flags and symbols are always 1.  Each
    cluster is one message object shared by the slots that carry it; the
    estimates, flags and symbols are broadcasts.
    """

    name = "equivocator"

    def __init__(self, faulty_ids, params, separation=2.0):
        super().__init__(faulty_ids, params)
        if (
            isinstance(separation, bool) or not isinstance(separation, (int, float))
            or not 0.0 <= separation <= 2.0
        ):
            raise ValueError(f"separation must be a chord in [0, 2], got {separation!r}")
        self.separation = separation
        self._clusters = {}
        self._base = None

    def emit(self, view, slots):
        step = view.step
        n = self.params.channel.n
        out = {}
        if step.kind == KING_BROADCAST:
            self._clusters = {}
            if step.king_id in self.faulty_set:
                base = random_direction(view.rng)
                other = rotate_about(
                    base, any_orthogonal(base), angle_from_chord(self.separation)
                )
                self._base = QuantumMessage.uniform(base, n)
                second = QuantumMessage.uniform(other, n)
                receivers = sorted(r for _, r in slots)
                half = len(receivers) // 2
                for idx, r in enumerate(receivers):
                    self._clusters[r] = self._base if idx < half else second
                for slot in slots:
                    out[slot] = self._clusters[slot[1]]
        elif step.kind == DIRECTION_EXCHANGE:
            if self._clusters:
                for slot in slots:
                    out[slot] = self._clusters.get(slot[1], self._base)
            else:
                estimates = _king_estimates(view.previous, self.faulty_set)
                out = {
                    s: QuantumMessage.uniform(estimates.get(s, SENTINEL), n)
                    for s in self.senders(view)
                }
        else:  # flags and classical symbols
            out = dict.fromkeys(self.senders(view), 1)
        return out


class GradePoisoner(Adversary):
    """Honest-looking directions, but flags always on and split consensus bits."""

    name = "grade-poisoner"

    def __init__(self, faulty_ids, params):
        super().__init__(faulty_ids, params)
        self._king_direction = None

    def emit(self, view, slots):
        step = view.step
        n = self.params.channel.n
        out = {}
        if step.kind == KING_BROADCAST:
            self._king_direction = None
            if step.king_id in self.faulty_set:
                self._king_direction = random_direction(view.rng)
                out[step.king_id] = QuantumMessage.uniform(self._king_direction, n)
        elif step.kind == DIRECTION_EXCHANGE:
            estimates = _king_estimates(view.previous, self.faulty_set)
            for s in self.senders(view):
                if s == step.king_id and self._king_direction is not None:
                    out[s] = QuantumMessage.uniform(self._king_direction, n)
                else:
                    out[s] = QuantumMessage.uniform(estimates.get(s, SENTINEL), n)
        elif step.kind == FLAG_EXCHANGE:
            out = dict.fromkeys(self.senders(view), 1)
        else:
            for slot in slots:
                out[slot] = (slot[1] + step.cc_round) % 2
        return out


class Rusher(Adversary):
    """Replays the lowest honest node's current-round traffic, shifted.

    Directions are re-emitted rotated by ``shift`` radians; classical
    symbols are copied verbatim.  Exercises the strongest consequence of
    public channels: faulty messages that depend on same-round honest ones.
    """

    name = "rusher"

    def __init__(self, faulty_ids, params, shift=math.pi / 4):
        super().__init__(faulty_ids, params)
        if (
            isinstance(shift, bool) or not isinstance(shift, (int, float))
            or not math.isfinite(shift)
        ):
            raise ValueError(f"rusher shift must be a finite number of radians, got {shift!r}")
        self.shift = shift
        self.target = min(i for i in range(params.m) if i not in self.faulty_set)

    def emit(self, view, slots):
        step = view.step
        n = self.params.channel.n
        if step.kind == KING_BROADCAST:
            # Only the king transmits here, so there is nothing to rush;
            # improvise a direction of our own.
            payload = QuantumMessage.uniform(random_direction(view.rng), n)
        elif step.kind == DIRECTION_EXCHANGE:
            # Every node sends here, so the honest target's payload is there.
            state = view.honest_payloads[self.target].segments[0][0]
            shifted = rotate_about(state, any_orthogonal(state), self.shift)
            shifted = shifted / math.sqrt(shifted[0] ** 2 + shifted[1] ** 2 + shifted[2] ** 2)
            payload = QuantumMessage.uniform(shifted, n)
        else:
            payload = view.honest_payloads.get(self.target)
            if payload is None:
                payload = int(view.rng.integers(0, 2))
        return dict.fromkeys(self.senders(view), payload)


_CATALOG = {
    cls.name: cls
    for cls in (HonestShadow, Crash, RandomNoise, Equivocator, GradePoisoner, Rusher)
}


def standard_battery(delta_eff: float) -> list:
    """(name, params) pairs probing the t < m/3 consistency claim.

    Equivocator clusters sit just inside and outside the 8 delta_eff
    weak-consistency radius, at a right angle, and antipodal.
    """
    return [
        ("crash", {}),
        ("random-noise", {}),
        ("equivocator", {"separation": 0.9 * 8.0 * delta_eff}),
        ("equivocator", {"separation": 1.1 * 8.0 * delta_eff}),
        ("equivocator", {"separation": math.sqrt(2.0)}),  # right angle
        ("equivocator", {"separation": 2.0}),  # antipodal
        ("grade-poisoner", {}),
        ("rusher", {"shift": math.pi / 6}),
    ]


def strategy_catalog():
    """Names of all built-in strategies."""
    return sorted(_CATALOG)


def make_adversary(name: str, faulty_ids, params, **kwargs) -> Adversary:
    try:
        cls = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown adversary {name!r}; known: {strategy_catalog()}") from None
    return cls(faulty_ids, params, **kwargs)
