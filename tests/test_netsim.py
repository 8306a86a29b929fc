import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfagree import netsim
from rfagree.geometry import distance, random_direction, to_global
from rfagree.harness import transcript_records, trial_frames
from rfagree.netsim import (
    CLASSICAL_ROUND,
    DIRECTION_EXCHANGE,
    FLAG_EXCHANGE,
    KING_BROADCAST,
    QUANTUM_STEPS,
    AuthenticationError,
    PerSender,
    RoundEngine,
    RoundStep,
    substream,
)
from rfagree.quantum_link import BLOCH_TOL, ChannelParams, QuantumMessage, ted_receive
from rfagree.rf_protocols import ProtocolParams, run_rf_consensus
from rfagree.adversaries import Rusher, make_adversary, strategy_catalog

from helpers import (
    adversary_rng,
    deliver_quantum,
    expand_round_record,
    link_rng,
    octahedral_rotations,
    random_frame,
    reference_link_cells,
    slot_view,
    transcript_signature,
)


def make_engine(m=4, n=1000, epsilon=0.0, seed=5, trial=0):
    rng = np.random.default_rng(seed)
    frames = [random_frame(rng) for _ in range(m)]
    engine = RoundEngine(
        m=m,
        channel=ChannelParams(epsilon=epsilon, n=n),
        frames=frames,
        master_seed=seed,
        trial=trial,
    )
    return engine, frames


class NullAdversary:
    faulty_set = frozenset()

    def emit(self, view, slots):
        return {}


def all_honest_direction_round(engine, directions):
    m = engine.m
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(m)))
    payloads = {i: QuantumMessage.uniform(directions[i], engine.channel.n) for i in range(m)}
    return engine.run_round(step, payloads, frozenset(), NullAdversary())


def test_slot_completeness_and_counts():
    engine, _ = make_engine(m=4)
    rng = np.random.default_rng(1)
    directions = [random_direction(rng) for _ in range(4)]
    deliveries = all_honest_direction_round(engine, directions)
    assert len(deliveries) == 12  # m(m-1) slots
    assert len(engine.transcript) == 1  # one Round per round
    rnd = engine.transcript[0]
    assert rnd.deliveries is deliveries
    # Sender-major, receivers ascending, no self slots.
    assert list(slot_view(rnd.payloads)) == [(s, r) for s in range(4) for r in range(4) if r != s]
    assert all(tally is not None for tally in rnd.deliveries.values())
    assert all(payload is not None for payload in rnd.payloads.values())


def test_determinism_bit_identical_transcripts():
    rng = np.random.default_rng(9)
    directions = [random_direction(rng) for _ in range(4)]
    engine1, _ = make_engine(seed=7)
    engine2, _ = make_engine(seed=7)
    all_honest_direction_round(engine1, directions)
    all_honest_direction_round(engine2, directions)
    assert transcript_signature(engine1.transcript) == transcript_signature(engine2.transcript)


def test_substream_independent_of_construction_order():
    a = substream(1, 2, 3, 4, 5).integers(0, 2**62)
    substream(9, 9, 9, 9, 9).integers(0, 2**62)  # interleaved unrelated draw
    b = substream(1, 2, 3, 4, 5).integers(0, 2**62)
    assert a == b


@pytest.mark.parametrize(
    "args, other",
    [
        pytest.param((2**63, 0, 1, 2, 3), (2**63 + 1, 0, 1, 2, 3), id="seed"),
        pytest.param((2**64 - 1, 0, 1, 2, 3), (2**64 - 2, 0, 1, 2, 3), id="seed-top"),
        pytest.param((5, 2**63, 1, 2, 3), (5, 2**63 + 1, 1, 2, 3), id="trial"),
        pytest.param((5, 0, 2**63 + 3, 2, 3), (5, 0, 2**63 + 2, 2, 3), id="counter"),
    ],
)
def test_substream_keeps_words_above_2_63_apart(args, other):
    # Words that a float64 array rounds alike give different streams, and
    # none warns (the suite fails on a RuntimeWarning), as a word rounded
    # up to 2**64 once did.
    assert substream(*args).random(4).tolist() != substream(*other).random(4).tolist()


def test_authentication_rejects_forged_sender():
    engine, _ = make_engine(m=4)
    params = ProtocolParams(4, 1, 0.05, engine.channel)

    class Forger(Rusher):
        def emit(self, view, slots):
            # Try to speak for honest node 0.
            return {(0, 1): 1}

    forger = Forger([3], params)
    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(4)))
    payloads = {i: 1 for i in range(3)}
    with pytest.raises(AuthenticationError):
        engine.run_round(step, payloads, forger.faulty_set, forger)


class Emitting:
    """A strategy that returns a fixed dict from ``emit``, whatever the slots."""

    def __init__(self, emitted):
        self.emitted = emitted

    def emit(self, view, slots):
        return dict(self.emitted)


def test_faulty_slots_follow_each_rounds_faulty_set():
    # One engine, one step, two faulty sets in turn: each round offers the
    # adversary the slots of its own faulty set and is authenticated by it,
    # however the engine keeps the slots from round to round.
    m = 4
    engine, _ = make_engine(m=m)
    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(m)))

    class Offered:
        def __init__(self, emitted):
            self.emitted, self.slots = emitted, []

        def emit(self, view, slots):
            self.slots.append(slots)
            return dict(self.emitted)

    def run(faulty, emitted):
        adversary = Offered(emitted)
        honest = {i: 0 for i in range(m) if i not in faulty}
        deliveries = engine.run_round(step, honest, frozenset(faulty), adversary)
        return deliveries, adversary.slots

    for faulty in [{3}, {1, 2}, {3}, {1, 2}]:
        (sender, *_) = sorted(faulty)
        deliveries, offered = run(faulty, {sender: 1})
        assert offered == [tuple((s, r) for s in sorted(faulty) for r in range(m) if r != s)]
        assert slot_view(deliveries) == {
            (s, r): 1 if s == sender else (None if s in faulty else 0)
            for s in range(m)
            for r in range(m)
            if r != s
        }
    # What is valid under one faulty set stays forged under the other.
    forgeries = [({3}, {1: 1}), ({1, 2}, {3: 1}), ({3}, {(2, 0): 1}), ({1, 2}, {(3, 0): 1})]
    for faulty, forged in forgeries:
        with pytest.raises(AuthenticationError):
            run(faulty, forged)


@pytest.mark.parametrize("slot_key", [False, True], ids=["broadcast-key", "slot-key"])
@pytest.mark.parametrize("quantum", [False, True], ids=["classical", "quantum"])
def test_faulty_node_that_does_not_send_puts_nothing_on_the_round(quantum, slot_key):
    # Node 0 is the king and the round's only sender; faulty node 3's keys
    # name no sender or slot of it, so they are ignored, not forged.
    m, n = 4, 1000
    engine, _ = make_engine(m=m, n=n)
    if quantum:
        step = RoundStep(KING_BROADCAST, 0, 0, None, (0,))
        honest = {0: QuantumMessage.uniform(UP, n)}
        payload = QuantumMessage.uniform(UP, n)
    else:
        step = RoundStep(CLASSICAL_ROUND, 0, 0, 2, (0,))
        honest, payload = {0: 0}, 1
    key = (3, 1) if slot_key else 3
    deliveries = engine.run_round(step, honest, frozenset({3}), Emitting({key: payload}))
    rnd = engine.transcript[-1]
    for entries in (rnd.payloads, rnd.deliveries):
        assert entries.senders == (0,)
        assert [s for s, _ in slot_view(entries)] == [0] * (m - 1)
        assert set(entries.broadcast) | set(entries.per_slot) == {0}
    assert rnd.payloads.broadcast == {0: honest[0]} and rnd.payloads.per_slot == {}
    if quantum:
        assert None not in deliveries.per_slot[0]
    else:
        assert deliveries.broadcast == {0: 0} and deliveries.per_slot == {}
        assert all(deliveries.inbox(r) == {0: 0} for r in range(1, m))


@pytest.mark.parametrize("quantum", [False, True], ids=["classical", "quantum"])
def test_broadcast_for_correct_sender_raises(quantum):
    engine, _ = make_engine(m=4)
    if quantum:
        step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(4)))
        payloads = {i: QuantumMessage.uniform(UP, engine.channel.n) for i in range(3)}
    else:
        step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(4)))
        payloads = {i: 1 for i in range(3)}
    # A broadcast key names its sender: correct node 0 here, next to a
    # well-formed broadcast of faulty node 3.
    forged = Emitting({3: payloads[0], 0: payloads[0]})
    with pytest.raises(AuthenticationError):
        engine.run_round(step, payloads, frozenset({3}), forged)
    # A bool is no sender id, so it is no broadcast key.
    with pytest.raises(TypeError):
        engine.run_round(step, payloads, frozenset({1, 3}), Emitting({True: payloads[0]}))


def test_slot_keys_override_a_classical_broadcast():
    m = 7
    engine, _ = make_engine(m=m)
    step = RoundStep(CLASSICAL_ROUND, 0, 0, 0, tuple(range(m)))
    honest = {i: i % 2 for i in range(5)}
    # 5 broadcasts 1 with two overrides; 6 broadcasts 0 alone.
    emitted = {5: 1, (5, 1): 0, (5, 2): None, 6: 0}
    deliveries = engine.run_round(step, honest, frozenset({5, 6}), Emitting(emitted))
    assert deliveries.broadcast == {**honest, 6: 0}
    assert deliveries.per_slot == {5: [1, 0, None, 1, 1, 1]}
    slots = slot_view(deliveries)
    assert [slots[(5, r)] for r in range(m) if r != 5] == [1, 0, None, 1, 1, 1]
    assert [slots[(6, r)] for r in range(m) if r != 6] == [0] * 6
    assert deliveries.inbox(2) == {0: 0, 1: 1, 3: 1, 4: 0, 5: None, 6: 0}
    (record,) = transcript_records(0, engine.transcript)
    # One symbol per sender; 5's slots differ, so they are exported per slot.
    assert record["symbols"] == [0, 1, 0, 1, 0, None, 0]
    assert record["slot_symbols"] == {"5": [1, 0, None, 1, 1, 1]}
    exported = [slot["payload"] for slot in expand_round_record(record, m)]
    assert exported == deliveries.values() == list(slots.values())


def test_classical_slots_that_agree_are_exported_once():
    m = 4
    engine, _ = make_engine(m=m)
    step = RoundStep(CLASSICAL_ROUND, 0, 0, 0, tuple(range(m)))
    # Faulty 3 fills each of its slots by key, all with the same symbol.
    emitted = {(3, r): 1 for r in range(3)}
    deliveries = engine.run_round(step, {0: 0, 1: 1, 2: 0}, frozenset({3}), Emitting(emitted))
    assert deliveries.per_slot == {3: [1, 1, 1]}
    (record,) = transcript_records(0, engine.transcript)
    assert record["symbols"] == [0, 1, 0, 1] and record["slot_symbols"] == {}
    assert [slot["payload"] for slot in expand_round_record(record, m)] == deliveries.values()


def test_slot_keys_override_a_quantum_broadcast(monkeypatch):
    rotations = counting(monkeypatch, netsim, "link_cells")
    measurements = counting(monkeypatch, netsim, "measure_batch")
    m, n = 7, 1000
    engine, frames = make_engine(m=m, n=n, epsilon=0.1, seed=3)
    rng = np.random.default_rng(3)
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(m)))
    honest = {i: QuantumMessage.uniform(random_direction(rng), n) for i in range(5)}
    a, b, c = (QuantumMessage.uniform(random_direction(rng), n) for _ in range(3))
    # 5 broadcasts a, with b on slot (5, 2) and nothing on (5, 3); 6 broadcasts c.
    emitted = {5: a, (5, 2): b, (5, 3): None, 6: c}
    sent = {(s, r): honest[s] for s in honest for r in range(m) if r != s}
    sent.update({(5, r): a for r in range(m) if r != 5})
    sent.update({(6, r): c for r in range(m) if r != 6})
    sent.update({(5, 2): b, (5, 3): None})
    expected = {
        (s, r): None
        if msg is None
        else deliver_quantum(msg, frames[s], frames[r], engine.channel, link_rng(engine, s, r))
        for (s, r), msg in sent.items()
    }
    rotations.clear()
    measurements.clear()
    deliveries = engine.run_round(step, honest, frozenset({5, 6}), Emitting(emitted))
    assert slot_view(deliveries) == expected
    assert list(slot_view(deliveries)) == list(sent)
    assert slot_view(engine.transcript[0].payloads) == sent
    # One link_cells per sender and message; one measure_batch per delivered link.
    assert [msg for msg, _, _ in rotations] == [*honest.values(), a, b, c]
    assert len(measurements) == len(sent) - 1
    (record,) = transcript_records(0, engine.transcript)
    assert record["payloads"][6] == [[c.segments[0][0].tolist(), 3 * n]]
    assert record["payloads"][5] is None and list(record["slot_payloads"]) == ["5"]


def test_rushing_adversary_sees_current_round():
    # A zero-shift rusher echoes its target's current-round direction
    # exactly; only a rushing adversary can do that.  Its target is the
    # lowest honest node, 0.
    engine, _ = make_engine(m=4)
    params = ProtocolParams(4, 1, 0.05, engine.channel)
    rusher = make_adversary("rusher", [3], params, shift=0.0)
    rng = np.random.default_rng(21)
    directions = [random_direction(rng) for _ in range(3)]
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(4)))
    payloads = {i: QuantumMessage.uniform(directions[i], engine.channel.n) for i in range(3)}
    engine.run_round(step, payloads, rusher.faulty_set, rusher)
    echoes = [p for (s, _), p in slot_view(engine.transcript[0].payloads).items() if s == 3]
    assert len(echoes) == 3
    for payload in echoes:
        assert np.array_equal(payload.segments[0][0], directions[0])


def test_deliver_quantum_accurate_at_large_n():
    rng = np.random.default_rng(2)
    sender_frame = random_frame(rng)
    receiver_frame = random_frame(rng)
    local = random_direction(rng)
    params = ChannelParams(epsilon=0.0, n=10**6)
    tally = deliver_quantum(
        QuantumMessage.uniform(local, params.n),
        sender_frame,
        receiver_frame,
        params,
        substream(0, 0, 1, 0, 1),
    )
    estimate_local, degenerate = ted_receive(tally)
    assert not degenerate
    sent_global = to_global(local, sender_frame)
    estimate_global = to_global(estimate_local, receiver_frame)
    assert distance(sent_global, estimate_global) < 0.01


def test_deliver_quantum_malformed_becomes_absent():
    rng = np.random.default_rng(4)
    frame = random_frame(rng)
    params = ChannelParams(epsilon=0.0, n=100)
    bad = QuantumMessage(((np.array([0.0, 0.0, 1.0]), 5),))  # wrong count
    assert deliver_quantum(bad, frame, frame, params, substream(0, 0, 1, 0, 1)) is None
    too_long = QuantumMessage(((np.array([0.0, 0.0, 1.5]), 300),))
    assert deliver_quantum(too_long, frame, frame, params, substream(0, 0, 1, 0, 1)) is None


def test_full_noise_gives_unbiased_coin():
    # epsilon = 1: tallies are Binomial(n, 1/2) regardless of the payload.
    n = 400
    runs = 2000
    params = ChannelParams(epsilon=1.0, n=n)
    rng = np.random.default_rng(6)
    frame = random_frame(rng)
    msg = QuantumMessage.uniform([0.0, 0.0, 1.0], n)
    ks = []
    for k in range(runs):
        tally = deliver_quantum(msg, np.eye(3), frame, params, substream(0, 1, 2, 0, k))
        ks.append(tally.k_z)
    ks = np.array(ks)
    mean_sigma = math.sqrt(n / 4.0 / runs)
    assert abs(ks.mean() - n / 2.0) < 3.0 * mean_sigma
    var_sigma = (n / 4.0) * math.sqrt(2.0 / (runs - 1))
    assert abs(ks.var(ddof=1) - n / 4.0) < 3.0 * var_sigma


def test_absent_payload_recorded_and_none_delivered():
    engine, _ = make_engine(m=4)
    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, (0,))
    deliveries = engine.run_round(step, {0: None}, frozenset(), NullAdversary())
    assert list(slot_view(deliveries)) == [(0, 1), (0, 2), (0, 3)]
    assert set(deliveries.values()) == {None}
    assert set(engine.transcript[0].payloads.values()) == {None}
    (record,) = transcript_records(0, engine.transcript)
    assert record["symbols"] == [None] and record["slot_symbols"] == {}
    expanded = expand_round_record(record, 4)
    assert [(s["kind"], s["payload"]) for s in expanded] == [("absent", None)] * 3


def direction_round_with(adversary, faulty, seed=11):
    """One direction exchange with honest senders outside ``faulty``."""
    engine, _ = make_engine(m=4, seed=seed)
    rng = np.random.default_rng(seed)
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(4)))
    payloads = {
        i: QuantumMessage.uniform(random_direction(rng), engine.channel.n)
        for i in range(4)
        if i not in faulty
    }
    deliveries = engine.run_round(step, payloads, frozenset(faulty), adversary)
    return deliveries, engine.transcript


UP = [0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "state",
    [
        [math.nan, 0.0, 0.0],
        [math.inf, 0.0, 0.0],
        [0.0, -math.inf, math.nan],
        # Whole segment tuples: a valid state under a count that is no count.
        pytest.param(((UP, math.inf),), id="count-inf"),
        pytest.param(((UP, -math.inf), (UP, 3000)), id="count-minus-inf"),
        pytest.param(((UP, math.nan),), id="count-nan"),
        pytest.param(((UP, True), (UP, 2999)), id="count-bool"),
        pytest.param(((UP, np.True_), (UP, 2999)), id="count-numpy-bool"),
    ],
)
def test_non_finite_faulty_state_becomes_absent(state):
    params = ProtocolParams(4, 1, 0.05, ChannelParams(epsilon=0.0, n=1000))
    if isinstance(state, tuple):
        msg = QuantumMessage(state)
    else:
        msg = QuantumMessage.uniform(state, params.channel.n)

    class NonFinite(Rusher):
        def emit(self, view, slots):
            return {slot: msg for slot in slots}

    class NonFiniteBroadcast(Rusher):
        def emit(self, view, slots):
            return {3: msg}

    crashed, _ = direction_round_with(make_adversary("crash", [3], params), {3})
    # Sent on each slot, or once as sender 3's broadcast: absent on every slot.
    for strategy in (NonFinite, NonFiniteBroadcast):
        deliveries, transcript = direction_round_with(strategy([3], params), {3})
        slots = slot_view(deliveries)
        faulty_slots = [slot for slot in slots if slot[0] == 3]
        assert len(faulty_slots) == 3
        assert all(slots[slot] is None for slot in faulty_slots)
        assert all(p is None for (s, _), p in slot_view(transcript[0].payloads).items() if s == 3)
        # Sender 3's three slots are exported with no payload and no tally.
        (record,) = transcript_records(0, transcript)
        assert record["senders"] == [0, 1, 2, 3]
        assert record["payloads"][3] is None and record["slot_payloads"] == {}
        assert record["tallies"][9:] == [None, None, None]
        assert slots == slot_view(crashed)


@pytest.mark.parametrize(
    "seed,trial,round_index",
    [
        pytest.param(2**40 + 3, 6, 0, id="0"),
        pytest.param(2**40 + 3, 6, 1, id="1"),
        pytest.param(2**40 + 3, 6, 17, id="17"),
        # Seed and trial past 64 bits: the rewind's key must be masked as
        # substream masks it.
        pytest.param(2**64 + 3, 2**64 + 6, 17, id="seed-trial-past-64-bits"),
        pytest.param(2**70 + 5, 2**65, 2**40, id="round-2**40"),
        # Key words above 2**63, which a float64 array cannot hold: both
        # streams must key Philox with the exact words.
        pytest.param(2**63 + 1, 2**64 + 2**63 + 5, 3, id="key-word-above-2**63"),
    ],
)
def test_fast_link_rng_matches_link_rng(seed, trial, round_index):
    # run_round rewinds one Philox per link by writing the link's counter
    # into Philox's internal state dict; this pins every tally of a round,
    # a broadcaster's links and an equivocating sender's, to the documented
    # per-link stream, so a numpy change cannot drift it.
    m = 5
    engine, frames = make_engine(m=m, seed=seed, trial=trial)
    engine.round_index = round_index
    rng = np.random.default_rng(0)
    n = engine.channel.n
    honest = {i: QuantumMessage.uniform(random_direction(rng), n) for i in range(m - 1)}
    emitted = {(m - 1, r): QuantumMessage.uniform(random_direction(rng), n) for r in range(m - 1)}
    expected = {
        (s, r): deliver_quantum(
            honest[s] if s in honest else emitted[(s, r)],
            frames[s],
            frames[r],
            engine.channel,
            link_rng(engine, s, r),
        )
        for s in range(m)
        for r in range(m)
        if r != s
    }
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(m)))
    deliveries = engine.run_round(step, honest, frozenset({m - 1}), Emitting(emitted))
    assert slot_view(deliveries) == expected


def test_numpy_integer_classical_symbol_is_absent():
    # Only a Python int is a classical symbol (see RoundEngine.run_round).
    engine, _ = make_engine(m=4)

    class NumpyBits:
        def emit(self, view, slots):
            return {slot: np.int64(1) for slot in slots}

    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(4)))
    payloads = {i: 1 for i in range(3)}
    deliveries = engine.run_round(step, payloads, frozenset({3}), NumpyBits())
    assert [slot_view(deliveries)[(3, r)] for r in range(3)] == [None, None, None]
    payloads = slot_view(engine.transcript[0].payloads)
    assert [payloads[(3, r)] for r in range(3)] == [None, None, None]
    (record,) = transcript_records(0, engine.transcript)
    assert record["senders"] == [0, 1, 2, 3]
    assert record["symbols"] == [1, 1, 1, None] and record["slot_symbols"] == {}
    assert [s["payload"] for s in expand_round_record(record, 4)][9:] == [None, None, None]


def test_adversary_view_carries_previous_round():
    engine, _ = make_engine(m=4)
    seen = []

    class Recorder:
        def emit(self, view, slots):
            seen.append(view.previous)
            return {}

    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(4)))
    payloads = {i: 1 for i in range(3)}
    first = engine.run_round(step, payloads, frozenset({3}), Recorder())
    engine.run_round(step, payloads, frozenset({3}), Recorder())
    assert seen[0] is None
    assert seen[1][0] == step and seen[1][1] is first
    assert seen[1] is engine.transcript[0]
    assert seen[1].step == step and seen[1].deliveries is first


def test_honest_senders_broadcast_and_faulty_senders_equivocate():
    engine, _ = make_engine(m=4)
    views = []

    class Splitter:
        def emit(self, view, slots):
            views.append(view)
            return {slot: slot[1] % 2 for slot in slots}

    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(4)))
    honest = {0: 1, 1: 0, 2: 1}
    deliveries = engine.run_round(step, honest, frozenset({3}), Splitter())
    assert set(views[0].honest_payloads) == {0, 1, 2}
    slots = slot_view(deliveries)
    assert [slots[(3, r)] for r in range(3)] == [0, 1, 0]
    for (sender, _), bit in slots.items():
        if sender != 3:
            assert bit == honest[sender]


def test_quantum_message_validated_once_per_sender_and_message(monkeypatch):
    calls = counting(monkeypatch, netsim, "link_cells")
    engine, frames = make_engine(m=4)
    rng = np.random.default_rng(1)
    all_honest_direction_round(engine, [random_direction(rng) for _ in range(4)])
    assert len(calls) == 4  # one per sender, not one per slot

    # Faulty senders 2 and 3 put one shared object on all of their slots:
    # it is rotated from each sender's frame, so validated once per sender.
    calls.clear()
    shared = QuantumMessage.uniform(random_direction(rng), engine.channel.n)
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(4)))
    honest = {i: QuantumMessage.uniform(random_direction(rng), engine.channel.n) for i in (0, 1)}
    deliveries = engine.run_round(step, honest, frozenset({2, 3}), Scripted([shared] * 6))
    assert all(d is not None for d in deliveries.values())
    assert len(calls) == 4  # two honest messages, the shared one twice
    assert all(msg is shared for msg, _, _ in calls[2:])
    assert [frame.tolist() for _, frame, _ in calls[2:]] == [frames[2].tolist(), frames[3].tolist()]


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def counting_results(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's result."""
    results = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return results


def test_honest_round_rotates_each_message_once(monkeypatch):
    rotations = counting(monkeypatch, netsim, "link_cells")
    measurements = counting(monkeypatch, netsim, "measure_batch")
    engine, _ = make_engine(m=4)
    rng = np.random.default_rng(1)
    all_honest_direction_round(engine, [random_direction(rng) for _ in range(4)])
    assert len(rotations) == 4  # one per sender
    assert len(measurements) == 12  # one per delivered link


@pytest.mark.parametrize("seed", range(6))
def test_engine_tallies_equal_per_link_reference(seed):
    # Every slot's delivery equals deliver_quantum on that link alone, with
    # the documented per-link stream.  Faulty senders 5 and 6 send one
    # shared multi-segment message object, per-slot messages and malformed
    # payloads, slot by slot or as a broadcast with or without slot keys
    # over it, so a rotation reused across senders, slots or rounds shows.
    m, n = 7, 1000
    engine, frames = make_engine(m=m, n=n, epsilon=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    faulty = frozenset({5, 6})
    shared = QuantumMessage(
        ((random_direction(rng), 1000), (0.5 * random_direction(rng), 1500), (random_direction(rng), 500))
    )
    malformed = [
        QuantumMessage(((random_direction(rng), 5),)),  # wrong count
        QuantumMessage(((1.5 * random_direction(rng), 3 * n),)),  # |r| > 1
        QuantumMessage(((["x", 0.0, 1.0], 3 * n),)),  # cannot be rotated
        QuantumMessage(None),
        None,
        1,
    ]
    for step in (
        RoundStep(KING_BROADCAST, 0, 5, None, (5,)),
        RoundStep(DIRECTION_EXCHANGE, 0, 5, None, tuple(range(m))),
    ):
        honest = {
            i: QuantumMessage.uniform(random_direction(rng), n)
            for i in step.senders
            if i not in faulty
        }

        def pick():
            choice = rng.integers(0, 3)
            if choice == 0:
                return shared
            if choice == 1:
                return QuantumMessage.uniform(random_direction(rng), n)
            return malformed[rng.integers(0, len(malformed))]

        emitted = {}
        for s in step.senders:
            if s in faulty:
                mode = rng.integers(0, 3)  # slots, broadcast, broadcast and slots
                if mode:
                    emitted[s] = shared if rng.random() < 0.5 else pick()
                for r in range(m):
                    if r != s and mode != 1 and rng.random() < (1.0 if mode == 0 else 0.4):
                        emitted[(s, r)] = pick()
        expected = {}
        for s in step.senders:
            for r in range(m):
                if r != s:
                    payload = emitted.get((s, r), emitted.get(s)) if s in faulty else honest[s]
                    expected[(s, r)] = (
                        deliver_quantum(
                            payload, frames[s], frames[r], engine.channel, link_rng(engine, s, r)
                        )
                        if isinstance(payload, QuantumMessage)
                        else None
                    )
        deliveries = engine.run_round(step, honest, faulty, Emitting(emitted))
        assert slot_view(deliveries) == expected
        assert sum(d is not None for d in deliveries.values()) > len(honest) * (m - 1)


def test_link_cells_independent_of_frame_layout(monkeypatch):
    # The engine takes the frames as one C-ordered array, so a Fortran-
    # ordered copy of the same frames rotates every message with the same
    # bits (``@`` picks its BLAS kernel by memory layout).  random-noise
    # sends a new message on every faulty slot, so many are prepared.
    cells = counting_results(monkeypatch, netsim, "link_cells")
    params = ProtocolParams(m=7, t=2, delta=0.05, channel=ChannelParams(epsilon=0.1, n=5000))
    frames = trial_frames(3, 0, params.m)
    runs = []
    for layout in (frames, [np.asfortranarray(f) for f in frames]):
        cells.clear()
        adversary = make_adversary("random-noise", (5, 6), params)
        run_rf_consensus(params, layout, (5, 6), adversary, master_seed=3)
        runs.append(list(cells))
    assert len(runs[0]) > 40
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", range(4))
def test_classical_deliveries_equal_per_slot_reference(seed):
    # Honest symbols are checked once per sender; faulty slots one by one.
    # Faulty senders 5 and 6 send valid and malformed symbols or nothing,
    # the absent path no benchmark workload reaches.
    m = 7
    engine, _ = make_engine(m=m, seed=seed)
    rng = np.random.default_rng(seed)
    faulty = frozenset({5, 6})
    choices = [0, 1, None, True, np.int64(1), 2, -1, "1", "missing"]
    for step in (
        RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(m))),
        RoundStep(CLASSICAL_ROUND, 0, 0, 1, tuple(range(m))),
        RoundStep(CLASSICAL_ROUND, 0, 0, 2, (0,)),
        RoundStep(CLASSICAL_ROUND, 0, 0, 5, (5,)),
    ):
        honest = {i: int(rng.integers(0, 3)) for i in step.senders if i not in faulty}
        emitted = {}
        for s in step.senders:
            for r in range(m):
                if s in faulty and r != s:
                    pick = choices[rng.integers(0, len(choices))]
                    if pick != "missing":
                        emitted[(s, r)] = pick
        expected = {}
        for s in step.senders:
            for r in range(m):
                if r != s:
                    payload = emitted.get((s, r)) if s in faulty else honest[s]
                    ok = isinstance(payload, int) and not isinstance(payload, bool)
                    expected[(s, r)] = payload if ok else None

        class Emitter:
            def emit(self, view, slots):
                return {slot: emitted[slot] for slot in slots if slot in emitted}

        deliveries = engine.run_round(step, honest, faulty, Emitter())
        assert list(slot_view(deliveries).items()) == list(expected.items())
        assert all(type(d) is int for d in deliveries.values() if d is not None)
        assert engine.transcript[-1].payloads is deliveries


def test_view_rng_is_the_adversary_stream_built_on_first_read(monkeypatch):
    engine, _ = make_engine(m=4)
    engine.round_index = 3
    expected = adversary_rng(engine).random(4).tolist()
    philox = counting(monkeypatch, np.random, "Philox")
    views = []

    class Silent:
        def emit(self, view, slots):
            views.append(view)
            return {}

    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, tuple(range(4)))
    engine.run_round(step, {i: 1 for i in range(3)}, frozenset({3}), Silent())
    assert philox == []  # the strategy never read view.rng
    # Read after the round: the stream is the one of the round the view
    # was made in, and it is built once.
    assert views[0].rng.random(4).tolist() == expected
    assert views[0].rng is views[0].rng and len(philox) == 1


# Wire fuzzing: 3n = 12 qubits, so random segment splits often form a
# well-formed batch and reach the measurement path.
FUZZ_N = 4

_odd = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 3).map(np.int64),
    st.floats(),  # NaN and +-inf included
    st.text(max_size=3),
    st.just(10**400),  # overflows float conversion
)
_bloch = st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3)  # |r| < 1
_states = st.one_of(
    st.lists(st.floats(-1.01, 1.01), min_size=3, max_size=3),
    st.lists(_odd, max_size=4),
    _odd,
)
_splits = st.sets(st.integers(1, 3 * FUZZ_N - 1), max_size=3).map(
    lambda cuts: [b - a for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), 3 * FUZZ_N])]
)
_segments = st.one_of(
    st.lists(st.one_of(st.tuples(_states, st.one_of(_odd, st.integers(1, 3 * FUZZ_N))), _odd)),
    _odd,
)
# Well formed: mixed states over a split of the 3n qubits.
_well_formed = _splits.flatmap(
    lambda counts: st.tuples(*(st.tuples(_bloch, st.just(c)) for c in counts))
)
_wire = st.one_of(_odd, _segments.map(QuantumMessage), _well_formed.map(QuantumMessage))


def fuzz_rounds(adversary):
    """A direction exchange and a classical round with faulty node 3.

    Returns the honest-to-honest deliveries of both rounds.
    """
    engine, _ = make_engine(m=4, n=FUZZ_N, seed=13)
    rng = np.random.default_rng(13)
    directions = [random_direction(rng) for _ in range(3)]
    rounds = [
        (
            RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(4))),
            lambda i: QuantumMessage.uniform(directions[i], FUZZ_N),
        ),
        (RoundStep(CLASSICAL_ROUND, 0, 0, 0, tuple(range(4))), lambda i: i % 2),
    ]
    honest = []
    for step, payload_of in rounds:
        payloads = {i: payload_of(i) for i in range(3)}
        deliveries = engine.run_round(step, payloads, frozenset({3}), adversary)
        honest.append({slot: d for slot, d in slot_view(deliveries).items() if 3 not in slot})
    return honest


class Scripted:
    """Emits a fixed list of objects, in order, over the faulty slots."""

    def __init__(self, objects):
        self.objects = list(objects)

    def emit(self, view, slots):
        return {slot: self.objects.pop(0) for slot in slots}


@settings(max_examples=150, deadline=None)
@given(st.lists(_wire, min_size=6, max_size=6))
@example([QuantumMessage(((UP, math.inf),))] * 6)
def test_wire_fuzz_never_raises_and_spares_honest_links(objects):
    crashed = fuzz_rounds(NullAdversary())
    assert fuzz_rounds(Scripted(objects)) == crashed


# The one-pass link_cells against the two-step oracle: frames from random
# seeds, the fuzz strategies' messages, and epsilon anywhere in [0, 1].
_frames = st.integers(0, 2**32 - 1).map(lambda seed: random_frame(np.random.default_rng(seed)))
_messages = st.one_of(_segments.map(QuantumMessage), _well_formed.map(QuantumMessage))


def assert_prepared_like_reference(make_message, frame, params):
    """``prepare_message`` gives the oracle's cells bit for bit, or None where it raised.

    ``make_message`` builds a fresh message for each side, so one-shot
    segments (a generator) reach both whole.
    """
    try:
        # The oracle rotates first, where a frame's zeros times inf make NaN
        # and a huge component overflows.  ``prepare_message`` must not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            expected = reference_link_cells(make_message(), frame, params)
    except (ValueError, TypeError, OverflowError):
        expected = None
    cells = netsim.prepare_message(make_message(), frame, params)
    assert repr(cells) == repr(expected)  # repr tells -0.0 from 0.0 and 3 from 3.0


@settings(max_examples=300, deadline=None)
@given(_messages, _frames, st.floats(0.0, 1.0))
def test_prepare_message_equals_two_step_reference(msg, frame, epsilon):
    assert_prepared_like_reference(lambda: msg, frame, ChannelParams(epsilon=epsilon, n=FUZZ_N))


def _object_array(segments):
    arr = np.empty(len(segments), dtype=object)
    arr[:] = segments
    return arr


@pytest.mark.parametrize(
    "segments, delivered",
    [
        pytest.param(lambda: _object_array([(UP, 3 * FUZZ_N)]), True, id="object-array"),
        pytest.param(
            lambda: _object_array([(UP, 5), ([0.5, 0.0, 0.0], 7)]), True, id="object-array-2"
        ),
        pytest.param(
            lambda: ((s, c) for s, c in [(UP, 5), ([0.0, 0.6, 0.0], 7)]), True, id="generator"
        ),
        pytest.param(lambda: (), False, id="empty"),
        pytest.param(lambda: ((UP, 10**400),), False, id="huge-count"),
    ],
)
def test_prepare_message_equals_reference_on_odd_segments(segments, delivered):
    frame = random_frame(np.random.default_rng(29))
    params = ChannelParams(epsilon=0.1, n=FUZZ_N)
    assert_prepared_like_reference(lambda: QuantumMessage(segments()), frame, params)
    assert (netsim.prepare_message(QuantumMessage(segments()), frame, params) is not None) == delivered


class _SubArray(np.ndarray):
    pass


_FAST_N = 3 * FUZZ_N


def _one_segment(state, count=_FAST_N):
    return lambda: ((state, count),)


# One-segment messages at the edges of link_cells' fast path (a tuple of one
# segment: a float64 ndarray of shape (3,) and a Python int count of 3n), and
# just outside it: each gives the two-step oracle's cells bit for bit, or
# None on both sides.
@pytest.mark.parametrize(
    "segments, delivered",
    [
        pytest.param(_one_segment(np.array(UP)), True, id="int-count"),
        pytest.param(_one_segment(np.array(UP), np.int64(_FAST_N)), True, id="int64-count"),
        pytest.param(_one_segment(np.array(UP), float(_FAST_N)), True, id="float-count"),
        pytest.param(_one_segment(np.array(UP), _FAST_N + 1), False, id="count-3n+1"),
        pytest.param(_one_segment(UP), True, id="list-state"),
        pytest.param(
            _one_segment(np.array([0.0, 0.5, -0.5], dtype=np.float32)), True, id="float32"
        ),
        pytest.param(_one_segment(np.array([[0.0], [0.6], [0.8]])), False, id="shape-3x1"),
        pytest.param(
            _one_segment(np.array([0.0, 9.0, 0.6, 9.0, 0.8, 9.0])[::2]), True, id="non-contiguous"
        ),
        pytest.param(
            _one_segment(np.array([0.0, 0.6, 0.8]).view(_SubArray)), True, id="ndarray-subclass"
        ),
        pytest.param(_one_segment(np.array([1.0 + BLOCH_TOL, 0.0, 0.0])), True, id="norm-1+tol"),
        pytest.param(
            _one_segment(np.array([np.nextafter(1.0 + BLOCH_TOL, 2.0), 0.0, 0.0])), False,
            id="norm-above-1+tol",
        ),
        pytest.param(_one_segment(np.array([math.nan, 0.0, 0.0])), False, id="nan"),
        pytest.param(_one_segment(np.array([0.0, math.inf, 0.0])), False, id="inf"),
        pytest.param(_one_segment(np.array([0.0, -math.inf, math.nan])), False, id="inf-nan"),
        pytest.param(
            _one_segment(np.array([math.inf, -math.inf, 0.0])), False, id="inf-minus-inf"
        ),
        pytest.param(_one_segment(np.array([1.7e308] * 3)), False, id="huge"),
        pytest.param(lambda: [(np.array(UP), _FAST_N)], True, id="segments-list"),
        pytest.param(
            lambda: ((s, c) for s, c in [(np.array(UP), _FAST_N)]), True, id="segments-generator"
        ),
        pytest.param(lambda: ([np.array(UP), _FAST_N],), True, id="segment-list"),
    ],
)
@pytest.mark.parametrize("frame", ["octahedral", "random"])
def test_link_cells_fast_path_edges_equal_reference(segments, delivered, frame):
    if frame == "octahedral":
        # Exact: the rotated state keeps its length to the last bit.
        sender_frame = octahedral_rotations()[7]
    else:
        sender_frame = random_frame(np.random.default_rng(31))
    params = ChannelParams(epsilon=0.1, n=FUZZ_N)
    assert_prepared_like_reference(lambda: QuantumMessage(segments()), sender_frame, params)
    cells = netsim.prepare_message(QuantumMessage(segments()), sender_frame, params)
    if frame == "octahedral":
        assert (cells is not None) == delivered


@pytest.mark.parametrize("frame", ["octahedral", "random"])
@pytest.mark.parametrize("state", [[0.0, math.inf, 0.0], [1.7e308] * 3], ids=["inf", "huge"])
def test_unphysical_faulty_state_is_absent_without_warning(state, frame):
    # In the rotation, an octahedral frame's zeros times inf would make NaN,
    # and a random frame would overflow on the huge state; faulty 3's state
    # is rejected before it, in one segment or in the second of two.
    m, n = 4, 1000
    frames = [random_frame(np.random.default_rng(s)) for s in range(m)]
    if frame == "octahedral":
        frames[3] = octahedral_rotations()[7]
    engine = RoundEngine(m, ChannelParams(epsilon=0.1, n=n), frames, master_seed=5, trial=0)
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(m)))
    honest = {i: QuantumMessage.uniform(UP, n) for i in range(m - 1)}
    bad = np.array(state)
    one_segment = QuantumMessage(((bad, 3 * n),))
    two_segments = QuantumMessage(((np.array(UP), n), (bad, 2 * n)))
    for msg in (one_segment, two_segments):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deliveries = engine.run_round(step, honest, frozenset({3}), Emitting({3: msg}))
        assert deliveries.per_slot[3] == [None, None, None]
        assert engine.transcript[-1].payloads.broadcast[3] is None
        assert all(None not in deliveries.per_slot[s] for s in honest)


def test_both_kinds_of_round_are_held_per_sender():
    # A correct sender's message is held once, not once per slot; only the
    # senders given slot keys are held per slot, and a quantum round's
    # tallies, one per link, for every sender.
    m, n = 7, 1000
    engine, _ = make_engine(m=m, n=n)
    rng = np.random.default_rng(4)
    honest = {i: QuantumMessage.uniform(random_direction(rng), n) for i in range(5)}
    a, b = (QuantumMessage.uniform(random_direction(rng), n) for _ in range(2))
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, tuple(range(m)))
    quantum = engine.run_round(step, honest, frozenset({5, 6}), Emitting({5: a, (5, 2): b, 6: a}))
    payloads = engine.transcript[0].payloads
    assert all(payloads.broadcast[s] is honest[s] for s in honest)
    assert payloads.broadcast[6] is a and list(payloads.per_slot) == [5]
    assert [p is b for p in payloads.per_slot[5]] == [False, False, True, False, False, False]
    assert quantum is engine.transcript[0].deliveries
    assert quantum.broadcast == {} and list(quantum.per_slot) == list(range(m))
    assert all(len(tallies) == m - 1 for tallies in quantum.per_slot.values())

    step = RoundStep(CLASSICAL_ROUND, 0, 0, 0, tuple(range(m)))
    emitted = {5: 0, (5, 1): 1, 6: 0}
    honest = {i: 1 for i in range(5)}
    classical = engine.run_round(step, honest, frozenset({5, 6}), Emitting(emitted))
    assert list(classical.per_slot) == [5]
    assert classical is engine.transcript[1].payloads is engine.transcript[1].deliveries
    assert type(quantum) is type(payloads) is type(classical) is PerSender


def _wire(payload):
    """A quantum payload as the export writes it."""
    return None if payload is None else [[list(map(float, s)), int(c)] for s, c in payload.segments]


@pytest.mark.parametrize("name", strategy_catalog())
def test_per_slot_view_equals_the_expanded_export(name):
    # Every round of a trial under each strategy: the slots, payloads and
    # deliveries read per sender equal those of the exported record,
    # expanded slot by slot, and so does each receiver's inbox.
    m = 7
    params = ProtocolParams(m, 2, 0.05, ChannelParams(epsilon=0.1, n=1000))
    faulty = (0, 1)
    result = run_rf_consensus(
        params,
        trial_frames(13, 0, m),
        faulty,
        make_adversary(name, faulty, params),
        master_seed=13,
    )
    records = transcript_records(0, result.transcript)
    assert len(records) == len(result.transcript)
    for rnd, record in zip(result.transcript, records):
        expanded = expand_round_record(record, m)
        slots = [(slot["sender"], slot["receiver"]) for slot in expanded]
        assert slots == list(slot_view(rnd.payloads)) == list(slot_view(rnd.deliveries))
        if rnd.step.kind in QUANTUM_STEPS:
            assert [slot["payload"] for slot in expanded] == list(map(_wire, rnd.payloads.values()))
            assert [slot["tally"] for slot in expanded] == [
                None if t is None else t._asdict() for t in rnd.deliveries.values()
            ]
        else:
            assert [slot["payload"] for slot in expanded] == rnd.deliveries.values()
        # Per receiver: each node's inbox holds the exported slots to it.
        for i in range(m):
            to_i = [slot for slot in expanded if slot["receiver"] == i]
            inbox = list(rnd.deliveries.inbox(i).items())
            if rnd.step.kind in QUANTUM_STEPS:
                expected = [(slot["sender"], slot["tally"]) for slot in to_i]
                inbox = [(s, None if t is None else t._asdict()) for s, t in inbox]
            else:
                expected = [(slot["sender"], slot["payload"]) for slot in to_i]
            assert inbox == expected
