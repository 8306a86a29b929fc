import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfagree.geometry import distance, random_direction, random_frame, to_global
from rfagree.harness import transcript_records
from rfagree.netsim import (
    CLASSICAL_ROUND,
    DIRECTION_EXCHANGE,
    FLAG_EXCHANGE,
    AuthenticationError,
    RoundEngine,
    RoundStep,
    broadcast_slots,
    deliver_quantum,
    exchange_slots,
    substream,
)
from rfagree.quantum_link import ChannelParams, QuantumMessage, ted_receive
from rfagree.rf_protocols import ProtocolParams
from rfagree.adversaries import Rusher, make_adversary

from helpers import transcript_signature


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
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, exchange_slots(m))
    payloads = {}
    for i in range(m):
        msg = QuantumMessage.uniform(directions[i], engine.channel.n)
        for r in range(m):
            if r != i:
                payloads[(i, r)] = msg
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
    assert list(rnd.payloads) == list(exchange_slots(4))
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


def test_authentication_rejects_forged_sender():
    engine, _ = make_engine(m=4)
    params = ProtocolParams(4, 1, 0.05, engine.channel)

    class Forger(Rusher):
        def emit(self, view, slots):
            # Try to speak for honest node 0.
            return {(0, 1): 1}

    forger = Forger([3], params)
    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, exchange_slots(4))
    payloads = {(i, r): 1 for i in range(3) for r in range(4) if r != i}
    with pytest.raises(AuthenticationError):
        engine.run_round(step, payloads, forger.faulty_set, forger)


def test_rushing_adversary_sees_current_round():
    # A zero-shift rusher echoes the target's current-round direction
    # exactly; only a rushing adversary can do that.
    engine, _ = make_engine(m=4)
    params = ProtocolParams(4, 1, 0.05, engine.channel)
    rusher = make_adversary("rusher", [3], params, shift=0.0, target=1)
    rng = np.random.default_rng(21)
    directions = [random_direction(rng) for _ in range(3)]
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, exchange_slots(4))
    payloads = {}
    for i in range(3):
        msg = QuantumMessage.uniform(directions[i], engine.channel.n)
        for r in range(4):
            if r != i:
                payloads[(i, r)] = msg
    engine.run_round(step, payloads, rusher.faulty_set, rusher)
    echoes = [p for (s, _), p in engine.transcript[0].payloads.items() if s == 3]
    assert len(echoes) == 3
    for payload in echoes:
        assert np.array_equal(payload.segments[0][0], directions[1])


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
    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, broadcast_slots(4, 0))
    payloads = {slot: None for slot in step.slots}
    deliveries = engine.run_round(step, payloads, frozenset(), NullAdversary())
    assert set(deliveries.values()) == {None}
    assert set(engine.transcript[0].payloads.values()) == {None}
    assert {r["kind"] for r in transcript_records(0, engine.transcript)} == {"absent"}


def direction_round_with(adversary, faulty, seed=11):
    """One direction exchange with honest senders outside ``faulty``."""
    engine, _ = make_engine(m=4, seed=seed)
    rng = np.random.default_rng(seed)
    step = RoundStep(DIRECTION_EXCHANGE, 0, 0, None, exchange_slots(4))
    payloads = {}
    for i in range(4):
        if i not in faulty:
            msg = QuantumMessage.uniform(random_direction(rng), engine.channel.n)
            payloads.update({(i, r): msg for r in range(4) if r != i})
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

    deliveries, transcript = direction_round_with(NonFinite([3], params), {3})
    crashed, _ = direction_round_with(make_adversary("crash", [3], params), {3})
    faulty_slots = [slot for slot in deliveries if slot[0] == 3]
    assert len(faulty_slots) == 3
    assert all(deliveries[slot] is None for slot in faulty_slots)
    assert all(p is None for (s, _), p in transcript[0].payloads.items() if s == 3)
    faulty_records = [r for r in transcript_records(0, transcript) if r["sender"] == 3]
    assert len(faulty_records) == 3
    for r in faulty_records:
        assert r["kind"] == "absent" and r["payload"] is None and r["tally"] is None
    assert deliveries == crashed


@pytest.mark.parametrize("round_index", [0, 1, 17])
def test_fast_link_rng_matches_link_rng(round_index):
    # The fast path writes into Philox's internal state dict; this pins it
    # to the documented per-link stream so a numpy change cannot drift it.
    engine, _ = make_engine(m=5, seed=2**40 + 3, trial=6)
    engine.round_index = round_index

    def draws(gen):
        return (
            [int(gen.binomial(10**8, p)) for p in (0.5, 0.03, 0.999)]
            + gen.random(3).tolist()
            + gen.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
            + [int(gen.binomial(7, 0.3))]
        )

    for sender, receiver in [(0, 1), (4, 2), (1, 0), (3, 4)]:
        fast = draws(engine._fast_link_rng(sender, receiver))
        assert fast == draws(engine.link_rng(sender, receiver))


def test_numpy_integer_classical_symbol_is_absent():
    # Only a Python int is a classical symbol (see RoundEngine.run_round).
    engine, _ = make_engine(m=4)

    class NumpyBits:
        def emit(self, view, slots):
            return {slot: np.int64(1) for slot in slots}

    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, exchange_slots(4))
    payloads = {(i, r): 1 for i in range(3) for r in range(4) if r != i}
    deliveries = engine.run_round(step, payloads, frozenset({3}), NumpyBits())
    assert [deliveries[(3, r)] for r in range(3)] == [None, None, None]
    assert [engine.transcript[0].payloads[(3, r)] for r in range(3)] == [None, None, None]
    faulty_records = [r for r in transcript_records(0, engine.transcript) if r["sender"] == 3]
    assert [r["kind"] for r in faulty_records] == ["absent"] * 3


def test_adversary_view_carries_previous_round():
    engine, _ = make_engine(m=4)
    seen = []

    class Recorder:
        def emit(self, view, slots):
            seen.append(view.previous)
            return {}

    step = RoundStep(FLAG_EXCHANGE, 0, 0, None, exchange_slots(4))
    payloads = {(i, r): 1 for i in range(3) for r in range(4) if r != i}
    first = engine.run_round(step, payloads, frozenset({3}), Recorder())
    engine.run_round(step, payloads, frozenset({3}), Recorder())
    assert seen[0] is None
    assert seen[1][0] == step and seen[1][1] is first
    assert seen[1] is engine.transcript[0]
    assert seen[1].step == step and seen[1].deliveries is first


def test_quantum_message_validated_once_per_delivery(monkeypatch):
    calls = []
    validate = QuantumMessage.validate

    def counting(msg, n):
        calls.append(msg)
        return validate(msg, n)

    monkeypatch.setattr(QuantumMessage, "validate", counting)
    engine, _ = make_engine(m=4)
    rng = np.random.default_rng(1)
    all_honest_direction_round(engine, [random_direction(rng) for _ in range(4)])
    assert len(calls) == 12  # one per delivery, m(m-1) slots


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
            RoundStep(DIRECTION_EXCHANGE, 0, 0, None, exchange_slots(4)),
            lambda i: QuantumMessage.uniform(directions[i], FUZZ_N),
        ),
        (RoundStep(CLASSICAL_ROUND, 0, 0, 0, exchange_slots(4)), lambda i: i % 2),
    ]
    honest = []
    for step, payload_of in rounds:
        payloads = {slot: payload_of(slot[0]) for slot in step.slots if slot[0] != 3}
        deliveries = engine.run_round(step, payloads, frozenset({3}), adversary)
        honest.append({slot: d for slot, d in deliveries.items() if 3 not in slot})
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
