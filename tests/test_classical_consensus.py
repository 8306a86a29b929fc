import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfagree.classical_consensus import (
    KING_ROUND,
    NO_CLAIM,
    PhaseKingNode,
    coerce_bit,
    rounds_for,
)
from rfagree.netsim import CLASSICAL_ROUND, RoundStep
from rfagree.rf_protocols import absorb_round

from helpers import (
    coerce_claim,
    phase_choices,
    reference_absorb,
    run_all_honest,
    run_consensus_phase,
    symbol_counts,
)


def test_rounds_for():
    assert rounds_for(1) == 6
    assert rounds_for(3) == 12


def test_coercions():
    assert coerce_bit(None) == 0
    assert coerce_bit(2) == 0
    assert coerce_bit(1) == 1
    assert coerce_claim(None) == NO_CLAIM
    assert coerce_claim(7) == NO_CLAIM
    assert coerce_claim(0) == 0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PhaseKingNode(0, m=6, t=2, input_bit=0)  # 3t >= m
    with pytest.raises(ValueError):
        PhaseKingNode(9, m=4, t=1, input_bit=0)


@pytest.mark.parametrize("m,t", [(4, 1), (7, 2), (10, 3)])
@pytest.mark.parametrize("b", [0, 1])
def test_all_honest_unanimous_validity(m, t, b):
    assert run_all_honest(m, t, [b] * m) == [b] * m


@pytest.mark.parametrize("m,t", [(4, 1), (7, 2)])
def test_all_honest_mixed_inputs_agree(m, t):
    for inputs in itertools.product((0, 1), repeat=m):
        outputs = run_all_honest(m, t, list(inputs))
        assert len(set(outputs)) == 1


def test_unanimous_honest_one_survives_any_single_faulty_round():
    # Honest inputs (1,1,1) at m=4, t=1: every faulty strategy over a full
    # protocol run must leave all honest outputs at 1.
    m, t, faulty_id = 4, 1, 3
    inputs = (1, 1, 1)
    states = {inputs}
    for phase in range(t + 1):
        reached = set()
        for values in states:
            for choice in phase_choices(m, t, phase, faulty_id):
                reached.add(run_consensus_phase(m, t, phase, values, faulty_id, choice))
        states = reached
    assert states == {(1, 1, 1)}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_faulty_strategies_m4(faulty_id, inputs, seed):
    rng = np.random.default_rng(seed)
    m, t = 4, 1
    values = tuple(inputs)
    for phase in range(t + 1):
        r1 = tuple(int(rng.integers(0, 2)) for _ in range(m - 1))
        r2 = tuple(int(rng.integers(0, 3)) for _ in range(m - 1))
        r3 = tuple(int(rng.integers(0, 2)) for _ in range(m - 1)) if faulty_id == phase else None
        values = run_consensus_phase(m, t, phase, values, faulty_id, (r1, r2, r3))
    assert len(set(values)) == 1
    if len(set(inputs)) == 1:
        assert values[0] == inputs[0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.lists(st.integers(min_value=0, max_value=1), min_size=6, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_faulty_strategies_m7(faulty_id, inputs, seed):
    rng = np.random.default_rng(seed)
    m, t = 7, 2
    values = tuple(inputs)
    for phase in range(t + 1):
        r1 = tuple(int(rng.integers(0, 2)) for _ in range(m - 1))
        r2 = tuple(int(rng.integers(0, 3)) for _ in range(m - 1))
        r3 = tuple(int(rng.integers(0, 2)) for _ in range(m - 1)) if faulty_id == phase else None
        values = run_consensus_phase(m, t, phase, values, faulty_id, (r1, r2, r3))
    assert len(set(values)) == 1
    if len(set(inputs)) == 1:
        assert values[0] == inputs[0]


def test_exhaustive_slice_faulty_node_two():
    # One full faulty position of the exhaustive check; the acceptance
    # suite enumerates all of them.
    violations = []
    m, t, faulty_id = 4, 1, 2
    for inputs in itertools.product((0, 1), repeat=3):
        states = {inputs}
        for phase in range(t + 1):
            reached = set()
            for values in states:
                for choice in phase_choices(m, t, phase, faulty_id):
                    reached.add(run_consensus_phase(m, t, phase, values, faulty_id, choice))
            states = reached
        for final in states:
            if len(set(final)) != 1:
                violations.append((inputs, final))
            if len(set(inputs)) == 1 and final[0] != inputs[0]:
                violations.append((inputs, final))
    assert violations == []


def node_state(node):
    return (node.v, node._claim, node._candidate, node._strong)


@pytest.mark.parametrize("m,t", [(4, 1), (7, 2), (10, 3)])
def test_counts_absorb_equals_inbox_reference(m, t):
    # The counts-based node against the inbox-list oracle, round by round,
    # on random inboxes holding symbols, malformed values and gaps; in a
    # king round only the king's slot is sent.
    rng = np.random.default_rng(m)
    symbols = [0, 1, 2, -1, None, True, False, "1"]
    for _ in range(200):
        node_id = int(rng.integers(0, m))
        bit = int(rng.integers(0, 2))
        node = PhaseKingNode(node_id, m, t, bit)
        reference = PhaseKingNode(node_id, m, t, bit)
        for r in range(rounds_for(t)):
            if r % 3 == KING_ROUND:
                inbox = [None] * m
                inbox[r // 3] = symbols[rng.integers(0, len(symbols))]
            else:
                # Mostly 0s and 1s, so that thresholds are met and missed.
                inbox = [
                    symbols[rng.integers(0, len(symbols))] if rng.random() < 0.3 else int(rng.integers(0, 2))
                    for _ in range(m)
                ]
            node.absorb(r, *symbol_counts(inbox, node_id))
            reference_absorb(reference, r, inbox)
            assert node_state(node) == node_state(reference)


def test_symbol_counts_skip_own_slot_and_malformed():
    inbox = [1, 0, None, 1, 2, True, np.int64(0), "1"]
    assert symbol_counts(inbox, 0) == (2, 2)
    assert symbol_counts(inbox, 1) == (1, 3)


class CountsNode:
    """What ``absorb_round`` drives in a classical round, around a PhaseKingNode."""

    def __init__(self, node):
        self.node = node

    def cc_absorb(self, r, zeros, ones):
        self.node.absorb(r, zeros, ones)


@pytest.mark.parametrize("m,t", [(4, 1), (7, 2), (10, 3)])
def test_absorb_round_counts_equal_inbox_reference(m, t):
    # The per-receiver counts absorb_round takes from a round's deliveries,
    # against the inbox list each receiver was once handed, on deliveries
    # holding NO_CLAIM, out-of-range and absent symbols.
    rng = np.random.default_rng(100 + m)
    odd = [2, -1, None]
    for _ in range(50):
        bits = [int(b) for b in rng.integers(0, 2, size=m)]
        nodes = {i: CountsNode(PhaseKingNode(i, m, t, bits[i])) for i in range(m)}
        reference = {i: PhaseKingNode(i, m, t, bits[i]) for i in range(m)}
        for r in range(rounds_for(t)):
            senders = (r // 3,) if r % 3 == KING_ROUND else tuple(range(m))
            deliveries = {
                (s, i): odd[rng.integers(0, len(odd))] if rng.random() < 0.3 else int(rng.integers(0, 2))
                for s in senders
                for i in range(m)
                if i != s
            }
            absorb_round(RoundStep(CLASSICAL_ROUND, 0, 0, r, senders), nodes, deliveries, m)
            for i in range(m):
                reference_absorb(reference[i], r, [deliveries.get((j, i)) for j in range(m)])
                assert node_state(nodes[i].node) == node_state(reference[i])
