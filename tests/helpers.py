"""Shared test machinery: exhaustive consensus enumeration and rotations."""

import itertools
import json

import numpy as np

from rfagree.classical_consensus import PhaseKingNode
from rfagree.harness import transcript_records

#: Per-criterion verdict lines collected by the acceptance suite; printed in
#: the terminal summary so they survive output capture.
ACCEPTANCE_LINES = []


def run_consensus_phase(m, t, phase, values, faulty_id, choice):
    """Run one phase-king phase against explicit faulty per-recipient choices.

    values: entry bits of the honest nodes (ordered by id); choice is a
    (round1, round2, round3) triple of per-honest-recipient symbol tuples,
    round3 being None when the faulty node is not that phase's king.
    Returns the honest nodes' bits at phase end.
    """
    honest = [i for i in range(m) if i != faulty_id]
    nodes = {i: PhaseKingNode(i, m, t, v) for i, v in zip(honest, values)}
    for offset, faulty_choice in zip(range(3), choice):
        r = 3 * phase + offset
        payloads = {i: nodes[i].payload(r) for i in honest}
        for idx, i in enumerate(honest):
            inbox = [None] * m
            for j in honest:
                if j != i and payloads[j] is not None:
                    inbox[j] = payloads[j]
            if faulty_choice is not None:
                inbox[faulty_id] = faulty_choice[idx]
            nodes[i].absorb(r, inbox)
    return tuple(nodes[i].output() for i in honest)


def phase_choices(m, t, phase, faulty_id):
    """Every faulty behavior for one phase: per-recipient symbols per round.

    Bit rounds range over {0, 1} and the claim round over {0, 1, 2}; absent
    and malformed messages coerce onto those alphabets, so the enumeration
    covers them.  The king round only has choices when the faulty node is
    king.
    """
    k = m - 1  # honest recipients
    r1 = itertools.product((0, 1), repeat=k)
    r2 = itertools.product((0, 1, 2), repeat=k)
    if faulty_id == phase:
        r3 = itertools.product((0, 1), repeat=k)
    else:
        r3 = (None,)
    return itertools.product(r1, r2, r3)


def exhaustive_consensus_check(m, t):
    """Full-tree check of Agreement and Validity; returns violation list.

    Honest state between phases is exactly the value vector, so reachable
    value vectors are deduplicated per phase while still covering every
    adaptive faulty strategy.
    """
    violations = []
    branch_count = 0
    for faulty_id in range(m):
        for inputs in itertools.product((0, 1), repeat=m - 1):
            states = {tuple(inputs)}
            for phase in range(t + 1):
                reached = set()
                for values in states:
                    for choice in phase_choices(m, t, phase, faulty_id):
                        reached.add(run_consensus_phase(m, t, phase, values, faulty_id, choice))
                        branch_count += 1
                states = reached
            for final in states:
                if len(set(final)) != 1:
                    violations.append(("agreement", faulty_id, inputs, final))
                if len(set(inputs)) == 1 and any(v != inputs[0] for v in final):
                    violations.append(("validity", faulty_id, inputs, final))
    return violations, branch_count


OCTAHEDRAL_ROTATIONS = None


def octahedral_rotations():
    """The 24 rotations with entries in {0, +-1}: exact in floating point."""
    global OCTAHEDRAL_ROTATIONS
    if OCTAHEDRAL_ROTATIONS is None:
        mats = []
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                mat = np.zeros((3, 3))
                for row, col in enumerate(perm):
                    mat[row, col] = signs[row]
                if np.linalg.det(mat) > 0:
                    mats.append(mat)
        OCTAHEDRAL_ROTATIONS = mats
    return OCTAHEDRAL_ROTATIONS


def transcript_signature(transcript):
    """Canonical form of a transcript for equality checks: its exported records."""
    return json.dumps(transcript_records(0, transcript), sort_keys=True)
