"""Shared test machinery: exhaustive consensus enumeration, rotations and oracles.

The reference paths and checkers that no run needs live here too: one-link
delivery, the per-link and adversary streams built from scratch, an all-honest
phase-king run over inbox lists, the array forms of the channel and the
outcome probability, the per-cell measurement loop, the chord distance
written out in full, the estimation oracle one link at a time, a round's
slots as a dict, the transcript export built as record dicts, weak and
graded consensus by their full counts, validating direction and frame
constructors, and a summary flattened to its report.csv row.
"""

import itertools
import json
import math

import numpy as np

from rfagree.classical_consensus import (
    CLAIM_ROUND,
    NO_CLAIM,
    VALUE_ROUND,
    PhaseKingNode,
    coerce_bit,
    rounds_for,
)
from rfagree.config import ExperimentConfig
from rfagree.geometry import distance, dot, random_frames, to_global
from rfagree.harness import compute_metrics, quantum_links, trial_record, transcript_records
from rfagree.netsim import QUANTUM_STEPS, prepare_message, substream
from rfagree.quantum_link import (
    BLOCH_TOL,
    ChannelParams,
    MeasurementTally,
    QuantumMessage,
    _is_count,
    frame_axes,
    link_cells,
    measure_batch,
    ted_receive,
)

#: Per-criterion verdict lines collected by the acceptance suite; printed in
#: the terminal summary so they survive output capture.
ACCEPTANCE_LINES = []

UNIT_TOL = 1e-9

_IDENTITY = np.eye(3)


def as_direction(v) -> np.ndarray:
    """Validate and return ``v`` as a unit 3-vector (fresh float64 array)."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (3,):
        raise ValueError(f"direction must have shape (3,), got {arr.shape}")
    norm = math.sqrt(math.fsum(float(c) * float(c) for c in arr))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"direction norm {norm!r} deviates from 1 by more than {UNIT_TOL}")
    return arr.copy()


def as_frame(basis) -> np.ndarray:
    """Validate and return ``basis`` as a proper rotation matrix."""
    mat = np.asarray(basis, dtype=np.float64)
    if mat.shape != (3, 3):
        raise ValueError(f"frame must have shape (3, 3), got {mat.shape}")
    if not np.allclose(mat.T @ mat, _IDENTITY, atol=UNIT_TOL, rtol=0.0):
        raise ValueError("frame basis is not orthonormal")
    if abs(np.linalg.det(mat) - 1.0) > UNIT_TOL:
        raise ValueError("frame basis is not a proper rotation (det != +1)")
    return mat.copy()


def written_out_distance(u, v) -> float:
    """``geometry.distance`` with each difference written out twice: the oracle for its bits."""
    return math.sqrt(
        math.fsum(
            (
                (u[0] - v[0]) * (u[0] - v[0]),
                (u[1] - v[1]) * (u[1] - v[1]),
                (u[2] - v[2]) * (u[2] - v[2]),
            )
        )
    )


def angle_between(u, v) -> float:
    """Angle in radians; dot clamped to [-1, 1] to survive rounding at the poles."""
    return math.acos(min(1.0, max(-1.0, dot(u, v))))


def to_frame(v, frm, to) -> np.ndarray:
    """Re-express ``v`` (coordinates in frame ``frm``) in frame ``to``.

    Returns to^T (frm v): the same physical vector, new coordinates.
    """
    return to.T @ (frm @ np.asarray(v, dtype=np.float64))


def random_frame(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform proper rotation: ``random_frames`` of one 3x3 draw from ``rng``."""
    return random_frames(rng.standard_normal((3, 3))[np.newaxis])[0]


def cross_rotate_about(v, axis, angle: float) -> np.ndarray:
    """``geometry.rotate_about`` with ``np.cross``: the oracle for its per-component form."""
    v = np.asarray(v, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    c = math.cos(angle)
    s = math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * dot(axis, v) * (1.0 - c)


def cross_any_orthogonal(v) -> np.ndarray:
    """``geometry.any_orthogonal`` with ``np.argmin`` and ``np.cross``: its oracle."""
    pick = int(np.argmin(np.abs(v)))
    e = np.zeros(3)
    e[pick] = 1.0
    w = np.cross(v, e)
    return w / math.sqrt(max(dot(w, w), 1e-300))


def depolarize(state, epsilon: float) -> np.ndarray:
    """Bloch vector after the depolarizing channel: shrink by (1 - epsilon)."""
    return (1.0 - epsilon) * np.asarray(state, dtype=np.float64)


def outcome_probability(state, axis) -> float:
    """P(+1) for a Pauli measurement along ``axis`` on Bloch vector ``state``.

    Equals (1 + r.axis)/2 = cos^2(theta/2) for pure states at angle theta.
    Both vectors must be expressed in the same frame.
    """
    p = 0.5 * (1.0 + dot(state, axis))
    return min(1.0, max(0.0, p))


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
    ``RoundEngine.run_round`` does for a whole round.
    """
    cells = prepare_message(msg, sender_frame, params)
    return None if cells is None else measure_batch(cells, frame_axes(receiver_frame), params, rng)


def link_rng(engine, sender: int, receiver: int) -> np.random.Generator:
    """A fresh generator for the engine's current round on link (sender, receiver)."""
    return substream(engine.master_seed, engine.trial, 1 + engine.round_index, sender, receiver)


def adversary_rng(engine) -> np.random.Generator:
    """A fresh generator for the engine's current-round adversary stream."""
    return substream(*engine.adversary_stream())


def coerce_claim(value) -> int:
    return value if value in (0, 1) else NO_CLAIM


def symbol_counts(received, node_id: int) -> tuple:
    """(zeros, ones) of a length-m inbox, the node's own slot left out.

    A slot counts as a 0 or a 1 when it equals one, so absent (None) and
    malformed symbols count as neither, as ``coerce_bit`` and
    :func:`coerce_claim` read them.
    """
    zeros = ones = 0
    for j, value in enumerate(received):
        if j != node_id:
            if value == 1:
                ones += 1
            elif value == 0:
                zeros += 1
    return zeros, ones


def run_all_honest(m: int, t: int, inputs) -> list:
    """Reference run with every node honest; handy for smoke checks."""
    nodes = [PhaseKingNode(i, m, t, inputs[i]) for i in range(m)]
    for r in range(rounds_for(t)):
        slot = [node.payload(r) for node in nodes]
        for node in nodes:
            node.absorb(r, *symbol_counts(slot, node.node_id))
    return [node.output() for node in nodes]


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
            nodes[i].absorb(r, *symbol_counts(inbox, i))
    return tuple(nodes[i].output() for i in honest)


def reference_absorb(node, r, received):
    """``PhaseKingNode.absorb`` by the inbox list: the oracle for absorbing counts.

    ``received`` is a length-m slot list, None = missing; each slot is
    coerced on its own and the node's own slot is replaced by its state.
    Updates ``node`` as the counts-based ``absorb`` would.
    """
    m, t = node.m, node.t
    kind = r % 3
    if kind == VALUE_ROUND:
        ones = sum(node.v if j == node.node_id else coerce_bit(received[j]) for j in range(m))
        if m - ones >= m - t:
            node._claim = 0
        elif ones >= m - t:
            node._claim = 1
        else:
            node._claim = NO_CLAIM
    elif kind == CLAIM_ROUND:
        support = [0, 0]
        for j in range(m):
            c = node._claim if j == node.node_id else coerce_claim(received[j])
            if c != NO_CLAIM:
                support[c] += 1
        node._candidate = NO_CLAIM
        node._strong = False
        for b in (0, 1):
            if support[b] > t:
                node._candidate = b
                node._strong = support[b] >= m - t
    else:
        king = r // 3
        king_bit = coerce_bit(node.payload(r) if node.node_id == king else received[king])
        node.v = node._candidate if node._strong else king_bit
        node._claim = NO_CLAIM
        node._candidate = NO_CLAIM
        node._strong = False


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


def measure(msg, frame, params, rng):
    """``measure_batch`` of a global-frame message at a receiver with ``frame``."""
    return measure_batch(link_cells(msg, np.eye(3), params), frame_axes(frame), params, rng)


def reference_measure_batch(cells, receiver_axes, params, rng):
    """``measure_batch`` as one loop over its cells: the oracle for its fast path.

    One binomial draw per cell, in cell order, at the clamped outcome
    probability of that cell's state along its axis.
    """
    counts = [0, 0, 0]
    for a, count, x, y, z in cells:
        ax, ay, az = receiver_axes[a]
        p = 0.5 * (1.0 + math.fsum((x * ax, y * ay, z * az)))
        if p > 1.0:
            p = 1.0
        elif p < 0.0:
            p = 0.0
        counts[a] += rng.binomial(count, p)
    return MeasurementTally(counts[0], counts[1], counts[2], params.n)


def reference_link_cells(msg, sender_frame, params):
    """``link_cells`` in two steps: rotate into a new message, then validate and add noise.

    The oracle for the one-pass ``link_cells``: every segment is rotated
    first, the rotated message is then checked as a whole, and its cells
    built.  Raises what a malformed payload raises on its way through.
    """
    rotated = QuantumMessage(
        tuple((sender_frame @ np.asarray(state, dtype=np.float64), count) for state, count in msg.segments)
    )
    n = params.n
    if not rotated.segments:
        raise ValueError("message has no segments")
    checked = []
    for state, count in rotated.segments:
        arr = np.asarray(state, dtype=np.float64)
        if arr.shape != (3,):
            raise ValueError("segment state must be a 3-vector")
        if not _is_count(count):
            raise ValueError(f"segment count must be a positive integer, got {count!r}")
        r = arr.tolist()
        if not math.sqrt(dot(r, r)) <= 1.0 + BLOCH_TOL:
            raise ValueError("segment Bloch vector non-finite or longer than 1")
        checked.append((r, count))
    total = sum(count for _, count in rotated.segments)
    if total != 3 * n:
        raise ValueError(f"segment counts sum to {total}, expected {3 * n}")
    shrink = 1.0 - params.epsilon
    cells = []
    start = 0
    for (x, y, z), count in checked:
        x, y, z = shrink * x, shrink * y, shrink * z
        end = start + count
        for a in range(3):
            lo = max(start, a * n)
            hi = min(end, (a + 1) * n)
            if hi > lo:
                cells.append((a, hi - lo, x, y, z))
        start = end
    return cells


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


def reference_link_metrics(links, frames, faulty, delta_eff: float):
    """``harness.link_metrics`` one link at a time: the oracle for its array pass.

    Walks the ``(sender, receiver, sent, tally)`` links one by one, decodes
    each tally a correct node received with ``ted_receive`` and compares a
    correct-to-correct link's estimate with the sent direction by
    ``distance`` in the global frame.
    """
    failures = degenerate = 0
    last = (None, None, None)  # (sender, sent_local, sent direction in the global frame)
    for sender, receiver, sent_local, tally in links:
        if receiver in faulty:
            continue
        estimate_local, flagged = ted_receive(MeasurementTally(*tally))
        degenerate += flagged
        if sender in faulty:
            continue
        if sender != last[0] or sent_local is not last[1]:  # a correct sender's next message
            last = (sender, sent_local, to_global(sent_local, frames[sender]).tolist())
        estimate = to_global(estimate_local, frames[receiver]).tolist()
        if distance(last[2], estimate) > delta_eff:
            failures += 1
    return failures, degenerate


def result_metrics(result):
    """``compute_metrics`` of a TrialResult run without the harness, via its record."""
    p = result.params
    config = ExperimentConfig(m=p.m, t=p.t, delta=p.delta, epsilon=p.channel.epsilon, n=p.channel.n)
    record = trial_record(config, 0, result)
    return compute_metrics(record, quantum_links(result.transcript), p.delta_eff)


def exported_records(trial: int, transcript) -> list:
    """The lines ``harness.transcript_records`` exports, each parsed back to its record."""
    return [json.loads(line) for line in transcript_records(trial, transcript).splitlines()]


def transcript_signature(transcript):
    """Canonical form of a transcript for equality checks: its exported records.

    The export is lossless (see :func:`expand_round_record`), so equal
    signatures mean every slot carried and delivered the same thing.
    """
    return exported_records(0, transcript)


def _segments(msg) -> list:
    return [[[float(c) for c in state], int(count)] for state, count in msg.segments]


def _per_sender(entries, encode=None) -> tuple:
    """(shared, per_slot) of a round's :class:`~rfagree.netsim.PerSender` ``entries``.

    ``shared`` has one entry per sender, in ``entries.senders`` order: what
    every one of its slots carried, or None when its slots differ;
    ``per_slot`` maps ``str(sender)`` to its list for each sender whose
    slots differ.  Slots are compared by value, after ``encode`` maps each
    entry but None to its JSON form.
    """
    shared, per_slot = [], {}
    broadcast, lists = entries.broadcast, entries.per_slot
    for sender in entries.senders:
        wire = [broadcast[sender]] if sender in broadcast else lists[sender]
        if encode is not None:
            wire = [None if entry is None else encode(entry) for entry in wire]
        if wire.count(wire[0]) == len(wire):
            shared.append(wire[0])
        else:
            shared.append(None)
            per_slot[str(sender)] = wire
    return shared, per_slot


def reference_transcript_records(trial: int, transcript) -> list:
    """One record dict per round, rounds in order: the transcript export built as dicts.

    The oracle for ``harness.transcript_records``, which writes each line as
    ``json.dumps(record, sort_keys=True) + "\\n"`` of these records.
    Both kinds of round are read per sender from their
    :class:`~rfagree.netsim.PerSender` payloads, and write what a sender
    sent once when all of its slots carry the same thing and per slot
    otherwise (:func:`_per_sender`): a quantum round its payloads, a
    classical round its symbols.  Only a quantum round's tallies are per slot.
    """
    records = []
    for index, rnd in enumerate(transcript):
        step = rnd.step
        rec = {
            "trial": trial,
            "round": index,
            "phase": step.phase,
            "step": step.kind,
            "cc_round": step.cc_round,
            "senders": list(step.senders),
        }
        if step.kind in QUANTUM_STEPS:
            rec["payloads"], rec["slot_payloads"] = _per_sender(rnd.payloads, _segments)
            rec["tallies"] = rnd.deliveries.values()  # a tally encodes as [k_x, k_y, k_z, n]
        else:
            rec["symbols"], rec["slot_symbols"] = _per_sender(rnd.payloads)
        records.append(rec)
    return records


def reference_transcript_text(trial: int, transcript) -> str:
    """:func:`reference_transcript_records` as the text of transcript.jsonl."""
    records = reference_transcript_records(trial, transcript)
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def slot_view(entries) -> dict:
    """{(sender, receiver): entry} of every slot of a :class:`~rfagree.netsim.PerSender`.

    Slots run sender-major over ``entries.senders``, in ``slots`` order.
    Built from ``broadcast``, ``per_slot`` and ``slots`` alone, so it does
    not share the index arithmetic of ``inbox`` or the order of ``values``.
    """
    view = {}
    for sender in entries.senders:
        slots = entries.slots[sender]
        if sender in entries.broadcast:
            view.update(dict.fromkeys(slots, entries.broadcast[sender]))
        else:
            view.update(zip(slots, entries.per_slot[sender], strict=True))
    return view


def expand_round_record(rec, m):
    """One exported round as the per-slot records the export once wrote.

    Each is ``{trial, round, phase, step, cc_round, sender, receiver, kind,
    payload, tally}``, with ``kind`` ``quantum``, ``bit`` or ``absent``, in
    the engine's slot order.  A sender's payload or symbol is its entry of
    ``payloads``/``symbols``, or per slot from ``slot_payloads``/
    ``slot_symbols`` where the record has its list.  The oracle for a
    lossless per-round export.
    """
    header = {key: rec[key] for key in ("trial", "round", "phase", "step", "cc_round")}
    quantum = rec["step"] in QUANTUM_STEPS
    shared, slot_lists = (
        (rec["payloads"], rec["slot_payloads"]) if quantum else (rec["symbols"], rec["slot_symbols"])
    )
    assert len(shared) == len(rec["senders"])
    slots = [
        (idx, j, sender, receiver)
        for idx, sender in enumerate(rec["senders"])
        for j, receiver in enumerate(r for r in range(m) if r != sender)
    ]
    tallies = rec["tallies"] if quantum else [None] * len(slots)
    assert len(tallies) == len(slots)
    expanded = []
    for (idx, j, sender, receiver), delivery in zip(slots, tallies):
        per_slot = slot_lists.get(str(sender))
        payload = shared[idx] if per_slot is None else per_slot[j]
        if quantum:
            kind = "quantum"
            tally = None if delivery is None else dict(zip(("k_x", "k_y", "k_z", "n"), delivery))
        else:
            kind, tally = "bit", None
        expanded.append(
            dict(
                header,
                sender=sender,
                receiver=receiver,
                kind="absent" if payload is None else kind,
                payload=payload,
                tally=tally,
            )
        )
    return expanded


def reference_weak_consensus(w, estimates, m, t, delta):
    """``rf_protocols.weak_consensus`` by the paper's full count.

    Counts every one of the m estimates within 3*delta of w, with no early
    decision; the oracle for the count that stops once it has decided.
    """
    close = sum(1 for j in range(m) if distance(w, estimates[j]) <= 3.0 * delta)
    return w if close >= m - t else None


def reference_graded_consensus(w, estimates, flags, own_flag, m, t, delta):
    """``rf_protocols.graded_consensus`` by the paper's all-pairs count.

    For every flagged j, counts the flagged k (j itself included) within
    10*delta of j's estimate, on the estimates as given; the oracle for the
    pair-once count on Python floats.
    """
    flagged = [j for j in range(m) if flags[j] == 1]
    if not flagged:
        return np.array(w, dtype=np.float64), 0
    best_j = -1
    best_size = -1
    for j in flagged:
        size = sum(1 for k in flagged if distance(estimates[j], estimates[k]) <= 10.0 * delta)
        if size > best_size:
            best_size = size
            best_j = j
    v = np.array(w if own_flag == 1 else estimates[best_j], dtype=np.float64)
    return v, 1 if best_size >= m - t else 0


def flat_summary(summary: dict) -> dict:
    """``summary`` as its report.csv row of values: an object's keys become ``<key>.<subkey>``."""
    flat = {}
    for key, value in summary.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", v) for sub, v in value.items())
        else:
            flat[key] = value
    return flat


def read_report_row(row: dict, expected: dict) -> dict:
    """A csv.DictReader row of report.csv, each cell parsed as JSON unless ``expected``'s is a str."""
    return {k: v if isinstance(expected.get(k), str) else json.loads(v) for k, v in row.items()}
