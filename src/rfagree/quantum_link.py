"""Two-party direction estimation over a batch of identically prepared qubits.

A sender encodes a direction in the Bloch vector of 3n qubits; the receiver
measures n of them along each of its three local Pauli axes and reconstructs
the direction from the +1-outcome frequencies.  The channel may apply
depolarizing noise, which shrinks every Bloch vector by (1 - epsilon).

The simulation never instantiates individual qubits.  Within one message
segment, the qubits measured along one axis are i.i.d. Bernoulli with a
common success probability, so their +1 count is exactly binomial; sampling
that binomial is identical in law to the per-qubit simulation at any n,
which keeps the n ~ 1e8 regime cheap.  The qubit batch is assigned to axes
deterministically by thirds (first n to x, next n to y, last n to z), so a
multi-segment message from a dishonest sender lands on axes in a fixed,
publicly known way.

Accuracy/success calculators implement the Hoeffding-based guarantee for
this estimator: accuracy (1-eps)*delta + 5*eps/2, success probability at
least (1 - 2 exp(-2 n delta^2 / 25))^3, and its inversion giving the
minimal per-axis qubit count for a target success probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

BLOCH_TOL = 1e-9

#: Sentinel direction (receiver-local coordinates) for degenerate or missing
#: receptions.  Protocols substitute it and keep running rather than abort.
SENTINEL = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class ChannelParams:
    """Depolarizing probability and per-axis qubit count (3n sent in total)."""

    epsilon: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def _is_count(count) -> bool:
    """A positive integral qubit count; bools and non-finite floats are not."""
    if isinstance(count, (bool, np.bool_)):
        return False
    if isinstance(count, (int, np.integer)):
        return count >= 1
    if isinstance(count, (float, np.floating)):
        return math.isfinite(count) and count >= 1 and count == int(count)
    return False


@dataclass(frozen=True)
class QuantumMessage:
    """Bloch segments making up one 3n-qubit batch.

    Each segment is a (bloch_vector, qubit_count) pair; an honest sender uses
    a single segment of 3n identical pure states, a faulty one may vary the
    (possibly mixed, |r| <= 1) state across the batch.
    """

    segments: tuple

    @staticmethod
    def uniform(state, n: int) -> "QuantumMessage":
        """Honest message: 3n copies of one state."""
        return QuantumMessage(((np.asarray(state, dtype=np.float64), 3 * n),))


class MeasurementTally(NamedTuple):
    """Counts of +1 outcomes along the receiver's x, y, z axes (n each).

    :func:`measure_batch` makes each count in [0, n] by construction;
    tallies read back from a file are checked where they are read.
    """

    k_x: int
    k_y: int
    k_z: int
    n: int


#: ``_tally(MeasurementTally, (k_x, k_y, k_z, n))`` builds a tally in one C
#: call, skipping the Python-level ``__new__`` of the NamedTuple.
_tally = tuple.__new__


def _check_bounded(state: np.ndarray) -> None:
    """Raise ValueError unless each component of ``state`` is in [-2, 2], as |r| <= 1 implies.

    Run before the rotation, where inf would make NaN and a huge value overflow, with a warning.
    """
    a, b, c = state.tolist()
    if not (-2.0 <= a <= 2.0 and -2.0 <= b <= 2.0 and -2.0 <= c <= 2.0):
        raise ValueError("segment Bloch vector non-finite or longer than 1")


def link_cells(msg: QuantumMessage, sender_frame: np.ndarray, params: ChannelParams) -> list:
    """Rotate, check and add channel noise to ``msg``: its measurement cells, in one pass.

    The one definition of a well-formed wire message.  Each segment's state,
    in ``sender_frame`` coordinates, is rotated to global ones and must be a
    3-vector with |r| <= 1 + BLOCH_TOL (a rotation keeps |r| to within
    rounding), its count a positive integer, and the counts must sum to 3n;
    otherwise this raises ValueError, TypeError or OverflowError.  Qubits
    0..n-1 go to the x axis, n..2n-1 to y, 2n..3n-1 to z; each (segment,
    axis) cell holding qubits becomes one ``(axis, count, x, y, z)`` entry,
    with the noisy global state as Python floats, in segment-major order
    (the order of the draws in :func:`measure_batch`).  Depends on the
    message and its sender alone, so every receiver of one message can
    share its cells; nothing is cached on the message, whose state arrays
    may change between deliveries.

    The common message, every honest payload and every
    :meth:`QuantumMessage.uniform`, takes a fast path: ``segments`` a
    tuple of one segment whose state is a float64 ``np.ndarray`` of shape
    (3,) and whose count is a Python ``int`` equal to 3n.  Its three cells
    come out directly, with the same rotation, norm check and shrink.  Any
    other message, whatever its segments' types, goes through the loop.
    """
    n = params.n
    # The depolarizing channel, a shrink by (1 - epsilon), on Python floats:
    # the same IEEE products as on float64 arrays (tests/helpers.depolarize),
    # so the same bits, without numpy scalar overhead.
    shrink = 1.0 - params.epsilon
    segments = msg.segments
    if type(segments) is tuple and len(segments) == 1:
        segment = segments[0]
        if type(segment) is tuple and len(segment) == 2:
            state, count = segment
            if (
                type(state) is np.ndarray
                and type(count) is int
                and count == 3 * n
                and state.dtype == np.float64
                and state.shape == (3,)
            ):
                _check_bounded(state)
                x, y, z = (sender_frame @ state).tolist()
                if not math.sqrt(math.fsum((x * x, y * y, z * z))) <= 1.0 + BLOCH_TOL:
                    raise ValueError("segment Bloch vector non-finite or longer than 1")
                x, y, z = shrink * x, shrink * y, shrink * z
                return [(0, n, x, y, z), (1, n, x, y, z), (2, n, x, y, z)]
    cells = []
    start = 0
    for state, count in segments:
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (3,):
            raise ValueError("segment state must be a 3-vector")
        _check_bounded(state)
        if not _is_count(count):
            raise ValueError(f"segment count must be a positive integer, got {count!r}")
        x, y, z = (sender_frame @ state).tolist()
        if not math.sqrt(math.fsum((x * x, y * y, z * z))) <= 1.0 + BLOCH_TOL:
            raise ValueError("segment Bloch vector non-finite or longer than 1")
        x, y, z = shrink * x, shrink * y, shrink * z
        end = start + count
        for a in range(3):
            lo = max(start, a * n)
            hi = min(end, (a + 1) * n)
            if hi > lo:
                cells.append((a, hi - lo, x, y, z))
        start = end
    if start != 3 * n:
        raise ValueError(f"segment counts sum to {start}, expected {3 * n}")
    return cells


def frame_axes(frame) -> list:
    """A receiver's local x, y, z axes in global coordinates, as float lists."""
    return np.asarray(frame, dtype=np.float64).T.tolist()


def measure_batch(
    cells: list,
    receiver_axes: list,
    params: ChannelParams,
    rng: np.random.Generator,
) -> MeasurementTally:
    """Measure a message's :func:`link_cells` along a receiver's axes.

    ``receiver_axes`` is :func:`frame_axes` of the receiver's frame.  Each
    cell contributes one binomial draw, in cell order, which matches the
    per-qubit Bernoulli law exactly.

    Cells with one cell per axis in axis order, as every one-segment
    message has, take a fast path: the three outcome probabilities and
    draws written out, with no loop, and the tally built directly.  Cells
    in any other shape take the loop, which draws the same way.
    """
    # P(+1) = (1 + r.axis)/2 on Python floats, clamped to [0, 1], as
    # tests/helpers.outcome_probability computes it on arrays; by
    # comparisons, since link_cells lets no NaN through.  (A batched einsum
    # rounds differently: it changes about one outcome probability in ten
    # in its last bit.)  ``binomial`` of scalars returns a Python int.
    if len(cells) == 3:
        (a0, c0, x0, y0, z0), (a1, c1, x1, y1, z1), (a2, c2, x2, y2, z2) = cells
        if a0 == 0 and a1 == 1 and a2 == 2:
            (ax, ay, az), (bx, by, bz), (cx, cy, cz) = receiver_axes
            p0 = 0.5 * (1.0 + math.fsum((x0 * ax, y0 * ay, z0 * az)))
            p1 = 0.5 * (1.0 + math.fsum((x1 * bx, y1 * by, z1 * bz)))
            p2 = 0.5 * (1.0 + math.fsum((x2 * cx, y2 * cy, z2 * cz)))
            binomial = rng.binomial
            return _tally(
                MeasurementTally,
                (
                    binomial(c0, 1.0 if p0 > 1.0 else 0.0 if p0 < 0.0 else p0),
                    binomial(c1, 1.0 if p1 > 1.0 else 0.0 if p1 < 0.0 else p1),
                    binomial(c2, 1.0 if p2 > 1.0 else 0.0 if p2 < 0.0 else p2),
                    params.n,
                ),
            )
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


def ted_receive(tally: MeasurementTally):
    """Reconstruct the direction from a tally; returns (direction, degenerate).

    Components are x = 2 k_x / n - 1 etc., normalized to unit length, as a
    list of Python floats.  If all three frequencies are exactly 1/2, the
    raw vector has zero length; the receiver then substitutes
    :data:`SENTINEL` and flags the estimate instead of aborting, so a
    malicious sender cannot crash a correct node.
    """
    n = tally.n
    x = 2.0 * tally.k_x / n - 1.0
    y = 2.0 * tally.k_y / n - 1.0
    z = 2.0 * tally.k_z / n - 1.0
    l = math.sqrt(math.fsum((x * x, y * y, z * z)))
    if l == 0.0:
        return SENTINEL, True
    return [x / l, y / l, z / l], False


def received_direction(delivery):
    """The direction a receiver takes from a quantum delivery (tally or None).

    :data:`SENTINEL` for an absent or malformed message, the decoded tally
    otherwise.
    """
    return SENTINEL if delivery is None else ted_receive(delivery)[0]


def ted_accuracy_bound(delta: float, epsilon: float) -> float:
    """Estimation accuracy over a depolarizing channel: (1-eps)*delta + 5 eps/2."""
    return (1.0 - epsilon) * delta + 2.5 * epsilon


def ted_success_bound(n: int, delta: float) -> float:
    """Lower bound on the estimation success probability.

    Three Hoeffding events (one per axis), each of probability at least
    1 - 2 exp(-2 n delta^2 / 25); the cube is clamped below at zero where
    the bound collapses.
    """
    base = 1.0 - 2.0 * math.exp(-2.0 * n * delta * delta / 25.0)
    return max(0.0, base) ** 3


def required_qubits(delta: float, q_target: float) -> int:
    """Smallest per-axis n with ted_success_bound(n, delta) >= q_target.

    Closed form: n = ceil(25 / (2 delta^2) * ln(2 / (1 - q_target^(1/3)))),
    nudged by +-1 afterwards to absorb floating-point rounding of the ceil.
    """
    if not 0.0 < q_target < 1.0:
        raise ValueError(f"q_target must be in (0, 1), got {q_target}")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    n = math.ceil(25.0 / (2.0 * delta * delta) * math.log(2.0 / (1.0 - q_target ** (1.0 / 3.0))))
    n = max(1, n)
    while ted_success_bound(n, delta) < q_target:
        n += 1
    while n > 1 and ted_success_bound(n - 1, delta) >= q_target:
        n -= 1
    return n
