import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfagree.config import required_qubits, ted_accuracy_bound, ted_success_bound
from rfagree.geometry import distance, random_direction, to_global
from rfagree.netsim import substream
from rfagree.quantum_link import (
    BLOCH_TOL,
    SENTINEL,
    ChannelParams,
    MeasurementTally,
    QuantumMessage,
    frame_axes,
    link_cells,
    measure_batch,
    ted_receive,
)

from helpers import (
    depolarize,
    measure,
    octahedral_rotations,
    outcome_probability,
    random_frame,
    reference_measure_batch,
)


def test_depolarize_noiseless_identity():
    r = np.array([0.1, -0.2, 0.9])
    assert np.array_equal(depolarize(r, 0.0), r)


def test_depolarize_fully_mixed():
    assert np.array_equal(depolarize([0.0, 0.3, -0.9], 1.0), np.zeros(3))


def test_depolarize_shrinks_bloch_vector():
    assert np.allclose(depolarize([0.0, 0.0, 1.0], 0.1), [0.0, 0.0, 0.9])


def test_outcome_probability_aligned():
    axis = np.array([0.0, 0.0, 1.0])
    assert outcome_probability(axis, axis) == pytest.approx(1.0)


def test_outcome_probability_maximally_mixed():
    assert outcome_probability(np.zeros(3), [0.0, 0.0, 1.0]) == pytest.approx(0.5)


def test_outcome_probability_orthogonal():
    assert outcome_probability([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == pytest.approx(0.5)


def test_measure_batch_aligned_axis_is_deterministic():
    n = 500
    params = ChannelParams(epsilon=0.0, n=n)
    msg = QuantumMessage.uniform([0.0, 0.0, 1.0], n)
    rng = np.random.default_rng(0)
    for _ in range(20):
        tally = measure(msg, np.eye(3), params, rng)
        assert tally.k_z == n


def test_measure_batch_orthogonal_axis_moments():
    n = 64
    runs = 10**4
    params = ChannelParams(epsilon=0.0, n=n)
    msg = QuantumMessage.uniform([0.0, 0.0, 1.0], n)
    rng = np.random.default_rng(11)
    ks = np.array([measure(msg, np.eye(3), params, rng).k_x for _ in range(runs)])
    # Binomial(n, 1/2): mean n/2, variance n/4; allow 3 sigma on both.
    mean_sigma = math.sqrt(n / 4.0 / runs)
    assert abs(ks.mean() - n / 2.0) < 3.0 * mean_sigma
    var_sigma = (n / 4.0) * math.sqrt(2.0 / (runs - 1))
    assert abs(ks.var(ddof=1) - n / 4.0) < 3.0 * var_sigma


def test_measure_batch_thirds_partition_two_segments():
    # Segments (+z, 3n/2), (-z, 3n/2): the z third is fed only by the -z
    # segment, so its +1 count is binomial with probability 0, i.e. always 0.
    n = 40
    params = ChannelParams(epsilon=0.0, n=n)
    msg = QuantumMessage(
        (
            (np.array([0.0, 0.0, 1.0]), 3 * n // 2),
            (np.array([0.0, 0.0, -1.0]), 3 * n // 2),
        )
    )
    rng = np.random.default_rng(3)
    for _ in range(50):
        tally = measure(msg, np.eye(3), params, rng)
        assert tally.k_z == 0


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["aligned", "anti-aligned"])
def test_measure_batch_clamps_outcome_probability(sign):
    # |r| = 1 + 1e-9 passes link_cells (BLOCH_TOL), and along a receiver
    # axis it puts P(+1) just above 1 (aligned) or just below 0 (anti-
    # aligned).  The draws must equal those at the reference's clamped
    # probability.  The octahedral frame keeps the axes exact.
    n = 1000
    params = ChannelParams(epsilon=0.0, n=n)
    frame = octahedral_rotations()[5]
    axes = frame.T
    for a in range(3):
        state = sign * (1.0 + 1e-9) * axes[a]
        raw = 0.5 * (1.0 + float(state @ axes[a]))
        assert raw > 1.0 if sign > 0 else raw < 0.0
        tally = measure(QuantumMessage.uniform(state, n), frame, params, np.random.default_rng(a))
        rng = np.random.default_rng(a)
        expected = [int(rng.binomial(n, outcome_probability(state, axis))) for axis in axes]
        assert list(tally[:3]) == expected
        assert tally[a] == (n if sign > 0 else 0)
        assert all(type(k) is int for k in tally)


def assert_measured_like_reference(cells, axes, params, seed):
    """``measure_batch`` draws the reference loop's tally bit for bit, every k a Python int."""
    tally = measure_batch(cells, axes, params, np.random.default_rng(seed))
    expected = reference_measure_batch(cells, axes, params, np.random.default_rng(seed))
    assert tally == expected
    assert [type(k) for k in tally] == [int] * 4
    assert type(tally) is MeasurementTally


# The fast path (one cell per axis, in axis order) against the per-cell loop.
# "random": a state of any length up to 1, any epsilon.
# "aligned" and "anti-aligned": |r| = 1 + BLOCH_TOL along a receiver axis,
# which at epsilon = 0 puts P(+1) just above 1 or just below 0, so the clamp
# decides the draw; the octahedral frames keep the axes exact.
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["random", "aligned", "anti-aligned"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10**6),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 1.0),
)
@example("aligned", 5, 1000, 0.0, 1.0)
@example("anti-aligned", 5, 1000, 0.0, 1.0)
def test_measure_batch_fast_path_equals_loop(kind, seed, n, epsilon, length):
    params = ChannelParams(epsilon=epsilon, n=n)
    rng = np.random.default_rng(seed)
    if kind == "random":
        frame = random_frame(rng)
        state = length * random_direction(rng)
    else:
        frame = octahedral_rotations()[seed % 24]
        state = (1.0 if kind == "aligned" else -1.0) * (1.0 + BLOCH_TOL) * frame.T[seed % 3]
    cells = link_cells(QuantumMessage.uniform(state, n), np.eye(3), params)
    assert [cell[0] for cell in cells] == [0, 1, 2]  # the fast path's shape
    axes = frame_axes(frame)
    if kind != "random" and epsilon == 0.0:
        raw = 0.5 * (1.0 + float(np.dot(state, frame.T[seed % 3])))
        assert raw > 1.0 if kind == "aligned" else raw < 0.0
    assert_measured_like_reference(cells, axes, params, seed)


@pytest.mark.parametrize(
    "segments",
    [
        # Three segments, one per axis: the fast path, each cell its own state.
        pytest.param(
            [([0.0, 0.0, 1.0], 40), ([0.6, 0.0, -0.8], 40), ([0.0, -0.3, 0.0], 40)],
            id="one-segment-per-axis",
        ),
        # The rest have other shapes, so they take the loop.
        pytest.param([([0.0, 0.0, 1.0], 60), ([0.0, 0.0, -1.0], 60)], id="two-segments"),
        pytest.param(
            [([0.6, 0.8, 0.0], 1), ([0.0, 0.0, 1.0], 118), ([1.0, 0.0, 0.0], 1)],
            id="three-segments-five-cells",
        ),
        pytest.param([([0.0, 0.6, 0.8], 20)] * 6, id="six-segments"),
    ],
)
def test_measure_batch_multi_cell_messages_equal_loop(segments):
    n = 40
    params = ChannelParams(epsilon=0.05, n=n)
    msg = QuantumMessage(tuple((np.array(state), count) for state, count in segments))
    cells = link_cells(msg, np.eye(3), params)
    axes = frame_axes(random_frame(np.random.default_rng(8)))
    assert_measured_like_reference(cells, axes, params, 8)


def test_measure_batch_cells_out_of_axis_order_take_the_loop():
    # One cell per axis, but not in axis order, which link_cells never
    # builds: the fast path would draw axis 0 from the first cell.
    params = ChannelParams(epsilon=0.0, n=40)
    cells = [(1, 40, 0.6, 0.0, -0.8), (0, 40, 0.0, 0.0, 1.0), (2, 40, 0.0, -0.3, 0.0)]
    axes = frame_axes(random_frame(np.random.default_rng(8)))
    assert_measured_like_reference(cells, axes, params, 8)


def test_measure_batch_rejects_count_mismatch():
    params = ChannelParams(epsilon=0.0, n=10)
    bad = QuantumMessage(((np.array([0.0, 0.0, 1.0]), 29),))
    with pytest.raises(ValueError):
        measure(bad, np.eye(3), params, np.random.default_rng(0))


def test_measure_batch_frame_covariance_bit_identical():
    # Rotating sender direction and receiver frame together by an exactly
    # representable rotation leaves tallies bit-identical under common
    # random numbers.
    n = 1000
    params = ChannelParams(epsilon=0.2, n=n)
    base_rng = np.random.default_rng(17)
    direction = random_direction(base_rng)
    frame = random_frame(base_rng)
    for idx, rot in enumerate(octahedral_rotations()):
        t1 = measure(
            QuantumMessage.uniform(direction, n), frame, params, substream(1, 2, 3, idx, 0)
        )
        t2 = measure(
            QuantumMessage.uniform(rot @ direction, n), rot @ frame, params, substream(1, 2, 3, idx, 0)
        )
        assert t1 == t2


def test_ted_receive_axis_tally():
    n = 10
    tally = MeasurementTally(n, n // 2, n // 2, n)
    v, degenerate = ted_receive(tally)
    assert not degenerate
    assert np.allclose(v, [1.0, 0.0, 0.0])


def test_ted_receive_degenerate_sentinel():
    n = 8
    v, degenerate = ted_receive(MeasurementTally(n // 2, n // 2, n // 2, n))
    assert degenerate
    assert np.array_equal(v, SENTINEL)


def test_ted_receive_hand_computed():
    v, degenerate = ted_receive(MeasurementTally(3, 3, 2, 4))
    assert not degenerate
    assert np.allclose(v, [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.data())
def test_ted_receive_unit_norm_or_flagged(n, data):
    k = [data.draw(st.integers(min_value=0, max_value=n)) for _ in range(3)]
    v, degenerate = ted_receive(MeasurementTally(k[0], k[1], k[2], n))
    if degenerate:
        assert np.array_equal(v, SENTINEL)
    else:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_accuracy_bound_noise_free():
    assert ted_accuracy_bound(0.07, 0.0) == pytest.approx(0.07)


def test_accuracy_bound_paper_formula():
    assert ted_accuracy_bound(0.05, 0.1) == pytest.approx(0.295)


def test_accuracy_bound_vacuous_at_full_noise():
    assert ted_accuracy_bound(0.02, 1.0) == pytest.approx(2.5)


def test_success_bound_frozen_value():
    # Independent evaluation: exponent 2 * 1e4 * 0.05^2 / 25 = 2.
    expected = (1.0 - 2.0 * math.exp(-2.0)) ** 3
    assert expected == pytest.approx(0.38794594983180314, abs=1e-15)
    assert ted_success_bound(10**4, 0.05) == pytest.approx(expected, abs=1e-15)


def test_success_bound_clamps_to_zero():
    assert ted_success_bound(1, 1e-6) == 0.0


def test_success_bound_limit_one():
    assert ted_success_bound(10**12, 0.05) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.floats(min_value=1e-3, max_value=0.5))
def test_success_bound_monotone_in_n(n, delta):
    assert ted_success_bound(n + 1, delta) >= ted_success_bound(n, delta)


def test_required_qubits_paper_worked_example():
    delta = 0.02 / 30.0
    q_link = 0.99 ** (1.0 / 100.0)
    n = required_qubits(delta, q_link)
    assert 3.05e8 <= n <= 3.15e8


def test_required_qubits_against_binary_search():
    def search(delta, q):
        lo, hi = 1, 1
        while ted_success_bound(hi, delta) < q:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if ted_success_bound(mid, delta) >= q:
                hi = mid
            else:
                lo = mid + 1
        return lo

    assert required_qubits(0.05, 0.89) == search(0.05, 0.89) == 19804


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=5e-3, max_value=0.5),
    st.floats(min_value=0.01, max_value=0.999),
)
def test_required_qubits_minimality(delta, q_target):
    n = required_qubits(delta, q_target)
    assert ted_success_bound(n, delta) >= q_target
    if n > 1:
        assert ted_success_bound(n - 1, delta) < q_target


def test_empirical_accuracy_beats_bound_quick():
    # Small-scale version of the bound-dominance check (the acceptance
    # suite runs the full-size one).
    n, delta = 2000, 0.05
    params = ChannelParams(epsilon=0.0, n=n)
    trials = 2000
    bound = ted_success_bound(n, delta)
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(trials):
        direction = random_direction(rng)
        frame = random_frame(rng)
        tally = measure(QuantumMessage.uniform(direction, n), frame, params, rng)
        estimate_local, _ = ted_receive(tally)
        if distance(to_global(estimate_local, frame), direction) <= delta:
            hits += 1
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    assert hits / trials >= bound - 3.0 * sigma


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(epsilon=-0.1, n=10)
    with pytest.raises(ValueError):
        ChannelParams(epsilon=1.5, n=10)
    with pytest.raises(ValueError):
        ChannelParams(epsilon=0.0, n=0)


def test_quantum_message_validation():
    params = ChannelParams(epsilon=0.0, n=10)
    msg = QuantumMessage(((np.array([0.0, 0.0, 2.0]), 30),))
    with pytest.raises(ValueError):
        link_cells(msg, np.eye(3), params)
    with pytest.raises(ValueError):
        link_cells(QuantumMessage(()), np.eye(3), params)
    link_cells(QuantumMessage.uniform([0.0, 0.0, 1.0], 10), np.eye(3), params)
