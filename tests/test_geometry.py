import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfagree.geometry import any_orthogonal, distance, random_direction, rotate_about, to_global

from helpers import (
    angle_between,
    as_direction,
    as_frame,
    cross_any_orthogonal,
    cross_rotate_about,
    random_frame,
    to_frame,
    written_out_distance,
)

TOL = 1e-9


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


vector_components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def directions(draw):
    v = np.array([draw(vector_components) for _ in range(3)])
    n = np.linalg.norm(v)
    if n < 0.1:
        v = np.array([1.0, 0.0, 0.0])
        n = 1.0
    return v / n


# Components of directions and mixed states, with room to spare.
_components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(st.lists(_components, min_size=3, max_size=3), st.lists(_components, min_size=3, max_size=3))
@example([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
@example([0.6, 0.8, 0.0], [0.6, 0.8, 0.0])
def test_distance_equals_written_out_formula(u, v):
    # One subtraction per component gives the bits of the formula that
    # writes each difference out twice, on lists and on float64 arrays.
    want = written_out_distance(u, v).hex()
    assert distance(u, v).hex() == want
    assert distance(np.array(u), np.array(v)).hex() == want
    assert type(distance(np.array(u), np.array(v))) is float


@st.composite
def frames(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_frame(rng)


def test_distance_identity():
    u = unit([0.3, -0.4, 0.5])
    assert distance(u, u) == 0.0


def test_distance_antipodal_is_two():
    assert distance([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]) == pytest.approx(2.0, abs=TOL)


def test_distance_right_angle():
    assert distance([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(math.sqrt(2.0), abs=TOL)


@settings(max_examples=200, deadline=None)
@given(directions(), directions())
def test_chord_identity(u, v):
    d = distance(u, v)
    if not 1e-6 < d < 2.0 - 1e-6:
        # acos is ill-conditioned within an ulp of +-1; endpoints are tested
        # exactly elsewhere.
        return
    theta = angle_between(u, v)
    assert d == pytest.approx(2.0 * math.sin(theta / 2.0), abs=TOL)


@settings(max_examples=100, deadline=None)
@given(directions(), directions(), frames())
def test_rotation_is_isometry(u, v, rot):
    assert distance(rot @ u, rot @ v) == pytest.approx(distance(u, v), abs=TOL)


def test_to_frame_same_frame_is_identity():
    rng = np.random.default_rng(1)
    f = random_frame(rng)
    v = random_direction(rng)
    assert np.allclose(to_frame(v, f, f), v, atol=TOL)


def test_to_frame_pi_rotation_about_x():
    flip = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    out = to_frame([0.0, 0.0, 1.0], np.eye(3), flip)
    assert np.allclose(out, [0.0, 0.0, -1.0], atol=TOL)


@settings(max_examples=100, deadline=None)
@given(directions(), directions(), frames(), frames())
def test_to_frame_matches_global_distance(v1, v2, f1, f2):
    # Independent evaluation: compare in global coordinates directly.
    d_global = distance(f1 @ v1, f2 @ v2)
    d_local = distance(to_frame(v1, f1, f2), v2)
    assert d_local == pytest.approx(d_global, abs=TOL)


@settings(max_examples=100, deadline=None)
@given(directions(), frames(), frames())
def test_to_frame_round_trip(v, a, b):
    back = to_frame(to_frame(v, a, b), b, a)
    assert np.allclose(back, v, atol=TOL)


def test_random_direction_deterministic_per_seed():
    a = random_direction(np.random.default_rng(123))
    b = random_direction(np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_random_direction_is_unit():
    rng = np.random.default_rng(7)
    for _ in range(100):
        as_direction(random_direction(rng))


def test_random_direction_component_means():
    rng = np.random.default_rng(2024)
    total = np.zeros(3)
    above = 0
    samples = 10**5
    for _ in range(samples):
        d = random_direction(rng)
        total += d
        above += d[2] > 0
    means = total / samples
    assert np.all(np.abs(means) < 0.02)
    assert 0.49 <= above / samples <= 0.51


def test_random_frame_invariants_and_determinism():
    f1 = random_frame(np.random.default_rng(99))
    f2 = random_frame(np.random.default_rng(99))
    assert np.array_equal(f1, f2)
    as_frame(f1)


def test_random_frame_pushforward_uniform():
    rng = np.random.default_rng(31337)
    total = np.zeros(3)
    samples = 10**5
    for _ in range(samples):
        total += random_frame(rng)[:, 2]
    assert np.all(np.abs(total / samples) < 0.02)


def test_as_direction_rejects_non_unit():
    with pytest.raises(ValueError):
        as_direction([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        as_direction([0.0, 0.0])


def test_as_frame_rejects_improper_rotation():
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        as_frame(reflection)
    with pytest.raises(ValueError):
        as_frame(np.ones((3, 3)))


def test_to_global_matches_matrix_product():
    # Bit for bit, for any frame layout and vector type: stored metrics and
    # their recomputation in verify both go through to_global.
    rng = np.random.default_rng(5)
    for _ in range(2000):
        f = random_frame(rng)
        v = random_direction(rng)
        stacked = np.array([f.tolist()] * 2)
        for frame in (f, np.asfortranarray(f), stacked[1], f.tolist()):
            product = np.asarray(frame) @ v
            for vec in (v, v.tolist()):
                assert np.array_equal(to_global(vec, frame), product)


@settings(max_examples=100, deadline=None)
@given(directions(), st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotate_about_preserves_angle_to_axis(v, angle):
    axis = any_orthogonal(v)
    rotated = rotate_about(v, axis, angle)
    assert np.linalg.norm(rotated) == pytest.approx(1.0, abs=1e-9)
    assert angle_between(v, rotated) == pytest.approx(abs(angle), abs=1e-7)


# Components with signed zeros, exact ties and magnitudes far from 1, so that
# every argmin pick, tie-break and zero sign is reached.
_components = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
)
_vectors = st.one_of(directions(), st.lists(_components, min_size=3, max_size=3))


@settings(max_examples=500, deadline=None)
@given(_vectors, _vectors, st.floats(min_value=-10.0, max_value=10.0))
@example([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], math.pi / 2)  # axis-aligned
@example([0.0, -1.0, 0.0], [-0.0, 0.0, -1.0], -math.pi)
@example([-0.0, -0.0, 1.0], [0.0, -0.0, -0.0], 0.0)  # negative zeros
@example([-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], 1.0)
@example([0.1, 0.8, 0.6], [0.0, 0.6, -0.8], 0.3)  # argmin picks 0
@example([0.8, 0.1, 0.6], [0.6, 0.0, -0.8], 0.3)  # argmin picks 1
@example([0.8, 0.6, 0.1], [0.6, -0.8, 0.0], 0.3)  # argmin picks 2
@example([0.5, -0.5, 0.75], [0.0, 0.0, 1.0], 2.0)  # smallest |v_k| tied at 0 and 1
@example([0.5, 0.75, -0.5], [1.0, 0.0, 0.0], 2.0)  # at 0 and 2
@example([0.75, -0.5, 0.5], [0.0, 1.0, 0.0], 2.0)  # at 1 and 2
@example([-0.5, 0.5, -0.5], [0.0, -1.0, 0.0], 2.0)  # at all three
def test_float_geometry_equals_np_cross_reference(v, axis, angle):
    # The per-component cross products give np.cross's bits, -0.0 included.
    for vec in (v, np.asarray(v, dtype=np.float64)):
        assert any_orthogonal(vec).tobytes() == cross_any_orthogonal(np.asarray(vec)).tobytes()
    for ax in (axis, any_orthogonal(v)):
        got = rotate_about(v, ax, angle)
        assert got.dtype == np.float64 and got.shape == (3,)
        assert got.tobytes() == cross_rotate_about(v, ax, angle).tobytes()
