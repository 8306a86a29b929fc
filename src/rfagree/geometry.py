"""Unit directions, orthonormal frames, and the chord metric.

Directions are 3-sequences of floats with unit norm.  The helpers here
accept lists, tuples and float64 arrays alike and return arrays; the
protocol layers carry Python float lists, on which :func:`distance` and
:func:`dot` give the same bits as on float64 arrays without numpy scalar
overhead.  Frames stay float64 arrays: proper rotation matrices of shape
(3, 3) whose column k is the owner's local axis k expressed in global
coordinates.

Distances and dot products are accumulated with ``math.fsum`` so the result
is the correctly rounded sum regardless of component order.  This makes
every derived statistic bit-stable under global rotations that are exactly
representable in floating point (signed axis permutations), which the
simulator's replay checks rely on.
"""

from __future__ import annotations

import math

import numpy as np


def distance(u, v) -> float:
    """Euclidean (chord) distance between two unit vectors, in [0, 2].

    Equals 2*sin(theta/2) for the angle theta between the vectors.  Both
    inputs must be expressed in the same frame; that is the caller's job.
    """
    # Each component read and each difference computed once: the same IEEE
    # operations as writing (u[k] - v[k]) out twice, so the same bits.
    # Indexing, not unpacking, which is slower on float64 arrays.
    d0 = u[0] - v[0]
    d1 = u[1] - v[1]
    d2 = u[2] - v[2]
    return math.sqrt(math.fsum((d0 * d0, d1 * d1, d2 * d2)))


def dot(u, v) -> float:
    """Order-stable dot product of two 3-vectors."""
    return math.fsum((u[0] * v[0], u[1] * v[1], u[2] * v[2]))


def angle_from_chord(d: float) -> float:
    return 2.0 * math.asin(min(1.0, max(0.0, d / 2.0)))


def to_global(v, frm) -> np.ndarray:
    """Coordinates of ``v`` (local to ``frm``) in the global frame."""
    # ndarray.dot makes the same BLAS call as ``@``, so the same bits, with
    # less overhead per call; the metrics make one call per quantum link.
    # It converts a list ``v`` to float64 itself, more cheaply than asarray.
    return np.asarray(frm).dot(v)


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere (normalized Gaussian draw)."""
    while True:
        g = rng.standard_normal(3)
        norm = math.sqrt(math.fsum((g[0] * g[0], g[1] * g[1], g[2] * g[2])))
        if norm > 1e-12:
            return g / norm


def random_frames(draws) -> np.ndarray:
    """One Haar-uniform proper rotation per Gaussian matrix, as a (k, 3, 3) array.

    ``draws`` is a (k, 3, 3) array of standard normal draws; each matrix
    is taken through a sign-corrected QR.  The stacked ``qr`` and ``det``
    calls factor each matrix on its own, so the result is the same bits as
    one call per matrix.
    """
    q, r = np.linalg.qr(draws)
    # Absorbing the signs of diag(r) makes the QR output Haar on O(3).
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, np.newaxis, :]
    # Right-multiplying by diag(1, 1, -1) is an exact, measure-preserving
    # map from the det=-1 component onto SO(3).
    improper = np.linalg.det(q) < 0.0
    q[improper, :, 2] = -q[improper, :, 2]
    return q


# The cross products below are written out per component, a1*b2 - a2*b1
# and so on, on Python floats: the same operations, in the same order, as
# ``np.cross`` on 3-vectors, so the same bits, without its fixed cost of
# tens of microseconds per call.  Products with a 0.0 or 1.0 are kept, so
# zero signs come out as np.cross gives them.


def rotate_about(v, axis, angle: float) -> np.ndarray:
    """Rodrigues rotation of ``v`` by ``angle`` radians about unit ``axis``."""
    v0, v1, v2 = v = [float(c) for c in v]
    a0, a1, a2 = axis = [float(c) for c in axis]
    c = math.cos(angle)
    s = math.sin(angle)
    d = dot(axis, v)
    k = 1.0 - c
    return np.array(
        [
            v0 * c + (a1 * v2 - a2 * v1) * s + a0 * d * k,
            v1 * c + (a2 * v0 - a0 * v2) * s + a1 * d * k,
            v2 * c + (a0 * v1 - a1 * v0) * s + a2 * d * k,
        ]
    )


#: The canonical axes, by index.
_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def any_orthogonal(v) -> np.ndarray:
    """Some unit vector orthogonal to finite unit ``v`` (deterministic choice)."""
    # Cross with whichever canonical axis is least aligned with v: the
    # first of the smallest |v_k|, as np.argmin picks it.
    v0, v1, v2 = (float(c) for c in v)
    m0, m1, m2 = abs(v0), abs(v1), abs(v2)
    e0, e1, e2 = _AXES[0 if m0 <= m1 and m0 <= m2 else 1 if m1 <= m2 else 2]
    w = [v1 * e2 - v2 * e1, v2 * e0 - v0 * e2, v0 * e1 - v1 * e0]
    norm = math.sqrt(max(dot(w, w), 1e-300))
    return np.array([w[0] / norm, w[1] / norm, w[2] / norm])
