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
    return math.sqrt(
        math.fsum(
            (
                (u[0] - v[0]) * (u[0] - v[0]),
                (u[1] - v[1]) * (u[1] - v[1]),
                (u[2] - v[2]) * (u[2] - v[2]),
            )
        )
    )


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


def random_frames(rngs) -> np.ndarray:
    """One Haar-uniform proper rotation per generator, as an (k, 3, 3) array.

    Sign-corrected QR of a Gaussian matrix, one 3x3 ``standard_normal``
    draw from each generator; the stacked ``qr`` and ``det`` calls factor
    each matrix on its own, so the result is the same bits as one call per
    matrix.
    """
    a = np.stack([rng.standard_normal((3, 3)) for rng in rngs])
    q, r = np.linalg.qr(a)
    # Absorbing the signs of diag(r) makes the QR output Haar on O(3).
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, np.newaxis, :]
    # Right-multiplying by diag(1, 1, -1) is an exact, measure-preserving
    # map from the det=-1 component onto SO(3).
    improper = np.linalg.det(q) < 0.0
    q[improper, :, 2] = -q[improper, :, 2]
    return q


def rotate_about(v, axis, angle: float) -> np.ndarray:
    """Rodrigues rotation of ``v`` by ``angle`` radians about unit ``axis``."""
    v = np.asarray(v, dtype=np.float64)
    axis = np.asarray(axis, dtype=np.float64)
    c = math.cos(angle)
    s = math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * dot(axis, v) * (1.0 - c)


def any_orthogonal(v) -> np.ndarray:
    """Some unit vector orthogonal to unit ``v`` (deterministic choice)."""
    # Cross with whichever canonical axis is least aligned with v.
    pick = int(np.argmin(np.abs(v)))
    e = np.zeros(3)
    e[pick] = 1.0
    w = np.cross(v, e)
    return w / math.sqrt(max(dot(w, w), 1e-300))
