"""Unit directions, orthonormal frames, and the chord metric.

Directions are plain float64 numpy arrays of shape (3,) with unit norm;
frames are proper rotation matrices of shape (3, 3) whose column k is the
owner's local axis k expressed in global coordinates.  Both are validated
at construction time by :func:`as_direction` / :func:`as_frame` so that
downstream protocol code can operate on raw arrays without re-checking.

Distances and dot products are accumulated with ``math.fsum`` so the result
is the correctly rounded sum regardless of component order.  This makes
every derived statistic bit-stable under global rotations that are exactly
representable in floating point (signed axis permutations), which the
simulator's replay checks rely on.
"""

from __future__ import annotations

import math

import numpy as np

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


def angle_between(u, v) -> float:
    """Angle in radians; dot clamped to [-1, 1] to survive rounding at the poles."""
    return math.acos(min(1.0, max(-1.0, dot(u, v))))


def angle_from_chord(d: float) -> float:
    return 2.0 * math.asin(min(1.0, max(0.0, d / 2.0)))


def to_frame(v, frm, to) -> np.ndarray:
    """Re-express ``v`` (coordinates in frame ``frm``) in frame ``to``.

    Returns to^T (frm v): the same physical vector, new coordinates.
    """
    return to.T @ (frm @ np.asarray(v, dtype=np.float64))


def to_global(v, frm) -> np.ndarray:
    """Coordinates of ``v`` (local to ``frm``) in the global frame."""
    return frm @ np.asarray(v, dtype=np.float64)


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere (normalized Gaussian draw)."""
    while True:
        g = rng.standard_normal(3)
        norm = math.sqrt(math.fsum((g[0] * g[0], g[1] * g[1], g[2] * g[2])))
        if norm > 1e-12:
            return g / norm


def random_frame(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform proper rotation via sign-corrected QR of a Gaussian matrix."""
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    # Absorbing the signs of diag(r) makes the QR output Haar on O(3).
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0.0:
        # Right-multiply by diag(1, 1, -1): an exact, measure-preserving map
        # from the det=-1 component onto SO(3).
        q[:, 2] = -q[:, 2]
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
