"""Flat Lorentz arithmetic on R^{n+1} with signature (+,...,+,-).

Coordinates are ordered (x_1, ..., x_n, t); the form is
    <u, v> = sum_k u_k v_k - u_t v_t.
Time orientation is fixed by the constant field (0, ..., 0, 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Relative width of classify's Null band, |<v, v>| <= EPS |v|_E^2, and the
# default SpacetimeContext.tol. Only the exact zero vector is Zero, the one
# choice that every isometry preserves.
EPS = 1e-9
_GAMMA_PER_TERM = 4.0 * sys.float_info.epsilon


class CausalClass(Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    NULL = "null"
    ZERO = "zero"


class TimeDirection(Enum):
    FUTURE = "future"
    PAST = "past"
    NONE = "none"


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size < 3:
        raise ValueError(
            f"vectors must have n+1 >= 3 components, got {arr.size}"
        )
    return arr


def metric(n: int) -> np.ndarray:
    """The matrix diag(1, ..., 1, -1) with n spatial entries."""
    g = np.eye(n + 1)
    g[-1, -1] = -1.0
    return g


def _form(u: np.ndarray, v: np.ndarray) -> float:
    """<u, v> of two checked 1-d float arrays of equal size."""
    return float(u[:-1] @ v[:-1] - u[-1] * v[-1])


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a checked 1-d float array; equals np.linalg.norm."""
    return math.sqrt(float(v @ v))


def _negligible(residual: float, magnitude: float, tol: float, terms: int) -> bool:
    """|residual| <= max(tol, gamma) * magnitude, where `magnitude` bounds the
    sum of the absolute sizes of the `terms` summands of `residual`. gamma =
    4 * terms * eps, so tol = 0 still allows the rounding of the sum: summing
    `terms` float products errs by at most 0.51 * terms * eps of the magnitude
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1), and
    the rest covers inputs that are a few roundings deep. An overflowed
    magnitude certifies nothing."""
    return abs(residual) <= max(tol, terms * _GAMMA_PER_TERM) * magnitude < math.inf


def inner(u, v) -> float:
    """Lorentz bilinear form of two vectors of equal dimension."""
    u = _as_vector(u)
    v = _as_vector(v)
    if u.size != v.size:
        raise ValueError(f"dimension mismatch: {u.size} vs {v.size}")
    return _form(u, v)


def _classify(v: np.ndarray) -> CausalClass:
    size = math.hypot(*v.tolist())  # |v|_E; hypot scales, so no underflow
    if size == 0.0:
        return CausalClass.ZERO
    if not sys.float_info.min <= size * size <= sys.float_info.max:
        # A NaN or infinite entry makes hypot NaN or infinite, so it lands here.
        if not np.isfinite(v).all():
            raise ValueError(f"a vector with a non-finite entry has no causal class: {v}")
        # An exact power of two takes the largest entry into [1/2, 1), where
        # the terms of <v, v> cannot overflow and their sum is normal.
        v = np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])
        size = math.hypot(*v.tolist())
    q = _form(v, v)
    if _negligible(q, size * size, EPS, v.size):
        return CausalClass.NULL
    return CausalClass.TIMELIKE if q < 0.0 else CausalClass.SPACELIKE


def classify(v) -> CausalClass:
    """Trichotomy of a vector under the form, with a Zero case."""
    return _classify(_as_vector(v))


def _time_direction(v: np.ndarray) -> TimeDirection:
    if _classify(v) in (CausalClass.SPACELIKE, CausalClass.ZERO):
        return TimeDirection.NONE
    # g(X, v) = -v_t for X = (0, ..., 0, 1), and v_t != 0: _classify calls
    # every nonzero v with v_t = 0 Spacelike.
    return TimeDirection.FUTURE if v[-1] > 0.0 else TimeDirection.PAST


def time_direction(v) -> TimeDirection:
    """Future/Past split of non-spacelike vectors by the orientation field."""
    return _time_direction(_as_vector(v))


@dataclass(frozen=True)
class Isometry:
    """A linear map preserving the form."""

    matrix: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Isometry):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    @property
    def preserves_time(self) -> bool:
        # g(X, M X) = -M[-1, -1] for X = (0, ..., 0, 1); negative means the
        # time direction is kept.
        return bool(self.matrix[-1, -1] > 0.0)

    def apply(self, v) -> np.ndarray:
        return self.matrix @ _as_vector(v)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other)).apply(v) = self(other(v))."""
        return Isometry(matrix=self.matrix @ other.matrix)

    def inverse(self) -> "Isometry":
        """G M^T G: the transpose with its mixed space-time entries negated."""
        m = self.matrix.T.copy()
        m[:-1, -1] = -m[:-1, -1]
        m[-1, :-1] = -m[-1, :-1]
        return Isometry(matrix=m)


def isometry_from_matrix(m: np.ndarray) -> Isometry:
    """Wrap a copy of a square matrix, at least 3 x 3, as an Isometry."""
    m = np.array(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
        raise ValueError(f"an isometry needs a square matrix of size >= 3, got shape {m.shape}")
    return Isometry(matrix=m)


def _cosh(psi):
    """cosh(psi): math.cosh of a float, np.cosh of an array. Raises ValueError,
    without a warning, unless every value is finite, and so psi too."""
    try:
        if isinstance(psi, np.ndarray):
            with np.errstate(over="ignore"):
                c = np.cosh(psi)
        elif (c := math.cosh(psi)) < math.inf:
            return c
        finite = np.isfinite(c)
        if finite.all():
            return c
        psi = np.extract(~finite, psi)[0]
    except OverflowError:
        pass
    raise ValueError(f"cosh({psi}) is not finite: a rapidity must be finite with a finite cosh")


def boost(psi: float, n: int = 2) -> Isometry:
    """Hyperbolic rotation in the (x_1, t) plane with rapidity psi. Raises
    ValueError unless cosh(psi) is finite."""
    m = np.eye(n + 1)
    c, s = _cosh(psi), math.sinh(psi)
    m[0, 0] = c
    m[0, -1] = s
    m[-1, 0] = s
    m[-1, -1] = c
    return Isometry(matrix=m)


def central_symmetry(n: int = 2) -> Isometry:
    """Point reflection through the origin; reverses the time direction."""
    return Isometry(matrix=-np.eye(n + 1))


def spatial_rotation(axes: tuple[int, int], angle: float, n: int = 2) -> Isometry:
    """Plane rotation by a finite angle in two spatial coordinates (1-based, in 1..n)."""
    i, j = axes
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"rotation axes must lie in 1..{n}, got {axes}")
    if i == j:
        raise ValueError("rotation axes must be distinct")
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    m = np.eye(n + 1)
    c, s = math.cos(angle), math.sin(angle)
    a, b = i - 1, j - 1
    m[a, a] = c
    m[a, b] = -s
    m[b, a] = s
    m[b, b] = c
    return Isometry(matrix=m)


def verify_isometry(iso: Isometry) -> float:
    """Scaled max-norm residual of M^T G M - G; near zero for a valid isometry.

    The residual is divided by max(1, |M|_max^2) so the check stays
    meaningful for large-rapidity boosts, whose raw residual is dominated by
    rounding of huge hyperbolic entries.
    """
    g = metric(iso.n)
    raw = float(np.max(np.abs(iso.matrix.T @ g @ iso.matrix - g)))
    return raw / max(1.0, float(np.max(np.abs(iso.matrix))) ** 2)
