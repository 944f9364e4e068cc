"""The one-sheeted hyperboloid sum x_k^2 - t^2 = R^2 and its geodesics.

Events live on the hyperboloid; world lines are boost orbits through a base
event; the rulings of the surface supply the null geodesics. All samplers
take an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .minkowski import (
    _GAMMA_PER_TERM,
    EPS,
    Isometry,
    TimeDirection,
    _as_vector,
    _cosh,
    _form,
    _negligible,
    _norm,
    _time_direction,
)


@dataclass(frozen=True)
class SpacetimeContext:
    """Ambient parameters: radius R, spatial dimension n, relative tolerance."""

    radius: float = 1.0
    n: int = 2
    tol: float = EPS

    def __post_init__(self):
        # orientation_field divides by R |x| >= R^2, and membership at the
        # throat sums |x|^2 + R^2 = 2 R^2: both must be finite and normal.
        r = self.radius
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"radius must be finite and positive, got {r}")
        r2 = float(r) * float(r)
        if not (sys.float_info.min <= r2 and 2.0 * r2 <= sys.float_info.max):
            raise ValueError(f"2 R^2 is not finite or R^2 is not normal for radius {r}")
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"spatial dimension must be an integer, got {self.n!r}") from None
        if self.n < 2:
            raise ValueError(f"spatial dimension must be >= 2, got {self.n}")
        # At tol >= 1 membership accepts the origin, where orientation_field is 0/0.
        if not 0.0 <= self.tol < 1.0:
            raise ValueError(f"tol must be in [0, 1), got {self.tol}")


def _check_context(ctx: SpacetimeContext, other: SpacetimeContext) -> None:
    # The identity test spares the field comparison for one shared context.
    if other is not ctx and other != ctx:
        raise ValueError(f"arguments from different spacetimes: {ctx} and {other}")


def _as_point(v, ctx: SpacetimeContext) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != ctx.n + 1:
        raise ValueError(f"expected {ctx.n + 1} components, got shape {v.shape}")
    return v


def _member(v: np.ndarray, ctx: SpacetimeContext) -> bool:
    r2 = ctx.radius**2
    t = float(v[-1])
    # The two partial sums of <v, v>, as _form computes them.
    space, time = float(v[:-1] @ v[:-1]), t * t
    # The band tol R^2 is a width on the surface; only the rounding floor
    # grows with |t|, so a point far off the surface at |t| >> R is refused.
    floor = (v.size + 1) * _GAMMA_PER_TERM * (space + time + r2)
    return abs(space - time - r2) <= max(ctx.tol * r2, floor) < math.inf


def _read_only_copy(a) -> np.ndarray:
    """A read-only float copy of an array-like, which nothing else holds."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def on_hyperboloid(v, ctx: SpacetimeContext) -> bool:
    """Membership: |<v, v> - R^2| <= max(tol R^2, gamma (|x|^2 + t^2 + R^2))."""
    return _member(_as_point(v, ctx), ctx)


@dataclass(frozen=True)
class Event:
    """A point certified to lie on the hyperboloid."""

    point: np.ndarray
    context: SpacetimeContext

    def __post_init__(self):
        point = _read_only_copy(_as_point(self.point, self.context))
        object.__setattr__(self, "point", point)
        if not _member(point, self.context):
            raise ValueError(
                f"point {point} is not on the hyperboloid of radius "
                f"{self.context.radius}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        same = self.context is other.context or self.context == other.context
        # Points are 1-d float arrays: equal lists are equal shapes and
        # values, with -0.0 == 0.0 as for the arrays.
        return same and self.point.tolist() == other.point.tolist()

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which == treats as equal.
        return hash((self.context, (self.point + 0.0).tobytes()))

    @classmethod
    def _exact(cls, point: np.ndarray, context: SpacetimeContext) -> "Event":
        """Wrap a fresh array that is exactly an event's point or its negation,
        or the throat point (R, 0, ..., 0).

        Negation is exact and <-x, -x> equals <x, x> bit for bit, and the
        throat point's residual is exactly 0, so such a point is certified
        already; the Event takes ownership of `point` and makes it read-only.
        """
        point.setflags(write=False)
        e = object.__new__(cls)
        object.__setattr__(e, "point", point)
        object.__setattr__(e, "context", context)
        return e

    @functools.cached_property
    def _frame_rows(self) -> np.ndarray:
        """The x_1 and t rows of the inverse canonical frame here, read-only
        (orientation_field is future unit timelike and tangent here by
        construction). They are built on first use and kept in the instance
        __dict__ outside the fields, so ==, hash and repr ignore them; `point`
        is read-only, so they cannot go stale."""
        frame = canonicalize(WorldLine._exact(self, orientation_field(self)))
        rows = frame.inverse().matrix[[0, -1]]
        rows.flags.writeable = False
        return rows

    @property
    def spatial(self) -> np.ndarray:
        return self.point[:-1]

    @property
    def t(self) -> float:
        return float(self.point[-1])


def event(ctx: SpacetimeContext, *coords) -> Event:
    """Convenience constructor from individual coordinates."""
    if len(coords) == 1:
        coords = coords[0]
    return Event(point=np.asarray(coords, dtype=float), context=ctx)


@dataclass(frozen=True)
class SliceSphere:
    """The constant-time section t = c: a round sphere of radius sqrt(R^2+c^2)."""

    context: SpacetimeContext
    t: float
    spatial_radius: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"slice time must be finite, got {self.t}")
        _check_span(self.context, abs(self.t) / self.context.radius)
        r = math.hypot(self.context.radius, self.t)
        object.__setattr__(self, "spatial_radius", r)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform events on the slice, shape (count, n+1)."""
        return _sphere_points(rng, count, self.context.n, self.spatial_radius, last=self.t)

    def contains(self, e: Event) -> bool:
        """|t(e) - t| <= max(tol, gamma) |e|_E, where |e|_E >= R and |t(e)|."""
        _check_context(self.context, e.context)
        return _negligible(e.t - self.t, _norm(e.point), self.context.tol, 2)


def _sphere_points(
    rng: np.random.Generator, count: int, dim: int, scale, first=None, last=None
) -> np.ndarray:
    """Uniform points on spheres of radius `scale` (a float, or one per row)
    about the origin of R^dim, as a fresh C-ordered (count, dim) array between
    the optional columns `first` and `last`. Each is a normal draw over its
    norm (squares summed left to right, as np.linalg.norm(v, axis=1) does for
    dim < 8), times its scale."""
    v = rng.standard_normal((count, dim)).T.copy()
    norms = np.sqrt(sum(row * row for row in v))
    # Resample degenerate draws; probability ~0 but keeps the result total.
    while (bad := norms < 1e-12).any():
        v[:, bad] = rng.standard_normal((int(bad.sum()), dim)).T
        norms = np.sqrt(sum(row * row for row in v))
    v /= norms
    lead = first is not None
    pts = np.empty((count, lead + dim + (last is not None)))
    if lead:
        pts[:, 0] = first
    if last is not None:
        pts[:, -1] = last
    for k, row in enumerate(v, lead):
        np.multiply(row, scale, out=pts[:, k])
    return pts


def _check_span(ctx: SpacetimeContext, t_span: float) -> None:
    """Raise ValueError unless events with |t| <= t_span R are representable:
    Event's membership test sums |x|^2 + t^2 + R^2 = 2 (1 + t_span^2) R^2."""
    r = ctx.radius
    t = t_span * r
    if not math.isfinite(2.0 * (r * r + t * t)):
        raise ValueError(f"2 (1 + t_span^2) R^2 is not finite for t_span {t_span}, radius {r}")


def sample_hyperboloid(
    ctx: SpacetimeContext,
    count: int,
    rng: np.random.Generator,
    t_span: float = 3.0,
) -> np.ndarray:
    """Random events with t uniform in [-t_span*R, t_span*R], shape (count, n+1)."""
    _check_span(ctx, t_span)
    r = ctx.radius
    t = rng.uniform(-t_span * r, t_span * r, count)
    return _sphere_points(rng, count, ctx.n, np.sqrt(r**2 + t**2), last=t)


def _check_direction(p: Event, u: np.ndarray, uu: float, name: str, kind: str) -> None:
    """Raise ValueError unless u has p's dimension, <u, u> = uu and <p, u> = 0,
    each to p's ctx.tol relative to its terms (|u|_E^2 + |uu|, |p|_E |u|_E)."""
    ctx = p.context
    if u.size != ctx.n + 1:
        raise ValueError(f"{name} dimension does not match the base event")
    nu = _norm(u)
    q = _form(u, u)
    if not _negligible(q - uu, nu * nu + abs(uu), ctx.tol, u.size + 1):
        raise ValueError(f"{name} is not {kind}: <u,u> = {q}")
    if not _negligible(_form(p.point, u), nu * _norm(p.point), ctx.tol, u.size):
        raise ValueError(f"{name} is not tangent to the hyperboloid at the base")


@dataclass(frozen=True, eq=False)
class WorldLine:
    """Timelike geodesic L(psi) = cosh(psi) p + R sinh(psi) u.

    The base p lies on the hyperboloid, the tangent u is a future unit
    timelike vector with <p, u> = 0; psi is the rapidity of the boost
    subgroup whose orbit the line is. at, velocity and sample raise
    ValueError unless every cosh(psi) is finite.
    """

    base: Event
    tangent: np.ndarray

    def __post_init__(self):
        u = _as_vector(self.tangent).copy()
        object.__setattr__(self, "tangent", u)
        _check_direction(self.base, u, -1.0, "tangent", "unit timelike")
        if _time_direction(u) is not TimeDirection.FUTURE:
            raise ValueError("tangent must be future directed")

    @classmethod
    def _exact(cls, base: Event, tangent: np.ndarray) -> "WorldLine":
        """Wrap a fresh tangent that is future unit timelike and tangent at
        `base` by construction; the WorldLine takes ownership of it."""
        line = object.__new__(cls)
        object.__setattr__(line, "base", base)
        object.__setattr__(line, "tangent", tangent)
        return line

    @property
    def context(self) -> SpacetimeContext:
        return self.base.context

    def at(self, psi: float) -> np.ndarray:
        r = self.context.radius
        return _cosh(psi) * self.base.point + r * math.sinh(psi) * self.tangent

    def velocity(self, psi: float) -> np.ndarray:
        """dL/dpsi; at psi = 0 this is R times the unit tangent."""
        r = self.context.radius
        return r * _cosh(psi) * self.tangent + math.sinh(psi) * self.base.point

    def sample(self, psis) -> np.ndarray:
        psis = np.asarray(psis, dtype=float)[:, None]
        r = self.context.radius
        return _cosh(psis) * self.base.point + r * np.sinh(psis) * self.tangent


def canonical_worldline(ctx: SpacetimeContext) -> WorldLine:
    """The boost orbit through (R, 0, ..., 0) with tangent (0, ..., 0, 1)."""
    eye = np.eye(ctx.n + 1)
    return WorldLine._exact(Event._exact(ctx.radius * eye[0], ctx), eye[-1])


def orientation_field(e: Event) -> np.ndarray:
    """The future unit timelike tangent orthogonal to the constant-time slices.

    At an event (x, t) with |x|^2 = R^2 + t^2 the field is
        Y = (t x / (R |x|), |x| / R),
    which is unit timelike, tangent to the hyperboloid, has spatial part
    parallel to x, and reduces to (0, ..., 0, 1) on the throat.
    """
    r = e.context.radius
    x = e.spatial
    nx = _norm(x)
    y = np.empty_like(e.point)
    y[:-1] = e.t * x / (r * nx)
    y[-1] = nx / r
    return y


def _complement(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the complement of a nonzero a: rows 2.. of
    the Householder reflection along v = a/|a| + sign(a_1) e_1, whose sign
    keeps v away from zero."""
    v = a / _norm(a)
    v[0] += math.copysign(1.0, v[0])
    return np.eye(a.size)[1:] - (2.0 / float(v @ v)) * np.outer(v[1:], v)


def canonicalize(line: WorldLine) -> Isometry:
    """Time-preserving isometry mapping the canonical world line onto `line`.

    Closed form: the first column is base/R and the last is the tangent
    u = (s, g), both exactly. The boost B_u = [[I + s s^T/(1+g), s], [s^T, g]]
    takes (0, ..., 0, 1) to u, and its inverse takes base/R to the spatial
    unit vector a. B_u maps the Householder complement of a onto the
    spacelike columns, h -> (h + s (s.h)/(1+g), s.h).
    """
    first = line.base.point / line.context.radius
    u = line.tangent
    s, g = u[:-1], u[-1]
    a = first[:-1] + s * ((s @ first[:-1]) / (1.0 + g) - first[-1])
    h = _complement(a).T
    sh = s @ h
    spacelike = np.vstack([h + np.outer(s, sh / (1.0 + g)), sh])
    return Isometry(matrix=np.column_stack([first, spacelike, u]))


@dataclass(frozen=True, eq=False)
class NullRay:
    """Straight line gamma(s) = p0 + s u lying entirely on the hyperboloid: the
    ruling through the base p0 along a null, nonzero direction u tangent at p0."""

    base: Event
    direction: np.ndarray

    def __post_init__(self):
        u = _as_vector(self.direction).copy()
        object.__setattr__(self, "direction", u)
        _check_direction(self.base, u, 0.0, "direction", "null")
        if not u.any():
            raise ValueError("direction must be nonzero")

    def at(self, s: float) -> np.ndarray:
        return self.base.point + s * self.direction

    def sample(self, ss) -> np.ndarray:
        return self.base.point + np.asarray(ss, dtype=float)[:, None] * self.direction

