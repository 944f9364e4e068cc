"""Causal pasts/futures, light cones, and event horizons of the eternal observer.

Every set in play is a half-space (or hyperplane) section of the hyperboloid,
described by a covector acting on ambient coordinates. Membership answers are
three-way (Inside / Boundary / Outside) with an explicit signed margin, so
floating-point points near a horizon are reported as such instead of being
forced to one side.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .manifold import (
    Event,
    SpacetimeContext,
    WorldLine,
    canonical_worldline,
    _as_point,
    _check_context,
    _check_span,
    _complement,
    _sphere_points,
)
from .minkowski import _cosh, _form, _negligible, _norm, _read_only_copy

# Domain bound on witness rapidities: beyond |psi| ~ 60 the cone equation
# saturates at double precision.
_PSI_MAX = 60.0
_COSH_PSI_MAX, _SINH_PSI_MAX = math.cosh(_PSI_MAX), math.sinh(_PSI_MAX)
# Upper bound on the doubling steps of the witness nudge; the step reaches
# the width of the whole window [-_PSI_MAX, _PSI_MAX] well before this.
_NUDGE_CAP = 64


class Region(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class CausalVerdict:
    region: Region
    margin: float


def _verdict(margin: float, band: float, open_only: bool = False) -> CausalVerdict:
    if abs(margin) <= band:
        return CausalVerdict(Region.BOUNDARY, margin)
    if open_only or margin < 0.0:
        return CausalVerdict(Region.OUTSIDE, margin)
    return CausalVerdict(Region.INSIDE, margin)


@dataclass(frozen=True, eq=False)
class HalfSpaceSet:
    """{e on S(R) : a . coords(e) > c}, or the hyperplane {a . coords(e) = c}
    when `hyperplane` is set, in the spacetime `context`, with the tolerance
    band tol * R.

    The margin a . coords(e) - c is positive inside; members of a hyperplane
    are always Boundary. The set keeps a read-only copy of the covector.
    It answers for the coordinates it is given: a point of the wrong width
    or with a NaN margin raises ValueError, but (500, 0, 0) off S(1) is
    Inside J_minus_L, and so is (inf, 0, 0); Event certifies membership.
    The covector and threshold must be finite.
    """

    covector: np.ndarray
    threshold: float
    context: SpacetimeContext
    hyperplane: bool = False
    band: float = field(init=False)

    def __post_init__(self):
        ctx = self.context
        if not isinstance(ctx, SpacetimeContext):
            raise ValueError(f"context must be a SpacetimeContext, got {ctx!r}")
        a = _read_only_copy(_as_point(self.covector, ctx))
        if not np.any(a):
            raise ValueError("covector must be nonzero")
        c = float(self.threshold)
        if not (np.isfinite(a).all() and math.isfinite(c)):
            raise ValueError(f"covector and threshold must be finite, got {a} and {c}")
        object.__setattr__(self, "covector", a)
        object.__setattr__(self, "threshold", c)
        object.__setattr__(self, "band", ctx.tol * ctx.radius)

    def margins(self, points: np.ndarray) -> np.ndarray:
        """Vectorized margins for points of shape (..., n+1)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != self.covector.shape:
            raise ValueError(f"expected {self.covector.size} components, got shape {pts.shape}")
        return pts @ self.covector - self.threshold

    def verdict(self, point) -> CausalVerdict:
        """Raises ValueError where the margin is NaN, which no region holds;
        infinite coordinates are answered without a numpy warning."""
        with np.errstate(invalid="ignore", over="ignore"):
            m = float(self.margins(_as_point(point, self.context)))
        if m != m:
            raise ValueError(f"the margin of {point} is NaN")
        return _verdict(m, self.band, open_only=self.hyperplane)

    def contains(self, point) -> bool:
        return self.verdict(point).region is not Region.OUTSIDE


def _set(
    ctx: SpacetimeContext,
    x1: float,
    t: float,
    threshold: float = 0.0,
    hyperplane: bool = False,
) -> HalfSpaceSet:
    """The set a . e > threshold (= when `hyperplane`) of the covector
    a = (x1, 0, ..., 0, t) in ctx."""
    return HalfSpaceSet((x1,) + (0.0,) * (ctx.n - 1) + (t,), threshold, ctx, hyperplane)


def cone_at_L_psi(ctx: SpacetimeContext, psi: float) -> HalfSpaceSet:
    """Light cone at the observer event of rapidity psi:
    x_1 - t tanh(psi) = R / cosh(psi); the boost image of the throat cone.
    Raises ValueError unless cosh(psi) is finite."""
    return _set(ctx, 1.0, -math.tanh(psi), ctx.radius / _cosh(psi), hyperplane=True)


def J_minus_L(ctx: SpacetimeContext) -> HalfSpaceSet:
    """Observed events of the eternal observer: x_1 - t > 0."""
    return _set(ctx, 1.0, -1.0)


def J_plus_L(ctx: SpacetimeContext) -> HalfSpaceSet:
    """Influenced events of the eternal observer: x_1 + t > 0."""
    return _set(ctx, 1.0, 1.0)


def J_plus_negL(ctx: SpacetimeContext) -> HalfSpaceSet:
    """Causal future of the antipodal observer: x_1 - t < 0."""
    return _set(ctx, -1.0, 1.0)


def J_minus_negL(ctx: SpacetimeContext) -> HalfSpaceSet:
    """Causal past of the antipodal observer: x_1 + t < 0."""
    return _set(ctx, -1.0, -1.0)


def horizon_past(ctx: SpacetimeContext) -> HalfSpaceSet:
    """Past event horizon: the null plane section x_1 = t."""
    return _set(ctx, 1.0, -1.0, hyperplane=True)


def horizon_future(ctx: SpacetimeContext) -> HalfSpaceSet:
    """Future event horizon: the null plane section x_1 + t = 0."""
    return _set(ctx, 1.0, 1.0, hyperplane=True)


def _past_residuals(x1, t, c: float, s: float, r: float):
    """Residuals x_1' - R and -t' of (x_1, t) against the causal past of
    L(psi), (x_1', t') being the x_1 and t rows of boost(-psi), c = cosh(psi)
    and s = sinh(psi), applied to (x_1, t), all floats; the margin is the
    worse of the two."""
    return c * x1 - s * t - r, -(c * t - s * x1)


def causal_past_of_event(q: Event, p: Event) -> CausalVerdict:
    """Is q in the causal past of p? Decided in p's canonical frame.

    p is moved to (R, 0, ..., 0) by the time-preserving frame isometry built
    from the slice-orthogonal tangent u at p; the apex and the cone itself are
    reported as Boundary. In that frame q has x_1' = <p, q>/R and
    t' = -<u, q>, so this route and the chord oracle share the x_1 residual
    (<p, q> - R^2, over R) and differ only in their time residual.
    """
    return _frame_verdict(q, p, 1.0)


def causal_future_of_event(q: Event, p: Event) -> CausalVerdict:
    """Is q in the causal future of p? Mirror of causal_past_of_event."""
    return _frame_verdict(q, p, -1.0)


def _frame_verdict(q: Event, p: Event, time_sign: float) -> CausalVerdict:
    # time_sign = -1 reverses time in p's canonical frame: future for past.
    ctx = p.context
    _check_context(ctx, q.context)
    x1, t = (p._frame_rows @ q.point).tolist()
    # The worse residual by np.minimum's rule, b unless a < b, which keeps
    # the sign of a zero margin.
    a, b = x1 - ctx.radius, -(time_sign * t)
    return _verdict(a if a < b else b, ctx.tol * ctx.radius)


def chord_oracle(p: Event, q: Event) -> CausalVerdict:
    """Is q in the causal future of p? Decided by the ambient chord.

    q lies in the causal future of p exactly when the chord q - p is
    non-spacelike and future directed; equivalently <p, q> >= R^2 with the
    right time order. Margins are in R^2 units.
    """
    return _chord_verdict(p, q, 1.0)


def chord_oracle_past(p: Event, q: Event) -> CausalVerdict:
    """Is q in the causal past of p? Same chord test with time order reversed."""
    return _chord_verdict(p, q, -1.0)


def _chord_verdict(p: Event, q: Event, time_sign: float) -> CausalVerdict:
    ctx = p.context
    _check_context(ctx, q.context)
    c = _form(p.point, q.point) - ctx.radius**2
    dt = time_sign * float(q.point[-1] - p.point[-1])
    # Wrong time order dominates the margin once the chord points pastward.
    margin = min(c, dt * ctx.radius)
    return _verdict(margin, ctx.tol * ctx.radius**2)


def sample_causal_past_canonical(
    ctx: SpacetimeContext, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Random events inside the canonical region {x_1 > R, t < 0} on S(R):
    t uniform in [-3R, 0], then x_1 uniform in [R, sqrt(R^2 + t^2)], so every
    draw has x_1 >= R and t <= 0, the region nesting_check states exactly."""
    _check_span(ctx, 3.0)
    r = ctx.radius
    t = -rng.uniform(0.0, 3.0 * r, count)
    x1 = r + (np.sqrt(r**2 + t**2) - r) * rng.random(count)
    rest_r = np.sqrt(np.maximum(r**2 + t**2 - x1**2, 0.0))
    return _sphere_points(rng, count, ctx.n - 1, rest_r, x1, t)


def sample_horizon(
    ctx: SpacetimeContext,
    count: int,
    rng: np.random.Generator,
    future: bool = False,
    t_span: float = 3.0,
) -> np.ndarray:
    """Random events on a horizon: x_1 = t (past) or x_1 = -t (future).

    On either null plane the remaining spatial coordinates sweep a sphere of
    radius R, independent of t.
    """
    _check_span(ctx, t_span)
    r = ctx.radius
    t = rng.uniform(-t_span * r, t_span * r, count)
    return _sphere_points(rng, count, ctx.n - 1, r, -t if future else t, t)


@dataclass(frozen=True)
class SamplingReport:
    samples: int
    violations: int
    worst_margin: float


def _sample_count(samples) -> int:
    """samples as an int. A bool or a non-integer raises TypeError and a
    negative count ValueError, as numpy's size argument does."""
    if isinstance(samples, bool):
        raise TypeError(f"samples must be an integer, got {samples!r}")
    if (count := operator.index(samples)) < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    return count


def nesting_check(
    ctx: SpacetimeContext,
    psi1: float,
    psi2: float,
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> SamplingReport:
    """Monotonicity of observer pasts: J^-(L(psi1)) lies inside J^-(L(psi2))
    whenever psi1 < psi2, reported for `samples` events of the canonical past.
    Exact, so `rng` is never drawn from. For the gap psi = psi2 - psi1 an
    event's margin is the worse of its _past_residuals under boost(-psi).
    Every sample_causal_past_canonical draw has x_1 >= R and t <= 0, and
    rounding is monotone, so no margin falls below the throat event's, about
    (cosh psi - 1) R >= 0: that is the worst margin, inf for no samples.
    Raises ValueError unless the gap has a finite cosh, and where the sampler
    refuses the span 3R.
    """
    if not psi1 < psi2:
        raise ValueError(f"need psi1 < psi2, got {psi1} >= {psi2}")
    psi = psi2 - psi1
    c = _cosh(psi)
    _check_span(ctx, 3.0)
    count = _sample_count(samples)
    # The throat event's residuals; the worse by np.minimum's rule, b unless a < b.
    a, b = _past_residuals(ctx.radius, 0.0, c, math.sinh(psi), ctx.radius)
    worst = (a if a < b else b) if count else math.inf
    return SamplingReport(samples=count, violations=0, worst_margin=worst)


def horizon_limit_check(ctx: SpacetimeContext, q: Event, psis) -> np.ndarray:
    """Residuals of q against the cone equations C_{L(psi)}.

    q must lie on the past horizon x_1 = t. The residual at rapidity psi is
    the sum of the two independently vanishing gaps
        |x_1 - t tanh(psi)| + R / cosh(psi),
    i.e. the distance to the asymptotic plane plus the decaying threshold;
    for x_1 = t >= 0 it decreases strictly to zero, exhibiting the horizon as
    the limiting cone position. Raises ValueError unless every cosh(psi) is
    finite.
    """
    _check_context(ctx, q.context)
    if horizon_past(ctx).verdict(q.point).region is not Region.BOUNDARY:
        raise ValueError("event is not on the past horizon x_1 = t")
    psis = np.asarray(psis, dtype=float)
    x1, t = float(q.point[0]), q.t
    return np.abs(x1 - t * np.tanh(psis)) + ctx.radius / _cosh(psis)


@dataclass(frozen=True, eq=False)
class ThroatIntersection:
    """The past horizon's trace on the throat slice: the great sphere
    {a . x = 0} of |x| = R, an intrinsic sphere of radius pi R / 2 about its
    pole R a. The pole is the observer's throat event only when the observer
    crosses the throat at rest (u_x = 0), as the canonical one does. The
    normal must be a finite unit vector of n components, to ctx.tol."""

    context: SpacetimeContext
    plane_normal: np.ndarray  # spatial covector a of the horizon plane, unit

    def __post_init__(self):
        a = _read_only_copy(self.plane_normal)
        n = self.context.n
        # Python floats overflow to inf without numpy's warning.
        q = sum(x * x for x in a.tolist()) if a.shape == (n,) else math.nan
        if not _negligible(q - 1.0, q + 1.0, self.context.tol, n + 1):
            raise ValueError(f"plane normal must be a finite unit vector of {n} components: {a}")
        object.__setattr__(self, "plane_normal", a)

    @property
    def center(self) -> Event:
        """The pole (R a, 0)."""
        ctx = self.context
        return Event(point=np.append(ctx.radius * self.plane_normal, 0.0), context=ctx)

    @property
    def expected_distance(self) -> float:
        return math.pi * self.context.radius / 2.0

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Events on the intersection set {a . x = 0, t = 0, |x| = R}."""
        # Orthonormal basis of the spatial plane orthogonal to the normal.
        basis = _complement(self.plane_normal)
        pts = np.zeros((count, basis.shape[1] + 1))
        dirs = _sphere_points(rng, count, basis.shape[0], self.context.radius)
        np.matmul(dirs, basis, out=pts[:, :-1])
        return pts

    def distance(self, point) -> float:
        """Great-circle distance on the throat sphere from the pole: R times
        the angle atan2(|x - (a . x) a|, a . x) between a and the spatial part
        x, which keeps its digits near the pole, where acos would lose half."""
        a = self.plane_normal
        x = np.asarray(point, dtype=float)[:-1]
        c = float(a @ x)
        return self.context.radius * math.atan2(_norm(x - c * a), c)


def throat_intersection(
    ctx: SpacetimeContext, line: WorldLine | None = None
) -> ThroatIntersection:
    """Trace of the past horizon of `line` on the throat slice t = 0.

    The past horizon of the line through p with unit tangent u is the null
    hyperplane <e, k+> = 0 with k+ = p / R + u (Hawking and Ellis 1973, 5.2),
    so its t = 0 section is an intrinsic sphere of radius pi R / 2 about the
    pole k+_x / |k+_x|. Raises ValueError where k+_x is lost to cancellation,
    within rounding of |p_x| / R + |u_x|, as for lines based far in the past.
    """
    line = canonical_worldline(ctx) if line is None else line
    _check_context(ctx, line.context)
    p_x, u_x = line.base.spatial / ctx.radius, line.tangent[:-1]
    a = p_x + u_x
    size = _norm(a)
    if _negligible(size, _norm(p_x) + _norm(u_x), 0.0, 2):
        raise ValueError(f"k+_x of the line is lost to cancellation: {a}")
    return ThroatIntersection(context=ctx, plane_normal=a / size)


def union_witness(ctx: SpacetimeContext, q: Event) -> float:
    """Finite rapidity psi with q inside the causal past of L(psi).

    Returns (approximately) the smallest admitting rapidity, in closed form.
    boost(-psi) scales u = x_1 - t by z = e^psi and v = x_1 + t by 1/z, so both
    residuals are >= 0 once u z^2 - 2 R z + v >= 0, past its larger root:
        psi* = log((R + sqrt(R^2 - (x_1^2 - t^2))) / (x_1 - t)).
    Rounding can leave the margin at psi* at or below zero, so psi steps up by
    ulp * 2^k (k = 0, 1, ...) until it is positive. Raises if q is not an
    observed event of the eternal observer.
    """
    _check_context(ctx, q.context)
    r = ctx.radius
    point = q.point.tolist()
    x1, t = point[0], point[-1]
    a, b = _past_residuals(x1, t, _COSH_PSI_MAX, _SINH_PSI_MAX, r)
    if not (a > 0.0 and b > 0.0):
        raise ValueError("event is not inside the observed region J^-(L)")
    # Both residuals > 0 at _PSI_MAX force x_1 - t > 0: the log is finite.
    u = x1 - t
    disc = max(r * r - u * (x1 + t), 0.0)
    start = max(math.log((r + math.sqrt(disc)) / u), -_PSI_MAX)
    step = math.ulp(max(abs(start), 1.0))
    psi = start
    for k in range(_NUDGE_CAP):
        if psi >= _PSI_MAX:
            break
        a, b = _past_residuals(x1, t, math.cosh(psi), math.sinh(psi), r)
        if a > 0.0 and b > 0.0:
            return psi
        psi = start + step * 2.0**k
    return _PSI_MAX
