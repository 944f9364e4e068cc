"""Antipodal identification of the hyperboloid.

Gluing e with -e produces the elliptic quotient; the causal half-spaces meet
each antipodal pair at most once, so the identification is faithful on them,
while the horizons are carried onto themselves. injectivity_check samples the
first fact; horizon_symmetry_check states the second, which holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .causal import HalfSpaceSet, SamplingReport, _sample_count
from .manifold import Event, SpacetimeContext, _check_context, _complement, sample_hyperboloid


def antipode(e: Event) -> Event:
    """The point reflection -e; stays on the hyperboloid."""
    return Event._exact(-e.point, e.context)


@dataclass(frozen=True)
class QuotientPoint:
    """A glued pair {e, -e}, held by e or antipode(e), whichever is sign-normalized:
    QuotientPoint(representative=e) equals QuotientPoint(representative=-e)."""

    representative: Event

    def __post_init__(self):
        # Flip the sign iff the first coordinate of magnitude above tol * R is
        # negative or, when none is, the first nonzero one (an event is never
        # the origin); negation is exact, so e and -e normalize identically.
        e = self.representative
        values = e.point.tolist()
        guard = e.context.tol * e.context.radius
        for c in values:
            if abs(c) > guard:
                break
        else:
            c = next(c for c in values if c)
        if c < 0.0:
            object.__setattr__(self, "representative", antipode(e))


def quotient_rep(e: Event) -> QuotientPoint:
    """Canonical representative of the glued pair; identical for e and -e."""
    return QuotientPoint(representative=e)


def injectivity_check(
    region: HalfSpaceSet,
    ctx: SpacetimeContext,
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> SamplingReport:
    """No antipodal pair meets an open causal half-space twice.

    Tests `samples` events inside `region`: each one's antipode must fall
    outside. sample_hyperboloid is symmetric under e -> -e, so each draw e
    yields the pair {e, -e}, and each member inside is tested against the
    other's margin. Each draw is `samples` points, at most 200 draws. For a
    threshold c < -band the equatorial pair, inside twice, is counted first.
    Hyperplanes (horizons) are rejected: they are centrally symmetric. A
    bool, non-integer or negative `samples` raises as in nesting_check.
    """
    _check_context(ctx, region.context)
    if region.hyperplane:
        raise ValueError("injectivity is only meaningful for open half-spaces")
    samples = _sample_count(samples)
    rng = np.random.default_rng(0) if rng is None else rng
    band, c = region.band, region.threshold
    collected = violations = 0
    worst = -np.inf
    if c < -band:
        # Sampling misses thin cases, so the pair that is inside twice is
        # counted directly: a . e = +-s on the equatorial pair +-(R w, 0),
        # with w a unit spatial vector orthogonal to a_x and s ~ 0, so both
        # members are inside and each tests the other's margin -+s - c > band.
        a_x = region.covector[:-1]
        # Scaling a_x by its largest entry keeps its norm from underflowing.
        w = _complement(a_x / np.abs(a_x).max())[0] if a_x.any() else np.eye(ctx.n)[0]
        s = float(np.append(ctx.radius * w, 0.0) @ region.covector)
        # The tests of (R w, 0), then of its antipode; samples < 2 keeps a prefix.
        tested = (-s - c, s - c)[:samples]
        collected = violations = len(tested)
        worst = max(tested, default=worst)
    for _ in range(200):
        if collected == samples:
            break
        pts = sample_hyperboloid(ctx, samples, rng)
        # margins(-pts) is -s - c bit for bit: negation is exact.
        s = pts @ region.covector
        margins, anti_margins = s - c, -s - c
        # The antipodes' margins of the pair members that fall inside, taken
        # at nonzero() indices: a gather beats a boolean mask's branches.
        inside, anti_inside = (margins > band).nonzero(), (anti_margins > band).nonzero()
        tested = np.concatenate((anti_margins[inside], margins[anti_inside]))
        tested = tested[: samples - collected]
        violations += int(np.count_nonzero(tested > -band))
        worst = max(worst, float(tested.max(initial=-np.inf)))
        collected += tested.size
    if collected < samples:
        raise RuntimeError("sampler failed to populate the region")
    return SamplingReport(samples=collected, violations=violations, worst_margin=worst)


def horizon_symmetry_check(
    ctx: SpacetimeContext,
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> SamplingReport:
    """Both horizons are carried onto themselves by the point reflection, and
    -e lies on the other horizon only where the two planes meet (x_1 = t = 0).

    Exact, so nothing is sampled and `rng` is never drawn from: each horizon
    is a hyperplane a . e = 0 through the origin, so a . (-e) = -(a . e) bit
    for bit, and -e lies on the other plane only where e does too. The report
    is that of `samples` events per horizon, all clean.
    """
    return SamplingReport(samples=2 * _sample_count(samples), violations=0, worst_margin=0.0)
