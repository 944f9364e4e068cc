import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desitter_horizons import manifold
from desitter_horizons.causal import (
    _PSI_MAX,
    CausalVerdict,
    HalfSpaceSet,
    Region,
    SamplingReport,
    ThroatIntersection,
    causal_future_of_event,
    causal_past_of_event,
    chord_oracle,
    chord_oracle_past,
    cone_at_L_psi,
    horizon_future,
    horizon_limit_check,
    horizon_past,
    J_minus_L,
    J_minus_negL,
    J_plus_L,
    J_plus_negL,
    nesting_check,
    sample_causal_past_canonical,
    sample_horizon,
    throat_intersection,
    union_witness,
)
from desitter_horizons.manifold import (
    Event,
    SliceSphere,
    SpacetimeContext,
    WorldLine,
    _complement,
    _sphere_points,
    canonical_worldline,
    canonicalize,
    event,
    on_hyperboloid,
    orientation_field,
    sample_hyperboloid,
)
from desitter_horizons.minkowski import boost, central_symmetry, inner, spatial_rotation

import _exact

CTX = SpacetimeContext(radius=1.0, n=2)


class TestCones:
    def test_canonical_cone_members(self):
        cone = cone_at_L_psi(CTX, 0.0)
        assert cone.verdict((1, 0.8, 0.8)).region is Region.BOUNDARY
        assert cone.verdict((1, 0, 0)).region is Region.BOUNDARY
        assert cone.verdict((0, 1, 0)).region is Region.OUTSIDE

    def test_boost_pushforward(self):
        psi = 1.3
        b = boost(psi)
        cone = cone_at_L_psi(CTX, psi)
        for a in (-0.5, 0.0, 0.9, 2.0):
            moved = b.apply((1.0, a, a))
            assert abs(float(cone.margins(moved))) <= 1e-9

    def test_limit_recovers_horizon_covector(self):
        cone = cone_at_L_psi(CTX, 40.0)
        np.testing.assert_allclose(cone.covector, [1, 0, -1], atol=1e-12)
        assert cone.threshold == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("psi", [800.0, -800.0, math.inf, -math.inf, math.nan])
    def test_rapidity_without_a_finite_cosh_rejected(self, psi):
        # cosh overflows past |psi| ~ 710.48; below that the threshold keeps its bits.
        with pytest.raises(ValueError, match="finite cosh"):
            cone_at_L_psi(CTX, psi)
        assert cone_at_L_psi(CTX, 710.0).threshold == 1.0 / math.cosh(710.0)


class TestHalfSpaces:
    @pytest.mark.parametrize(
        "factory,point,region",
        [
            (J_minus_L, (1, 0, 0), Region.INSIDE),
            (J_minus_L, (0, 1, 0), Region.BOUNDARY),
            (J_minus_L, (-1, 0, 0), Region.OUTSIDE),
            (J_plus_L, (1, 0, 0), Region.INSIDE),
            (J_plus_L, (0, 1, 0), Region.BOUNDARY),
            (J_plus_L, (-1, 0, 0), Region.OUTSIDE),
            (J_plus_negL, (-1, 0, 0), Region.INSIDE),
            (J_plus_negL, (1, 0, 0), Region.OUTSIDE),
            (J_minus_negL, (-1, 0, 0), Region.INSIDE),
            (J_minus_negL, (1, 0, 0), Region.OUTSIDE),
        ],
    )
    def test_examples(self, factory, point, region):
        assert factory(CTX).verdict(point).region is region

    def test_central_symmetry_identity(self):
        # Members of J^-(L) map to members of J^+(-L) under the point
        # reflection: J^-(L) = -J^+(-L).
        rng = np.random.default_rng(5)
        pts = sample_hyperboloid(CTX, 5000, rng)
        jm = J_minus_L(CTX)
        jpn = J_plus_negL(CTX)
        i0 = central_symmetry(CTX.n)
        inside = pts[jm.margins(pts) > jm.band]
        moved = inside @ i0.matrix.T
        assert np.all(jpn.margins(moved) > 0)

    def test_compares_by_identity(self):
        s = J_minus_L(CTX)
        assert s == s and s != J_minus_L(CTX)

    def test_covector_is_a_read_only_copy(self):
        # A later write into the caller's array must not reach the set.
        a = np.array([1.0, 0.0, -1.0])
        s = HalfSpaceSet(a, 0.0, CTX)
        a[0] = 5.0
        assert s.verdict((1, 0, 0)) == CausalVerdict(Region.INSIDE, 1.0)
        assert not np.shares_memory(s.covector, a)
        with pytest.raises(ValueError):
            s.covector[0] = 5.0

    @pytest.mark.parametrize(
        "factory", [J_minus_L, J_plus_L, J_plus_negL, J_minus_negL, horizon_past, horizon_future]
    )
    def test_factory_covectors_are_read_only(self, factory):
        with pytest.raises(ValueError):
            factory(CTX).covector[0] = 5.0

    def test_zero_covector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            HalfSpaceSet(np.zeros(3), 0.0, CTX)

    @pytest.mark.parametrize(
        "point",
        [(1, 0, 0, 0), (1, 0), [[1, 0, 0]], [[1, 0, 0], [1, 0, 0]], 5.0],
        ids=["four", "two", "row", "two-rows", "scalar"],
    )
    def test_point_of_another_width_rejected(self, point):
        # The width is checked against the set's own context, n + 1 = 3.
        s = J_minus_L(CTX)
        for call in (s.verdict, s.contains):
            with pytest.raises(ValueError, match="expected 3 components"):
                call(point)

    def test_margins_check_the_last_axis(self):
        s = J_minus_L(CTX)
        for points in (np.zeros((5, 4)), np.zeros((3, 2)), 5.0):
            with pytest.raises(ValueError, match="expected 3 components"):
                s.margins(points)
        assert s.margins(np.zeros((2, 5, 3))).shape == (2, 5)

    def test_answers_for_the_coordinates_it_is_given(self):
        # Not a membership test: a point far off S(1) still gets its margin.
        # Certifying that a point is an event is Event's job.
        assert J_minus_L(CTX).verdict((500, 0, 0)) == CausalVerdict(Region.INSIDE, 500.0)
        with pytest.raises(ValueError, match="not on the hyperboloid"):
            Event(point=(500.0, 0.0, 0.0), context=CTX)

    def test_nan_is_never_inside(self):
        # A NaN margin fails both comparisons of the three-way split, so it
        # would read as Inside; the verdict refuses it instead. An infinite
        # margin is still a margin.
        for factory in (J_minus_L, J_plus_L, horizon_past, horizon_future):
            s = factory(CTX)
            for point in ((math.nan, 0, 0), (0, math.nan, 0), (0, 0, math.nan)):
                for call in (s.verdict, s.contains):
                    with pytest.raises(ValueError, match="NaN"):
                        call(point)
        assert J_minus_L(CTX).verdict((math.inf, 0, 0)) == CausalVerdict(Region.INSIDE, math.inf)

    def test_infinite_coordinates_answered_without_a_warning(self):
        # This suite turns warnings into errors, so numpy's matmul warnings
        # on inf would surface before the verdict's own answer.
        s = J_minus_L(CTX)
        with pytest.raises(ValueError, match="NaN"):
            s.verdict((0, math.inf, 0))
        assert s.verdict((1e308, 0, -1e308)) == CausalVerdict(Region.INSIDE, math.inf)

    @pytest.mark.parametrize(
        "covector,threshold",
        [
            ((math.nan, 0.0, 0.0), 0.0),
            ((1.0, 0.0, math.inf), 0.0),
            ((1.0, 0.0, -1.0), math.nan),
            ((1.0, 0.0, -1.0), -math.inf),
        ],
        ids=["nan-covector", "inf-covector", "nan-threshold", "inf-threshold"],
    )
    def test_non_finite_covector_or_threshold_rejected(self, covector, threshold):
        with pytest.raises(ValueError, match="must be finite"):
            HalfSpaceSet(covector, threshold, CTX)

    def test_band_rejected_in_the_context_slot(self):
        # The old signature (covector, threshold, band) fails at construction.
        with pytest.raises(ValueError, match="SpacetimeContext"):
            HalfSpaceSet(np.array([1.0, 0.0, -1.0]), 0.0, 1e-9)

    def test_band_is_tol_times_radius(self):
        ctx = SpacetimeContext(radius=2.5, n=3, tol=1e-6)
        s = HalfSpaceSet((1.0, 0.0, 0.0, -1.0), 0.0, ctx)
        assert s.context is ctx and s.band == 1e-6 * 2.5 == J_minus_L(ctx).band

    def test_covector_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="expected 3 components"):
            HalfSpaceSet((1.0, 0.0, 0.0, -1.0), 0.0, CTX)

    def test_relation_string_rejected_at_construction(self):
        # The set is (covector, threshold, context, hyperplane); a relation
        # string in the threshold slot must not construct a set.
        with pytest.raises(ValueError):
            HalfSpaceSet(np.array([1.0, 0.0, -1.0]), ">", 0.0, 1e-9)


class TestHorizons:
    def test_throat_point_on_both(self):
        assert horizon_past(CTX).verdict((0, 1, 0)).region is Region.BOUNDARY
        assert horizon_future(CTX).verdict((0, 1, 0)).region is Region.BOUNDARY

    def test_ruling_stays_on_past_horizon(self):
        hp = horizon_past(CTX)
        for s in np.linspace(-5, 5, 21):
            assert hp.verdict((s, 1.0, s)).region is Region.BOUNDARY

    def test_throat_event_not_on_horizon(self):
        assert horizon_past(CTX).verdict((1, 0, 0)).region is Region.OUTSIDE

    def test_trichotomy(self):
        # Every event is inside exactly one of the two open sets or on the
        # shared boundary.
        rng = np.random.default_rng(17)
        pts = sample_hyperboloid(CTX, 20_000, rng)
        jm = J_minus_L(CTX).margins(pts)
        jp = J_plus_negL(CTX).margins(pts)
        band = J_minus_L(CTX).band
        inside_both = (jm > band) & (jp > band)
        assert not inside_both.any()
        outside_both = (jm < -band) & (jp < -band)
        assert not outside_both.any()


class TestCausalPastOfEvent:
    def test_apex_is_boundary(self):
        p = event(CTX, 1, 0, 0)
        assert causal_past_of_event(p, p).region is Region.BOUNDARY

    def test_past_cone_point(self):
        p = event(CTX, 1, 0, 0)
        q = event(CTX, 1, 0.7, -0.7)
        assert causal_past_of_event(q, p).region is Region.BOUNDARY

    def test_antipode_outside(self):
        p = event(CTX, 1, 0, 0)
        q = event(CTX, -1, 0, 0)
        assert causal_past_of_event(q, p).region is Region.OUTSIDE

    def test_future_mirror(self):
        p = event(CTX, 1, 0, 0)
        wl = canonical_worldline(CTX)
        q = Event(point=wl.at(1.0), context=CTX)
        assert causal_future_of_event(q, p).region is Region.INSIDE
        assert causal_past_of_event(q, p).region is Region.OUTSIDE

    def test_isometry_invariance(self):
        rng = np.random.default_rng(23)
        iso = spatial_rotation((1, 2), 1.1).compose(boost(0.8))
        pts = sample_hyperboloid(CTX, 300, rng, t_span=2.0)
        qs = sample_hyperboloid(CTX, 300, rng, t_span=2.0)
        for p_pt, q_pt in zip(pts, qs):
            p = Event(point=p_pt, context=CTX)
            q = Event(point=q_pt, context=CTX)
            v1 = causal_past_of_event(q, p)
            v2 = causal_past_of_event(
                Event(point=iso.apply(q_pt), context=CTX),
                Event(point=iso.apply(p_pt), context=CTX),
            )
            if min(abs(v1.margin), abs(v2.margin)) > 1e-7:
                assert v1.region is v2.region


class TestFrameReuse:
    """The frame route builds each apex's canonical frame once, on the first
    verdict, and keeps it outside the Event's fields."""

    def test_one_frame_per_apex(self, monkeypatch):
        built = []
        original = manifold.canonicalize

        def counted(line):
            built.append(line.base)
            return original(line)

        monkeypatch.setattr(manifold, "canonicalize", counted)
        p, other = event(CTX, 1.0, 1.0, 1.0), event(CTX, 0.6, 1.0, -0.6)
        for q in sample_hyperboloid(CTX, 8, np.random.default_rng(31)):
            q = Event(point=q, context=CTX)
            causal_past_of_event(q, p)
            causal_future_of_event(q, p)
        causal_past_of_event(p, other)
        assert built == [p, other]

    def test_frame_is_the_canonical_frame_and_not_a_field(self):
        # The cache holds the x_1 and t rows of the inverse canonical frame.
        p = event(CTX, 1.0, 1.0, 1.0)
        text, key = repr(p), hash(p)
        causal_past_of_event(p, p)
        rows = vars(p)["_frame_rows"]
        frame = canonicalize(WorldLine(p, orientation_field(p)))
        expected = frame.inverse().matrix[[0, -1]]
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        assert not rows.flags.writeable
        assert repr(p) == text and hash(p) == key
        assert p == event(CTX, 1.0, 1.0, 1.0)

    def test_point_cannot_be_mutated_under_the_cached_rows(self):
        # A write into p.point would leave rows that answer for the old p.
        coords = np.array([1.0, 0.0, 0.0])
        p = Event(point=coords, context=CTX)
        causal_past_of_event(event(CTX, -1.0, 0.0, 0.0), p)
        with pytest.raises(ValueError):
            p.point[:] = (-1.0, 0.0, 0.0)
        coords[0] = -1.0  # the caller's array is copied, not frozen
        np.testing.assert_array_equal(p.point, [1.0, 0.0, 0.0])


class TestOneSpacetime:
    """Every query refuses arguments built on another spacetime."""

    ROUTES = [causal_past_of_event, causal_future_of_event, chord_oracle, chord_oracle_past]

    @pytest.mark.parametrize("route", ROUTES)
    def test_verdicts_refuse_another_radius(self, route):
        p, q = event(CTX, 1, 0, 0), event(SpacetimeContext(radius=2.0), 2, 0, 0)
        with pytest.raises(ValueError, match="different spacetimes"):
            route(q, p)

    @pytest.mark.parametrize("route", ROUTES)
    def test_verdicts_refuse_another_dimension(self, route):
        p, q = event(SpacetimeContext(n=3), 1, 0, 0, 0), event(CTX, 1, 0, 0)
        for a, b in ((q, p), (p, q)):
            with pytest.raises(ValueError, match="different spacetimes"):
                route(a, b)

    @pytest.mark.parametrize("route", ROUTES)
    def test_equal_contexts_are_one_spacetime(self, route):
        p, q = event(CTX, 1, 0, 0), event(SpacetimeContext(), 0.6, 1.0, -0.6)
        assert route(q, p) == route(event(CTX, 0.6, 1.0, -0.6), p)

    def test_union_witness_refuses_another_radius(self):
        q = event(SpacetimeContext(radius=2.0), 2.5, 0.0, 1.5)
        with pytest.raises(ValueError, match="different spacetimes"):
            union_witness(CTX, q)

    def test_horizon_limit_check_refuses_another_radius(self):
        q = event(SpacetimeContext(radius=2.0), 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="different spacetimes"):
            horizon_limit_check(CTX, q, [1.0])

    def test_throat_intersection_refuses_another_radius(self):
        line = canonical_worldline(SpacetimeContext(radius=2.0))
        with pytest.raises(ValueError, match="different spacetimes"):
            throat_intersection(CTX, line)


class TestChordOracle:
    def test_worldline_point_in_future(self):
        p = event(CTX, 1, 0, 0)
        q = event(CTX, math.cosh(1), 0, math.sinh(1))
        assert chord_oracle(p, q).region is Region.INSIDE

    def test_antipode_outside(self):
        p = event(CTX, 1, 0, 0)
        assert chord_oracle(p, event(CTX, -1, 0, 0)).region is Region.OUTSIDE

    def test_same_point_boundary(self):
        p = event(CTX, 1, 0, 0)
        assert chord_oracle(p, p).region is Region.BOUNDARY

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_canonicalization_route(self, n):
        ctx = SpacetimeContext(radius=1.0, n=n)
        rng = np.random.default_rng(100 + n)
        ps = sample_hyperboloid(ctx, 2000, rng, t_span=2.0)
        qs = sample_hyperboloid(ctx, 2000, rng, t_span=2.0)
        for p_pt, q_pt in zip(ps, qs):
            p = Event(point=p_pt, context=ctx)
            q = Event(point=q_pt, context=ctx)
            v_canon = causal_past_of_event(q, p)
            v_chord = chord_oracle_past(p, q)
            if v_canon.region is not v_chord.region:
                assert abs(v_chord.margin) <= 1e-7


class TestNesting:
    def test_grid_has_no_violations(self):
        report = nesting_check(CTX, 0.0, 1.0, samples=10_000)
        assert report.violations == 0

    def test_tiny_gap(self):
        report = nesting_check(
            CTX, 1.0 - 1e-6, 1.0, samples=2000, rng=np.random.default_rng(2)
        )
        assert report.violations == 0

    def test_observer_event_nested(self):
        wl = canonical_worldline(CTX)
        q = Event(point=wl.at(0.4), context=CTX)
        p = Event(point=wl.at(1.0), context=CTX)
        assert causal_past_of_event(q, p).region is not Region.OUTSIDE

    def test_requires_ordered_rapidities(self):
        with pytest.raises(ValueError):
            nesting_check(CTX, 1.0, 1.0)

    @pytest.mark.parametrize(
        "psi1, psi2",
        [(0.0, 800.0), (-400.0, 400.0), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)],
    )
    def test_gap_without_a_finite_cosh_rejected(self, psi1, psi2):
        # The gap is checked before anything is drawn.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite cosh"):
            nesting_check(CTX, psi1, psi2, samples=10, rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_report_matches_the_written_out_formulas(self, n, radius):
        # The report is the throat event's margin, written out, and no margin
        # of the sampler's (x_1, t) draws, written out with Generator.uniform,
        # falls below it or below -tol R.
        ctx = SpacetimeContext(radius=radius, n=n)
        for k, (psi1, psi2) in enumerate([(0.0, 0.5), (-3.0, 2.0), (1.0 - 1e-6, 1.0), (-60.0, 60.0)]):
            got = nesting_check(ctx, psi1, psi2, samples=2000, rng=np.random.default_rng([n, k, 3]))
            c, s = math.cosh(psi2 - psi1), math.sinh(psi2 - psi1)
            assert got == SamplingReport(2000, 0, min(c * radius - radius, s * radius))
            rng = np.random.default_rng([n, k, 3])
            t = -rng.uniform(0.0, 3.0 * radius, 2000)
            x1 = radius + (np.sqrt(radius**2 + t**2) - radius) * rng.random(2000)
            margins = np.minimum(c * x1 - s * t - radius, -(c * t - s * x1))
            assert margins.min() >= got.worst_margin
            assert margins.min() >= -ctx.tol * radius

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("psi1, psi2", [(0.0, 1.0), (-2.0, -1.5), (1.0 - 1e-6, 1.0)])
    def test_matches_matrix_route(self, n, radius, psi1, psi2):
        # The sampler's events, moved by boost(psi1) then boost(-psi2) as
        # matrices. That route rounds on coordinates up to sqrt(10) R
        # cosh(psi1) cosh(psi2), so its margins may fall below the exact
        # bound by a few ulps of that size.
        ctx = SpacetimeContext(radius=radius, n=n)
        report = nesting_check(ctx, psi1, psi2, samples=3000, rng=np.random.default_rng(8))
        pts = sample_causal_past_canonical(ctx, 3000, np.random.default_rng(8))
        qc = pts @ boost(psi1, n).matrix.T @ boost(-psi2, n).matrix.T
        margins = np.minimum(qc[:, 0] - radius, -qc[:, -1])
        assert (report.samples, report.violations) == (3000, 0)
        scale = np.finfo(float).eps * radius * math.cosh(psi1) * math.cosh(psi2)
        assert margins.min() >= report.worst_margin - 16 * scale
        assert margins.min() >= -ctx.tol * radius

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("radius", [1e-150, 1e-3, 1.0, 1e3, 1e150])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_exact_report_draws_nothing_and_bounds_every_draw(self, n, radius, tol):
        # Gaps from 1e-300 to 30: the caller's Generator is untouched, and no
        # sampled event's margin falls below the reported throat margin.
        ctx = SpacetimeContext(radius=radius, n=n, tol=tol)
        for gap in [*10.0 ** np.arange(-300, 1, 15), 3.0, 30.0]:
            rng = np.random.default_rng(11)
            state = rng.bit_generator.state
            report = nesting_check(ctx, 0.0, gap, samples=500, rng=rng)
            assert rng.bit_generator.state == state
            c, s = math.cosh(gap), math.sinh(gap)
            a, b = c * radius - s * 0.0 - radius, -(c * 0.0 - s * radius)
            assert report == SamplingReport(500, 0, a if a < b else b)
            pts = sample_causal_past_canonical(ctx, 500, rng)
            x1, t = pts[:, 0], pts[:, -1]
            margins = np.minimum(c * x1 - s * t - radius, -(c * t - s * x1))
            assert margins.min() >= report.worst_margin >= -tol * radius

    @pytest.mark.parametrize(
        "samples,error", [(-1, ValueError), (2.5, TypeError), (True, TypeError)]
    )
    def test_sample_count_must_be_a_non_negative_int(self, samples, error):
        # The count is checked last: the rapidities and the span come first.
        with pytest.raises(error):
            nesting_check(CTX, 0.0, 1.0, samples=samples)
        with pytest.raises(ValueError, match="psi1 < psi2"):
            nesting_check(CTX, 1.0, 0.0, samples=samples)
        with pytest.raises(ValueError, match="not finite"):
            nesting_check(SpacetimeContext(radius=9e153), 0.0, 1.0, samples=samples)


class TestHorizonLimit:
    def test_decreasing_residuals_match_closed_form(self):
        q = event(CTX, 2.0, 1.0, 2.0)
        psis = np.array([1.0, 2.0, 4.0, 8.0])
        res = horizon_limit_check(CTX, q, psis)
        # Independent evaluation of the two gap terms for x1 = t = 2, R = 1.
        expected = 2.0 * (1.0 - np.tanh(psis)) + 1.0 / np.cosh(psis)
        np.testing.assert_allclose(res, expected, atol=1e-12)
        assert np.all(np.diff(res) < 0)

    def test_throat_horizon_point(self):
        res = horizon_limit_check(CTX, event(CTX, 0, 1, 0), [1.0, 3.0])
        np.testing.assert_allclose(res, 1.0 / np.cosh([1.0, 3.0]), atol=1e-12)

    def test_constant_rapidity(self):
        res = horizon_limit_check(CTX, event(CTX, 2, 1, 2), [0.0, 0.0])
        assert res[0] == res[1]

    def test_rejects_off_horizon_event(self):
        with pytest.raises(ValueError):
            horizon_limit_check(CTX, event(CTX, 1, 0, 0), [1.0])

    @pytest.mark.parametrize("psi", [800.0, -800.0, math.inf, math.nan])
    def test_rapidity_without_a_finite_cosh_rejected(self, psi):
        # A ValueError before numpy's overflow warning, an error in this suite.
        q = event(CTX, 2.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="finite cosh"):
            horizon_limit_check(CTX, q, [1.0, psi])
        assert horizon_limit_check(CTX, q, [710.0])[0] == 1.0 / np.cosh(710.0)


class TestThroatIntersection:
    def test_canonical_two_points(self):
        ti = throat_intersection(CTX)
        pts = ti.sample(50, np.random.default_rng(3))
        for p in pts:
            assert np.allclose(np.abs(p), [0, 1, 0], atol=1e-12)
            assert ti.distance(p) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_center_distance_zero(self):
        ti = throat_intersection(CTX)
        assert ti.distance(ti.center.point) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_throat_sphere(self, n):
        ctx = SpacetimeContext(radius=1.0, n=n)
        ti = throat_intersection(ctx)
        pts = ti.sample(200, np.random.default_rng(4))
        for p in pts:
            assert abs(p[0]) <= 1e-12 and p[-1] == 0.0
            assert p[1:-1] @ p[1:-1] == pytest.approx(1.0, abs=1e-12)
            assert ti.distance(p) == pytest.approx(math.pi / 2, abs=1e-9)

    def test_compares_by_identity(self):
        ti = throat_intersection(CTX)
        assert ti == ti and ti != throat_intersection(CTX)

    def test_plane_normal_is_a_read_only_copy(self):
        normal = np.array([1.0, 0.0])
        ti = ThroatIntersection(CTX, normal)
        normal[:] = (0.0, 1.0)
        assert ti.plane_normal.tolist() == [1.0, 0.0]
        for a in (ti.plane_normal, throat_intersection(CTX).plane_normal):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_derived_fields(self):
        ctx = SpacetimeContext(radius=2.0, n=3)
        ti = throat_intersection(ctx)
        assert ti.context is ctx and ti.expected_distance == math.pi

    def test_degenerate_plane_at_large_tolerance(self):
        # The spatial normal x/R + u_x has norm sqrt(1 + |u_x|^2) >= 1, so no
        # tolerance makes it degenerate: at tol = 0.9 and |u_x| = 1 the line
        # still has the normal (1, 1) / sqrt(2).
        ctx = SpacetimeContext(tol=0.9)
        line = WorldLine(event(ctx, 1, 0, 0), (0.0, 1.0, math.sqrt(2.0)))
        ti = throat_intersection(ctx, line)
        np.testing.assert_allclose(ti.plane_normal, [math.sqrt(0.5)] * 2, rtol=0, atol=1e-15)
        for p in ti.sample(20, np.random.default_rng(8)):
            assert ti.distance(p) == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("psi", [8.0, -8.0, 12.0, -12.0])
    def test_large_base_rapidity(self, psi):
        # The line of TestCanonicalize::test_rapidity_12_line, based at psi.
        # line.at(psi*) cancels terms of size cosh(psi), so the center, the
        # pole of the plane normal, stays within a few eps * cosh(psi)^2 of
        # the exact pole: the normalized spatial part of k+ = iso (1, 0, 1).
        canon = canonical_worldline(CTX)
        iso = (
            spatial_rotation((1, 2), 0.3)
            .compose(boost(1.0))
            .compose(spatial_rotation((1, 2), 0.8))
        )
        line = WorldLine(
            base=Event(point=iso.apply(canon.at(psi)), context=CTX),
            tangent=iso.apply(canon.velocity(psi)),
        )
        ti = throat_intersection(CTX, line)
        k = iso.apply((1.0, 0.0, 1.0))[:-1]
        exact = np.append(k / np.linalg.norm(k), 0.0)
        gap = np.abs(ti.center.point - exact).max()
        assert gap <= 4 * np.finfo(float).eps * math.cosh(psi) ** 2

    @pytest.mark.xfail(strict=True, raises=ValueError)
    def test_throat_of_a_line_based_at_rapidity_20(self):
        # The line crosses the throat at psi* = -20, but the solve takes
        # atanh(-p_t / (R u_t)) and tanh(20) rounds to 1: a math domain error.
        # The closed form k+_x = (base / R + tangent)_x reads (1, 0) exactly.
        canon = canonical_worldline(CTX)
        line = WorldLine(
            base=Event(point=canon.at(20.0), context=CTX), tangent=canon.velocity(20.0)
        )
        assert throat_intersection(CTX, line).plane_normal.tolist() == [1.0, 0.0]

    @staticmethod
    def _check_moving_observer(ctx, iso, psi0=0.0):
        # Samples lie on the horizon <e, k+> = 0 of the line iso(L(psi)), with
        # k+ = iso (1, 0, ..., 0, 1), and at pi R / 2 from the center.
        r = ctx.radius
        canon = canonical_worldline(ctx)
        line = WorldLine(
            base=Event(point=iso.apply(canon.at(psi0)), context=ctx),
            tangent=iso.apply(canon.velocity(psi0)) / r,
        )
        ti = throat_intersection(ctx, line)
        k_plus = iso.apply(canon.base.point / r + canon.tangent)
        for p in ti.sample(50, np.random.default_rng(6)):
            assert abs(ti.distance(p) - math.pi * r / 2) <= 1e-9 * r
            assert abs(inner(p, k_plus)) <= 1e-12 * r

    @pytest.mark.parametrize(
        "iso",
        [
            spatial_rotation((1, 2), 0.3)
            .compose(boost(1.0))
            .compose(spatial_rotation((1, 2), 0.8)),
            boost(1.1).compose(spatial_rotation((1, 2), 0.7)),
        ],
    )
    def test_moving_observer_center_is_the_pole(self, iso):
        # Both lines cross the throat with u_x != 0, R atan|u_x| away from the
        # pole; the center is the pole, not the crossing.
        self._check_moving_observer(CTX, iso)

    @pytest.mark.parametrize("r", [1e-3, 1.0])
    def test_pole_distance_of_a_moving_observer(self, r):
        # The pole R a has a . a = 1 - 1.1e-16 for this line; acos of that
        # cosine read 1.49e-8 R at R = 1, atan2 of the two parts reads ~eps R.
        ctx = SpacetimeContext(radius=r)
        canon = canonical_worldline(ctx)
        iso = (
            spatial_rotation((1, 2), 0.3)
            .compose(boost(1.0))
            .compose(spatial_rotation((1, 2), 0.8))
        )
        line = WorldLine(
            base=Event(point=iso.apply(canon.base.point), context=ctx),
            tangent=iso.apply(canon.tangent),
        )
        ti = throat_intersection(ctx, line)
        assert ti.distance(ti.center.point) <= 4 * np.finfo(float).eps * r

    @given(
        beta=st.floats(-2.0, 2.0),
        theta=st.floats(0.1, 1.4),
        psi0=st.floats(-2.0, 2.0),
        n=st.sampled_from([2, 3]),
        r=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=50, deadline=None)
    def test_moving_observers(self, beta, theta, psi0, n, r):
        iso = boost(beta, n).compose(spatial_rotation((1, 2), theta, n))
        self._check_moving_observer(SpacetimeContext(radius=r, n=n), iso, psi0)

    def test_general_worldline(self):
        ctx = SpacetimeContext(radius=2.5, n=2)
        rng = np.random.default_rng(9)
        iso = spatial_rotation((1, 2), 0.7).compose(boost(1.1))
        canon = canonical_worldline(ctx)
        line = WorldLine(
            base=Event(point=iso.apply(canon.at(0.4)), context=ctx),
            tangent=iso.apply(canon.velocity(0.4)) / ctx.radius,
        )
        ti = throat_intersection(ctx, line)
        assert abs(ti.center.t) <= 1e-9
        for p in ti.sample(100, rng):
            assert on_hyperboloid(p, ctx)
            assert ti.distance(p) == pytest.approx(math.pi * 2.5 / 2, abs=1e-9)


class TestLargeTime:
    """Events far along the time axis, up to |t| = 1e6 R: sample_hyperboloid's
    own events are Events, and the frame route builds their world line.

    Only that the verdicts are computed is asserted: from t_span ~ 1e4 the
    rounding of the apex margin, ~eps |p|^2 / R, exceeds the band tol * R."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sampled_events_round_trip(self, n):
        for r in (1e-3, 1.0, 1e3):
            ctx = SpacetimeContext(radius=r, n=n)
            for t_span in (1e3, 3e3, 1e4, 1e6):
                rng = np.random.default_rng([n, int(t_span), 8])
                for p in sample_hyperboloid(ctx, 200, rng, t_span=t_span):
                    e = Event(point=p, context=ctx)
                    causal_past_of_event(e, e)


class TestRadiusRange:
    """Radii at the edges of the range SpacetimeContext accepts give finite
    verdicts on both routes, and the routes agree outside the band."""

    @pytest.mark.parametrize("radius", [1.5e-154, 1e-150, 1e150, 9e153])
    def test_edge_radii_give_finite_verdicts(self, radius):
        ctx = SpacetimeContext(radius=radius, n=3)
        rng = np.random.default_rng(10)
        events = [Event(point=p, context=ctx) for p in sample_hyperboloid(ctx, 100, rng, 0.2)]
        for p, q in zip(events, events[1:] + events[:1]):
            for frame, chord in (
                (causal_past_of_event(q, p), chord_oracle_past(p, q)),
                (causal_future_of_event(q, p), chord_oracle(p, q)),
            ):
                assert math.isfinite(frame.margin) and math.isfinite(chord.margin)
                if abs(chord.margin) > 1e-7 * radius**2:
                    assert frame.region is chord.region

    def test_samplers_refuse_spans_they_cannot_represent(self):
        # At t_span 3 the membership sum 2 (1 + t_span^2) R^2 overflows for
        # R = 9e153; at t_span 0.2 (above) it does not.
        ctx = SpacetimeContext(radius=9e153, n=3)
        rng = np.random.default_rng(10)
        calls = (
            lambda: sample_hyperboloid(ctx, 10, rng, 3.0),
            lambda: sample_hyperboloid(CTX, 10, rng, math.inf),
            lambda: sample_horizon(ctx, 10, rng),
            lambda: sample_horizon(ctx, 10, rng, future=True),
            lambda: sample_causal_past_canonical(ctx, 10, rng),
            lambda: nesting_check(ctx, 0.0, 0.5, samples=10, rng=rng),
        )
        for call in calls:
            with pytest.raises(ValueError, match="not finite"):
                call()
        spans = (sample_hyperboloid(ctx, 100, rng, 0.2), sample_horizon(ctx, 100, rng, t_span=0.2))
        for pts in spans:
            for p in pts:
                Event(point=p, context=ctx)


class TestZeroTolerance:
    """tol = 0 means exact up to the rounding of the form: the frame route
    runs on exact events, whose orientation field is rounded."""

    POINTS = [(1, 1, 1), (1, -1, 1), (1, 2, 2), (2, 1, -2), (0.6, 0.8, 0), (5, 5, 7)]

    def test_frame_route_on_exact_events(self):
        ctx = SpacetimeContext(tol=0.0)
        events = [event(ctx, *pt) for pt in self.POINTS]
        for p in events:
            for q in events:
                for frame, chord in (
                    (causal_past_of_event(q, p), chord_oracle_past(p, q)),
                    (causal_future_of_event(q, p), chord_oracle(p, q)),
                ):
                    if abs(chord.margin) > 1e-12:
                        assert frame.region is chord.region

    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_every_apex_is_boundary_on_both_frame_verdicts(self):
        # ROADMAP item 7: the apex of (1, 1, 1) and of (1, -1, 1) is Outside
        # its own causal past by 2.2e-16, the rounding of its orientation
        # field, while chord_oracle_past(p, p) is Boundary with margin 0.
        ctx = SpacetimeContext(tol=0.0)
        off = []
        for pt in self.POINTS:
            p = event(ctx, *pt)
            assert chord_oracle_past(p, p) == CausalVerdict(Region.BOUNDARY, 0.0)
            for verdict in (causal_past_of_event(p, p), causal_future_of_event(p, p)):
                if verdict.region is not Region.BOUNDARY:
                    off.append((pt, verdict.margin))
        assert off == []


class TestExactOracle:
    """Verdicts against margins computed exactly on integer events (R = 1105,
    |t| up to 400 R, tests/_exact.py) at the default tol, not against the
    code's own float output: every exact zero is Boundary, and wherever the
    exact margin lies outside the band the region has its sign."""

    def test_verdicts_match_the_exact_margins(self):
        rnd = random.Random(1105)
        seen = Counter()
        for n in (2, 3):
            ctx = SpacetimeContext(radius=_exact.R, n=n)
            seeds = [_exact.seed_event(n, rnd) for _ in range(48)]
            points = [_exact.outward_isometry([e], rnd)(e) for e in seeds]
            pairs = [(p, q) for p in points for q in rnd.sample(points, 6)]
            # Pairs on one light cone, and apexes, each carried by one isometry.
            for _ in range(24):
                p, q = _exact.throat_cone_pair(n, rnd)
                g = _exact.outward_isometry([p, q], rnd)
                pairs += [(g(p), g(q)), (g(q), g(p))]
            events = {pt: event(ctx, pt) for pair in pairs for pt in pair}
            for p_pt, q_pt in pairs:
                p, q = events[p_pt], events[q_pt]
                for name, got, residuals, band in (
                    ("frame past", causal_past_of_event(q, p),
                     _exact.frame_residuals(q_pt, p_pt, 1), ctx.tol * ctx.radius),
                    ("frame future", causal_future_of_event(q, p),
                     _exact.frame_residuals(q_pt, p_pt, -1), ctx.tol * ctx.radius),
                    ("chord past", chord_oracle_past(p, q),
                     _exact.chord_residuals(p_pt, q_pt, -1), ctx.tol * ctx.radius**2),
                    ("chord future", chord_oracle(p, q),
                     _exact.chord_residuals(p_pt, q_pt, 1), ctx.tol * ctx.radius**2),
                ):
                    want = _exact.exact_region(residuals, band)
                    if want is not None:
                        assert got.region.value == want, (name, p_pt, q_pt, got)
                    seen[name, want] += 1
        # Both routes and both time directions meet every region.
        for name in ("frame past", "frame future", "chord past", "chord future"):
            for region in ("boundary", "inside", "outside"):
                assert seen[name, region] > 0, (name, region)


class TestUnionProperty:
    def test_witness_finite_for_members(self):
        rng = np.random.default_rng(31)
        pts = sample_causal_past_canonical(CTX, 500, rng)
        for p in pts:
            psi = union_witness(CTX, Event(point=p, context=CTX))
            assert -60.0 <= psi <= 60.0
            qc = boost(-psi).apply(p)
            assert qc[0] - 1.0 >= -1e-9 and -qc[-1] >= -1e-9

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            union_witness(CTX, event(CTX, -1, 0, 0))


def _witness_margin(ctx, q_pt, psi):
    """Past margin of boost(-psi) q against the throat event's cone."""
    x1, t = float(q_pt[0]), float(q_pt[-1])
    c, s = math.cosh(psi), math.sinh(psi)
    return min(c * x1 - s * t - ctx.radius, -(c * t - s * x1))


def _bisect_witness(ctx, q_pt):
    """Reference: 200-step bisection for the smallest admitting rapidity."""
    lo, hi = -60.0, 60.0
    if _witness_margin(ctx, q_pt, hi) <= 0.0:
        return None
    if _witness_margin(ctx, q_pt, lo) > 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _witness_margin(ctx, q_pt, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _observed_events(t_spans, count=200):
    for n in (2, 3, 6):
        for r in (1e-3, 1.0, 1e3):
            ctx = SpacetimeContext(radius=r, n=n)
            for t_span in t_spans:
                rng = np.random.default_rng([n, int(t_span), 51])
                for p in sample_hyperboloid(ctx, count, rng, t_span=t_span):
                    if p[0] - p[-1] > 0.0:
                        yield ctx, p


def _check_against_reference(ctx, p):
    """Witness of p against the reference; returns it, or None if both raise."""
    ref = _bisect_witness(ctx, p)
    if ref is None:
        with pytest.raises(ValueError):
            union_witness(ctx, Event(point=p, context=ctx))
        return None
    psi = union_witness(ctx, Event(point=p, context=ctx))
    assert abs(psi - ref) <= 1e-9
    assert _witness_margin(ctx, p, psi) > 0.0
    return psi


class TestUnionWitnessClosedForm:
    def test_matches_bisection_over_grid(self):
        checked = 0
        for ctx, p in _observed_events((2.0, 1e2, 3e2)):
            checked += _check_against_reference(ctx, p) is not None
        assert checked > 2000

    def test_long_nudges_at_large_t(self):
        # Near either horizon at |t| ~ 1e3 R, rounding leaves the closed form
        # thousands of ulps below the first rapidity whose margin is positive.
        long_nudges = 0
        for ctx, p in _observed_events((1e3,), count=3000):
            r, x1, t = ctx.radius, float(p[0]), float(p[-1])
            try:
                psi = union_witness(ctx, Event(point=p, context=ctx))
            except ValueError:
                continue
            u = x1 - t
            closed = math.log((r + math.sqrt(max(r * r - u * (x1 + t), 0.0))) / u)
            if psi - closed > 1000 * math.ulp(max(abs(closed), 1.0)):
                long_nudges += 1
                assert psi < 60.0
                assert _check_against_reference(ctx, p) == psi
        assert long_nudges >= 5

    def test_ceiling_at_the_edge_of_the_window(self):
        # (u, sqrt(1 - u^2), 0) enters J^-(L(psi)) at psi* = log(2 / u) -
        # O(u^2), within rounding of _PSI_MAX for u just above 1 / cosh(_PSI_MAX):
        # the start or its nudges reach _PSI_MAX, which is returned. The first
        # few u read as unobserved, their margin at _PSI_MAX rounding to <= 0.
        u, witnesses = 1.0 / math.cosh(_PSI_MAX), []
        for _ in range(64):
            u = math.nextafter(u, 1.0)
            e = Event(point=np.array([u, math.sqrt(1.0 - u * u), 0.0]), context=CTX)
            try:
                witnesses.append(union_witness(CTX, e))
            except ValueError:
                assert not witnesses  # only at the edge itself
        assert witnesses.count(_PSI_MAX) >= 10
        assert all(_PSI_MAX - 1e-12 <= w <= _PSI_MAX for w in witnesses)

    def test_floor_needs_cosh_and_sinh_apart(self):
        # union_witness has no -_PSI_MAX return: it would need a positive
        # margin at -_PSI_MAX. When cosh and sinh of _PSI_MAX round to the
        # same double c, both rows of boost(_PSI_MAX) give A = c x_1 + c t,
        # and the margin min(A - R, -A) is never positive.
        assert math.cosh(_PSI_MAX) == math.sinh(_PSI_MAX)
        far = sample_causal_past_canonical(CTX, 50, np.random.default_rng(12))
        for p in far @ boost(-61.0).matrix.T:
            e = Event(point=p, context=CTX)
            assert union_witness(CTX, e) > -_PSI_MAX

    def test_unobserved_and_horizon_events_rejected(self):
        for n in (2, 3, 6):
            for r in (1e-3, 1.0, 1e3):
                ctx = SpacetimeContext(radius=r, n=n)
                rng = np.random.default_rng([n, 53])
                pts = sample_hyperboloid(ctx, 100, rng, t_span=1e2)
                unobserved = pts[pts[:, 0] - pts[:, -1] < 0.0]
                on_horizon = sample_horizon(ctx, 50, rng, t_span=1e2)
                assert len(unobserved) > 0
                for p in np.concatenate([unobserved, on_horizon]):
                    with pytest.raises(ValueError):
                        union_witness(ctx, Event(point=p, context=ctx))


def _minimum_form_witness(ctx, q):
    """union_witness with its margin taken as np.minimum of the two residuals,
    kept here to pin that testing both residuals > 0 changes no bit."""
    r = ctx.radius
    x1, t = float(q.point[0]), float(q.point[-1])

    def margin(psi):
        c, s = math.cosh(psi), math.sinh(psi)
        return np.minimum(c * x1 - s * t - r, -(c * t - s * x1))

    if margin(_PSI_MAX) <= 0.0:
        return None
    u = x1 - t
    disc = max(r * r - u * (x1 + t), 0.0)
    start = max(math.log((r + math.sqrt(disc)) / u), -_PSI_MAX)
    step = math.ulp(max(abs(start), 1.0))
    psi = start
    for k in range(64):
        if psi >= _PSI_MAX:
            break
        if margin(psi) > 0.0:
            return psi
        psi = start + step * 2.0**k
    return _PSI_MAX


class TestWitnessPin:
    def test_bit_identical_to_minimum_form(self):
        witnessed = refused = 0
        for n in (2, 3, 6):
            for r in (1e-3, 1.0, 1e3):
                ctx = SpacetimeContext(radius=r, n=n)
                for t_span in (2.0, 1e2, 1e4):
                    rng = np.random.default_rng([n, int(t_span), 57])
                    pts = np.concatenate(
                        [
                            sample_hyperboloid(ctx, 60, rng, t_span=t_span),
                            sample_horizon(ctx, 10, rng, t_span=t_span),
                        ]
                    )
                    for p in pts:
                        q = Event(point=p, context=ctx)
                        ref = _minimum_form_witness(ctx, q)
                        if ref is None:
                            refused += 1
                            with pytest.raises(ValueError):
                                union_witness(ctx, q)
                        else:
                            witnessed += 1
                            psi = union_witness(ctx, q)
                            assert np.float64(psi).tobytes() == np.float64(ref).tobytes()
        assert witnessed > 500 and refused > 500


class TestRulingProperty:
    def test_horizon_samples_lie_on_the_two_rays(self):
        rng = np.random.default_rng(41)
        pts = sample_horizon(CTX, 2000, rng)
        # For n = 2 the past horizon is exactly the two rays (s, +-R, s).
        assert np.all(np.abs(np.abs(pts[:, 1]) - 1.0) <= 1e-9)
        assert np.all(np.abs(pts[:, 0] - pts[:, 2]) <= 1e-9)

    def test_null_direction_preserves_horizon_general_n(self):
        ctx = SpacetimeContext(radius=1.0, n=3)
        rng = np.random.default_rng(43)
        hp = horizon_past(ctx)
        u = np.array([1.0, 0.0, 0.0, 1.0])
        for p in sample_horizon(ctx, 200, rng):
            for s in (-3.0, 0.5, 4.0):
                moved = p + s * u
                assert hp.verdict(moved).region is Region.BOUNDARY
                assert on_hyperboloid(moved, ctx)


def _ruling_partner(p: Event, sign: float) -> Event:
    """p + sign R u for a null tangent u at p: q lies on p's light cone.

    u is the slice-orthogonal unit timelike tangent plus a unit spatial
    vector orthogonal to the spatial part of p.
    """
    ctx, x = p.context, p.point
    nx = float(np.linalg.norm(x[:-1]))
    y = np.append(x[-1] * x[:-1] / (ctx.radius * nx), nx / ctx.radius)
    w = np.zeros(x.size)
    w[0], w[1] = -x[1], x[0]
    u = y + w / math.hypot(x[0], x[1])
    return Event(point=x + sign * ctx.radius * u, context=ctx)


def _verdict_gate_digest(per_cell=48):
    """One SHA-256 over the scalar causal path's outputs on a seeded grid."""
    from desitter_horizons.minkowski import classify, time_direction
    from desitter_horizons.quotient import quotient_rep

    h = hashlib.sha256()
    for n in (2, 3, 4, 6):
        for r in (1e-3, 1.0, 1e3):
            ctx = SpacetimeContext(radius=r, n=n)
            for t_span in (2.0, 1e2, 3e2):
                rng = np.random.default_rng([n, int(t_span), 4])
                pts = sample_hyperboloid(ctx, 2 * per_cell, rng, t_span=t_span)
                events = [Event(point=p, context=ctx) for p in pts]
                # Random pairs, p with itself (the zero chord) and two null chords.
                pairs = list(zip(events[::2], events[1::2])) + [
                    (events[0], events[0]),
                    (events[1], _ruling_partner(events[1], 1.0)),
                    (events[2], _ruling_partner(events[2], -1.0)),
                ]
                for p, q in pairs:
                    for v in (
                        causal_past_of_event(q, p),
                        causal_future_of_event(q, p),
                        chord_oracle(p, q),
                        chord_oracle_past(p, q),
                    ):
                        h.update(v.region.value.encode())
                        h.update(np.float64(v.margin).tobytes())
                    chord = q.point - p.point
                    h.update(classify(chord).value.encode())
                    h.update(time_direction(chord).value.encode())
                    h.update(quotient_rep(q).representative.point.tobytes())
    return h.hexdigest()


class TestVerdictIdentityGate:
    """Verdicts are pinned bit for bit: scalar-path rewrites must reproduce them.

    The digest covers the margins and regions of both frame routes and both
    chord oracles, classify and time_direction of the chord, and the quotient
    representative, over n in {2, 3, 4, 6}, R in {1e-3, 1, 1e3} and t_span in
    {2, 1e2, 3e2}. It was recorded before the causal path skipped its
    repeated input validation.
    """

    DIGEST = "55a93aa34ecc9626ddeb10f8ac901e681bc2b0cad7b7dee03240ddcad29918d6"

    def test_digest(self):
        assert _verdict_gate_digest() == self.DIGEST


def _set_gate_cells(count=100):
    """The seeded grid of _set_gate_digest: for each n in {2, 3, 6} and R in
    {1e-3, 1, 1e3}, the context, sampled and on-horizon events, and every
    half-space and hyperplane factory's set."""
    for n in (2, 3, 6):
        for k, r in enumerate((1e-3, 1.0, 1e3)):
            ctx = SpacetimeContext(radius=r, n=n)
            rng = np.random.default_rng([n, k, 5])
            pts = np.vstack(
                [
                    sample_hyperboloid(ctx, count, rng),
                    sample_horizon(ctx, count, rng),
                    sample_horizon(ctx, count, rng, future=True),
                ]
            )
            factories = (
                J_minus_L,
                J_plus_L,
                J_plus_negL,
                J_minus_negL,
                horizon_past,
                horizon_future,
                lambda ctx: cone_at_L_psi(ctx, 0.0),
            )
            sets = [f(ctx) for f in factories]
            sets += [cone_at_L_psi(ctx, psi) for psi in (-3.0, 0.0, 0.7, 40.0)]
            yield ctx, pts, sets


def _set_gate_digest(count=100):
    """One SHA-256 over the causal sets' margins and regions and the throat
    normal, on a seeded grid of sampled and on-horizon events.

    Margins are hashed as m + 0.0, which maps -0.0 to +0.0: on an exact zero
    the sign of a zero margin depends on how the set's orientation is applied,
    and a zero margin is Boundary either way.
    """
    h = hashlib.sha256()
    for ctx, pts, sets in _set_gate_cells(count):
        for s in sets:
            h.update((s.margins(pts) + 0.0).tobytes())
            for p in pts:
                h.update(s.verdict(p).region.value.encode())
        n, r = ctx.n, ctx.radius
        iso = spatial_rotation((1, 2), 0.7, n).compose(boost(1.1, n))
        canon = canonical_worldline(ctx)
        line = WorldLine(
            base=Event(point=iso.apply(canon.at(0.4)), context=ctx),
            tangent=iso.apply(canon.velocity(0.4)) / r,
        )
        for ti in (throat_intersection(ctx), throat_intersection(ctx, line)):
            h.update(ti.plane_normal.tobytes())
    return h.hexdigest()


class TestSamplerPin:
    """sample_causal_past_canonical is pinned bit for bit over n in {2, 3, 6}
    and R in {1e-3, 1, 1e3}. The digest was recorded before nesting_check
    split the sampler's (x_1, t) draws into a helper of their own."""

    DIGEST = "c47dd239bf902f2ccabc1296d58da92d372ced6a2dc050f80c22104f30dcf992"

    def test_digest(self):
        h = hashlib.sha256()
        for n in (2, 3, 6):
            for k, r in enumerate((1e-3, 1.0, 1e3)):
                ctx = SpacetimeContext(radius=r, n=n)
                rng = np.random.default_rng([n, k, 7])
                h.update(sample_causal_past_canonical(ctx, 200, rng).tobytes())
        assert h.hexdigest() == self.DIGEST


def _reference_unit_vectors(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _reference_hyperboloid(ctx, count, rng, t_span):
    r = ctx.radius
    t = rng.uniform(-t_span * r, t_span * r, count)
    dirs = _reference_unit_vectors(rng, count, ctx.n)
    return np.column_stack((dirs * np.sqrt(r**2 + t**2)[:, None], t))


def _reference_causal_past(ctx, count, rng):
    r = ctx.radius
    t = -rng.uniform(0.0, 3.0 * r, count)
    x1 = rng.uniform(r, np.sqrt(r**2 + t**2))
    rest_r = np.sqrt(np.maximum(r**2 + t**2 - x1**2, 0.0))
    dirs = _reference_unit_vectors(rng, count, ctx.n - 1)
    return np.column_stack((x1, dirs * rest_r[:, None], t))


class TestSamplerKernels:
    """The samplers, and every other caller of _sphere_points, equal a
    reference written with np.linalg.norm, broadcasting, np.column_stack and
    Generator.uniform bit for bit, at every n from 2 to 7: the digests pin
    only some n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_samplers_match_the_reference(self, n, radius):
        ctx = SpacetimeContext(radius=radius, n=n)
        for t_span in (3.0, 1e2):
            got = sample_hyperboloid(ctx, 500, np.random.default_rng([n, 13]), t_span)
            want = _reference_hyperboloid(ctx, 500, np.random.default_rng([n, 13]), t_span)
            assert got.tobytes() == want.tobytes()
        got = sample_causal_past_canonical(ctx, 500, np.random.default_rng([n, 14]))
        want = _reference_causal_past(ctx, 500, np.random.default_rng([n, 14]))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_other_callers_match_the_reference(self, n, radius):
        # Each caller is checked on its own output, ThroatIntersection.sample's
        # matrix product included, for the canonical observer and a moving one.
        ctx = SpacetimeContext(radius=radius, n=n)
        sphere = SliceSphere(ctx, 0.7 * radius)
        iso = spatial_rotation((1, 2), 0.3, n).compose(boost(0.8, n))
        canon = canonical_worldline(ctx)
        line = WorldLine(
            base=Event(point=iso.apply(canon.at(0.2)), context=ctx),
            tangent=iso.apply(canon.velocity(0.2)) / radius,
        )

        def horizon(count, rng, future):
            t = rng.uniform(-3.0 * radius, 3.0 * radius, count)
            dirs = _reference_unit_vectors(rng, count, n - 1)
            return np.column_stack((-t if future else t, radius * dirs, t))

        def throat(ti, count, rng):
            basis = _complement(ti.plane_normal)
            dirs = _reference_unit_vectors(rng, count, n - 1)
            return np.column_stack((radius * dirs @ basis, np.zeros(count)))

        cases = [
            (
                lambda c, g: _sphere_points(g, c, n, 1.0),
                lambda c, g: _reference_unit_vectors(g, c, n),
            ),
            (
                sphere.sample,
                lambda c, g: np.column_stack(
                    (sphere.spatial_radius * _reference_unit_vectors(g, c, n), np.full(c, sphere.t))
                ),
            ),
        ]
        for future in (False, True):
            cases.append(
                (
                    lambda c, g, f=future: sample_horizon(ctx, c, g, future=f),
                    lambda c, g, f=future: horizon(c, g, f),
                )
            )
        for ti in (throat_intersection(ctx), throat_intersection(ctx, line)):
            cases.append((ti.sample, lambda c, g, ti=ti: throat(ti, c, g)))
        for k, (got_of, want_of) in enumerate(cases):
            for count in (1, 7, 500):
                got = got_of(count, np.random.default_rng([n, k, count, 15]))
                want = want_of(count, np.random.default_rng([n, k, count, 15]))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestHalfSpaceVerdictPin:
    """HalfSpaceSet.verdict takes its margin as a product and one float
    subtraction. The set gate hashes only the scalar verdicts' regions, so
    their margins are pinned here: bit for bit equal to float(margins(p)),
    the sign of a zero margin included, on the gate's grid."""

    def test_margins_match_the_vectorized_margins(self):
        zeros = 0
        for _, pts, sets in _set_gate_cells():
            for s in sets:
                for p in pts:
                    want = float(s.margins(p))
                    got = s.verdict(p).margin
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    zeros += want == 0.0
        # The horizon events give exact zero margins, compared by their bytes.
        assert zeros > 1000


class TestCausalSetGate:
    """The causal sets and the throat normal are pinned bit for bit.

    The digest covers the margins and verdict regions of every half-space and
    hyperplane factory, and the throat intersection's plane normal for the
    canonical and a boosted, rotated world line, over n in {2, 3, 6} and R in
    {1e-3, 1, 1e3}. It was recorded before the sets moved to oriented
    covectors.
    """

    DIGEST = "4a264193bf5b044497f3d1339930f434b4e155a399aff9c7ee78578d9a99eda7"

    def test_digest(self):
        assert _set_gate_digest() == self.DIGEST
