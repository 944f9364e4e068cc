import math

import numpy as np
import pytest

from desitter_horizons.manifold import (
    Event,
    NullRay,
    SliceSphere,
    SpacetimeContext,
    WorldLine,
    _sphere_points,
    canonical_worldline,
    canonicalize,
    event,
    on_hyperboloid,
    orientation_field,
    sample_hyperboloid,
)
from desitter_horizons.minkowski import (
    EPS,
    CausalClass,
    TimeDirection,
    boost,
    classify,
    inner,
    spatial_rotation,
    time_direction,
    verify_isometry,
)

CTX = SpacetimeContext(radius=1.0, n=2)
RNG = np.random.default_rng(20240824)


class TestOnHyperboloid:
    def test_throat_event(self):
        assert on_hyperboloid((1, 0, 0), CTX)

    def test_origin(self):
        assert not on_hyperboloid((0, 0, 0), CTX)

    def test_worldline_point(self):
        assert on_hyperboloid((math.cosh(1), 0, math.sinh(1)), CTX)

    def test_event_rejects_off_surface(self):
        with pytest.raises(ValueError):
            event(CTX, 0.5, 0.0, 0.0)

    def test_far_off_surface_at_large_time_rejected(self):
        # The band is tol R^2 at every |t|: <p, p> = -1499 at t = 1e6, and
        # <p, p> = 0.81 at t = 1e4, are far off the surface R^2 = 1.
        t = 1e6
        assert not on_hyperboloid((math.sqrt(t * t - 1499.0), 0.0, t), CTX)
        t = 1e4
        assert not on_hyperboloid((math.sqrt(t * t + 0.81), 0.0, t), CTX)

    def test_overflowing_point_rejected(self):
        # <v, v> and its magnitude overflow to inf, which certifies nothing.
        with np.errstate(over="ignore"):
            assert not on_hyperboloid((1e200, 0, 0), CTX)
            assert not on_hyperboloid((1.2e154, 0, 0), SpacetimeContext(radius=9e153))


class TestContextValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": math.nan},
            {"radius": math.inf},
            {"radius": -math.inf},
            {"radius": 0.0},
            {"radius": -1.0},
            {"tol": math.nan},
            {"tol": math.inf},
            {"tol": -1.0},
            {"n": 2.5},
            {"n": 3.0},
            {"n": math.nan},
            {"radius": 1e-200},
            {"radius": 1e-160},
            {"radius": 1e154},
            {"radius": 1e155},
            {"radius": 1e200},
            {"tol": 1.0},
            {"n": 1},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SpacetimeContext(**kwargs)

    def test_numpy_integer_dimension(self):
        ctx = SpacetimeContext(n=np.int64(3))
        assert ctx.n == 3 and ctx == SpacetimeContext(n=3)

    def test_zero_tolerance_is_exact_membership(self):
        ctx = SpacetimeContext(tol=0.0)
        assert on_hyperboloid((1, 0, 0), ctx)
        assert not on_hyperboloid((1, 0, 1e-4), ctx)


class TestEventEquality:
    def test_same_point_and_context(self):
        assert event(CTX, 1, 0, 0) == event(CTX, 1, 0, 0)
        assert event(CTX, 1, 0, 0) == event(SpacetimeContext(), 1.0, 0.0, 0.0)

    def test_different_point_or_context(self):
        assert event(CTX, 1, 0, 0) != event(CTX, -1, 0, 0)
        assert event(CTX, 1, 0, 0) != event(SpacetimeContext(tol=1e-6), 1, 0, 0)
        assert event(CTX, 1, 0, 0) != (1.0, 0.0, 0.0)

    def test_wrong_component_count_rejected(self):
        with pytest.raises(ValueError, match="expected 3 components"):
            Event(point=np.array([1.0, 0.0, 0.0, 0.0]), context=CTX)

    def test_single_sequence_form(self):
        assert event(CTX, (1.0, 0.0, 0.0)) == event(CTX, 1, 0, 0)

    def test_shape_mismatch_is_unequal(self):
        longer = Event._exact(np.array([1.0, 0.0, 0.0, 0.0]), CTX)
        assert longer != event(CTX, 1, 0, 0) and event(CTX, 1, 0, 0) != longer

    def test_hash_agrees_with_equality(self):
        # == counts -0.0 and 0.0 as equal, so the hash must too.
        a, b = event(CTX, 0.0, 1.0, 0.0), event(CTX, -0.0, 1.0, -0.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, event(CTX, 1, 0, 0)}) == 2


class TestIdentityEquality:
    def test_worldline_and_ray_compare_by_identity(self):
        line = canonical_worldline(CTX)
        assert line == line and line != canonical_worldline(CTX)
        ray = NullRay(event(CTX, 0, 1, 0), (1, 0, 1))
        assert ray == ray and ray != NullRay(event(CTX, 0, 1, 0), (1, 0, 1))


class TestSliceSphere:
    def test_throat_radius(self):
        assert SliceSphere(CTX, 0.0).spatial_radius == 1.0

    def test_radius_at_c_equal_R(self):
        ctx = SpacetimeContext(radius=2.0)
        assert SliceSphere(ctx, 2.0).spatial_radius == pytest.approx(2.0 * math.sqrt(2))

    def test_samples_on_hyperboloid(self):
        sl = SliceSphere(CTX, 0.7)
        pts = sl.sample(10_000, np.random.default_rng(1))
        assert all(on_hyperboloid(p, CTX) for p in pts)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            SliceSphere(CTX, t)

    def test_unrepresentable_time_rejected(self):
        # 2 (R^2 + t^2) overflows, so Event could not take a sampled row.
        with pytest.raises(ValueError, match="not finite"):
            SliceSphere(CTX, 1e200)

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_large_representable_time_samples_events(self, radius):
        ctx = SpacetimeContext(radius=radius)
        sl = SliceSphere(ctx, 3e153)
        for p in sl.sample(200, np.random.default_rng(2)):
            assert Event(point=p, context=ctx).t == 3e153

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_contains_is_unit_consistent(self, radius):
        # The band is tol * |e|_E, so the R-scaled event gets one answer.
        ctx = SpacetimeContext(radius=radius)
        throat = SliceSphere(ctx, 0.0)
        assert not throat.contains(event(ctx, radius, 0.0, 5e-9 * radius))
        assert throat.contains(event(ctx, radius, 0.0, 5e-10 * radius))

    def test_contains_refuses_another_radius(self):
        e = event(SpacetimeContext(radius=2.0), 2, 0, 0)
        with pytest.raises(ValueError, match="different spacetimes"):
            SliceSphere(SpacetimeContext(), 0.0).contains(e)

    def test_contains_refuses_another_dimension(self):
        e = event(SpacetimeContext(n=3), 1, 0, 0, 0)
        with pytest.raises(ValueError, match="different spacetimes"):
            SliceSphere(SpacetimeContext(), 0.0).contains(e)


class _StubGenerator:
    """Hands out fixed standard-normal draws, in order."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]

    def standard_normal(self, shape):
        d = self.draws.pop(0)
        assert d.shape == shape
        return d


class TestUnitVectors:
    def test_degenerate_draws_are_resampled(self):
        rng = _StubGenerator([[0, 0], [3, 4], [1e-13, 0]], [[2, 0], [0, -5]])
        dirs = _sphere_points(rng, 3, 2, 1.0)
        np.testing.assert_array_equal(dirs, [[1, 0], [0.6, 0.8], [0, -1]])
        assert rng.draws == []


class TestCanonicalWorldline:
    def test_base_point(self):
        wl = canonical_worldline(CTX)
        np.testing.assert_array_equal(wl.at(0.0), [1, 0, 0])

    def test_boost_orbit_coordinates(self):
        ctx = SpacetimeContext(radius=2.5)
        wl = canonical_worldline(ctx)
        psi = 1.3
        np.testing.assert_allclose(
            wl.at(psi), [2.5 * math.cosh(psi), 0, 2.5 * math.sinh(psi)], atol=1e-12
        )

    @pytest.mark.parametrize("psi", [-2.0, 0.0, 0.5, 3.0])
    def test_velocity_future_timelike(self, psi):
        v = canonical_worldline(CTX).velocity(psi)
        assert classify(v) is CausalClass.TIMELIKE
        assert time_direction(v) is TimeDirection.FUTURE

    @pytest.mark.parametrize("psi", [800.0, -800.0, math.inf, math.nan])
    def test_rapidity_without_a_finite_cosh_rejected(self, psi):
        # A ValueError, not math's OverflowError; below |psi| ~ 710.48 the
        # coordinates keep their bits.
        wl = canonical_worldline(CTX)
        for call in (wl.at, wl.velocity):
            with pytest.raises(ValueError, match="finite cosh"):
                call(psi)
        c, s = math.cosh(710.0), math.sinh(710.0)
        np.testing.assert_array_equal(wl.at(710.0), [c, 0.0, s])
        np.testing.assert_array_equal(wl.velocity(710.0), [s, 0.0, c])

    def test_sample_rejects_an_overflowing_rapidity_without_a_warning(self):
        # numpy's overflow warning is an error in this suite: the ValueError
        # must come first. Finite rapidities keep np.cosh's bits.
        wl = canonical_worldline(CTX)
        for psis in ([0.0, 800.0], [-800.0], [math.inf, 1.0], [math.nan]):
            with pytest.raises(ValueError, match="finite cosh"):
                wl.sample(psis)
        psis = np.array([-710.0, 0.5, 710.0])
        np.testing.assert_array_equal(
            wl.sample(psis), np.column_stack([np.cosh(psis), np.zeros(3), np.sinh(psis)])
        )

    def test_sample_keeps_the_shape_of_its_rapidities(self):
        # A scalar gives at's point bit for bit (math.sinh, not np.sinh: the
        # two differ in the last bit at psi = -2 on some machines), and a
        # 2-d grid gives a grid of points.
        iso = boost(0.7).compose(spatial_rotation((1, 2), 0.4))
        canon = canonical_worldline(CTX)
        wl = WorldLine(base=Event(point=iso.apply(canon.at(0.3)), context=CTX),
                       tangent=iso.apply(canon.velocity(0.3)))
        for psi in (0.5, -2.0, 3.7):
            assert wl.sample(psi).tobytes() == wl.at(psi).tobytes()
        grid = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
        pts = wl.sample(grid)
        assert pts.shape == (2, 3, CTX.n + 1)
        assert pts.reshape(6, -1).tobytes() == wl.sample(grid.ravel()).tobytes()

    def test_invalid_tangent_rejected(self):
        with pytest.raises(ValueError):
            WorldLine(base=event(CTX, 1, 0, 0), tangent=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            WorldLine(base=event(CTX, 1, 0, 0), tangent=np.array([0.0, 0.0, -1.0]))

    def test_tangent_held_to_context_tolerance(self):
        # <u, u> = -1 - 2e-8: inside tol = 1e-7, outside the default 1e-9.
        u = np.array([0.0, 0.0, 1.0 + 1e-8])
        with pytest.raises(ValueError, match="unit timelike"):
            WorldLine(base=event(CTX, 1, 0, 0), tangent=u)
        loose = SpacetimeContext(tol=1e-7)
        WorldLine(base=event(loose, 1, 0, 0), tangent=u)


class TestOrientationField:
    def test_throat_value(self):
        np.testing.assert_allclose(orientation_field(event(CTX, 1, 0, 0)), [0, 0, 1])

    def test_unit_and_tangent_at_random_events(self):
        pts = sample_hyperboloid(CTX, 1000, RNG)
        for p in pts:
            y = orientation_field(Event(point=p, context=CTX))
            assert inner(y, y) == pytest.approx(-1.0, abs=1e-9)
            assert inner(p, y) == pytest.approx(0.0, abs=1e-9 * np.linalg.norm(p))
            assert time_direction(y) is TimeDirection.FUTURE

    def test_matches_worldline_velocity(self):
        wl = canonical_worldline(CTX)
        for psi in (-1.0, 0.3, 2.0):
            p = Event(point=wl.at(psi), context=CTX)
            y = orientation_field(p)
            v = wl.velocity(psi)
            # Proportional with positive factor: the integral-curve property.
            factor = v[-1] / y[-1]
            assert factor > 0
            np.testing.assert_allclose(v, factor * y, atol=1e-9 * max(1.0, factor))


def _invariant_events(n):
    """Sampled events over R in {1.5e-154, 1e-3, 1, 1e3, 1e150} and tol in
    {EPS, 0}, at t_span 2 for every R and up to 1e6 for R <= 1e3."""
    for radius in (1.5e-154, 1e-3, 1.0, 1e3, 1e150):
        spans = (2.0, 1e2, 1e4, 1e6) if radius <= 1e3 else (2.0,)
        for tol in (EPS, 0.0):
            ctx = SpacetimeContext(radius=radius, n=n, tol=tol)
            for t_span in spans:
                rng = np.random.default_rng([n, int(t_span), 9])
                for p in sample_hyperboloid(ctx, 60, rng, t_span=t_span):
                    yield Event(point=p, context=ctx)


class TestUncheckedWorldLines:
    """The frame route and canonical_worldline build their lines without
    WorldLine's checks; the checked constructor accepts what they build."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_orientation_field_passes_worldline_checks(self, n):
        for p in _invariant_events(n):
            WorldLine(base=p, tangent=orientation_field(p))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_canonical_worldline_passes_checks(self, n):
        for radius in (1.5e-154, 1e-3, 1.0, 1e3, 1e150, 9e153):
            for tol in (EPS, 0.0):
                ctx = SpacetimeContext(radius=radius, n=n, tol=tol)
                line = canonical_worldline(ctx)
                base = Event(point=line.base.point, context=ctx)
                checked = WorldLine(base=base, tangent=line.tangent)
                assert checked.base == line.base
                np.testing.assert_array_equal(checked.tangent, line.tangent)


def _random_worldline(ctx, rng, psi_max=2.0):
    psi0 = rng.uniform(-psi_max, psi_max)
    iso = (
        spatial_rotation((1, 2), rng.uniform(0, 2 * math.pi), n=ctx.n)
        .compose(boost(rng.uniform(-2, 2), ctx.n))
        .compose(spatial_rotation((1, ctx.n), rng.uniform(0, 2 * math.pi), n=ctx.n))
    )
    canon = canonical_worldline(ctx)
    base = Event(point=iso.apply(canon.at(psi0)), context=ctx)
    tangent = iso.apply(canon.velocity(psi0)) / ctx.radius
    return WorldLine(base=base, tangent=tangent)


class TestCanonicalize:
    def test_identity_on_canonical(self):
        iso = canonicalize(canonical_worldline(CTX))
        np.testing.assert_allclose(iso.matrix, np.eye(3), atol=1e-12)

    def test_boosted_line_recovers_shift(self):
        psi0 = 0.9
        canon = canonical_worldline(CTX)
        shifted = WorldLine(
            base=Event(point=canon.at(psi0), context=CTX),
            tangent=canon.velocity(psi0),
        )
        iso = canonicalize(shifted)
        for psi in np.linspace(-2, 2, 9):
            np.testing.assert_allclose(
                iso.apply(canon.at(psi)), canon.at(psi + psi0), atol=1e-12
            )

    def test_random_roundtrip(self):
        rng = np.random.default_rng(7)
        canon = canonical_worldline(CTX)
        for _ in range(20):
            line = _random_worldline(CTX, rng)
            iso = canonicalize(line)
            assert verify_isometry(iso) <= 1e-9
            assert iso.preserves_time
            for psi in np.linspace(-3, 3, 100):
                np.testing.assert_allclose(
                    iso.apply(canon.at(psi)), line.at(psi), atol=1e-8
                )

    def test_residual_sweep(self):
        # Base rapidity up to 5 over n in 2..6 and R in {1e-3, 1, 1e3}. Event
        # accepts every one of these lines, so none is skipped.
        rng = np.random.default_rng(3)
        psis = np.linspace(-3, 3, 7)
        for n in range(2, 7):
            for r in (1e-3, 1.0, 1e3):
                ctx = SpacetimeContext(radius=r, n=n)
                canon = canonical_worldline(ctx)
                for _ in range(50):
                    line = _random_worldline(ctx, rng, psi_max=5.0)
                    iso = canonicalize(line)
                    assert verify_isometry(iso) <= 1e-12
                    assert iso.preserves_time
                    expected = line.sample(psis)
                    np.testing.assert_allclose(
                        canon.sample(psis) @ iso.matrix.T,
                        expected,
                        rtol=0,
                        atol=1e-12 * np.abs(expected).max(),
                    )

    def test_rapidity_12_line(self):
        # |t| ~ 1.9e5 at the base; Event and WorldLine accept the line, so
        # canonicalize must give it a frame.
        canon = canonical_worldline(CTX)
        iso = (
            spatial_rotation((1, 2), 0.3)
            .compose(boost(1.0))
            .compose(spatial_rotation((1, 2), 0.8))
        )
        line = WorldLine(
            base=Event(point=iso.apply(canon.at(12.0)), context=CTX),
            tangent=iso.apply(canon.velocity(12.0)),
        )
        frame = canonicalize(line)
        assert verify_isometry(frame) <= 1e-12
        np.testing.assert_array_equal(frame.matrix[:, 0], line.base.point)
        np.testing.assert_array_equal(frame.matrix[:, -1], line.tangent)

    def test_preserves_hyperboloid(self):
        rng = np.random.default_rng(11)
        line = _random_worldline(CTX, rng)
        iso = canonicalize(line)
        for p in sample_hyperboloid(CTX, 200, rng):
            assert on_hyperboloid(iso.apply(p), CTX)


class TestNullRay:
    def test_ruling_stays_on_surface(self):
        ray = NullRay(event(CTX, 0, 1, 0), (1, 0, 1))
        for s in np.linspace(-10, 10, 101):
            p = ray.at(s)
            assert abs(inner(p, p) - 1.0) <= 1e-8
            assert p[0] == p[2]  # the x1 = t ruling

    def test_sample_keeps_the_shape_of_its_parameters(self):
        ray = NullRay(event(CTX, 0, 1, 0), (1, 0, 1))
        assert ray.sample(0.5).tobytes() == ray.at(0.5).tobytes()
        grid = np.linspace(-3.0, 3.0, 8).reshape(4, 2)
        pts = ray.sample(grid)
        assert pts.shape == (4, 2, CTX.n + 1)
        assert pts.reshape(8, -1).tobytes() == ray.sample(grid.ravel()).tobytes()

    def test_scaling_reparametrizes(self):
        base = event(CTX, 0, 1, 0)
        np.testing.assert_allclose(
            NullRay(base, (1, 0, 1)).at(2.0), NullRay(base, (2, 0, 2)).at(1.0)
        )

    def test_spacelike_direction_rejected(self):
        with pytest.raises(ValueError, match="null"):
            NullRay(event(CTX, 0, 1, 0), (1, 0, 0))

    def test_non_tangent_rejected(self):
        with pytest.raises(ValueError, match="tangent"):
            NullRay(event(CTX, 1, 0, 0), (1, 0, 1))

    def test_constructor_enforces_the_ruling(self):
        # (5, 0, 0) is tangent at (0, 1, 0) but spacelike: its point at s = 1
        # would be (5, 1, 0), off the hyperboloid.
        with pytest.raises(ValueError, match="null"):
            NullRay(base=event(CTX, 0, 1, 0), direction=np.array([5.0, 0.0, 0.0]))

    def test_direction_is_copied(self):
        u = np.array([1.0, 0.0, 1.0])
        ray = NullRay(event(CTX, 0, 1, 0), u)
        u[:] = 5.0
        np.testing.assert_array_equal(ray.at(1.0), [1.0, 1.0, 1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension does not match"):
            NullRay(event(CTX, 0, 1, 0), (1, 0, 0, 1))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            NullRay(event(CTX, 0, 1, 0), (0, 0, 0))

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_short_direction_accepted(self, radius):
        # Only the exact zero vector is zero; a short null direction is fine.
        ctx = SpacetimeContext(radius=radius)
        u = 1e-7 * radius * np.array([1.0, 0.0, 1.0])
        ray = NullRay(event(ctx, 0.0, radius, 0.0), u)
        np.testing.assert_array_equal(ray.direction, u)

    def test_rounded_null_direction_at_zero_tolerance(self):
        # Null and tangent up to the rounding of 0.6 and 0.8.
        ctx = SpacetimeContext(tol=0.0)
        NullRay(event(ctx, 0.8, -0.6, 0.0), (0.6, 0.8, 1.0))


class TestDimensionGenerality:
    def test_n3_worldline_and_frame(self):
        ctx = SpacetimeContext(radius=2.0, n=3)
        wl = canonical_worldline(ctx)
        assert on_hyperboloid(wl.at(1.7), ctx)
        iso = canonicalize(wl)
        assert verify_isometry(iso) <= 1e-12
        pts = sample_hyperboloid(ctx, 500, np.random.default_rng(3))
        assert all(on_hyperboloid(p, ctx) for p in pts)
