import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from desitter_horizons.manifold import SpacetimeContext
from desitter_horizons.minkowski import (
    CausalClass,
    Isometry,
    TimeDirection,
    boost,
    central_symmetry,
    classify,
    inner,
    metric,
    spatial_rotation,
    time_direction,
    verify_isometry,
)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


class TestInner:
    def test_time_axis(self):
        assert inner((0, 0, 1), (0, 0, 1)) == -1.0

    def test_orthogonal_spatial_axes(self):
        assert inner((1, 0, 0), (0, 1, 0)) == 0.0

    def test_null_vector(self):
        assert inner((1, 0, 1), (1, 0, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner((1, 0, 0), (1, 0, 0, 0))

    @given(u=vec3, v=vec3)
    @settings(max_examples=50)
    def test_symmetry(self, u, v):
        assert inner(u, v) == inner(v, u)

    @given(u=vec3, v=vec3, w=vec3, a=finite)
    @settings(max_examples=50)
    def test_bilinearity(self, u, v, w, a):
        scale = max(1.0, np.linalg.norm(u) * (np.linalg.norm(v) + abs(a) * np.linalg.norm(w)))
        assert inner(u, v + a * w) == pytest.approx(
            inner(u, v) + a * inner(u, w), abs=1e-9 * scale
        )


class TestClassify:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ((0, 0, 1), CausalClass.TIMELIKE),
            ((1, 0, 1), CausalClass.NULL),
            ((1, 0, 0), CausalClass.SPACELIKE),
            ((0, 0, 0), CausalClass.ZERO),
        ],
    )
    def test_examples(self, v, expected):
        assert classify(v) is expected

    @given(v=vec3)
    @settings(max_examples=50)
    def test_even(self, v):
        assert classify(v) is classify(-v)

    def test_scaled_null_stays_null(self):
        assert classify(1e6 * np.array([1.0, 0.0, 1.0])) is CausalClass.NULL

    @pytest.mark.parametrize("k", [60, -60, 600, -600])
    def test_power_of_two_scaling(self, k):
        # The Null band is relative, and |v|^2 is formed at unit scale when it
        # would leave the normal range, so scaling by 2^k changes nothing.
        rng = np.random.default_rng(5)
        vs = rng.standard_normal((300, 3))
        # Every third vector sits on the cone, up to the rounding of hypot.
        vs[::3, -1] = np.copysign(np.hypot(vs[::3, 0], vs[::3, 1]), vs[::3, -1])
        for v in vs:
            assert classify(np.ldexp(v, k)) is classify(v)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308, 1e-160])
    def test_extreme_magnitudes(self, scale):
        # |v|^2 overflows or is subnormal at every scale (1e308 is near the
        # largest float), so each vector takes the rescale branch, which also
        # refuses non-finite entries.
        cases = [
            ((0.5, 0.0, 1.0), CausalClass.TIMELIKE, TimeDirection.FUTURE),
            ((0.0, 0.5, -1.0), CausalClass.TIMELIKE, TimeDirection.PAST),
            ((1.0, 0.0, 0.5), CausalClass.SPACELIKE, TimeDirection.NONE),
            ((1.0, 0.0, 1.0), CausalClass.NULL, TimeDirection.FUTURE),
            ((0.0, -1.0, -1.0), CausalClass.NULL, TimeDirection.PAST),
        ]
        for v, kind, direction in cases:
            w = scale * np.array(v)
            assert classify(w) is kind
            assert time_direction(w) is direction


class TestTimeDirection:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ((0, 0, 1), TimeDirection.FUTURE),
            ((0, 0, -1), TimeDirection.PAST),
            ((1, 0, 0), TimeDirection.NONE),
            ((0, 0, 0), TimeDirection.NONE),
        ],
    )
    def test_examples(self, v, expected):
        assert time_direction(v) is expected

    @given(v=vec3)
    @settings(max_examples=50)
    def test_flip_under_negation(self, v):
        flip = {
            TimeDirection.FUTURE: TimeDirection.PAST,
            TimeDirection.PAST: TimeDirection.FUTURE,
            TimeDirection.NONE: TimeDirection.NONE,
        }
        assert time_direction(-v) is flip[time_direction(v)]


class TestPublicValidation:
    BAD_VECTORS = [(1.0, 0.0), np.eye(3), [[1.0, 0.0, 0.0]]]

    @pytest.mark.parametrize("v", BAD_VECTORS)
    def test_single_vector_calls_raise(self, v):
        for fn in (classify, time_direction):
            with pytest.raises(ValueError):
                fn(v)
        with pytest.raises(ValueError):
            inner(v, v)

    @pytest.mark.parametrize("fn", [classify, time_direction])
    @pytest.mark.parametrize(
        "v",
        [
            (math.nan, 0.0, 1.0),
            (0.0, 0.0, math.inf),
            (math.inf, 0.0, math.inf),
            (0.0, -math.inf, 1.0),
            (1.0, math.nan, -math.inf),
        ],
    )
    def test_non_finite_vectors_have_no_class(self, fn, v):
        with pytest.raises(ValueError, match="non-finite"):
            fn(v)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: boost(1.0).apply((1.0, 0.0, 0.0, 0.0)),
            lambda: boost(1.0).compose(boost(1.0, 3)),
        ],
        ids=["apply", "compose"],
    )
    def test_isometry_dimension_mismatch(self, call):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 4"):
            call()


class TestIsometryInverse:
    @pytest.mark.parametrize(
        "iso",
        [
            boost(2.5),
            boost(-1.0, n=4).compose(spatial_rotation((2, 3), 0.7, n=4)),
            central_symmetry(n=3).compose(boost(0.3, n=3)),
        ],
    )
    def test_equals_metric_conjugate_transpose(self, iso):
        g = metric(iso.n)
        np.testing.assert_array_equal(iso.inverse().matrix, g @ iso.matrix.T @ g)

    def test_time_behaviour_is_derived(self):
        i0 = central_symmetry()
        assert not i0.compose(boost(1.0)).preserves_time
        assert i0.compose(i0).preserves_time
        assert not i0.inverse().preserves_time
        assert boost(2.0).inverse().preserves_time


class TestBoostRapidity:
    @pytest.mark.parametrize("psi", [800.0, -800.0, math.inf, -math.inf, math.nan])
    def test_rapidity_without_a_finite_cosh_rejected(self, psi):
        # cosh overflows past |psi| ~ 710.48; below that the entries keep their bits.
        with pytest.raises(ValueError, match="finite cosh"):
            boost(psi)
        m = boost(710.0).matrix
        assert (m[0, 0], m[0, -1]) == (math.cosh(710.0), math.sinh(710.0))


class TestIsometryEquality:
    def test_exact_matrix_equality(self):
        assert boost(1.0) == boost(1.0)
        assert central_symmetry(3) == Isometry(-np.eye(4))
        assert boost(1.0) != boost(2.0)
        assert boost(1.0) != boost(1.0, n=3)
        assert boost(1.0) != "boost(1.0)"

    def test_equal_isometries_hash_equal(self):
        assert hash(boost(1.0)) == hash(boost(1.0))
        assert len({boost(1.0), boost(1.0)}) == 1
        # -0.0 == 0.0, so the two matrices are equal and must hash alike.
        signed = [Isometry(np.diag([z, 1.0, 1.0])) for z in (-0.0, 0.0)]
        assert signed[0] == signed[1] and hash(signed[0]) == hash(signed[1])
        assert len({boost(1.0), boost(1.0, n=3), central_symmetry()}) == 3


class TestBoost:
    def test_orbit_of_throat_event(self):
        psi, r = 0.7, 2.0
        got = boost(psi).apply((r, 0, 0))
        np.testing.assert_allclose(
            got, [r * math.cosh(psi), 0.0, r * math.sinh(psi)], atol=1e-12
        )

    def test_zero_is_identity(self):
        np.testing.assert_array_equal(boost(0.0).matrix, np.eye(3))

    def test_inverse(self):
        v = np.array([1.3, -0.4, 0.9])
        back = boost(-1.0).apply(boost(1.0).apply(v))
        np.testing.assert_allclose(back, v, atol=1e-12)

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=50)
    def test_one_parameter_group(self, a, b):
        lhs = boost(a).compose(boost(b)).matrix
        rhs = boost(a + b).matrix
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_preserves_time_flag(self):
        assert boost(3.0).preserves_time
        assert Isometry(boost(3.0).matrix).preserves_time


class TestCentralSymmetry:
    def test_negates(self):
        np.testing.assert_array_equal(central_symmetry().apply((2, 0, 0)), [-2, 0, 0])

    @given(u=vec3, v=vec3)
    @settings(max_examples=30)
    def test_form_preserved(self, u, v):
        i0 = central_symmetry()
        scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(v))
        assert inner(i0.apply(u), i0.apply(v)) == pytest.approx(
            inner(u, v), abs=1e-9 * scale
        )

    def test_reverses_time(self):
        i0 = central_symmetry()
        assert not i0.preserves_time
        assert time_direction(i0.apply((0, 0, 1))) is TimeDirection.PAST


class TestSpatialRotation:
    def test_quarter_turn(self):
        rot = spatial_rotation((1, 2), math.pi / 2)
        np.testing.assert_allclose(rot.apply((1, 0, 0)), [0, 1, 0], atol=1e-12)

    def test_zero_angle(self):
        np.testing.assert_array_equal(spatial_rotation((1, 2), 0.0).matrix, np.eye(3))

    def test_inverse_composition(self):
        rot = spatial_rotation((1, 3), 0.8, n=3)
        inv = spatial_rotation((1, 3), -0.8, n=3)
        np.testing.assert_allclose(rot.compose(inv).matrix, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("axes", [(0, 1), (1, 3), (2, 2), (1.0, 2.0)])
    def test_invalid_axes(self, axes):
        with pytest.raises(ValueError):
            spatial_rotation(axes, 1.0, n=2)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match=f"rotation angle must be finite, got {angle}"):
            spatial_rotation((1, 2), angle)


class TestIsometryConstructor:
    def test_owns_a_read_only_copy(self):
        # A later write into the caller's array must not reach the isometry.
        m = np.eye(3)
        iso = Isometry(m)
        m[0, 0] = 5.0
        np.testing.assert_array_equal(iso.matrix, np.eye(3))
        assert not np.shares_memory(iso.matrix, m)
        with pytest.raises(ValueError):
            iso.matrix[0, 0] = 5.0

    def test_derived_isometries_are_read_only(self):
        b = boost(1.0)
        for iso in (b, b.inverse(), b.compose(b), central_symmetry(), spatial_rotation((1, 2), 0.3)):
            with pytest.raises(ValueError):
                iso.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4), (2, 2), (1, 1), (3,), (3, 3, 1)])
    def test_needs_a_square_matrix_of_size_3_or_more(self, shape):
        with pytest.raises(ValueError, match=r"square matrix of size >= 3"):
            Isometry(np.ones(shape))

    @pytest.mark.parametrize(
        "n, message",
        [
            (1, "must be >= 2, got 1"),
            (0, "must be >= 2, got 0"),
            (-1, "must be >= 2, got -1"),
            (2.5, "must be an integer, got 2.5"),
        ],
        ids=["1", "0", "-1", "2.5"],
    )
    @pytest.mark.parametrize(
        "factory",
        [
            metric,
            lambda n: boost(0.3, n),
            central_symmetry,
            lambda n: spatial_rotation((1, 2), 0.1, n),
        ],
        ids=["metric", "boost", "central_symmetry", "spatial_rotation"],
    )
    def test_factories_take_the_context_dimension_rule(self, factory, n, message):
        # The factories and SpacetimeContext refuse the same n, in the same words.
        for call in (factory, lambda n: SpacetimeContext(n=n)):
            with pytest.raises(ValueError, match=f"spatial dimension {message}$"):
                call(n)

    def test_factories_take_a_numpy_integer_dimension(self):
        n = np.int64(3)
        assert boost(0.3, n) == boost(0.3, 3)
        assert spatial_rotation((np.int64(1), np.int64(3)), 0.1, n) == spatial_rotation((1, 3), 0.1, 3)
        np.testing.assert_array_equal(metric(n), np.diag([1.0, 1.0, 1.0, -1.0]))


class TestVerifyIsometry:
    def test_identity(self):
        assert verify_isometry(boost(0.0)) == 0.0

    def test_boost_residual(self):
        assert verify_isometry(boost(2.5)) <= 1e-12

    def test_perturbation_detected(self):
        m = boost(2.5).matrix.copy()
        m[0, 0] += 1e-3
        # Oracle: direct scaled residual of the perturbed matrix.
        g = metric(2)
        expected = np.abs(m.T @ g @ m - g).max() / np.abs(m).max() ** 2
        assert expected >= 1e-4
        assert verify_isometry(Isometry(m)) == pytest.approx(expected)


class TestIsometryInvariance:
    @given(u=vec3, v=vec3, psi=st.floats(-3, 3), angle=st.floats(-math.pi, math.pi))
    @settings(max_examples=50)
    def test_form_invariance(self, u, v, psi, angle):
        iso = boost(psi).compose(spatial_rotation((1, 2), angle))
        scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(v)) * math.cosh(psi) ** 2
        assert inner(iso.apply(u), iso.apply(v)) == pytest.approx(
            inner(u, v), abs=1e-9 * scale
        )

    @given(v=vec3, psi=st.floats(-3, 3))
    @example(v=np.array([0.0, 0.0, 1e-9]), psi=1.0)
    @example(v=np.ldexp([0.3, 0.1, 2.0], 600), psi=1.0)
    @example(v=np.ldexp([0.3, 0.1, 2.0], -600), psi=1.0)
    @example(v=np.ldexp([2.0, 0.1, 0.3], 600), psi=-2.0)
    @example(v=np.ldexp([2.0, 0.1, 0.3], -600), psi=-2.0)
    # Spacelike with <v, v> just above EPS |v|_E^2; the boost grows |v|_E^2
    # while <v, v> stays put, so the image falls in the Null band.
    @example(v=np.array([1.0, 6.103515625e-05, 1.0]), psi=1.0)
    @settings(max_examples=50)
    def test_classification_invariance(self, v, psi):
        # The Null band is relative to |v|_E^2, which a boost changes, so a
        # vector near the band may enter or leave it. The form itself is kept,
        # so a boost never swaps timelike and spacelike, and away from the band
        # the class and the time direction are kept.
        image = boost(psi).apply(v)
        classes = {classify(v), classify(image)}
        assert classes != {CausalClass.TIMELIKE, CausalClass.SPACELIKE}
        if CausalClass.NULL not in classes:
            assert classify(image) is classify(v)
            assert time_direction(image) is time_direction(v)

    def test_central_symmetry_flips_direction(self):
        i0 = central_symmetry()
        v = np.array([0.3, 0.1, 2.0])
        assert time_direction(v) is TimeDirection.FUTURE
        assert time_direction(i0.apply(v)) is TimeDirection.PAST
