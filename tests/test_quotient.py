import math

import numpy as np
import pytest

from desitter_horizons.causal import (
    HalfSpaceSet,
    SamplingReport,
    horizon_past,
    J_minus_L,
    J_minus_negL,
    J_plus_L,
    J_plus_negL,
    nesting_check,
    sample_horizon,
)
from desitter_horizons.manifold import (
    Event,
    SpacetimeContext,
    event,
    on_hyperboloid,
    sample_hyperboloid,
)
from desitter_horizons import quotient
from desitter_horizons.minkowski import inner
from desitter_horizons.quotient import (
    QuotientPoint,
    antipode,
    horizon_symmetry_check,
    injectivity_check,
    quotient_rep,
)

CTX = SpacetimeContext(radius=1.0, n=2)
RNG = np.random.default_rng(99)


class TestAntipode:
    def test_throat_event(self):
        np.testing.assert_array_equal(antipode(event(CTX, 1, 0, 0)).point, [-1, 0, 0])

    def test_involution(self):
        e = event(CTX, 0.6, 1.0, -0.6)
        np.testing.assert_array_equal(antipode(antipode(e)).point, e.point)

    def test_stays_on_hyperboloid(self):
        for p in sample_hyperboloid(CTX, 100, RNG):
            antipode(Event(point=p, context=CTX))  # constructor certifies


class TestQuotientRep:
    def test_sign_rule(self):
        assert np.array_equal(
            quotient_rep(event(CTX, -1, 0, 0)).representative.point, [1, 0, 0]
        )
        assert np.array_equal(
            quotient_rep(event(CTX, 0, -1, 0)).representative.point, [0, 1, 0]
        )

    def test_pair_collapse_exact(self):
        for p in sample_hyperboloid(CTX, 10_000, RNG):
            e = Event(point=p, context=CTX)
            assert quotient_rep(e) == quotient_rep(antipode(e))

    def test_idempotent(self):
        for p in sample_hyperboloid(CTX, 100, RNG):
            rep = quotient_rep(Event(point=p, context=CTX)).representative
            assert quotient_rep(rep) == quotient_rep(rep)
            assert np.array_equal(
                quotient_rep(rep).representative.point, rep.point
            )

    def test_injective_on_observed_region(self):
        jm = J_minus_L(CTX)
        pts = sample_hyperboloid(CTX, 5000, RNG)
        inside = pts[jm.margins(pts) > jm.band]
        reps = {
            tuple(quotient_rep(Event(point=p, context=CTX)).representative.point)
            for p in inside
        }
        assert len(reps) == inside.shape[0]

    def test_two_to_one_on_horizon(self):
        pts = sample_horizon(CTX, 500, RNG)
        for p in pts:
            e = Event(point=p, context=CTX)
            rep = quotient_rep(e).representative.point
            assert np.array_equal(rep, p) or np.array_equal(rep, -p)


class TestQuotientPoint:
    def test_constructor_normalizes(self):
        e = event(CTX, -1, 0, 0)
        q = QuotientPoint(representative=e)
        assert q == QuotientPoint(representative=antipode(e)) == quotient_rep(e)
        np.testing.assert_array_equal(q.representative.point, [1, 0, 0])

    def test_constructor_keeps_the_argument(self):
        # A kept sign holds e itself, a flipped one antipode(e); both points
        # are read-only, so sharing e's cannot let a write reach the pair.
        for e in (event(CTX, -1, 0, 0), event(CTX, 1, 0, 0)):
            rep = QuotientPoint(representative=e).representative
            assert (rep == antipode(e)) if e.point[0] < 0 else (rep is e)
            with pytest.raises(ValueError):
                rep.point[:] = 7.0

    def test_kept_sign_holds_the_event_itself(self):
        e = event(CTX, 0.6, 1.0, -0.6)
        assert quotient_rep(e).representative is e

    def test_flipped_sign_holds_the_antipode(self):
        e = event(CTX, -0.6, 1.0, 0.6)
        rep = quotient_rep(e).representative
        assert rep == antipode(e) and rep.point.tolist() == [0.6, -1.0, -0.6]
        with pytest.raises(ValueError):
            rep.point[0] = 7.0

    def test_pairs_below_the_guard_are_glued(self):
        # At tol = 0.9 no coordinate of e passes the guard tol * R.
        ctx = SpacetimeContext(tol=0.9)
        e = event(ctx, 0.75, 0.75, np.sqrt(0.125))
        assert quotient_rep(e) == quotient_rep(antipode(e))
        np.testing.assert_array_equal(quotient_rep(antipode(e)).representative.point, e.point)

    def test_below_the_guard_the_first_nonzero_coordinate_sets_the_sign(self):
        ctx = SpacetimeContext(n=3, tol=0.9)
        e = event(ctx, 0.0, -0.75, 0.75, -np.sqrt(0.125))
        np.testing.assert_array_equal(quotient_rep(e).representative.point, -e.point)
        assert quotient_rep(e) == quotient_rep(antipode(e))

    def test_guarded_coordinate_sets_the_sign(self):
        # -0.95 is the first coordinate above the guard 0.9, so it wins over
        # the leading 0.5.
        ctx = SpacetimeContext(tol=0.9)
        e = event(ctx, 0.5, -0.95, np.sqrt(0.1525))
        np.testing.assert_array_equal(quotient_rep(e).representative.point, -e.point)


class TestQuotientHash:
    def test_antipodal_pair_hashes_alike(self):
        e = event(CTX, 0.6, 1.0, -0.6)
        q, q_anti = quotient_rep(e), quotient_rep(antipode(e))
        assert q == q_anti and hash(q) == hash(q_anti)
        assert len({q, q_anti, quotient_rep(event(CTX, 1, 0, 0))}) == 2


class TestInjectivityCheck:
    @pytest.mark.parametrize("factory", [J_minus_L, J_plus_L, J_plus_negL, J_minus_negL])
    def test_open_sets_clean(self, factory):
        report = injectivity_check(
            factory(CTX), CTX, samples=10_000, rng=np.random.default_rng(1)
        )
        assert report.violations == 0

    def test_equality_region_rejected(self):
        with pytest.raises(ValueError):
            injectivity_check(horizon_past(CTX), CTX)

    @pytest.mark.parametrize("n, radius", [(2, 1.0), (3, 1e-3), (6, 1e3)])
    def test_reports_pairs_inside_together(self, n, radius):
        # x_1 - t > -R/2 holds for e and -e together wherever |x_1 - t| < R/2.
        ctx = SpacetimeContext(radius=radius, n=n)
        a = np.zeros(n + 1)
        a[0], a[-1] = 1.0, -1.0
        region = HalfSpaceSet(a, -0.5 * radius, ctx)
        report = injectivity_check(region, ctx, samples=5000, rng=np.random.default_rng(3))
        assert report.samples == 5000
        assert report.violations > 0
        assert report.worst_margin > 0.0

    def test_thin_negative_threshold_reports_the_equatorial_pair(self):
        # a . e > -1e-6 holds on both members of a pair only where
        # |a . e| < 1e-6, which 10_000 draws almost never hit; the pair
        # +-(R w, 0) with w orthogonal to a_x is inside twice.
        for a in np.random.default_rng(12).standard_normal((20, 3)):
            region = HalfSpaceSet(a, -1e-6, CTX)
            report = injectivity_check(region, CTX, samples=10_000, rng=np.random.default_rng(5))
            assert report.samples == 10_000
            assert report.violations > 0
            assert report.worst_margin > 0.0

    def test_equatorial_pair_without_spatial_covector(self):
        # t > -1e-6 at n = 3: a_x = 0, so any unit spatial w gives the pair.
        ctx = SpacetimeContext(radius=2.0, n=3)
        region = HalfSpaceSet((0.0, 0.0, 0.0, 1.0), -1e-6, ctx)
        report = injectivity_check(region, ctx, samples=10_000, rng=np.random.default_rng(5))
        assert report.violations > 0 and report.worst_margin == 1e-6

    def test_sparse_region_takes_further_draws(self, monkeypatch):
        # |x_1 - t| > 4R holds for few events with |t| <= 3R, so one draw of
        # `samples` points cannot give every test; no pair is inside twice.
        draws = []

        def counted(ctx, count, rng):
            draws.append(count)
            return sample_hyperboloid(ctx, count, rng)

        monkeypatch.setattr(quotient, "sample_hyperboloid", counted)
        region = HalfSpaceSet((1.0, 0.0, -1.0), 4.0, CTX)
        report = injectivity_check(region, CTX, samples=2000, rng=np.random.default_rng(4))
        assert report.samples == 2000
        assert report.violations == 0
        assert report.worst_margin < 0.0
        assert len(draws) > 1 and set(draws) == {2000}

    def test_region_from_another_dimension_rejected(self):
        region = J_minus_L(SpacetimeContext(n=3))
        with pytest.raises(ValueError, match="different spacetimes"):
            injectivity_check(region, CTX, samples=100)

    def test_region_from_another_radius_rejected(self):
        # Its band of 500 would exceed every margin of the R = 1 draws.
        region = J_minus_L(SpacetimeContext(radius=1e3, tol=0.5))
        with pytest.raises(ValueError, match="different spacetimes"):
            injectivity_check(region, CTX, samples=100)

    @pytest.mark.parametrize("samples", [0, 1, 2])
    def test_equatorial_pair_is_counted_without_a_draw(self, samples, monkeypatch):
        # t > -1e-6 at n = 3: the pair's margins are both exactly 1e-6, and
        # the report holds its first `samples` tests.
        def refused(*args):
            raise AssertionError("no draw is needed")

        monkeypatch.setattr(quotient, "sample_hyperboloid", refused)
        ctx = SpacetimeContext(radius=2.0, n=3)
        region = HalfSpaceSet((0.0, 0.0, 0.0, 1.0), -1e-6, ctx)
        report = injectivity_check(region, ctx, samples=samples)
        worst = 1e-6 if samples else -np.inf
        assert report == SamplingReport(samples, samples, worst)

    def test_empty_region_raises(self):
        # The sampler keeps |t| <= 3R, so neither e nor -e has t > 10R.
        region = HalfSpaceSet((0.0, 0.0, 1.0), 10.0, CTX)
        with pytest.raises(RuntimeError, match="failed to populate"):
            injectivity_check(region, CTX, samples=100)


class TestHorizonSymmetry:
    def test_ruling_pair(self):
        hp = horizon_past(CTX)
        for s in (0.0, 1.5, -3.0):
            assert hp.contains((s, 1.0, s))
            assert hp.contains((-s, -1.0, -s))

    def test_sampling_report_clean(self):
        report = horizon_symmetry_check(CTX, samples=10_000, rng=np.random.default_rng(2))
        assert report.violations == 0

    def test_n3(self):
        ctx = SpacetimeContext(radius=2.0, n=3)
        report = horizon_symmetry_check(ctx, samples=2000, rng=np.random.default_rng(3))
        assert report.violations == 0

    def test_draws_nothing(self):
        # The identity is exact, so the caller's Generator is left untouched.
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        horizon_symmetry_check(CTX, samples=1000, rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("radius", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
    def test_exact_report(self, n, radius, tol):
        # What sampling the two horizons found at every R, tol and seed: the
        # reflection of x_1 = +-t is x_1 = +-t exactly, margin +0.0.
        ctx = SpacetimeContext(radius=radius, n=n, tol=tol)
        for samples in (0, 1, 7, 1000):
            report = horizon_symmetry_check(ctx, samples=samples)
            assert report == SamplingReport(2 * samples, 0, 0.0)
            assert math.copysign(1.0, report.worst_margin) == 1.0

    @pytest.mark.parametrize(
        "samples,error", [(-1, ValueError), (2.5, TypeError), (True, TypeError)]
    )
    def test_sample_count_must_be_a_non_negative_int(self, samples, error):
        with pytest.raises(error):
            horizon_symmetry_check(CTX, samples=samples)


@pytest.mark.parametrize(
    "check,worst",
    [
        (lambda: nesting_check(CTX, 0.0, 1.0, samples=0), math.inf),
        (lambda: horizon_symmetry_check(CTX, samples=0), 0.0),
        (lambda: injectivity_check(J_minus_L(CTX), CTX, samples=0), -math.inf),
    ],
    ids=["nesting", "horizon_symmetry", "injectivity"],
)
def test_sampling_checks_report_an_empty_sample(check, worst):
    assert check() == SamplingReport(0, 0, worst)


def _sampled_events():
    for n in (2, 3, 6):
        ctx = SpacetimeContext(radius=1.0, n=n)
        for t_span in (2.0, 1e2, 3e2):
            rng = np.random.default_rng([n, int(t_span), 61])
            for p in sample_hyperboloid(ctx, 50, rng, t_span=t_span):
                yield Event(point=p, context=ctx)


class TestExactNegation:
    """antipode and quotient_rep negate exactly and so skip re-certification."""

    def test_antipode_on_hyperboloid(self):
        for e in _sampled_events():
            assert on_hyperboloid(antipode(e).point, e.context)

    def test_form_is_even_bit_for_bit(self):
        for e in _sampled_events():
            v = e.point
            assert inner(-v, -v) == inner(v, v)

    def test_results_do_not_alias_the_event(self):
        # Only antipode makes a fresh array; quotient_rep holds e or it.
        for e in _sampled_events():
            anti, rep = antipode(e), quotient_rep(e).representative
            assert not np.shares_memory(anti.point, e.point)
            assert rep is e or rep == anti
            for result in (anti, rep):
                with pytest.raises(ValueError):
                    result.point[:] = 7.0

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("factory", [J_minus_L, J_plus_L, J_plus_negL, J_minus_negL])
    def test_antipodal_margins_are_negated_products(self, factory, n):
        # injectivity_check reads margins(-pts) as -(pts @ a) - c.
        ctx = SpacetimeContext(radius=1.0, n=n)
        region = factory(ctx)
        for t_span in (2.0, 1e2, 3e2):
            pts = sample_hyperboloid(ctx, 500, np.random.default_rng([n, int(t_span), 62]), t_span)
            expected = -(pts @ region.covector) - region.threshold
            assert region.margins(-pts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("factory", [J_minus_L, J_plus_L, J_plus_negL, J_minus_negL])
    def test_injectivity_report_matches_two_product_reference(self, factory, n):
        ctx = SpacetimeContext(radius=1.0, n=n)
        region = factory(ctx)
        report = injectivity_check(region, ctx, samples=3000, rng=np.random.default_rng(n))
        assert report == _two_product_injectivity(region, ctx, 3000, np.random.default_rng(n))


def _two_product_injectivity(region, ctx, samples, rng):
    """injectivity_check with the antipodes' margins as a second product."""
    band = region.band
    collected = violations = 0
    worst = -np.inf
    for _ in range(200):
        pts = sample_hyperboloid(ctx, samples, rng)
        margins, anti_margins = region.margins(pts), region.margins(-pts)
        tested = np.concatenate(
            (anti_margins[margins > band], margins[anti_margins > band])
        )[: samples - collected]
        violations += int(np.sum(tested > -band))
        worst = max(worst, float(tested.max(initial=-np.inf)))
        collected += tested.size
        if collected == samples:
            break
    return SamplingReport(samples=collected, violations=violations, worst_margin=worst)
