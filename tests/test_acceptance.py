"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import csv
import math

import numpy as np
import pytest

from desitter_horizons.causal import (
    Region,
    causal_past_of_event,
    chord_oracle_past,
    cone_at_L_psi,
    horizon_limit_check,
    J_minus_L,
    J_minus_negL,
    J_plus_L,
    J_plus_negL,
    nesting_check,
    sample_causal_past_canonical,
    sample_horizon,
    throat_intersection,
)
from desitter_horizons.cli import main as cli_main
from desitter_horizons.figures import build_scene, emit_csv, emit_svg
from desitter_horizons.manifold import (
    Event,
    NullRay,
    SpacetimeContext,
    sample_hyperboloid,
)
from desitter_horizons.minkowski import boost, verify_isometry
from desitter_horizons.quotient import (
    antipode,
    horizon_symmetry_check,
    injectivity_check,
    quotient_rep,
)


def _report(num: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} PASS: {name}{suffix}")


def test_01_throat_sphere_constant():
    worst = 0.0
    for n in (2, 3):
        for radius in (1.0, 2.5):
            ctx = SpacetimeContext(radius=radius, n=n)
            ti = throat_intersection(ctx)
            pts = ti.sample(2000, np.random.default_rng(n * 10 + int(radius)))
            target = math.pi * radius / 2.0
            errs = np.abs([ti.distance(p) - target for p in pts])
            worst = max(worst, float(errs.max()) / radius)
            assert errs.max() <= 1e-9 * radius
    _report(1, "throat sphere radius pi*R/2", f"worst rel err {worst:.2e}")


def test_02_horizon_characterization():
    ctx = SpacetimeContext(radius=1.0, n=2)
    rng = np.random.default_rng(2)
    pts = sample_hyperboloid(ctx, 100_000, rng)
    jm, jp = J_minus_L(ctx), J_plus_negL(ctx)
    sign = pts[:, 0] - pts[:, -1]
    band = jm.band
    mis = 0
    mis += int(np.sum((sign > band) & (jm.margins(pts) <= band)))
    mis += int(np.sum((sign < -band) & (jp.margins(pts) <= band)))
    mis += int(
        np.sum(
            (np.abs(sign) <= band)
            & ((np.abs(jm.margins(pts)) > band) | (np.abs(jp.margins(pts)) > band))
        )
    )
    assert mis == 0
    _report(2, "sign(x1 - t) trichotomy over 1e5 events", "0 misclassifications")


def test_03_oracle_equivalence():
    total = 0
    disagreements = 0
    worst = 0.0
    for n, count in ((2, 50_000), (3, 50_000)):
        ctx = SpacetimeContext(radius=1.0, n=n)
        rng = np.random.default_rng(30 + n)
        ps = sample_hyperboloid(ctx, count, rng, t_span=2.0)
        qs = sample_hyperboloid(ctx, count, rng, t_span=2.0)
        for p_pt, q_pt in zip(ps, qs):
            p = Event(point=p_pt, context=ctx)
            q = Event(point=q_pt, context=ctx)
            v_canon = causal_past_of_event(q, p)
            v_chord = chord_oracle_past(p, q)
            total += 1
            if v_canon.region is not v_chord.region:
                disagreements += 1
                worst = max(worst, abs(v_chord.margin))
                assert abs(v_chord.margin) <= 1e-7  # R = 1, so 1e-7 * R^2
    assert total == 100_000
    _report(
        3,
        "canonical-frame vs chord oracle on 1e5 pairs",
        f"{disagreements} band-confined disagreements, worst margin {worst:.2e}",
    )


def test_04_boost_group_exactness():
    rng = np.random.default_rng(4)
    worst_comp = 0.0
    for _ in range(1000):
        a, b = rng.uniform(-5, 5, 2)
        diff = np.abs(boost(a).compose(boost(b)).matrix - boost(a + b).matrix).max()
        worst_comp = max(worst_comp, float(diff))
        assert diff <= 1e-10
    worst_res = 0.0
    for psi in np.linspace(-20, 20, 81):
        res = verify_isometry(boost(float(psi)))
        worst_res = max(worst_res, res)
        assert res <= 1e-10
    _report(
        4,
        "boost one-parameter group and isometry residuals",
        f"worst composition {worst_comp:.2e}, worst residual {worst_res:.2e}",
    )


def test_05_cone_pushforward():
    ctx = SpacetimeContext(radius=1.0, n=2)
    rng = np.random.default_rng(5)
    # Points of the throat-event cone: (R, +-a, a).
    a = rng.uniform(-5, 5, 10_000)
    signs = rng.choice([-1.0, 1.0], 10_000)
    pts = np.column_stack([np.ones_like(a), signs * a, a])
    worst = 0.0
    for psi in np.linspace(-4, 4, 20):
        moved = pts @ boost(float(psi)).matrix.T
        res = np.abs(cone_at_L_psi(ctx, float(psi)).margins(moved))
        worst = max(worst, float(res.max()))
        assert res.max() <= 1e-9
    _report(5, "cone equation after boost push-forward", f"worst residual {worst:.2e}")


def test_06_nesting():
    ctx = SpacetimeContext(radius=1.0, n=2)
    grid = np.linspace(-2.0, 2.5, 10)
    rng = np.random.default_rng(6)
    total_violations = 0
    for i, psi1 in enumerate(grid[:-1]):
        psi2 = grid[i + 1]
        report = nesting_check(ctx, float(psi1), float(psi2), samples=10_000, rng=rng)
        total_violations += report.violations
    assert total_violations == 0
    _report(6, "past-of-observer nesting over rapidity grid", "0 violations")


def test_07_horizon_limit():
    ctx = SpacetimeContext(radius=1.0, n=2)
    rng = np.random.default_rng(7)
    psis = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    worst_final = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 10.0)
        # On the past horizon the remaining spatial coordinate is +-R.
        q = Event(point=np.array([t, 1.0, t]), context=ctx)
        res = horizon_limit_check(ctx, q, psis)
        assert np.all(np.diff(res) < 0.0)
        worst_final = max(worst_final, float(res[-1]))
        assert res[-1] <= 1e-6
    _report(7, "cone residuals decrease to the horizon", f"worst final {worst_final:.2e}")


def test_08_central_symmetry_identities():
    ctx = SpacetimeContext(radius=1.0, n=2)
    rng = np.random.default_rng(8)
    pairs = [
        (J_minus_L(ctx), J_plus_negL(ctx)),
        (J_plus_L(ctx), J_minus_negL(ctx)),
    ]
    for region, mirror in pairs:
        collected = 0
        while collected < 10_000:
            pts = sample_hyperboloid(ctx, 20_000, rng)
            inside = pts[region.margins(pts) > region.band][: 10_000 - collected]
            assert np.all(mirror.margins(-inside) > 0.0)
            # And the reverse identity on the same batch.
            assert np.all(region.margins(-(-inside)) > region.band)
            collected += inside.shape[0]
    _report(8, "point-reflection identities between the four J sets", "0 violations")


def test_09_antipodal_gluing():
    ctx = SpacetimeContext(radius=1.0, n=2)
    for i, factory in enumerate((J_minus_L, J_plus_L, J_plus_negL, J_minus_negL)):
        report = injectivity_check(
            factory(ctx), ctx, samples=10_000, rng=np.random.default_rng(90 + i)
        )
        assert report.violations == 0
    sym = horizon_symmetry_check(ctx, samples=10_000, rng=np.random.default_rng(95))
    assert sym.violations == 0
    rng = np.random.default_rng(96)
    for p in sample_hyperboloid(ctx, 10_000, rng):
        e = Event(point=p, context=ctx)
        assert quotient_rep(e) == quotient_rep(antipode(e))
    _report(9, "antipodal gluing: injectivity, symmetry, representatives", "all clean")


def test_10_null_rulings():
    ctx = SpacetimeContext(radius=1.0, n=2)
    rng = np.random.default_rng(10)
    pts = sample_horizon(ctx, 5000, rng)
    # Distance to the nearest of the two rays (s, +-R, s).
    d = np.minimum(
        np.hypot(pts[:, 1] - 1.0, pts[:, 0] - pts[:, 2]),
        np.hypot(pts[:, 1] + 1.0, pts[:, 0] - pts[:, 2]),
    )
    assert d.max() <= 1e-9
    ray = NullRay(Event(point=np.array([0.0, 1.0, 0.0]), context=ctx), (1, 0, 1))
    ss = np.linspace(-10, 10, 401)
    gamma = ray.sample(ss)
    res = np.abs(gamma[:, 0] ** 2 + gamma[:, 1] ** 2 - gamma[:, 2] ** 2 - 1.0)
    assert res.max() <= 1e-9
    _report(10, "horizon is the two null rulings; rays stay on the surface")


def test_11_figure_outputs(tmp_path):
    out = tmp_path / "fig2"
    assert cli_main(["fig2", "--t-max", "2", "--resolution", "64", "--out", str(out)]) == 0
    svg1 = (tmp_path / "fig2.svg").read_bytes()
    csv1 = (tmp_path / "fig2.csv").read_bytes()
    out2 = tmp_path / "again"
    assert cli_main(["fig2", "--t-max", "2", "--resolution", "64", "--out", str(out2)]) == 0
    assert (tmp_path / "again.svg").read_bytes() == svg1
    assert (tmp_path / "again.csv").read_bytes() == csv1

    with open(tmp_path / "fig2.csv") as fh:
        rows = list(csv.DictReader(fh))
    markers = []
    for row in rows:
        x1, x2, t = (float(row["x1"]), float(row["x2"]), float(row["t"]))
        assert abs(x1 * x1 + x2 * x2 - t * t - 1.0) <= 1e-8
        if row["label"] == "throat-intersection":
            markers.append((x1, x2, t))
    assert np.allclose(sorted(markers), [(0, -1, 0), (0, 1, 0)], atol=1e-12)
    assert svg1.decode().count('<path class="horizon-past"') == 2
    _report(11, "deterministic fig2 outputs with non-empty throat intersection")
