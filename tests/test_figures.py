import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import desitter_horizons
from desitter_horizons.causal import Region, horizon_past
from desitter_horizons.cli import main as cli_main
from desitter_horizons.figures import build_scene, compactify, emit_csv, emit_svg
from desitter_horizons.manifold import SpacetimeContext, on_hyperboloid

CTX = SpacetimeContext(radius=1.0, n=2)


def _scene(figure="fig2", **kw):
    kw.setdefault("t_max", 2.0)
    kw.setdefault("resolution", 32)
    return build_scene(CTX, figure, **kw)


class TestBuildScene:
    def test_vertices_on_hyperboloid(self):
        scene = _scene()
        for pl in scene.polylines:
            for p in pl.points:
                assert abs(p[0] ** 2 + p[1] ** 2 - p[2] ** 2 - 1.0) <= 1e-8

    def test_horizon_rulings_are_straight_segments(self):
        for radius in (1e-3, 1.0, 1e3):
            ctx = SpacetimeContext(radius=radius, n=2)
            horizon = horizon_past(ctx)
            for figure in ("fig2", "cones"):
                scene = build_scene(ctx, figure, t_max=2.0 * radius, resolution=32)
                rulings = [pl for pl in scene.polylines if pl.label == "horizon-past"]
                assert len(rulings) == len(scene.markers) == 2
                for pl, marker in zip(rulings, scene.markers):
                    assert (pl.points[0] == marker).all()
                    for p in pl.points:
                        assert horizon.verdict(p).region is Region.BOUNDARY
                        assert on_hyperboloid(p, ctx)
                    # The canonical rulings x_1 = t at x_2 = +-R, with no rounding.
                    np.testing.assert_array_equal(pl.points[:, 0], pl.points[:, 2])
                    np.testing.assert_array_equal(pl.points[:, 1], marker[1])
                    assert pl.points[-1, 2] == 2.0 * radius
                assert sorted(m[1] for m in scene.markers) == [-radius, radius]

    def test_worldline_endpoints(self):
        scene = _scene()
        wl = next(pl for pl in scene.polylines if pl.label == "worldline")
        np.testing.assert_array_equal(wl.points[0], [1, 0, 0])
        psi_max = math.asinh(2.0)
        np.testing.assert_allclose(
            wl.points[-1], [math.cosh(psi_max), 0, math.sinh(psi_max)], atol=1e-12
        )

    def test_markers_at_throat_intersection(self):
        scene = _scene()
        got = sorted(map(tuple, scene.markers))
        assert np.allclose(got, [(0, -1, 0), (0, 1, 0)], atol=1e-12)

    def test_cone_figure_curves(self):
        scene = _scene("cones", psi_list=[0.0])
        cones = [pl for pl in scene.polylines if pl.label == "cone-psi"]
        assert len(cones) == 2
        for pl in cones:
            # psi = 0: the vertical ruling pair through the throat event.
            assert np.allclose(pl.points[:, 0], 1.0)
            assert np.allclose(np.abs(pl.points[:, 1]), np.abs(pl.points[:, 2]))

    def test_fig3_time_extent_bounded(self):
        scene = _scene("fig3")
        for pl in scene.polylines:
            assert np.all(np.abs(pl.points[:, 2]) < 1.0)
        rulings = [pl for pl in scene.polylines if pl.label == "horizon-past"]
        for pl in rulings:
            # Terminates just below the compactified boundary tau = R.
            assert pl.points[-1, 2] >= 1.0 - 2.0 / 32

    def test_fig3_vertices_stay_on_hyperboloid(self):
        scene = _scene("fig3")
        for pl in scene.polylines:
            for p in pl.points:
                assert abs(p[0] ** 2 + p[1] ** 2 - p[2] ** 2 - 1.0) <= 1e-8

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n = 2"):
            build_scene(SpacetimeContext(radius=1.0, n=3), "fig2")
        with pytest.raises(ValueError, match="resolution"):
            build_scene(CTX, "fig2", resolution=4)
        with pytest.raises(ValueError):
            build_scene(CTX, "fig5")
        with pytest.raises(ValueError, match="t_max must be positive"):
            build_scene(CTX, "fig2", t_max=0.0)

    @pytest.mark.parametrize(
        "figure,kw,match",
        [
            ("fig2", {"t_max": math.inf}, "t_max must be finite"),
            ("fig3", {"t_max": math.nan}, "t_max must be finite"),
            ("cones", {"psi_list": [0.0, math.nan]}, "rapidities must be finite"),
            ("fig2", {"projection": (0.35, math.nan)}, "projection must be finite"),
            ("cones", {"psi_list": []}, "at least one rapidity"),
            ("fig2", {"t_max": 1e200}, "not finite"),
            ("cones", {"psi_list": [1000.0]}, "not finite"),
            ("fig2", {"projection": (5e307, 0.2)}, "not finite"),
        ],
        ids=[
            "t-max-inf",
            "fig3-t-max-nan",
            "psi-nan",
            "proj-nan",
            "psi-list-empty",
            "time-grid-overflow",
            "rapidity-overflow",
            "projection-overflow",
        ],
    )
    def test_rejects_non_finite_and_overflowing_inputs(self, figure, kw, match):
        with pytest.raises(ValueError, match=match):
            _scene(figure, **kw)

    @pytest.mark.parametrize("projection", [(0.35, 0.2, 1.0), (0.35,), 0.35])
    def test_projection_needs_two_coefficients(self, projection):
        with pytest.raises(ValueError, match="projection"):
            build_scene(CTX, "fig2", projection=projection)

    def test_scene_holds_only_what_the_emitters_read(self):
        from dataclasses import fields

        from desitter_horizons.figures import FigureScene

        names = [f.name for f in fields(FigureScene)]
        assert names == ["polylines", "markers", "projection", "compactified"]
        assert len(_scene().projection) == 2

    @pytest.mark.parametrize("radius", [1e300, 1e-300])
    def test_radius_out_of_range(self, radius):
        # 1e300 overflows the squared radius; 1e-300 underflows it to 0 and
        # compactify divides 0 by 0.
        with pytest.raises(ValueError, match="not finite"):
            build_scene(SpacetimeContext(radius=radius, n=2), "fig3")

    def test_large_finite_inputs_still_render(self):
        scene = build_scene(SpacetimeContext(radius=1e150, n=2), "fig3")
        assert all(np.isfinite(pl.points).all() for pl in scene.polylines)
        scene = _scene("cones", psi_list=[100.0])
        assert all(np.isfinite(pl.points).all() for pl in scene.polylines)


    def test_unknown_polyline_label(self):
        from desitter_horizons.figures import Polyline

        with pytest.raises(ValueError, match="unknown polyline label"):
            Polyline("horizon", np.zeros((1, 3)))

    def test_polyline_needs_a_vertex(self):
        from desitter_horizons.figures import Polyline

        with pytest.raises(ValueError, match="k >= 1"):
            Polyline("worldline", np.empty((0, 3)))

    def test_value_types_compare_by_identity(self):
        from desitter_horizons.figures import FigureScene, Polyline

        lines = [Polyline("worldline", np.zeros((2, 3))) for _ in range(2)]
        scenes = [FigureScene(polylines=(lines[0],), markers=np.zeros((1, 3))) for _ in range(2)]
        for a, b in (lines, scenes):
            assert a == a and a != b
            assert len({a, b, a}) == 2

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (3,), (1, 3, 1)])
    def test_scene_markers_must_be_rows_of_three(self, shape):
        from desitter_horizons.figures import FigureScene

        with pytest.raises(ValueError, match=r"markers must have shape \(k, 3\)"):
            FigureScene(polylines=(), markers=np.zeros(shape))

    def test_a_pole_off_the_unit_circle_is_refused_not_drawn(self, monkeypatch):
        # Every ruling is certified: a pole that puts the markers off the
        # hyperboloid, or k+ off the null cone, raises instead of drawing.
        from types import SimpleNamespace

        from desitter_horizons import figures

        pole = SimpleNamespace(plane_normal=np.array([1.0 + 1e-6, 0.0]))
        monkeypatch.setattr(figures, "throat_intersection", lambda ctx: pole)
        with pytest.raises(ValueError, match="not on the hyperboloid"):
            _scene()

    def test_scene_arrays_are_read_only_copies(self):
        # A later write into the caller's arrays must not reach the scene.
        from desitter_horizons.figures import FigureScene, Polyline

        points, markers = np.zeros((2, 3)), np.ones((1, 3))
        line = Polyline("worldline", points)
        scene = FigureScene(polylines=(line,), markers=markers)
        points[0, 0] = markers[0, 0] = 7.0
        assert line.points[0, 0] == 0.0 and scene.markers[0, 0] == 1.0
        built = _scene()
        for a in (line.points, scene.markers, built.markers, built.polylines[0].points):
            with pytest.raises(ValueError):
                a[0, 0] = 7.0


class TestCompactify:
    def test_preserves_hyperboloid_membership(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-50, 50, 100)
        phi = rng.uniform(0, 2 * math.pi, 100)
        r = np.sqrt(1 + t**2)
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), t])
        out = compactify(pts, 1.0)
        assert np.all(np.abs(out[:, 0] ** 2 + out[:, 1] ** 2 - out[:, 2] ** 2 - 1) <= 1e-9)
        assert np.all(np.abs(out[:, 2]) < 1.0)


class TestEmitCsv:
    def test_round_trip_membership(self, tmp_path):
        scene = _scene()
        path = tmp_path / "fig2.csv"
        emit_csv(scene, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        expected = sum(pl.points.shape[0] for pl in scene.polylines) + 2
        assert len(rows) == expected
        for row in rows:
            p = (float(row["x1"]), float(row["x2"]), float(row["t"]))
            assert on_hyperboloid(p, CTX)

    def test_header_only_for_empty_scene(self, tmp_path):
        from desitter_horizons.figures import FigureScene

        scene = FigureScene(polylines=(), markers=np.empty((0, 3)))
        path = tmp_path / "empty.csv"
        emit_csv(scene, path)
        assert path.read_text() == "label,polyline,vertex,x1,x2,t,u,v\n"

    def test_marker_rows_present(self, tmp_path):
        path = tmp_path / "fig2.csv"
        emit_csv(_scene(), path)
        with open(path) as fh:
            rows = [r for r in csv.DictReader(fh) if r["label"] == "throat-intersection"]
        pts = sorted((float(r["x1"]), float(r["x2"]), float(r["t"])) for r in rows)
        assert np.allclose(pts, [(0, -1, 0), (0, 1, 0)], atol=1e-12)


class TestEmitSvg:
    def test_deterministic(self, tmp_path):
        scene = _scene()
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(scene, a)
        emit_svg(scene, b)
        assert a.read_bytes() == b.read_bytes()

    def test_structure(self, tmp_path):
        path = tmp_path / "fig2.svg"
        emit_svg(_scene(), path)
        text = path.read_text()
        assert text.count('<path class="horizon-past"') == 2
        assert text.count('<circle class="throat-intersection"') == 2
        assert 'version="1.1"' in text

    def test_annotate_flag_changes_markers(self, tmp_path):
        path = tmp_path / "fig2.svg"
        emit_svg(_scene(), path, annotate_throat=True)
        assert 'class="throat-intersection annotated"' in path.read_text()

    def test_tiny_scene_keeps_its_viewbox_proportions(self, tmp_path):
        # The floor on the view span is relative to the scene's size, so a
        # scene 1e-12 times smaller gets a viewBox 1e-12 times smaller.
        boxes = []
        for size in ("1", "1e-12"):
            out = tmp_path / f"r{size}"
            argv = ["fig2", "--radius", size, "--t-max", size, "--format", "svg"]
            assert cli_main(argv + ["--out", str(out)]) == 0
            box = re.search(r'viewBox="([^"]*)"', out.with_suffix(".svg").read_text())
            boxes.append(np.array(box.group(1).split(), dtype=float))
        np.testing.assert_allclose(boxes[1], boxes[0] * 1e-12, rtol=1e-5)


class TestCli:
    def test_fig2_both_outputs(self, tmp_path):
        out = tmp_path / "fig2"
        rc = cli_main(["fig2", "--t-max", "2", "--resolution", "16", "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "fig2.svg").exists()
        assert (tmp_path / "fig2.csv").exists()

    def test_single_format(self, tmp_path):
        out = tmp_path / "scene.csv"
        rc = cli_main(["fig3", "--format", "csv", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_cones_with_psi_list(self, tmp_path):
        out = tmp_path / "cones"
        rc = cli_main(
            ["cones", "--psi-list=-0.5,0,0.5", "--format", "svg", "--out", str(out)]
        )
        assert rc == 0
        text = (tmp_path / "cones.svg").read_text()
        assert text.count('class="cone-psi"') == 6

    def test_validation_error_exit_code(self, tmp_path):
        rc = cli_main(["fig2", "--resolution", "2", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cones", "--psi-list=nan"],
            ["fig2", "--t-max", "inf"],
            ["fig2", "--proj", "nan,0"],
            ["fig3", "--radius", "1e300"],
            ["cones", "--psi-list=,"],
            ["fig2", "--proj", "1,2,3"],
            ["cones", "--psi-list=abc"],
            ["fig2", "--proj", "a,b"],
        ],
        ids=[
            "psi-nan", "t-max-inf", "proj-nan", "radius-overflow", "psi-list-empty",
            "proj-three-numbers", "psi-not-a-number", "proj-not-a-number",
        ],
    )
    def test_invalid_figure_inputs_exit_2(self, tmp_path, capsys, argv):
        # A return code, not SystemExit: the parsing of the number lists
        # happens inside main's error handling.
        assert cli_main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "horizons: error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["fig2", "--seed", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_unwritable_path(self, tmp_path):
        rc = cli_main(["fig2", "--out", str(tmp_path / "no" / "such" / "dir" / "x")])
        assert rc == 2

    def test_installed_entry_point(self, tmp_path):
        # The child imports the package these tests import, also when only
        # pytest's `pythonpath` setting put it on sys.path.
        src = str(Path(desitter_horizons.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "desitter_horizons.cli",
                "fig2",
                "--format",
                "csv",
                "--out",
                str(tmp_path / "ep.csv"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "ep.csv").exists()


GOLDEN_FIGURES = Path(__file__).resolve().parent.parent / "bench" / "golden_figures.json"

# The figure_render benchmark configurations, rendered with --format both.
BENCH_ARGVS = {
    "fig2": ["fig2", "--resolution", "64"],
    "fig3": ["fig3", "--resolution", "256"],
    "cones": ["cones", "--resolution", "512", "--psi-list=-2,-1,0,1,2"],
}

# (name, argv, output files); SHA-256 digests of every output file below.
GATE_CASES = [
    *((name, argv, [f"{name}.svg", f"{name}.csv"]) for name, argv in BENCH_ARGVS.items()),
    ("annotated", ["fig2", "--annotate-throat", "--format", "svg"], ["annotated.svg"]),
    (
        "custom",
        ["fig2", "--radius", "2.5", "--proj", "0.5,0.1", "--t-max", "3"],
        ["custom.svg", "custom.csv"],
    ),
    ("fig3only", ["fig3", "--format", "csv"], ["fig3only.csv"]),
]

# Recorded with the per-vertex f-string emitters that preceded the block
# formatting; the three benchmark configurations equal bench/golden_figures.json.
GATE_DIGESTS = {
    "fig2.svg": "e3ad3799f9c26c61b67f417ca6f3147ec9adb0008c5c5b7ec8815502d2e831cb",
    "fig2.csv": "792e35150ff9c4e2ed30b9b9607a93ea92e7a199dae42eb2a6473682628176bf",
    "fig3.svg": "37bfa2de64e96d59e0e66bfcfd482e8227e283cc0c7a1172ffd6b4061871ddb1",
    "fig3.csv": "931177887a387dd2fc0d66222ea7ba9083bd627dd0b403d05c2a1cd803751abb",
    "cones.svg": "b587ee65b7cf5a5cbdb23399d784811ffa45c21fa814b8db22a98ae4f0350a22",
    "cones.csv": "9b384ab7266d0cc62b1bf31e89eaa1a0165f99fc30cde0272ba48228380b2466",
    "annotated.svg": "fc22706e5e5bb85bd0a83a19cbcada46121dd3dda0473f8a76b9d63a4088acf2",
    "custom.svg": "6da49560983e26a02623cd26ad40d19501cb06da01da68d6f4d0a4680bc9c1d4",
    "custom.csv": "eef4c630be5073c5b5502cf6883f0670610d90997f5f506c069dd7ad59758b9b",
    "fig3only.csv": "9bc902d421aac833002754c3b12ce77c4a0e7235dd1dcfa964dd71a912ae11b2",
    "empty.csv": "6edded6a82f4485b45ea818695c81f6e6d2e2c35b2852ce97a5940684207ee13",
    "empty.svg": "e4a56e9496c3b2dffbe6d204a2433c856e3a3d1ec8d4f7c8df74ff868d6d4c20",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestByteIdentityGate:
    """Figure bytes are pinned: emitter rewrites must reproduce them exactly."""

    @pytest.mark.parametrize("name,argv,files", GATE_CASES, ids=[c[0] for c in GATE_CASES])
    def test_cli_outputs(self, tmp_path, name, argv, files):
        assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0
        for fname in files:
            assert _sha256(tmp_path / fname) == GATE_DIGESTS[fname], fname

    def test_cli_defaults(self, tmp_path, monkeypatch):
        # No options at all: the defaults are build_scene's and
        # SpacetimeContext's, and --out defaults to horizons_<figure>.
        monkeypatch.chdir(tmp_path)
        assert cli_main(["fig2"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "horizons_fig2.csv", "horizons_fig2.svg"
        ]
        for ext in ("svg", "csv"):
            assert _sha256(tmp_path / f"horizons_fig2.{ext}") == GATE_DIGESTS[f"fig2.{ext}"]

    def test_empty_scene(self, tmp_path):
        from desitter_horizons.figures import FigureScene

        scene = FigureScene(polylines=(), markers=np.empty((0, 3)))
        emit_csv(scene, tmp_path / "empty.csv")
        emit_svg(scene, tmp_path / "empty.svg")
        for fname in ("empty.csv", "empty.svg"):
            assert _sha256(tmp_path / fname) == GATE_DIGESTS[fname], fname

    def test_benchmark_digests_match_golden(self):
        golden = json.loads(GOLDEN_FIGURES.read_text())
        for name in BENCH_ARGVS:
            for ext in ("svg", "csv"):
                assert GATE_DIGESTS[f"{name}.{ext}"] == golden[f"{name}.{ext}"]
