"""Command-line entry point: render the horizon figures to SVG/CSV."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .figures import build_scene, emit_csv, emit_svg
from .manifold import SpacetimeContext


def _parse_floats(text: str, count: int | None = None) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizons",
        description=(
            "Render the de Sitter hyperboloid with the eternal observer's "
            "world line and past event horizon as SVG and/or CSV."
        ),
    )
    parser.add_argument(
        "figure",
        choices=["fig2", "fig3", "cones"],
        help="fig2: finite time window; fig3: compactified infinite time; "
        "cones: fig2 plus light-cone curves",
    )
    parser.add_argument("--radius", type=float, default=1.0, help="hyperboloid radius R")
    parser.add_argument("--t-max", type=float, default=2.0, help="upper time bound (fig2/cones)")
    parser.add_argument("--resolution", type=int, default=64, help="samples per curve (>= 8)")
    parser.add_argument(
        "--format", choices=["svg", "csv", "both"], default="both", dest="fmt"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path; with --format both this is a prefix for .svg and .csv",
    )
    parser.add_argument(
        "--psi-list",
        default=None,
        help="comma-separated rapidities for the cone curves (cones figure)",
    )
    parser.add_argument(
        "--proj",
        default="0.35,0.20",
        help="cabinet projection coefficients ux1,vx1",
    )
    parser.add_argument(
        "--annotate-throat",
        action="store_true",
        help="enlarge the markers where the horizon meets the throat circle",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ctx = SpacetimeContext(radius=args.radius, n=2)
        proj = _parse_floats(args.proj, 2)
        psi_list = None if args.psi_list is None else _parse_floats(args.psi_list)
        scene = build_scene(
            ctx,
            args.figure,
            t_max=args.t_max,
            resolution=args.resolution,
            psi_list=psi_list,
            projection=(proj[0], proj[1]),
        )
        out = args.out or f"horizons_{args.figure}"
        if args.fmt == "both":
            svg_path = Path(str(out) + ".svg")
            csv_path = Path(str(out) + ".csv")
        else:
            path = Path(out)
            if path.suffix == "":
                path = path.with_suffix("." + args.fmt)
            svg_path = csv_path = path
        if args.fmt in ("svg", "both"):
            emit_svg(scene, svg_path, annotate_throat=args.annotate_throat)
            print(f"wrote {svg_path}")
        if args.fmt in ("csv", "both"):
            emit_csv(scene, csv_path)
            print(f"wrote {csv_path}")
    except (ValueError, OSError) as exc:
        print(f"horizons: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
