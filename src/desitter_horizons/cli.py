"""Command-line entry point: render the horizon figures to SVG/CSV."""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from .figures import FIGURES, build_scene, emit_csv, emit_svg
from .manifold import SpacetimeContext


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horizons",
        description=(
            "Render the de Sitter hyperboloid with the eternal observer's "
            "world line and past event horizon as SVG and/or CSV."
        ),
        # Unset options are absent: SpacetimeContext and build_scene own the defaults.
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "figure",
        choices=FIGURES,
        help="; ".join(f"{name}: {text}" for name, text in FIGURES.items()),
    )
    parser.add_argument("--radius", type=float, help="hyperboloid radius R")
    parser.add_argument("--t-max", type=float, help="upper time bound (fig2/cones)")
    parser.add_argument("--resolution", type=int, help="samples per curve (>= 8)")
    parser.add_argument("--format", choices=["svg", "csv", "both"], default="both", dest="fmt")
    parser.add_argument(
        "--out",
        help="output path; with --format both this is a prefix for .svg and .csv",
    )
    parser.add_argument(
        "--psi-list",
        help="comma-separated rapidities for the cone curves (cones figure)",
    )
    parser.add_argument("--proj", help="cabinet projection coefficients ux1,vx1")
    parser.add_argument(
        "--annotate-throat",
        action="store_true",
        help="enlarge the markers where the horizon meets the throat circle",
    )
    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    figure, fmt = options.pop("figure"), options.pop("fmt")
    out = options.pop("out", None) or f"horizons_{figure}"
    annotate = options.pop("annotate_throat", False)
    emitters = {"svg": partial(emit_svg, annotate_throat=annotate), "csv": emit_csv}
    context = {"radius": options.pop("radius")} if "radius" in options else {}
    try:
        ctx = SpacetimeContext(n=2, **context)
        if "proj" in options:
            options["projection"] = _parse_floats(options.pop("proj"))
        if "psi_list" in options:
            options["psi_list"] = _parse_floats(options["psi_list"])
        scene = build_scene(ctx, figure, **options)
        for ext in emitters if fmt == "both" else [fmt]:
            # With both formats --out is a prefix; otherwise it is the path,
            # which gets the format's extension when it has none.
            path = Path(f"{out}.{ext}" if fmt == "both" else out)
            if fmt == ext and path.suffix == "":
                path = path.with_suffix("." + ext)
            emitters[ext](scene, path)
            print(f"wrote {path}")
    except (ValueError, OSError) as exc:
        print(f"horizons: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
