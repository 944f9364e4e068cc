"""Scene construction and SVG/CSV emission for the horizon figures.

The scenes show the n = 2 hyperboloid with the eternal observer's world
line, the past horizon and the throat circle, with the two points where they
meet marked. Every ruling drawn is a NullRay: the horizon's two run from the
markers along k+ = (a, 1), a the pole of throat_intersection, and the cones
figure pushes the throat event's two rulings forward by each boost. fig3
compactifies time into a bounded band, keeping every vertex on the hyperboloid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causal import throat_intersection
from .manifold import Event, NullRay, SpacetimeContext, _read_only_copy, canonical_worldline
from .minkowski import boost

# Each group of polyline labels with its SVG style, in the <style> order.
_LABEL_STYLES = (
    (("hyperboloid-meridian", "hyperboloid-parallel"), "stroke:#b8c0cc;stroke-width:0.35%;"),
    (("worldline",), "stroke:#1f4e9c;stroke-width:0.7%;"),
    (("horizon-past",), "stroke:#c22121;stroke-width:0.7%;"),
    (("horizon-future",), "stroke:#c28a21;stroke-width:0.7%;"),
    (("throat-circle",), "stroke:#2c8a4b;stroke-width:0.55%;"),
    (("cone-psi",), "stroke:#7a4ec2;stroke-width:0.45%;"),
)
LABELS = frozenset(label for group, _ in _LABEL_STYLES for label in group)
MARKER_LABEL = "throat-intersection"

_MERIDIANS = 12
_PARALLELS = 6
DEFAULT_PSI_LIST = (-1.0, 0.0, 1.0)
DEFAULT_PROJECTION = (0.35, 0.20)  # cabinet coefficients ux1, vx1
# The figures build_scene draws, each with the description the CLI shows.
FIGURES = {
    "fig2": "finite time window",
    "fig3": "compactified infinite time",
    "cones": "fig2 plus light-cone curves",
}


def _vertices(name: str, points, least: int) -> np.ndarray:
    pts = _read_only_copy(points)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < least:
        raise ValueError(f"{name} must have shape (k, 3) with k >= {least}, got {pts.shape}")
    return pts


@dataclass(frozen=True, eq=False)
class Polyline:
    label: str
    points: np.ndarray  # shape (k, 3): columns x1, x2, t
    closed: bool = False

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown polyline label {self.label!r}")
        object.__setattr__(self, "points", _vertices("points", self.points, 1))


@dataclass(frozen=True, eq=False)
class FigureScene:
    polylines: tuple[Polyline, ...]
    markers: np.ndarray  # shape (m, 3) marked events
    projection: tuple[float, float] = DEFAULT_PROJECTION
    compactified: bool = False

    def __post_init__(self):
        object.__setattr__(self, "markers", _vertices("markers", self.markers, 0))

    def project(self, points: np.ndarray) -> np.ndarray:
        """Cabinet projection to screen coordinates (u, v)."""
        cu, cv = self.projection
        pts = np.asarray(points, dtype=float)
        return np.column_stack([pts[:, 1] - cu * pts[:, 0], pts[:, 2] - cv * pts[:, 0]])


def compactify(points: np.ndarray, radius: float) -> np.ndarray:
    """Map (x1, x2, t) to (s x1, s x2, (2R/pi) atan(t/R)).

    The spatial rescale s = sqrt(R^2 + tau^2) / sqrt(R^2 + t^2) keeps every
    image point on the hyperboloid while the time extent stays below R.
    """
    pts = np.asarray(points, dtype=float)
    t = pts[:, 2]
    tau = (2.0 * radius / math.pi) * np.arctan(t / radius)
    sigma = np.sqrt((radius**2 + tau**2) / (radius**2 + t**2))
    return np.column_stack([sigma[:, None] * pts[:, :2], tau])


def _time_grid(ctx: SpacetimeContext, figure: str, t_max: float, resolution: int):
    if figure == "fig3":
        # Uniform in compactified time; the last sample sits just below the
        # boundary of the band.
        u = np.linspace(0.0, 1.0 - 1.0 / resolution, resolution)
        return ctx.radius * np.tan(0.5 * math.pi * u)
    return np.linspace(0.0, t_max, resolution)


def build_scene(
    ctx: SpacetimeContext,
    figure: str,
    t_max: float = 2.0,
    resolution: int = 64,
    psi_list=None,
    projection: tuple[float, float] = DEFAULT_PROJECTION,
) -> FigureScene:
    """Assemble the polylines of one figure.

    figure: "fig2" (finite time), "fig3" (compactified), or "cones"
    ("fig2" plus light-cone curves for each rapidity in psi_list).
    Raises ValueError unless projection is two numbers (ux1, vx1), for a
    non-finite t_max, rapidity or projection coefficient, and when the
    vertices or their projection are not finite.
    """
    if ctx.n != 2:
        raise ValueError(
            "figures are defined for n = 2 only; for other dimensions export "
            "vertex data through the CSV interfaces directly"
        )
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}")
    if resolution < 8:
        raise ValueError(f"resolution must be >= 8, got {resolution}")
    psi_values = DEFAULT_PSI_LIST if psi_list is None else tuple(psi_list)
    if figure == "cones" and not psi_values:
        raise ValueError("the cones figure needs at least one rapidity")
    if np.shape(projection) != (2,):
        raise ValueError(f"projection must be two coefficients (ux1, vx1), got {projection}")
    checks = (("t_max", (t_max,)), ("rapidities", psi_values), ("projection", projection))
    for name, values in checks:
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{name} must be finite, got {values}")
    if figure != "fig3" and not t_max > 0.0:
        raise ValueError("t_max must be positive")

    with np.errstate(over="ignore", invalid="ignore"):
        scene = _assemble(ctx, figure, t_max, resolution, psi_values, projection)
        points = [pl.points for pl in scene.polylines] + [scene.markers]
        # 2.2 x the largest screen coordinate bounds every SVG viewBox number.
        finite = np.isfinite(2.2 * np.abs(scene.project(np.vstack(points))).max())
    if not finite:
        raise ValueError(
            f"figure coordinates are not finite at radius {ctx.radius}: the radius, "
            "t_max, rapidities or projection coefficients are out of range"
        )
    return scene


def _assemble(ctx, figure, t_max, resolution, psi_values, projection) -> FigureScene:
    r = ctx.radius
    t_grid = _time_grid(ctx, figure, t_max, resolution)
    radii = np.sqrt(r**2 + t_grid**2)
    polylines: list[Polyline] = []

    def place(pts):  # fig3 is compactified as it is built
        return compactify(pts, r) if figure == "fig3" else pts

    def draw(label, pts, closed=False):
        polylines.append(Polyline(label, place(pts), closed))

    for phi in np.linspace(0.0, 2.0 * math.pi, _MERIDIANS, endpoint=False):
        pts = np.column_stack([radii * math.cos(phi), radii * math.sin(phi), t_grid])
        draw("hyperboloid-meridian", pts)

    theta = np.linspace(0.0, 2.0 * math.pi, resolution + 1)[:-1]
    cos, sin = np.cos(theta), np.sin(theta)

    def ring(radius, t):
        return np.column_stack([radius * cos, radius * sin, np.full(resolution, t)])

    for i in np.linspace(0, resolution - 1, _PARALLELS).round().astype(int):
        draw("hyperboloid-parallel", ring(radii[i], t_grid[i]), closed=True)

    observer = canonical_worldline(ctx)
    draw("worldline", observer.sample(np.arcsinh(t_grid / r)))

    # The past horizon meets the throat at R (-a_2, a_1) and R (a_2, -a_1), a the
    # pole of throat_intersection; its rulings run from there along k+ = (a, 1).
    a = throat_intersection(ctx).plane_normal
    markers = r * np.array([[-a[1], a[0], 0.0], [a[1], -a[0], 0.0]])
    for w in markers:
        draw("horizon-past", NullRay(Event(w, ctx), np.append(a, 1.0)).sample(t_grid))

    draw("throat-circle", ring(r, 0.0), closed=True)

    if figure == "cones":
        # The throat event's two rulings, pushed forward by each boost.
        s = np.linspace(-t_max, t_max, 2 * resolution - 1)
        rulings = [NullRay(observer.base, (0.0, sign, 1.0)).sample(s) for sign in (1.0, -1.0)]
        for psi in psi_values:
            b = boost(psi, ctx.n).matrix
            for ruling in rulings:
                draw("cone-psi", ruling @ b.T)

    return FigureScene(tuple(polylines), place(markers), projection, figure == "fig3")


def emit_csv(scene: FigureScene, path) -> None:
    """One row per vertex: label, polyline and vertex indices, coordinates,
    and projected screen coordinates. Header-only for an empty scene."""
    blocks = [(pl.label, pl.points) for pl in scene.polylines]
    if scene.markers.size:
        blocks.append((MARKER_LABEL, scene.markers))
    with open(path, "w", newline="") as fh:
        fh.write("label,polyline,vertex,x1,x2,t,u,v\n")
        # One % template per polyline; '%.17g' % x equals format(x, '.17g').
        for index, (label, pts) in enumerate(blocks):
            rows = np.column_stack([np.arange(len(pts)), pts, scene.project(pts)])
            row = f"{label},{index},%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
            fh.write(row * len(pts) % tuple(rows.ravel().tolist()))


_SVG_STYLE = (
    "".join(",".join("." + label for label in group) + f"{{{css}}}" for group, css in _LABEL_STYLES)
    + f"path{{fill:none;}}circle.{MARKER_LABEL}{{fill:#c22121;stroke:none;}}"
)


def emit_svg(scene: FigureScene, path, annotate_throat: bool = False) -> None:
    """Deterministic SVG 1.1: one path per polyline, class = label; the
    throat-intersection events become marker circles."""
    screen = [scene.project(pl.points) for pl in scene.polylines]
    if scene.markers.size:
        screen.append(scene.project(scene.markers))
    for uv in screen:
        # SVG y grows downward; flip the v axis.
        uv[:, 1] = -uv[:, 1]
    if screen:
        stacked = np.vstack(screen)
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        # Floor a degenerate span relative to the scene's own size, so tiny
        # scenes keep their proportions.
        size = float(np.abs(stacked).max()) or 1.0
        span = np.maximum(hi - lo, 1e-9 * size)
        lo = lo - 0.05 * span
        hi = hi + 0.05 * span
    else:
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])
    w, h = hi - lo
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%.6g %.6g %.6g %.6g">' % (lo[0], lo[1], w, h),
    ]
    if scene.compactified:
        head.append(
            "<desc>Compactified time: (x1,x2,t) -> (s*x1, s*x2, (2R/pi)*atan(t/R)) "
            "with s = sqrt(R^2+tau^2)/sqrt(R^2+t^2); all vertices remain on the "
            "hyperboloid.</desc>"
        )
    head.append(f"<style>{_SVG_STYLE}</style>\n")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(head))
        for pl, uv in zip(scene.polylines, screen):
            d = "M %.6g %.6g" + " L %.6g %.6g" * (len(uv) - 1) + (" Z" if pl.closed else "")
            fh.write(f'<path class="{pl.label}" d="{d}"/>\n' % tuple(uv.ravel().tolist()))
        if scene.markers.size:
            radius = 0.012 * max(w, h) * (1.8 if annotate_throat else 1.0)
            cls = MARKER_LABEL + (" annotated" if annotate_throat else "")
            circle = f'<circle class="{cls}" cx="%.6g" cy="%.6g" r="{radius:.6g}"/>\n'
            uv = screen[-1]
            fh.write(circle * len(uv) % tuple(uv.ravel().tolist()))
        fh.write("</svg>\n")
