"""Locating and importing the library under test.

Kept free of heavy imports so that the set-up probe can time the import of
the package itself in a fresh interpreter.
"""

import os
import sys
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


class MissingLibrary(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import desitter_horizons and its modules from this checkout's src/,
    never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "desitter_horizons", "__init__.py")):
        raise MissingLibrary(f"no desitter_horizons package under {SRC}")
    sys.path.insert(0, SRC)
    import desitter_horizons
    from desitter_horizons import causal, cli, figures, manifold, minkowski, quotient

    package_dir = os.path.dirname(os.path.realpath(desitter_horizons.__file__))
    if os.path.dirname(package_dir) != os.path.realpath(SRC):
        raise MissingLibrary(f"imported {desitter_horizons.__file__}, not the one in {SRC}")
    return SimpleNamespace(
        package=desitter_horizons,
        minkowski=minkowski,
        manifold=manifold,
        causal=causal,
        quotient=quotient,
        figures=figures,
        cli=cli,
    )


def make_workload(lib, name: str, seed: int):
    from pathlib import Path

    from workloads import WORKLOADS, FigureRender

    cls = WORKLOADS[name]
    if cls is FigureRender:
        return cls(lib, seed, Path(OUT_DIR) / "figures")
    return cls(lib, seed)
