"""Causal structure of de Sitter space-time: isometries, geodesics, causal
pasts and futures, the eternal observer's event horizons, the antipodal
quotient, and the figure generator."""

from .causal import (
    CausalVerdict,
    HalfSpaceSet,
    Region,
    SamplingReport,
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
from .figures import FigureScene, Polyline, build_scene, compactify, emit_csv, emit_svg
from .manifold import (
    Event,
    NullRay,
    SliceSphere,
    SpacetimeContext,
    WorldLine,
    canonical_worldline,
    canonicalize,
    event,
    on_hyperboloid,
    orientation_field,
    sample_hyperboloid,
)
from .minkowski import (
    CausalClass,
    Isometry,
    TimeDirection,
    boost,
    central_symmetry,
    classify,
    inner,
    isometry_from_matrix,
    metric,
    spatial_rotation,
    time_direction,
    verify_isometry,
)
from .quotient import (
    QuotientPoint,
    antipode,
    horizon_symmetry_check,
    injectivity_check,
    quotient_rep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
