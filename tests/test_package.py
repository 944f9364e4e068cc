import desitter_horizons

# The public surface: a change that drops or adds a name must edit this list.
PUBLIC_NAMES = [
    "CausalClass", "CausalVerdict", "Event", "FigureScene", "HalfSpaceSet",
    "Isometry", "J_minus_L", "J_minus_negL", "J_plus_L", "J_plus_negL",
    "NullRay", "Polyline", "QuotientPoint", "Region", "SamplingReport",
    "SliceSphere", "SpacetimeContext", "TimeDirection", "WorldLine",
    "antipode", "boost", "build_scene", "canonical_worldline", "canonicalize",
    "causal", "causal_future_of_event", "causal_past_of_event",
    "central_symmetry", "chord_oracle", "chord_oracle_past", "classify",
    "compactify", "cone_at_L_psi", "emit_csv",
    "emit_svg", "event", "figures", "horizon_future", "horizon_limit_check",
    "horizon_past", "horizon_symmetry_check", "injectivity_check", "inner",
    "isometry_from_matrix", "manifold", "metric", "minkowski",
    "nesting_check", "on_hyperboloid", "orientation_field",
    "quotient", "quotient_rep", "sample_causal_past_canonical",
    "sample_horizon", "sample_hyperboloid",
    "spatial_rotation", "throat_intersection", "time_direction",
    "union_witness", "verify_isometry",
]


def test_public_surface_is_pinned():
    assert sorted(desitter_horizons.__all__) == PUBLIC_NAMES
