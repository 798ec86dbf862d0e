import graphreact

PUBLIC = [
    "ActiveZoneSpec", "CollapseRow", "ConversionResult", "DocumentError", "Edge",
    "EdgeWeights", "Fixture", "GraphReactError", "GreenMatrix", "GridChain",
    "HittingSplit", "KappaSpec", "MetricGraph", "ParsedDocument", "PiecewiseSolution",
    "PointOnGraph", "Polynomial", "PreconditionError", "RationalForm", "SimConfig",
    "SimEstimate", "SingularSystemError", "SurvivalField", "Vertex", "build_grid",
    "chain_alpha_recursive", "collapse_csv", "collapse_study", "conversion",
    "derive_weights", "det", "emit_document", "estimate_csv", "estimate_survival",
    "evaluate_at", "fixture_suite", "green_matrix", "hitting_split", "load_document",
    "mean_local_time", "parse_document", "placement_leading_coeff", "prepare",
    "rational_form", "require_valid", "resolve_vertex", "simulate", "solve_diffuse",
    "solve_survival", "split_at", "survival_on_active", "uniform_weights", "validate",
    "weights_violations",
]

# only tests used these: solve_linear is gone, the rest are in tests/oracles.py
ORACLE_ONLY = ["det_poly", "row_subtracted", "solve_linear", "survival_det", "vertex_flux"]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 54
    assert sorted(graphreact.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(graphreact, name), name
    for name in ORACLE_ONLY:
        assert not hasattr(graphreact, name), name
