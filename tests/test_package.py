import graphreact

PUBLIC = [
    "ActiveZoneSpec", "CollapseRow", "ConversionResult", "DocumentError", "Edge",
    "EdgeWeights", "Fixture", "GraphReactError", "GreenMatrix", "GridChain",
    "HittingSplit", "KappaSpec", "MetricGraph", "ParsedDocument", "PiecewiseSolution",
    "PointOnGraph", "Polynomial", "PreconditionError", "RationalForm", "SimConfig",
    "SimEstimate", "SingularSystemError", "SurvivalField", "Vertex", "build_grid",
    "chain_alpha_recursive", "collapse_study", "conversion",
    "derive_weights", "det", "emit_document", "estimate_survival",
    "evaluate_at", "fixture_suite", "green_matrix", "hitting_split", "load_document",
    "parse_document", "placement_leading_coeff", "prepare",
    "rational_form", "require_valid", "simulate", "solve_diffuse",
    "solve_survival", "uniform_weights", "validate",
    "weights_violations",
]

# only tests used these: solve_linear is gone, the rest are in tests/oracles.py
ORACLE_ONLY = ["det_poly", "row_subtracted", "solve_linear", "survival_det", "vertex_flux"]

# no route or command called these: resolve_vertex gave way to locate,
# split_at moved to tests/oracles.py, mean_local_time is green_matrix's [0, 0],
# survival_on_active is conversion's solve on the sites' network (graphreact.kac),
# and the CLI renders the tables that estimate_csv and collapse_csv rendered
TRIMMED = ["collapse_csv", "estimate_csv", "mean_local_time", "resolve_vertex", "split_at",
           "survival_on_active"]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 48
    assert sorted(graphreact.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(graphreact, name), name
    for name in ORACLE_ONLY + TRIMMED:
        assert not hasattr(graphreact, name), name
