import math
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    ActiveZoneSpec,
    KappaSpec,
    PointOnGraph,
    PreconditionError,
    collapse_study,
    conversion,
    derive_weights,
    load_document,
    parse_document,
    prepare,
    solve_diffuse,
)
from graphreact.cli import main
from helpers import degree1_graph, path_graph, star_graph


def interval_closed_form(h: float, rate=1.0, delta=1.0, diffusion=1.0, length=1.0):
    """Survival at the closed end of an interval with one end zone."""
    mu = math.sqrt(rate / (h * diffusion))
    y1 = h * delta
    return 1.0 / (math.cosh(mu * y1) + mu * math.sinh(mu * y1) * (length - y1))


def test_zero_rate_gives_unit_field():
    g, _ = star_graph(3)
    w = derive_weights(g)
    sol = solve_diffuse(g, w, ActiveZoneSpec(rate=0.0, delta=1.0, diffusion=1.0, h=0.1))
    for vid in g.vertex_ids:
        assert sol.evaluate(vid) == pytest.approx(1.0, abs=1e-12)
    assert sol.evaluate(PointOnGraph.on_edge(0, 0.37)) == pytest.approx(1.0, abs=1e-12)


def test_interval_matches_closed_form():
    g, start = degree1_graph(1.0)
    w = derive_weights(g)
    for h in (0.1, 0.01, 0.001):
        zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=h)
        sol = solve_diffuse(g, w, zone)
        assert sol.evaluate(start) == pytest.approx(interval_closed_form(h), abs=1e-9)


def test_interval_limit_is_point_site_value():
    # h -> 0 of the closed form is 1/(1 + kappa L) with kappa = k delta / D
    g, start = degree1_graph(1.0)
    w = derive_weights(g)
    zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=1e-5)
    sol = solve_diffuse(g, w, zone)
    point_alpha = conversion(g, w, start, KappaSpec.constant(zone.kappa)).alpha
    assert sol.evaluate(start) == pytest.approx(1.0 - point_alpha, abs=1e-4)


def test_collapse_error_halves_with_h():
    g, start = degree1_graph(1.0)
    w = derive_weights(g)
    zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=0.02)
    rows = collapse_study(g, w, zone, [0.02, 0.01], start)
    ratio = rows[0].abs_err / rows[1].abs_err
    assert 1.6 <= ratio <= 2.4


def test_collapse_single_row():
    g, start = degree1_graph(1.0)
    w = derive_weights(g)
    zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=0.05)
    rows = collapse_study(g, w, zone, [0.05], start)
    assert len(rows) == 1
    assert rows[0].psi_limit == pytest.approx(0.5, abs=1e-12)


def test_collapse_requires_decreasing_h():
    g, start = degree1_graph(1.0)
    w = derive_weights(g)
    zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=0.1)
    with pytest.raises(PreconditionError):
        collapse_study(g, w, zone, [0.01, 0.1], start)
    with pytest.raises(PreconditionError):
        collapse_study(g, w, zone, [], start)


def test_star_limit_matches_point_model():
    g, start = star_graph(3, exit_len=1.0)
    w = derive_weights(g)
    zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=1e-3)
    sol = solve_diffuse(g, w, zone)
    # point model: alpha = n l kappa / (1 + n l kappa) = 3/4 at kappa = 1
    assert sol.evaluate(start) == pytest.approx(0.25, abs=5e-3)


def test_zone_overlap_rejected():
    g, _ = path_graph(1.0, 1.0)
    w = derive_weights(g)
    with pytest.raises(PreconditionError):
        solve_diffuse(g, w, ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=0.5))


def test_zone_spec_validation():
    with pytest.raises(PreconditionError):
        ActiveZoneSpec(rate=-1.0, delta=1.0, diffusion=1.0, h=0.1)
    with pytest.raises(PreconditionError):
        ActiveZoneSpec(rate=1.0, delta=0.0, diffusion=1.0, h=0.1)
    with pytest.raises(PreconditionError):
        ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=0.0)


def _matching_residuals(sol):
    """Recompute every continuity / flux condition from the solved pieces."""
    g = sol.graph
    w = derive_weights(g)
    worst = 0.0
    for k, segs in sol.segments.items():
        u, v = g.edges[k].endpoints
        worst = max(worst, abs(segs[0].u0 - sol.vertex_values[u]))
        for s in range(len(segs) - 1):
            worst = max(worst, abs(segs[s].u1 - segs[s + 1].u0))
            worst = max(worst, abs(segs[s].end_slope - segs[s + 1].slope))
        worst = max(worst, abs(segs[-1].u1 - sol.vertex_values[v]))
    exits = set(g.exit_vertices)
    for vid in g.vertex_ids:
        if vid in exits:
            worst = max(worst, abs(sol.vertex_values[vid] - 1.0))
            continue
        flux = 0.0
        for k, e in enumerate(g.edges):
            segs = sol.segments[k]
            if e.endpoints[0] == vid:
                flux += w.at(vid, k) * segs[0].slope
            elif e.endpoints[1] == vid:
                flux -= w.at(vid, k) * segs[-1].end_slope
        worst = max(worst, abs(flux))
    return worst


def test_matching_conditions_residual():
    for builder, args in ((star_graph, (4,)), (path_graph, ())):
        g, _ = builder(*args)
        w = derive_weights(g)
        sol = solve_diffuse(g, w, ActiveZoneSpec(rate=2.0, delta=0.5, diffusion=1.5, h=0.05))
        assert _matching_residuals(sol) <= 1e-9


def test_field_within_unit_interval():
    g, _ = star_graph(4)
    w = derive_weights(g)
    sol = solve_diffuse(g, w, ActiveZoneSpec(rate=3.0, delta=0.4, diffusion=1.0, h=0.1))
    offsets = np.linspace(0.0, 1.0, 17)
    for k, e in enumerate(g.edges):
        for t in offsets[1:-1]:
            val = sol.evaluate(PointOnGraph.on_edge(k, float(t) * e.length))
            assert 0.0 < val <= 1.0 + 1e-12
    for vid in g.exit_vertices:
        assert sol.evaluate(vid) == pytest.approx(1.0, abs=1e-12)


def test_collapse_csv_shape(capsys):
    # interval_zone is degree1_graph(1.0) with its injection at the site c
    assert main(["diffuse", str(INTERVAL_ZONE), "--k", "1", "--delta", "1",
                 "--diffusion", "1", "--h-list", "0.1,0.05"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "h,psi_h,psi_limit,abs_err"
    assert len(lines) == 3


INTERVAL_ZONE = Path(__file__).resolve().parent.parent / "fixtures" / "interval_zone.json"


def _interval_zone():
    return prepare(parse_document(load_document(str(INTERVAL_ZONE))))


def scaled_interval_closed_form(rate: float, h: float) -> float:
    """interval_closed_form at delta = D = L = 1, through e^{-mu a}: finite
    at every rate."""
    mu = math.sqrt(rate / h)
    e = math.exp(-mu * h)
    return 2.0 * e / (1.0 + e * e + (1.0 - h) * mu * -math.expm1(-2.0 * mu * h))


@pytest.mark.parametrize("rate", [1e6, 5e6, 1e7, 1e12])
def test_interval_large_rate_matches_scaled_closed_form(rate):
    # an unscaled cosh/sinh basis gives -3.3e-138 at k = 1e6 (true 3.24e-141),
    # a nan residual at 5e6 and a math range error from 1e7 on
    g, w, start = _interval_zone()
    sol = solve_diffuse(g, w, ActiveZoneSpec(rate=rate, delta=1.0, diffusion=1.0, h=0.1))
    want = scaled_interval_closed_form(rate, 0.1)
    assert sol.evaluate(start) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_huge_rate_gives_zero_and_prints_zero(capsys):
    g, w, start = _interval_zone()
    sol = solve_diffuse(g, w, ActiveZoneSpec(rate=1e300, delta=1.0, diffusion=1.0, h=0.1))
    assert sol.evaluate(start) == 0.0
    assert main(["diffuse", str(INTERVAL_ZONE), "--k", "1e300", "--delta", "1",
                 "--diffusion", "1", "--h-list", "0.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "0"


def test_overflowing_decay_rate_absorbs_in_every_zone():
    # k/(h D) = 1e320 overflows: each zone is a wall at its inner end
    g, start = star_graph(3)
    w = derive_weights(g)
    zone = ActiveZoneSpec(rate=1e300, delta=1.0, diffusion=1e-10, h=1e-10)
    assert math.isinf(zone.mu)
    sol = solve_diffuse(g, w, zone)
    assert all(sol.evaluate(v) == 0.0 for v in g.vertex_ids if v not in g.exit_vertices)
    a = zone.zone_width
    for k, e in enumerate(g.edges):
        for t in (0.25, 0.5, 0.75):
            val = sol.evaluate(PointOnGraph.on_edge(k, t * e.length))
            # the exit edge (c, a) of length 1 is affine from the wall to the exit
            want = (t - a) / (1.0 - a) if g.edges[k].endpoints == ("c", "a") else 0.0
            assert val == pytest.approx(want, abs=1e-12)


def test_zone_is_no_wall_where_only_mu_overflows(capsys):
    # k/(h D) = 1e310 overflows mu, yet mu a = 1e-145: the zone printed
    # survival 0 at h = 1e-300 as if it absorbed at once
    assert math.isinf(ActiveZoneSpec(rate=1e10, delta=1.0, diffusion=1.0, h=1e-300).mu)
    assert main(["diffuse", str(INTERVAL_ZONE), "--k", "1e10", "--delta", "1",
                 "--diffusion", "1", "--h-list", "1e-298,1e-300"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    # the closed form at h -> 0, 1 / (1 + k delta / D (1 - h delta)), is psi_limit
    want = 1.0 / (1.0 + 1e10)
    assert [float(row[2]) for row in rows] == pytest.approx([want] * 2, rel=1e-9)
    assert [float(row[1]) for row in rows] == pytest.approx([want] * 2, rel=1e-9)
    # a subnormal h: the coupling, about 1/(h delta), overflows
    assert main(["diffuse", str(INTERVAL_ZONE), "--k", "1e308", "--delta", "1",
                 "--diffusion", "1", "--h-list", "1e-310"]) == 1
    assert "too narrow to resolve" in capsys.readouterr().err
    zone = ActiveZoneSpec(rate=1e10, delta=1.0, diffusion=1.0, h=1e-300)
    assert zone.mu_width == pytest.approx(1e-145, rel=1e-12)


def test_zone_too_narrow_to_resolve_rejected():
    # h*delta = 1e-310 is subnormal: the zone's coupling, about 1/(h*delta), overflows
    g, _ = degree1_graph(1.0)
    with pytest.raises(PreconditionError):
        solve_diffuse(g, derive_weights(g),
                      ActiveZoneSpec(rate=1.0, delta=1e-300, diffusion=1.0, h=1e-10))


def test_two_solves_on_one_graph_build_the_zones_once(monkeypatch):
    from graphreact import diffuse

    built = []
    zones = diffuse._Zones
    monkeypatch.setattr(diffuse, "_Zones", lambda g, w: built.append(1) or zones(g, w))
    g, _ = star_graph(3)
    w = derive_weights(g)
    for h in (0.1, 0.05):
        zone = ActiveZoneSpec(rate=2.0, delta=0.5, diffusion=1.0, h=h)
        first = solve_diffuse(g, w, zone)
        g2, _ = star_graph(3)
        assert first.vertex_values == solve_diffuse(g2, derive_weights(g2), zone).vertex_values
    # one build on g, and one on each fresh graph
    assert len(built) == 1 + 2


def test_zones_of_weights_made_anew_do_not_grow_the_memo():
    g, _ = star_graph(3)
    zone = ActiveZoneSpec(rate=2.0, delta=0.5, diffusion=1.0, h=0.1)
    want = solve_diffuse(g, derive_weights(g), zone).vertex_values
    for _ in range(20):
        assert solve_diffuse(g, derive_weights(g), zone).vertex_values == want
    assert len(g.solved) <= 2  # the flux and zones entries of the last weights
