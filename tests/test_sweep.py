"""A kappa sweep is the one-point calls, bit for bit.

``graphreact sweep`` solves its whole grid as one stack per route
(kac.conversion_curve, feynman_kac.survival_curve); conversion and
solve_survival are the one-point case of the same core.  Every row here
is checked against the one-point call at its kappa with ==, not approx.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    EdgeWeights,
    KappaSpec,
    SingularSystemError,
    conversion,
    derive_weights,
    evaluate_at,
    load_document,
    parse_document,
    prepare,
    solve_survival,
)
from graphreact import algebra, kac
from graphreact.cli import _fmt, main
from graphreact.feynman_kac import survival_curve
from graphreact.harmonic import SiteNetwork
from graphreact.kac import conversion_curve, survival_on_active
from helpers import branchy_tree, random_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES.glob("*.json"))
BIGGEST = "1.7976931348623157e308"

# (kappa-min, kappa-max, spacing): linear from 0, geometric, and the float range
GRIDS = [("0", "20", "linear"), ("0.01", "100", "geometric"), ("1e-300", BIGGEST, "geometric")]


def _grid(kmin: str, kmax: str, steps: int, spacing: str) -> np.ndarray:
    """The grid of ``graphreact sweep``, built as it builds it."""
    with np.errstate(over="ignore"):
        space = np.geomspace if spacing == "geometric" else np.linspace
        return space(float(kmin), float(kmax), steps)


def _one_point_rows(path: str, grid: np.ndarray) -> list[str]:
    """The sweep table from one-point calls on a freshly loaded problem."""
    g, w, start = prepare(parse_document(load_document(path)))
    lines = ["kappa,alpha,psi,method"]
    for kappa in grid.tolist():
        ks = KappaSpec.constant(kappa)
        res = conversion(g, w, start, ks)
        psi = evaluate_at(solve_survival(g, w, ks), start)
        lines.append(f"{kappa:.12g},{_fmt(res.alpha)},{_fmt(res.psi)},kac")
        lines.append(f"{kappa:.12g},{_fmt(1.0 - psi)},{_fmt(psi)},fk")
    return lines


def _sweep(capsys, path: str, kmin: str, kmax: str, steps: int, spacing: str) -> list[str]:
    assert main(["sweep", path, "--kappa-min", kmin, "--kappa-max", kmax,
                 "--steps", str(steps), "--spacing", spacing]) == 0
    return capsys.readouterr().out.splitlines()


def _assert_curves_match(g, w, start, kappas) -> None:
    specs = [KappaSpec.constant(k) for k in kappas]
    for ks, res, field in zip(specs, conversion_curve(g, w, start, specs),
                              survival_curve(g, w, specs)):
        assert res == conversion(g, w, start, ks), ks
        assert field.values == solve_survival(g, w, ks).values, ks


@pytest.mark.parametrize("kmin, kmax, spacing", GRIDS)
@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_sweep_rows_are_the_one_point_calls(path, kmin, kmax, spacing, capsys):
    rows = _sweep(capsys, str(path), kmin, kmax, 9, spacing)
    assert rows == _one_point_rows(str(path), _grid(kmin, kmax, 9, spacing))


def test_sweep_from_inside_an_edge(tmp_path, capsys):
    doc = json.loads((FIXTURES / "ygraph.json").read_text())
    first = doc["edges"][0]
    doc["injection"] = {"edge": [first["from"], first["to"]], "offset": 0.3 * first["length"]}
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(doc))
    rows = _sweep(capsys, str(path), "0", "30", 11, "linear")
    assert rows == _one_point_rows(str(path), _grid("0", "30", 11, "linear"))


def test_sweep_past_one_block(monkeypatch, capsys):
    # 40 entries: four points of chain_m3's 3-site kac system (9 entries)
    # and one of its 5-vertex flux system (25) per block, so 13 points make
    # four blocks on one route and thirteen on the other
    monkeypatch.setattr(algebra, "STACK_ENTRIES", 40)
    path = str(FIXTURES / "chain_m3.json")
    assert len(algebra.blocks(13, 3)) == 4 and len(algebra.blocks(13, 5)) == 13
    rows = _sweep(capsys, path, "0", "50", 13, "linear")
    assert rows == _one_point_rows(path, _grid("0", "50", 13, "linear"))


def test_curves_on_a_cyclic_graph_with_explicit_weights():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g, start = random_graph(rng, max_core=7, max_extra=4, max_active=3)
        p = {}
        for vid in g.vertex_ids:
            ks = [k for k, e in enumerate(g.edges) if vid in e.endpoints]
            raw = rng.uniform(0.1, 1.0, len(ks))
            p.update({(vid, k): float(x) for k, x in zip(ks, raw / raw.sum())})
        _assert_curves_match(g, EdgeWeights(p), start,
                             [0.0, 1e-300, *np.geomspace(1e-3, 1e3, 7).tolist(), 1e308])


def test_curves_on_a_tree_that_takes_the_sparse_factorization():
    g = branchy_tree(np.random.default_rng(3), n=200, n_active=4)
    assert len(g.vertex_ids) > algebra.SPARSE_MIN_ORDER
    kappas = [0.0, *np.geomspace(0.01, 100.0, 6).tolist()]
    _assert_curves_match(g, derive_weights(g), "n0", kappas)


def test_curves_with_infinite_and_per_site_strengths():
    g = branchy_tree(np.random.default_rng(5), n=12, n_active=3)
    w = derive_weights(g)
    sites = g.active_vertices
    specs = [KappaSpec.constant(np.inf), KappaSpec.constant(2.0),
             KappaSpec.per_vertex({s: np.inf if i == 1 else 0.5 for i, s in enumerate(sites)}),
             KappaSpec.per_vertex(dict.fromkeys(sites, 0.0))]
    for ks, res, field in zip(specs, conversion_curve(g, w, "n0", specs),
                              survival_curve(g, w, specs)):
        assert res == conversion(g, w, "n0", ks)
        assert field.values == solve_survival(g, w, ks).values


def _singular_at_one(g) -> SiteNetwork:
    """A made-up one-site network: L = [[-1]] makes L S + diag(min(kappa, 1))
    exactly 0 at kappa = 1."""
    return SiteNetwork(("c",), np.array([[-1.0]]), np.array([0.0]), np.array([[1.0, 0.0]]),
                       np.zeros(len(g.vertex_ids), dtype=np.intp))


def test_a_singular_point_raises_as_the_one_point_call(monkeypatch, capsys):
    path = str(FIXTURES / "path_site.json")
    g, w, start = prepare(parse_document(load_document(path)))
    net = _singular_at_one(g)
    with pytest.raises(SingularSystemError) as alone:
        survival_on_active(net, np.array([[1.0]]))
    assert str(alone.value) == "matrix is singular to working precision at pivot column 0"
    with pytest.raises(SingularSystemError) as stacked:
        survival_on_active(net, np.array([[0.0], [1.0], [2.0]]))
    assert str(stacked.value) == str(alone.value)

    monkeypatch.setattr(kac, "site_network", lambda g, w: net)
    with pytest.raises(SingularSystemError) as one:
        conversion(g, w, start, KappaSpec.constant(1.0))
    with pytest.raises(SingularSystemError) as curve:
        conversion_curve(g, w, start, [KappaSpec.constant(k) for k in (0.0, 1.0, 2.0)])
    assert str(curve.value) == str(one.value) == str(alone.value)
    assert main(["convert", path, "--kappa", "1"]) == 2
    convert_err = capsys.readouterr().err
    assert main(["sweep", path, "--kappa-min", "0", "--kappa-max", "2", "--steps", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == convert_err
    assert err == f"numerical failure: {alone.value}\n"


def test_stacked_solve_is_each_system_alone():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 6, 6)) + 4.0 * np.eye(6)
    b = rng.standard_normal((5, 6, 2))
    x = algebra.solve_many(a, b)
    for ak, bk, xk in zip(a, b, x):
        assert np.array_equal(xk, algebra.solve_many(ak, bk))
    a[3, :, 2] = 0.0  # an exact zero pivot
    with pytest.raises(SingularSystemError) as stacked:
        algebra.solve_many(a, b)
    with pytest.raises(SingularSystemError) as alone:
        algebra.solve_many(a[3], b[3])
    assert str(alone.value).endswith("at pivot column 2")
    assert str(stacked.value) == str(alone.value)
