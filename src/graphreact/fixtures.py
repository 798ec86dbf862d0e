"""Canonical graph documents with known conversion curves.

These are the worked examples used throughout the tests and docs.  Each
fixture carries its graph document, the expected conversion curve, its
limit alpha_inf and a provenance tag:

* ``closed-form``  - textbook-style closed formula for this topology
* ``derived``      - value derived by hand and cross-checked in tests

The chain fixtures carry the recursion oracle: the one-line recursion
uses the unweighted Kirchhoff convention, so it reproduces the engines
at strength 2*kappa (see chain_alpha_recursive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .kac import chain_alpha_recursive


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    document: dict
    expected_alpha: Callable[[float], float]
    provenance: str
    expected_alpha_inf: float
    zone: dict | None = None
    notes: str = ""


def _vertex(vid: str, role: str = "inert") -> dict:
    return {"id": vid, "role": role}


def _edge(u: str, v: str, length: float, radius: float = 1.0) -> dict:
    return {"from": u, "to": v, "length": length, "radius": radius}


def _single_site(length_scale: float):
    def alpha(kappa: float) -> float:
        return length_scale * kappa / (1.0 + length_scale * kappa)

    return alpha


def _path_site() -> Fixture:
    doc = {
        "vertices": [_vertex("v0"), _vertex("c", "active"), _vertex("a", "exit")],
        "edges": [_edge("v0", "c", 1.0), _edge("c", "a", 1.0)],
        "dimension": 3,
        "injection": {"vertex": "v0"},
    }
    return Fixture(
        name="path_site",
        description="path entrance-site-exit, unit lengths; site has degree 2",
        document=doc,
        expected_alpha=_single_site(2.0),
        provenance="closed-form",
        expected_alpha_inf=1.0,
    )


def _interval_site() -> Fixture:
    doc = {
        "vertices": [_vertex("c", "active"), _vertex("a", "exit")],
        "edges": [_edge("c", "a", 1.0)],
        "dimension": 3,
        "injection": {"vertex": "c"},
    }
    return Fixture(
        name="interval_site",
        description="single unit edge from a degree-1 site to the exit",
        document=doc,
        expected_alpha=_single_site(1.0),
        provenance="closed-form",
        expected_alpha_inf=1.0,
    )


def _star(n: int, leaf_lengths: tuple[float, ...]) -> Fixture:
    assert len(leaf_lengths) == n - 1
    vertices = [_vertex("c", "active"), _vertex("a", "exit")]
    edges = [_edge("c", "a", 1.0)]
    for i, l in enumerate(leaf_lengths):
        vertices.append(_vertex(f"b{i}"))
        edges.append(_edge("c", f"b{i}", l))
    doc = {
        "vertices": vertices,
        "edges": edges,
        "dimension": 3,
        "injection": {"vertex": "b0"},
    }
    return Fixture(
        name=f"star_n{n}",
        description=(
            f"degree-{n} site with a unit exit edge and {n - 1} inert leaves; "
            "alpha does not depend on the leaf lengths"
        ),
        document=doc,
        expected_alpha=_single_site(float(n)),
        provenance="closed-form",
        expected_alpha_inf=1.0,
    )


def _chain(m: int, gaps: tuple[float, ...]) -> Fixture:
    assert len(gaps) == m + 1
    vertices = [_vertex("v0")]
    edges = []
    prev = "v0"
    for j in range(m):
        vertices.append(_vertex(f"c{j + 1}", "active"))
        edges.append(_edge(prev, f"c{j + 1}", gaps[j]))
        prev = f"c{j + 1}"
    vertices.append(_vertex("a", "exit"))
    edges.append(_edge(prev, "a", gaps[m]))
    doc = {
        "vertices": vertices,
        "edges": edges,
        "dimension": 3,
        "injection": {"vertex": "v0"},
    }

    def alpha(kappa: float) -> float:
        return chain_alpha_recursive(gaps, 2.0 * kappa)

    return Fixture(
        name=f"chain_m{m}",
        description=f"chain with {m} interior sites, gaps {gaps}",
        document=doc,
        expected_alpha=alpha,
        provenance="derived",
        expected_alpha_inf=1.0,
        notes="expected curve is the chain recursion evaluated at 2*kappa",
    )


def _ygraph() -> Fixture:
    doc = {
        "vertices": [
            _vertex("x0"),
            _vertex("j"),
            _vertex("c", "active"),
            _vertex("a", "exit"),
        ],
        "edges": [
            _edge("x0", "j", 1.0),
            _edge("j", "c", 1.0),
            _edge("j", "a", 1.0),
        ],
        "dimension": 3,
        "injection": {"vertex": "x0"},
    }
    return Fixture(
        name="ygraph",
        description="Y junction: inert arm to the start, one site arm, one exit arm",
        document=doc,
        expected_alpha=lambda kappa: kappa / (1.0 + 2.0 * kappa),
        provenance="derived",
        expected_alpha_inf=0.5,
        notes="alpha_inf = 1/2 by symmetry at the junction; site weight 2",
    )


def _interval_zone() -> Fixture:
    fixture = _interval_site()
    return Fixture(
        name="interval_zone",
        description="unit interval with a diffuse zone at the closed end",
        document=fixture.document,
        expected_alpha=fixture.expected_alpha,
        provenance="derived",
        expected_alpha_inf=1.0,
        zone={"rate": 1.0, "delta": 1.0, "diffusion": 1.0},
        notes=(
            "with zone scale h the survival at the site end is "
            "1/[cosh(mu h d) + mu sinh(mu h d) (L - h d)], mu = sqrt(rate/(h D))"
        ),
    )


def fixture_suite() -> list[Fixture]:
    """All shipped fixtures."""
    return [
        _path_site(),
        _interval_site(),
        _star(2, (0.6,)),
        _star(3, (0.7, 1.3)),
        _star(4, (0.55, 0.8, 1.45)),
        _chain(1, (1.0, 0.8)),
        _chain(2, (1.0, 0.5, 0.5)),
        _chain(3, (0.9, 0.6, 0.8, 0.7)),
        _ygraph(),
        _interval_zone(),
    ]
