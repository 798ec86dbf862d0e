"""The exact oracle, and the routes' answers on badly scaled documents.

On two documents whose edge lengths span many decades, each route must
return within 1e-9 of the exact value or raise GraphReactError.  kac and
the vertex solve are both exact on the wide ygraph, whose tiny edge
leads into a dead end that neither solve meets, and the vertex solve
raises on the wide chain, whose survival leaves [0, 1].
"""

import math
from fractions import Fraction

import pytest

from graphreact import (
    GraphReactError,
    KappaSpec,
    conversion,
    fixture_suite,
    parse_document,
    prepare,
    solve_survival,
)
from oracles import exact_survival

_KAPPAS = (0.1, 1.0, 10.0)


@pytest.mark.parametrize("fixture", fixture_suite(), ids=lambda f: f.name)
def test_exact_survival_matches_every_fixture_closed_form(fixture):
    g, w, start = prepare(parse_document(fixture.document))
    for kappa in _KAPPAS:
        exact = exact_survival(g, w, KappaSpec.constant(kappa))[start]
        assert float(1 - exact) == pytest.approx(fixture.expected_alpha(kappa),
                                                 rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("fixture", fixture_suite(), ids=lambda f: f.name)
def test_kac_alpha_keeps_its_digits_at_tiny_kappa(fixture):
    # alpha = alpha_inf (1 - p.psi) printed 1.99995575656e-12 for 2e-12 on
    # path_site, and 0 on every fixture at 1e-300
    g, w, start = prepare(parse_document(fixture.document))
    for kappa in (1e-300, 1e-16, 1e-12, 1e-9):
        ks = KappaSpec.constant(kappa)
        exact = 1 - exact_survival(g, w, ks)[start]
        alpha = Fraction(conversion(g, w, start, ks).alpha)
        assert abs(alpha - exact) <= Fraction(1, 10**12) * exact, (kappa, float(alpha))


def test_exact_survival_fixes_exits_and_infinite_sites():
    fixture = next(f for f in fixture_suite() if f.name == "chain_m2")
    g, w, start = prepare(parse_document(fixture.document))
    exact = exact_survival(g, w, KappaSpec.per_vertex({"c1": 1.0, "c2": math.inf}))
    assert exact["a"] == 1 and exact["c2"] == 0
    assert float(exact[start]) == pytest.approx(solve_survival(
        g, w, KappaSpec.per_vertex({"c1": 1.0, "c2": math.inf}))[start], rel=1e-12)


def _with_lengths(name, lengths):
    fixture = next(f for f in fixture_suite() if f.name == name)
    doc = {**fixture.document, "edges": [
        {**e, "length": length} for e, length in zip(fixture.document["edges"], lengths)]}
    return prepare(parse_document(doc))


# lengths spanning many decades: the exact alpha from ygraph's injection,
# and the exact survival from chain_m3's
YGRAPH_WIDE = ((2.996149863910443e-07, 175159.32431298343, 12301386.755008942), 1.0,
               0.9859608332979173)
CHAIN_WIDE = ((4.640952497620668e-18, 1.1153414903497898e-25, 2309345.522721925,
               18315739099.49123), 0.08419174415434341, 4.169231008077e-16)


def test_exact_survival_of_the_wide_documents():
    lengths, kappa, alpha = YGRAPH_WIDE
    g, w, start = _with_lengths("ygraph", lengths)
    assert float(1 - exact_survival(g, w, KappaSpec.constant(kappa))[start]) == alpha
    lengths, kappa, survival = CHAIN_WIDE
    g, w, start = _with_lengths("chain_m3", lengths)
    assert float(exact_survival(g, w, KappaSpec.constant(kappa))[start]) == pytest.approx(
        survival, rel=1e-12)


def _within_or_raises(route, want):
    try:
        got = route()
    except GraphReactError:
        return
    assert abs(got - want) <= 1e-9


def test_kac_on_the_wide_ygraph_is_exact_or_raises():
    lengths, kappa, alpha = YGRAPH_WIDE
    g, w, start = _with_lengths("ygraph", lengths)
    _within_or_raises(lambda: conversion(g, w, start, KappaSpec.constant(kappa)).alpha, alpha)


def test_fk_on_the_wide_ygraph_is_exact_or_raises():
    lengths, kappa, alpha = YGRAPH_WIDE
    g, w, start = _with_lengths("ygraph", lengths)
    _within_or_raises(lambda: 1.0 - solve_survival(g, w, KappaSpec.constant(kappa))[start],
                      alpha)


def test_fk_on_the_wide_chain_is_exact_or_raises():
    lengths, kappa, survival = CHAIN_WIDE
    g, w, start = _with_lengths("chain_m3", lengths)
    _within_or_raises(lambda: solve_survival(g, w, KappaSpec.constant(kappa))[start], survival)
