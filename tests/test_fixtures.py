import json
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    KappaSpec,
    conversion,
    fixture_suite,
    hitting_split,
    parse_document,
    prepare,
    validate,
)
from helpers import kappa_samples

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_suite_contents():
    names = {f.name for f in fixture_suite()}
    for required in (
        "path_site",
        "interval_site",
        "star_n2",
        "star_n3",
        "star_n4",
        "chain_m1",
        "chain_m2",
        "chain_m3",
        "ygraph",
        "interval_zone",
    ):
        assert required in names
    assert all(f.provenance for f in fixture_suite())


def test_documents_valid():
    for f in fixture_suite():
        parsed = parse_document(f.document)
        assert validate(parsed.graph) == [], f.name


def test_expected_curves_match_engine():
    for f in fixture_suite():
        g, w, start = prepare(parse_document(f.document))
        for kappa in kappa_samples(20):
            got = conversion(g, w, start, KappaSpec.constant(float(kappa))).alpha
            assert got == pytest.approx(
                f.expected_alpha(float(kappa)), abs=1e-10
            ), (f.name, kappa)


def test_expected_alpha_inf():
    for f in fixture_suite():
        g, w, start = prepare(parse_document(f.document))
        hs = hitting_split(g, w, start)
        assert hs.alpha_inf == pytest.approx(f.expected_alpha_inf, abs=1e-10), f.name


def test_star_alpha_ignores_leaf_lengths():
    base = next(f for f in fixture_suite() if f.name == "star_n3")
    doc = json.loads(json.dumps(base.document))
    for e in doc["edges"]:
        if e["to"].startswith("b"):
            e["length"] *= 3.7
    g, w, start = prepare(parse_document(doc))
    for kappa in (0.2, 1.0, 6.0):
        got = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
        assert got == pytest.approx(base.expected_alpha(kappa), abs=1e-10)


def test_files_on_disk_match_suite():
    for f in fixture_suite():
        path = FIXTURES / f"{f.name}.json"
        assert path.exists(), f.name
        assert json.loads(path.read_text()) == f.document


def test_every_fixture_is_asserted():
    for f in fixture_suite():
        assert isinstance(f.document, dict), f.name
        assert callable(f.expected_alpha), f.name
        assert isinstance(f.expected_alpha_inf, float), f.name
        assert f.provenance in ("closed-form", "derived"), f.name


def test_interval_zone_fixture_carries_parameters():
    f = next(f for f in fixture_suite() if f.name == "interval_zone")
    assert f.zone == {"rate": 1.0, "delta": 1.0, "diffusion": 1.0}
