import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from graphreact import (
    ActiveZoneSpec,
    DocumentError,
    KappaSpec,
    ParsedDocument,
    PointOnGraph,
    SimConfig,
    collapse_study,
    conversion,
    emit_document,
    evaluate_at,
    parse_document,
    prepare,
    simulate,
    solve_survival,
    validate,
)
from graphreact.cli import main
from oracles import cut_at

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def path_site_doc():
    return json.loads((FIXTURES / "path_site.json").read_text())


def test_parse_and_prepare_vertex_injection():
    parsed = parse_document(path_site_doc())
    g, w, start = prepare(parsed)
    assert start == "v0"
    assert validate(g) == []
    assert w.at("c", 0) == pytest.approx(0.5)


def test_round_trip_identical_graph():
    parsed = parse_document(path_site_doc())
    again = parse_document(emit_document(parsed))
    assert again.graph == parsed.graph
    assert again.injection == parsed.injection


def test_unknown_keys_rejected_everywhere():
    doc = path_site_doc()
    doc["surprise"] = 1
    with pytest.raises(DocumentError, match="unknown keys"):
        parse_document(doc)
    doc = path_site_doc()
    doc["vertices"][0]["color"] = "red"
    with pytest.raises(DocumentError, match=r"vertices\[0\]"):
        parse_document(doc)
    doc = path_site_doc()
    doc["edges"][1]["weight"] = 2
    with pytest.raises(DocumentError, match=r"edges\[1\]"):
        parse_document(doc)
    doc = path_site_doc()
    doc["injection"] = {"vertex": "v0", "offset": 1}
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_missing_keys_reported_with_location():
    with pytest.raises(DocumentError, match="missing required key"):
        parse_document({"vertices": []})
    with pytest.raises(DocumentError, match=r"edges\[0\].*length"):
        parse_document(
            {"vertices": [{"id": "a", "role": "exit"}], "edges": [{"from": "a", "to": "a"}]}
        )


def test_explicit_weights_override_and_validate():
    doc = path_site_doc()
    doc["weights"] = {"c": {"0": 0.25, "1": 0.75}}
    g, w, _ = prepare(parse_document(doc))
    assert w.at("c", 0) == 0.25
    assert w.at("c", 1) == 0.75
    assert w.at("v0", 0) == 1.0  # derived row untouched

    doc["weights"] = {"c": {"0": 0.25, "1": 0.5}}
    with pytest.raises(DocumentError, match="sum"):
        prepare(parse_document(doc))
    doc["weights"] = {"ghost": {"0": 1.0}}
    with pytest.raises(DocumentError, match="unknown vertex"):
        prepare(parse_document(doc))


def test_edge_injection_with_explicit_weights_matches_a_cut_graph():
    # the start stays a point inside edge 0, and c's explicit row keeps
    # its keys; a graph cut there, with c's weight on edge 0 moved to the
    # appended half, gives the same numbers on every route
    doc = path_site_doc()
    doc["weights"] = {"c": {"0": 0.3, "1": 0.7}}
    doc["injection"] = {"edge": ["v0", "c"], "offset": 0.25}
    parsed = parse_document(doc)
    g, w, start = prepare(parsed)
    assert g is parsed.graph and start == PointOnGraph.on_edge(0, 0.25)
    assert (w.at("c", 0), w.at("c", 1)) == (0.3, 0.7)
    g2, w2, mid = cut_at(g, w, start)
    assert w2.at("c", len(g2.edges) - 1) == 0.3
    ks = KappaSpec.constant(1.0)
    psi = solve_survival(g2, w2, ks)[mid]
    assert conversion(g, w, start, ks).psi == pytest.approx(psi, abs=1e-12)
    assert evaluate_at(solve_survival(g, w, ks), start) == pytest.approx(psi, abs=1e-12)
    zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=0.1)
    assert collapse_study(g, w, zone, [0.1], start)[0].psi_h == pytest.approx(
        collapse_study(g2, w2, zone, [0.1], mid)[0].psi_h, abs=1e-12)
    est = simulate(g, w, ks, start, SimConfig(0.25, 20_000, 3))
    assert abs(est.mean - psi) <= 4.0 * est.standard_error


def test_injection_unknown_edge():
    doc = path_site_doc()
    doc["injection"] = {"edge": ["v0", "a"], "offset": 0.1}
    with pytest.raises(DocumentError, match="no edge"):
        parse_document(doc)


def test_injection_pair_tells_apart_parallel_edges_stored_either_way():
    doc = path_site_doc()
    doc["edges"].append({**doc["edges"][0], "from": "c", "to": "v0"})
    doc["injection"] = {"edge": ["v0", "c"], "offset": 0.25}
    assert parse_document(doc).injection == PointOnGraph.on_edge(0, 0.25)
    doc["injection"]["edge"] = ["c", "v0"]
    assert parse_document(doc).injection == PointOnGraph.on_edge(2, 0.25)


def _write(tmp_path, doc, name="g.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# document fields that once escaped the schema checks as TypeError,
# ValueError or (integers past the float range) OverflowError, or (offset
# true, dimension 10**400) were read as a number
HOSTILE = {
    "edge-end-list": {"edges": [{"from": "j", "to": [1], "length": 1.0}]},
    "injection-vertex-object": {"injection": {"vertex": {}}},
    "injection-vertex-list": {"injection": {"vertex": ["v0"]}},
    "injection-edge-end-list": {"injection": {"edge": [["v0"], "c"], "offset": 0.25}},
    "offset-string": {"injection": {"edge": ["v0", "c"], "offset": "abc"}},
    "offset-list": {"injection": {"edge": ["v0", "c"], "offset": [1]}},
    # on an edge of length 2, where an offset of 1.0 would be a valid point
    "offset-bool": {"edges": [{"from": "v0", "to": "c", "length": 2.0},
                              {"from": "c", "to": "a", "length": 1.0}],
                    "injection": {"edge": ["v0", "c"], "offset": True}},
    "length-huge-int": {"edges": [{"from": "v0", "to": "c", "length": 10**400},
                                  {"from": "c", "to": "a", "length": 1.0}]},
    "radius-huge-int": {"edges": [{"from": "v0", "to": "c", "length": 1.0, "radius": 10**400},
                                  {"from": "c", "to": "a", "length": 1.0}]},
    "weight-huge-int": {"weights": {"c": {"0": 10**400, "1": 0.5}}},
    "offset-huge-int": {"injection": {"edge": ["v0", "c"], "offset": 10**400}},
    "dimension-huge-int": {"dimension": 10**400},
}


@pytest.mark.parametrize("command", [["validate"], ["convert", "--kappa", "1"]])
@pytest.mark.parametrize("name", list(HOSTILE))
def test_cli_rejects_hostile_fields(name, command, tmp_path, capsys):
    path = _write(tmp_path, {**path_site_doc(), **HOSTILE[name]})
    assert main([command[0], path, *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    json.dumps(path_site_doc()).replace('"length": 1.0', '"length": 1' + "0" * 5000, 1),
    '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["integer-too-long", "nesting-too-deep"])
def test_cli_rejects_json_the_parser_cannot_read(text, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_validate(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "OK"

    bad = path_site_doc()
    bad["edges"][0]["length"] = -1.0
    path = _write(tmp_path, bad, "bad.json")
    assert main(["validate", path]) == 1
    assert "length" in capsys.readouterr().out

    broken = tmp_path / "broken.json"
    broken.write_text("{ nope")
    assert main(["validate", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err

    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("field, problem", [
    ({"injection": {"vertex": "ghost"}}, "injection: unknown vertex 'ghost'"),
    ({"injection": {"edge": ["v0", "c"], "offset": 7.5}}, "injection: offset 7.5 outside [0, 1.0]"),
    ({"weights": {"c": {"0": 0.25, "1": 0.5}}}, "weights at vertex 'c' sum to 0.75"),
    ({"injection": {"edge": ["c", "v0"], "offset": 0.25}}, "stored as ['v0', 'c']"),
    ({"edges": path_site_doc()["edges"] * 2, "injection": {"edge": ["v0", "c"], "offset": 0.25}},
     "['v0', 'c'] names edges [0, 2], not one edge"),
], ids=["unknown-vertex", "offset-off-the-edge", "weights-off-one", "reversed-pair",
        "parallel-pair"])
def test_cli_validate_rejects_what_convert_rejects(field, problem, tmp_path, capsys):
    path = _write(tmp_path, {**path_site_doc(), **field})
    for command in (["validate"], ["convert", "--kappa", "1"]):
        assert main([command[0], path, *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and problem in err


@pytest.mark.parametrize("offset", [0.0, -0.0, 0.25, 1.0])
def test_cli_validate_takes_every_offset_on_the_edge(offset, tmp_path, capsys):
    path = _write(tmp_path, {**path_site_doc(),
                             "injection": {"edge": ["v0", "c"], "offset": offset}})
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_cli_convert_path_site(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    assert main(["convert", path, "--kappa", "1"]) == 0
    out = capsys.readouterr().out
    assert "alpha_kac = 0.666666666667" in out
    assert "alpha_fk  = 0.666666666667" in out

    assert main(["convert", path, "--kappa", "0"]) == 0
    out = capsys.readouterr().out
    assert "alpha_kac = 0" in out

    assert main(["convert", path, "--kappa", "inf"]) == 0
    out = capsys.readouterr().out
    assert "alpha_kac = 1" in out  # hitting probability from v0 is 1


def test_cli_convert_rejects_bad_kappa(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    assert main(["convert", path, "--kappa", "-2"]) == 1
    assert main(["convert", path, "--kappa", "soup"]) == 1
    capsys.readouterr()


def test_cli_sweep_monotone_and_stable(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    out_file = tmp_path / "sweep.csv"
    args = [
        "sweep", path, "--kappa-min", "0.1", "--kappa-max", "10",
        "--steps", "5", "--spacing", "geometric", "--out", str(out_file),
    ]
    assert main(args) == 0
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "kappa,alpha,psi,method"
    assert len(lines) == 1 + 2 * 5
    kac_alphas = [float(l.split(",")[1]) for l in lines[1:] if l.endswith("kac")]
    assert kac_alphas == sorted(kac_alphas)
    # byte stability
    assert main(args) == 0
    assert out_file.read_text() == text
    capsys.readouterr()


def test_cli_sweep_stdout_and_arg_checks(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    assert main(["sweep", path, "--kappa-min", "0", "--kappa-max", "1", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    assert main(["sweep", path, "--kappa-min", "1", "--kappa-max", "1", "--steps", "3"]) == 1
    assert main(["sweep", path, "--kappa-min", "0", "--kappa-max", "1", "--steps", "1"]) == 1
    capsys.readouterr()


def test_cli_rational_path_site(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    assert main(["rational", path]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "numerator,0,2"
    assert out[1] == "denominator,1,2"


def test_cli_green_chain(tmp_path, capsys):
    doc = json.loads((FIXTURES / "chain_m2.json").read_text())
    path = _write(tmp_path, doc)
    assert main(["green", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "site,c1,c2"
    row1 = [float(v) for v in lines[1].split(",")[1:]]
    row2 = [float(v) for v in lines[2].split(",")[1:]]
    assert row1 == pytest.approx([2.0, 1.0], abs=1e-10)
    assert row2 == pytest.approx([1.0, 1.0], abs=1e-10)


def test_cli_hit_chain(tmp_path, capsys):
    doc = json.loads((FIXTURES / "chain_m2.json").read_text())
    path = _write(tmp_path, doc)
    assert main(["hit", path]) == 0
    out = capsys.readouterr().out
    assert "alpha_inf = 1" in out
    assert "c1,1" in out
    assert "c2,0" in out


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_cli_hit_prints_a_distribution(path, capsys):
    assert main(["hit", str(path)]) == 0
    p = [float(row.split(",")[1]) for row in capsys.readouterr().out.splitlines()[2:]]
    assert min(p) >= 0.0
    assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_cli_convert_at_huge_radius_powers(tmp_path, capsys):
    # r^(d-1) overflows a float at both; the weights are ratios
    def alpha(radius, dimension):
        doc = json.loads((FIXTURES / "interval_zone.json").read_text())
        doc["edges"][0]["radius"] = radius
        doc["dimension"] = dimension
        assert main(["convert", _write(tmp_path, doc), "--kappa", "1.7"]) == 0
        return float(capsys.readouterr().out.splitlines()[0].split("=")[1])

    assert alpha(1e200, 3) == pytest.approx(alpha(1.0, 3), abs=1e-12)
    assert alpha(10.0, 400) == pytest.approx(alpha(1.0, 400), abs=1e-12)


def test_cli_mc_csv(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    args = ["mc", path, "--kappa", "1", "--delta", "0.25", "--n", "2000", "--seed", "42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert lines[0] == "kappa,mean,se,n,delta,seed"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[3] == "2000" and fields[5] == "42"
    assert main(args) == 0
    assert capsys.readouterr().out == first  # byte-stable under the same seed


def test_cli_mc_needs_two_trajectories(tmp_path, capsys):
    # one product has no spread: its standard error read 0, and compare
    # held mc to the cross-route tolerance alone
    path = _write(tmp_path, path_site_doc())
    for command in (["mc", "--kappa", "1", "--delta", "0.1", "--n", "1", "--seed", "1"],
                    ["compare", "--kappa", "1", "--n", "1"]):
        assert main([command[0], path, *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "two trajectories" in err


def test_cli_out_of_memory_exits_one(tmp_path, capsys, monkeypatch):
    # what numpy raises when --n asks for more than the host can hold
    def too_large(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000000,) and data type float64")

    monkeypatch.setattr("graphreact.mc.estimate_survival", too_large)
    path = _write(tmp_path, path_site_doc())
    args = ["mc", path, "--kappa", "1", "--delta", "0.1", "--n", "1000000000000", "--seed", "1"]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate 7.28 TiB")
    assert "Traceback" not in err


def test_cli_diffuse_csv(tmp_path, capsys):
    doc = json.loads((FIXTURES / "interval_zone.json").read_text())
    path = _write(tmp_path, doc)
    args = [
        "diffuse", path, "--k", "1", "--delta", "1", "--diffusion", "1",
        "--h-list", "0.1,0.01",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "h,psi_h,psi_limit,abs_err"
    assert len(lines) == 3
    errs = [float(l.split(",")[3]) for l in lines[1:]]
    assert errs[0] > errs[1]


def test_cli_compare_star(tmp_path, capsys):
    doc = json.loads((FIXTURES / "star_n3.json").read_text())
    path = _write(tmp_path, doc)
    assert main([
        "compare", path, "--kappa", "2", "--delta", "0.1", "--n", "20000",
        "--seed", "7",
    ]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "method,alpha,psi,se,status"
    assert out[-1].startswith("mc,")
    assert out[-1].endswith("pass")


def test_cli_injection_required(tmp_path, capsys):
    doc = path_site_doc()
    del doc["injection"]
    path = _write(tmp_path, doc)
    assert main(["convert", path, "--kappa", "1"]) == 1
    assert "injection" in capsys.readouterr().err
    # but the injection-free commands still work
    assert main(["green", path]) == 0
    capsys.readouterr()


def test_cli_usage_errors_exit_one(capsys):
    assert main(["sweep"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_cli_numerical_failure_exits_two(tmp_path, capsys, monkeypatch):
    import graphreact.cli as cli
    from graphreact import SingularSystemError

    def boom(*args, **kwargs):
        raise SingularSystemError("matrix is singular at pivot column 0")

    monkeypatch.setattr(cli, "conversion", boom)
    path = _write(tmp_path, path_site_doc())
    assert main(["convert", path, "--kappa", "1"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["convert", "--kappa", "1"],
    ["sweep", "--kappa-min", "0", "--kappa-max", "1", "--steps", "3"],
    ["rational"],
    ["green"],
    ["hit"],
    ["mc", "--kappa", "1", "--delta", "0.1", "--n", "100", "--seed", "1"],
    ["diffuse", "--k", "2", "--delta", "0.1", "--diffusion", "1", "--h-list", "0.1"],
    ["compare", "--kappa", "1", "--n", "100"],
    ["validate"],
], ids=lambda command: command[0])
def test_cli_edge_too_short_for_its_flux_exits_two(command, tmp_path, capsys):
    # p/l overflows on c1-c2: convert warned twice and printed "residual nan
    # exceeds nan", and mc called the weights unusable
    doc = json.loads((FIXTURES / "chain_m3.json").read_text())
    doc["edges"][1]["length"] = 1e-310
    path = _write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: p/l overflows a float at vertex 'c1' on edge 1 (length 1e-310)\n")


TRAP = {
    "vertices": [{"id": "v0"}, {"id": "c", "role": "active"}, {"id": "a", "role": "exit"},
                 {"id": "b"}, {"id": "t"}],
    "edges": [{"from": "v0", "to": "c", "length": 1.0}, {"from": "c", "to": "a", "length": 1.0},
              {"from": "c", "to": "b", "length": 2.0}, {"from": "b", "to": "t", "length": 1.0}],
    "weights": {"b": {"2": 5e-324, "3": 1.0}},
    "injection": {"vertex": "v0"},
}


@pytest.mark.parametrize("command", [
    ["validate"],
    ["convert", "--kappa", "1"],
    ["mc", "--kappa", "1", "--delta", "0.1", "--n", "2000", "--seed", "1"],
    ["diffuse", "--k", "2", "--delta", "0.1", "--diffusion", "1", "--h-list", "0.1"],
], ids=lambda command: command[0])
def test_cli_weight_whose_flux_underflows_exits_two(command, tmp_path, capsys):
    # b's row lies in (0, 1] and sums to 1, but p/l back to c is 0, so a walk
    # that enters b never leaves {b, t}: validate printed OK, the solves hit a
    # singular matrix and mc ran its walks to the cap
    path = _write(tmp_path, TRAP)
    assert main([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr() == (
        "", "numerical failure: p/l underflows to 0 at vertex 'b' on edge 2 (length 2.0)\n")


@pytest.mark.parametrize("command", [
    ["convert", "--kappa", "1"],
    ["sweep", "--kappa-min", "0", "--kappa-max", "1", "--steps", "3"],
    ["rational"],
    ["green"],
    ["hit"],
    ["mc", "--kappa", "1", "--delta", "0.1", "--n", "100", "--seed", "1"],
    ["diffuse", "--k", "2", "--delta", "0.1", "--diffusion", "1", "--h-list", "0.1"],
    ["compare", "--kappa", "1", "--n", "100"],
    ["validate"],
], ids=lambda command: command[0])
def test_cli_derived_weight_that_underflows_exits_one(command, tmp_path, capsys):
    # ygraph with an inert branch j-b-t behind an edge of radius 1e-200: its
    # weight is 0 at both ends, so validate said OK, convert and hit found a
    # singular matrix, and mc from b capped every walk
    path = _write(tmp_path, _tiny_radius_doc())
    assert main([command[0], path, *command[1:]]) == 1
    assert capsys.readouterr() == ("", "error: weight at vertex 'j' on edge 3 underflows to 0 "
                                       "(radius 1e-200, dimension 3)\n")


def _tiny_radius_doc():
    doc = json.loads((FIXTURES / "ygraph.json").read_text())
    doc["vertices"] += [{"id": "b", "role": "inert"}, {"id": "t", "role": "inert"}]
    doc["edges"] += [{"from": "j", "to": "b", "length": 1.0, "radius": 1e-200},
                     {"from": "b", "to": "t", "length": 1.0, "radius": 1.0}]
    return doc


def test_cli_explicit_rows_replace_derived_rows_that_would_underflow(tmp_path, capsys):
    # a derived row that an explicit row replaces is never derived
    rows = {"j": {"0": 0.25, "1": 0.25, "2": 0.25, "3": 0.25}, "b": {"3": 0.5, "4": 0.5}}
    path = _write(tmp_path, {**_tiny_radius_doc(), "weights": rows})
    assert main(["convert", path, "--kappa", "1"]) == 0
    assert "alpha_kac = 0.333333333333\n" in capsys.readouterr().out
    path = _write(tmp_path, {**_tiny_radius_doc(), "weights": {"j": rows["j"]}})
    assert main(["validate", path]) == 1
    assert capsys.readouterr() == ("", "error: weight at vertex 'b' on edge 3 underflows to 0 "
                                       "(radius 1e-200, dimension 3)\n")


@pytest.mark.parametrize("command", [
    ["sweep", "star_n3.json", "--kappa-min", "0.1", "--kappa-max", "1", "--steps", "3"],
    ["diffuse", "interval_zone.json", "--k", "1", "--delta", "1", "--diffusion", "1",
     "--h-list", "0.1"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_cli_out_that_cannot_be_written_exits_one(command, target, tmp_path, capsys):
    out, reason = {"missing directory": (tmp_path / "absent" / "x.csv", errno.ENOENT),
                   "directory": (tmp_path, errno.EISDIR)}[target]
    assert main([command[0], str(FIXTURES / command[1]), *command[2:], "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {os.strerror(reason)}\n")


def test_validate_checks_the_flux_from_the_float_nearest_one_over_max(tmp_path, capsys):
    # v0 has one edge, weight 1: 1/l is inf at l = 1/max, which rounds
    # down, and finite at the next float up
    doc = json.loads((FIXTURES / "chain_m3.json").read_text())
    shortest = 1.0 / sys.float_info.max
    doc["edges"][0]["length"] = shortest
    path = _write(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert main(["convert", path, "--kappa", "1"]) == 2
        assert capsys.readouterr().err == err
    assert err.startswith("numerical failure: p/l overflows a float at vertex 'v0' on edge 0")
    doc["edges"][0]["length"] = math.nextafter(shortest, 1.0)
    assert main(["validate", _write(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == "OK\n"


def test_round_trip_preserves_weights_and_dimension():
    doc = path_site_doc()
    doc["dimension"] = 2
    doc["weights"] = {"c": {"0": 0.25, "1": 0.75}}
    parsed = parse_document(doc)
    again = parse_document(emit_document(parsed))
    assert again.graph == parsed.graph
    assert again.explicit_weights == parsed.explicit_weights
    g1, w1, _ = prepare(parsed)
    g2, w2, _ = prepare(again)
    assert w1.p == w2.p


def test_emit_rejects_an_injection_on_a_shared_edge_pair():
    doc = path_site_doc()
    doc["edges"].append({"from": "v0", "to": "c", "length": 2.0, "radius": 1.0})
    g = parse_document(doc).graph
    for k in (0, 2):  # either edge of the pair: [v0, c] names both
        parsed = ParsedDocument(g, None, PointOnGraph.on_edge(k, 0.25))
        with pytest.raises(DocumentError, match=r"names edges \[0, 2\]"):
            emit_document(parsed)
    # the edge to the exit is the only one stored as [c, a]
    again = parse_document(emit_document(ParsedDocument(g, None, PointOnGraph.on_edge(1, 0.5))))
    assert again.injection == PointOnGraph.on_edge(1, 0.5)


def test_cli_convert_validates_once(tmp_path, capsys, monkeypatch):
    import graphreact.graph as graph_mod

    calls = []
    original = graph_mod.validate

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graph_mod, "validate", counting)
    path = _write(tmp_path, path_site_doc())
    assert main(["convert", path, "--kappa", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_sweep_rejects_infinite_kappa_range(tmp_path, capsys):
    path = _write(tmp_path, path_site_doc())
    args = ["sweep", path, "--kappa-min", "0", "--kappa-max", "inf", "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on the grid fails the test
        assert main(args) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "Traceback" not in err


def test_cli_arithmetic_failure_exits_two(tmp_path, capsys, monkeypatch):
    # an ArithmeticError from any route is a numerical failure, exit 2
    def overflow(*args):
        raise OverflowError("math range error")

    monkeypatch.setattr("graphreact.diffuse.collapse_study", overflow)
    doc = json.loads((FIXTURES / "interval_zone.json").read_text())
    path = _write(tmp_path, doc)
    args = ["diffuse", path, "--k", "1", "--delta", "1", "--diffusion", "1",
            "--h-list", "0.01"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


def _uniform_chain_doc(sites: int) -> dict:
    ids = ["v0"] + [f"c{j}" for j in range(1, sites + 1)] + ["a"]
    return {
        "vertices": [{"id": i, "role": "active" if i.startswith("c") else "inert"}
                     for i in ids[:-1]] + [{"id": "a", "role": "exit"}],
        "edges": [{"from": u, "to": v, "length": 1.0, "radius": 1.0}
                  for u, v in zip(ids, ids[1:])],
        "dimension": 3,
        "injection": {"vertex": "v0"},
    }


def test_cli_rational_long_uniform_chain(tmp_path, capsys):
    assert main(["rational", _write(tmp_path, _uniform_chain_doc(160))]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.strip().split("\n"))
    num = [float(c) for c in rows["numerator"].split(",")]
    den = [float(c) for c in rows["denominator"].split(",")]
    assert len(den) == 161
    assert all(math.isfinite(c) for c in num + den)


def test_cli_convert_long_uniform_chain_prints_no_negative_number(tmp_path, capsys):
    # psi_kac printed -3.5886849048e-12 here, and 178 site_survival rows < 0;
    # then 0, from 1 - alpha, where the survival is 2.1e-229
    path = _write(tmp_path, _uniform_chain_doc(400))
    assert main(["convert", path, "--kappa", "1"]) == 0
    out = capsys.readouterr().out
    psi_kac = float(out.split("psi_kac   = ")[1].split("\n")[0])
    g, w, start = prepare(parse_document(json.loads(Path(path).read_text())))
    psi_fk = evaluate_at(solve_survival(g, w, KappaSpec.constant(1.0)), start)
    assert psi_kac > 0.0
    assert psi_kac == pytest.approx(psi_fk, rel=1e-9, abs=0.0)
    numbers = [tok for line in out.splitlines() for tok in line.replace(" = ", ",").split(",")]
    assert not [tok for tok in numbers if tok.startswith("-")]


def test_cli_rational_overflow_is_a_numerical_failure(tmp_path, capsys):
    # at 600 sites the coefficients pass 1e308: this printed a row of nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rational", _write(tmp_path, _uniform_chain_doc(600))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "Warning" not in err and "Traceback" not in err


def _closed_early(argv: list[str], unbuffered: bool) -> tuple[int, str]:
    """Exit code and stderr of the CLI whose reader closes stdout after 100 bytes.

    With an unbuffered stdout (PYTHONUNBUFFERED) the closed pipe cuts a
    single write short instead of raising, and the CLI must still see it.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "graphreact.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": str(src)})
    proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=60), err


@pytest.mark.parametrize("command", ["green", "sweep"])
def test_cli_reader_closing_stdout_early_exits_1_quietly(command, tmp_path):
    if command == "green":  # ~2 MB of output, written row by row
        argv = ["green", _write(tmp_path, _uniform_chain_doc(400))]
    else:  # one write of ~180 KB, well past a 64 KiB pipe buffer
        argv = ["sweep", str(FIXTURES / "path_site.json"), "--kappa-min", "0",
                "--kappa-max", "10", "--steps", "2000"]
    for unbuffered in (False, True):
        code, err = _closed_early(argv, unbuffered)
        assert code == 1, unbuffered
        assert "Traceback" not in err and "Exception ignored" not in err, err
