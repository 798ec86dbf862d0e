"""Fuzzed convert/sweep/hit/rational/green/diffuse/mc/compare calls on
the fixture documents, and validate/convert/mc calls on fixture
documents with one or two fields replaced by hostile values, half of them
first injected on an edge named by its stored pair, the reversed pair or
a pair that a parallel edge shares.

Every call must exit with 0, 1 or 2, write no traceback and no warning,
and print only finite numbers, with alphas, survivals and first-hit
probabilities in [0, 1].  A document holding an integer that no float can
hold is a bad document: every call on it exits with 1.  mc and compare
run at most 200 trajectories and mc at most 50 transitions each, which
keeps the fuzz fast.
"""

import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from graphreact.cli import main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURES = sorted(str(p) for p in FIXTURE_DIR.glob("*.json"))
FIXTURE = str(FIXTURE_DIR / "chain_m3.json")  # three sites: the kac solve is 3x3
ZONE_FIXTURE = str(FIXTURE_DIR / "interval_zone.json")

KAPPAS = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e308, math.inf, -1.0, -1.7e308, 1.7e308, math.nan]),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)
RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e6, 5e6, 1e9, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1e308),
)
SCALES = st.one_of(
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e300, math.inf, math.nan]),
    st.floats(min_value=1e-300, max_value=1e300),
)
# every fixture edge is at least 0.5 long, so most SCALES are too coarse
STEPS = st.one_of(SCALES, st.floats(min_value=1e-3, max_value=0.5),
                  st.sampled_from([1e-15, 1e-16, 1e-20]))
H_LISTS = st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=4)


def _number(x: float) -> str:
    return repr(x) if math.isfinite(x) else str(x)


@st.composite
def calls(draw):
    path = draw(st.sampled_from(FIXTURES))
    command = draw(st.sampled_from(["convert", "sweep", "hit", "rational", "green",
                                    "diffuse", "mc", "compare"]))
    if command == "convert":
        return ["convert", path, f"--kappa={_number(draw(KAPPAS))}"]
    if command in ("mc", "compare"):
        argv = [command, path, f"--kappa={_number(draw(KAPPAS))}",
                f"--delta={_number(draw(STEPS))}",
                f"--n={draw(st.integers(min_value=-1, max_value=200))}",
                f"--seed={draw(st.integers(min_value=-2**70, max_value=2**70))}"]
        if command == "mc":
            argv.append(f"--cap={draw(st.integers(min_value=-1, max_value=50))}")
        return argv
    if command in ("hit", "rational", "green"):
        return [command, path]
    if command == "diffuse":
        h_list = sorted(set(draw(H_LISTS)), reverse=True)
        return ["diffuse", path, f"--k={_number(draw(RATES))}",
                f"--delta={_number(draw(SCALES))}", f"--diffusion={_number(draw(SCALES))}",
                "--h-list=" + ",".join(map(repr, h_list))]
    # --opt=value, so that argparse passes negative values on
    return ["sweep", path, f"--kappa-min={_number(draw(KAPPAS))}",
            f"--kappa-max={_number(draw(KAPPAS))}",
            f"--steps={draw(st.integers(min_value=-1, max_value=12))}",
            "--spacing", draw(st.sampled_from(["linear", "geometric"]))]


def _alphas(command: str, out: str) -> list[float]:
    """The printed probabilities: alphas, for diffuse psi_h and psi_limit,
    for compare alpha and psi, for mc the mean survival and for hit the
    first-hit split."""
    lines = out.splitlines()
    if command == "sweep":
        return [float(line.split(",")[1]) for line in lines[1:]]
    if command in ("diffuse", "compare"):
        return [float(v) for line in lines[1:] for v in line.split(",")[1:3]]
    if command == "mc":
        return [float(lines[1].split(",")[1])]
    split = [float(line.split(",")[1]) for line in lines[2:]] if command == "hit" else []
    return split + [float(line.split("=")[1]) for line in lines
                    if line.startswith(("alpha_kac", "alpha_fk", "alpha_inf"))]


def _numbers(command: str, out: str) -> list[float]:
    """Every number printed, in CSV cells or after ' = ', except the kappa
    that mc echoes from its input, which may be inf."""
    numbers = []
    lines = out.splitlines()
    if command == "mc":
        lines = [line.split(",", 1)[1] for line in lines]
    for line in lines:
        for cell in line.replace(" = ", ",").split(","):
            try:
                numbers.append(float(cell))
            except ValueError:
                pass  # a header, a site id or a label
    return numbers


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(calls())
@example(["convert", FIXTURE, "--kappa=0"])
@example(["convert", FIXTURE, "--kappa=1e-300"])
@example(["convert", FIXTURE, "--kappa=1e308"])
@example(["convert", FIXTURE, "--kappa=inf"])
@example(["sweep", FIXTURE, "--kappa-min=0", "--kappa-max=1e308", "--steps=4"])
@example(["sweep", FIXTURE, "--kappa-min=1e-300", "--kappa-max=1.7976931348623157e308",
          "--steps=2", "--spacing", "geometric"])
@example(["sweep", FIXTURE, "--kappa-min=0", "--kappa-max=inf", "--steps=3"])
@example(["sweep", FIXTURE, "--kappa-min=-1.7e308", "--kappa-max=1.7e308", "--steps=3"])
@example(["sweep", FIXTURE, "--kappa-min=5e307", "--kappa-max=1.7976931348623157e308",
          "--steps=12"])
@example(["diffuse", ZONE_FIXTURE, "--k=1e6", "--delta=1", "--diffusion=1", "--h-list=0.1"])
@example(["diffuse", ZONE_FIXTURE, "--k=5e6", "--delta=1", "--diffusion=1", "--h-list=0.1"])
@example(["diffuse", ZONE_FIXTURE, "--k=1e9", "--delta=1", "--diffusion=1", "--h-list=0.1"])
@example(["diffuse", ZONE_FIXTURE, "--k=1e300", "--delta=1", "--diffusion=1", "--h-list=0.1"])
@example(["mc", FIXTURE, "--kappa=1", "--delta=1e-20", "--n=50", "--seed=1", "--cap=50"])
@example(["mc", FIXTURE, "--kappa=inf", "--delta=0.5", "--n=2", "--seed=0", "--cap=1"])
@example(["compare", FIXTURE, "--kappa=1e308", "--delta=0.1", "--n=200", "--seed=3"])
def test_cli_never_warns_and_prints_alphas_in_unit_interval(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning escapes main and fails the example
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    if code == 0:
        assert all(map(math.isfinite, _numbers(argv[0], out.getvalue()))), (argv, out.getvalue())
        for alpha in _alphas(argv[0], out.getvalue()):
            assert math.isfinite(alpha) and 0.0 <= alpha <= 1.0, (argv, out.getvalue())


# JSON values of every kind, and numbers at the edges of what floats hold
HOSTILE = st.one_of(
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.sampled_from([None, True, False, math.nan, math.inf, -math.inf, 0, -1, 1e308,
                     2**64, 10**400]),
)


def _field_paths(node, prefix=()):
    """The key path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _holds_int_past_floats(node) -> bool:
    if isinstance(node, dict):
        return any(map(_holds_int_past_floats, node.values()))
    if isinstance(node, list):
        return any(map(_holds_int_past_floats, node))
    return isinstance(node, int) and abs(node) > sys.float_info.max


def _inject_on_edge(doc: dict, k: int, pair: str) -> dict:
    """doc injected halfway along edge k, naming it by its stored pair, by
    the reversed pair, or by a pair that a parallel copy of it shares."""
    edge = doc["edges"][k]
    ends = [edge["from"], edge["to"]]
    if pair == "parallel":
        doc["edges"].append(dict(edge))
    doc["injection"] = {"edge": ends[::-1] if pair == "reversed" else ends,
                        "offset": edge["length"] / 2}
    return doc


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text())


@st.composite
def hostile_documents(draw):
    doc = json.loads(Path(draw(st.sampled_from(FIXTURES))).read_text())
    if draw(st.booleans()):
        _inject_on_edge(doc, draw(st.integers(0, len(doc["edges"]) - 1)),
                        draw(st.sampled_from(["stored", "reversed", "parallel"])))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        *parents, key = draw(st.sampled_from(list(_field_paths(doc))))
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = draw(HOSTILE)
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_documents())
@example(json.loads(Path(ZONE_FIXTURE).read_text()) | {"dimension": 10**400})
@example(_inject_on_edge(_fixture("path_site.json"), 0, "reversed"))
@example(_inject_on_edge(_fixture("path_site.json"), 0, "parallel"))
def test_cli_survives_hostile_documents(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_text(json.dumps(doc))
    codes = (1,) if _holds_int_past_floats(doc) else (0, 1, 2)
    for argv in (["validate"], ["convert", "--kappa=1.5"],
                 ["mc", "--kappa=1.5", "--delta=0.25", "--n=16", "--seed=1", "--cap=20"]):
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
        assert code in codes, (argv, doc)
        assert "Traceback" not in err.getvalue()
        assert "Warning" not in err.getvalue()
