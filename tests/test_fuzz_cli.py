"""Fuzzed convert/sweep/hit/rational/green/diffuse calls on the fixture
documents.

Every call must exit with 0, 1 or 2, write no traceback and no warning,
and print only finite numbers, with alphas and survivals in [0, 1].
"""

import contextlib
import io
import math
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
H_LISTS = st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=4)


def _number(x: float) -> str:
    return repr(x) if math.isfinite(x) else str(x)


@st.composite
def calls(draw):
    path = draw(st.sampled_from(FIXTURES))
    command = draw(st.sampled_from(["convert", "sweep", "hit", "rational", "green",
                                    "diffuse"]))
    if command == "convert":
        return ["convert", path, f"--kappa={_number(draw(KAPPAS))}"]
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
    """The printed probabilities: alphas, and for diffuse psi_h and psi_limit."""
    lines = out.splitlines()
    if command == "sweep":
        return [float(line.split(",")[1]) for line in lines[1:]]
    if command == "diffuse":
        return [float(v) for line in lines[1:] for v in line.split(",")[1:3]]
    return [float(line.split("=")[1]) for line in lines
            if line.startswith(("alpha_kac", "alpha_fk", "alpha_inf"))]


def _numbers(out: str) -> list[float]:
    """Every number printed, in CSV cells or after ' = '."""
    numbers = []
    for line in out.splitlines():
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
        assert all(map(math.isfinite, _numbers(out.getvalue()))), (argv, out.getvalue())
        for alpha in _alphas(argv[0], out.getvalue()):
            assert math.isfinite(alpha) and 0.0 <= alpha <= 1.0, (argv, out.getvalue())
