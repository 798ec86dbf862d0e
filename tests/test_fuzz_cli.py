"""Fuzzed convert/sweep/hit calls on the fixture documents.

Every call must exit with 0, 1 or 2, write no traceback and no warning,
and print only finite alphas in [0, 1].
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

KAPPAS = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e308, math.inf, -1.0, -1.7e308, 1.7e308, math.nan]),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _number(x: float) -> str:
    return repr(x) if math.isfinite(x) else str(x)


@st.composite
def calls(draw):
    path = draw(st.sampled_from(FIXTURES))
    command = draw(st.sampled_from(["convert", "sweep", "hit"]))
    if command == "convert":
        return ["convert", path, f"--kappa={_number(draw(KAPPAS))}"]
    if command == "hit":
        return ["hit", path]
    # --opt=value, so that argparse passes negative values on
    return ["sweep", path, f"--kappa-min={_number(draw(KAPPAS))}",
            f"--kappa-max={_number(draw(KAPPAS))}",
            f"--steps={draw(st.integers(min_value=-1, max_value=12))}",
            "--spacing", draw(st.sampled_from(["linear", "geometric"]))]


def _alphas(command: str, out: str) -> list[float]:
    lines = out.splitlines()
    if command == "sweep":
        return [float(line.split(",")[1]) for line in lines[1:]]
    return [float(line.split("=")[1]) for line in lines
            if line.startswith(("alpha_kac", "alpha_fk", "alpha_inf"))]


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
        for alpha in _alphas(argv[0], out.getvalue()):
            assert math.isfinite(alpha) and 0.0 <= alpha <= 1.0, (argv, out.getvalue())
