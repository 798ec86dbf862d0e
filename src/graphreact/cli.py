"""Command-line front end.

Exit codes: 0 success, 1 input or validation problem, 2 numerical
failure.  All numeric output uses 12 significant digits; randomness
enters only through --seed.  ``main`` builds its parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import diffuse as diffuse_mod
from . import mc as mc_mod
from .document import load_document, parse_document, prepare
from .errors import DocumentError, GraphReactError, PreconditionError, SingularSystemError
from .feynman_kac import evaluate_at, solve_survival, survival_field
from .kac import KappaSpec, conversion, conversion_from_split, rational_form
from .harmonic import flux_coefficients, green_and_split, green_matrix, hitting_split


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # adding 0.0 folds -0.0 into 0.0


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_problem(path: str, need_injection: bool = True):
    parsed = parse_document(load_document(path))
    if parsed.graph.violations:
        raise DocumentError("invalid graph: " + "; ".join(parsed.graph.violations))
    g, w, start = prepare(parsed)
    if need_injection and start is None:
        raise DocumentError("document has no injection point")
    return g, w, start


def _parse_kappa(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DocumentError(f"kappa must be a number or 'inf', got {text!r}") from None
    if math.isnan(value) or value < 0:
        raise DocumentError(f"kappa must be >= 0, got {text!r}")
    return value


def cmd_validate(args) -> int:
    try:
        parsed = parse_document(load_document(args.path))
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if parsed.graph.violations:
        for p in parsed.graph.violations:
            print(p)
        return 1
    print("OK")
    return 0


def cmd_convert(args) -> int:
    g, w, start = _load_problem(args.path)
    ks = KappaSpec.constant(_parse_kappa(args.kappa))
    result = conversion(g, w, start, ks)
    field = solve_survival(g, w, ks)
    alpha_fk = 1.0 - evaluate_at(field, start)
    print(f"alpha_kac = {_fmt(result.alpha)}")
    print(f"psi_kac   = {_fmt(result.psi)}")
    print(f"alpha_fk  = {_fmt(alpha_fk)}")
    print(f"diff      = {_fmt(abs(result.alpha - alpha_fk))}")
    print(f"alpha_inf = {_fmt(result.alpha_inf)}")
    if result.sites:
        print("site,p,site_survival,term")
        for site, p, s, term in zip(
            result.sites, result.p, result.site_survival, result.breakdown
        ):
            print(f"{site},{_fmt(p)},{_fmt(s)},{_fmt(term)}")
    return 0


def cmd_sweep(args) -> int:
    g, w, start = _load_problem(args.path)
    if args.steps < 2:
        raise DocumentError("steps must be >= 2")
    if not (math.isfinite(args.kappa_min) and math.isfinite(args.kappa_max)):
        raise DocumentError("kappa-min and kappa-max must be finite")
    if not (0 <= args.kappa_min < args.kappa_max):
        raise DocumentError("need 0 <= kappa-min < kappa-max")
    if args.spacing == "geometric":
        if args.kappa_min <= 0:
            raise DocumentError("geometric spacing needs kappa-min > 0")
        # near the largest float, 10**log10(kappa_max) can round past it;
        # geomspace then sets both ends to the exact inputs
        with np.errstate(over="ignore"):
            grid = np.geomspace(args.kappa_min, args.kappa_max, args.steps)
    else:
        grid = np.linspace(args.kappa_min, args.kappa_max, args.steps)
    # the kappa-free work once: the Green solve, the split, the flux coefficients
    gm, hs = green_and_split(g, w, start)
    coeff = flux_coefficients(g, w)
    lines = ["kappa,alpha,psi,method"]
    for kappa in grid:
        ks = KappaSpec.constant(float(kappa))
        res = conversion_from_split(gm, hs, ks)
        lines.append(f"{kappa:.12g},{_fmt(res.alpha)},{_fmt(res.psi)},kac")
        psi = evaluate_at(survival_field(g, coeff, ks), start)
        lines.append(f"{kappa:.12g},{_fmt(1.0 - psi)},{_fmt(psi)},fk")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rational(args) -> int:
    g, w, start = _load_problem(args.path)
    form = rational_form(g, w, start)
    num = ",".join(_fmt(c) for c in form.numerator.coeffs) or "0"
    den = ",".join(_fmt(c) for c in form.denominator.coeffs)
    print(f"numerator,{num}")
    print(f"denominator,{den}")
    return 0


def cmd_green(args) -> int:
    g, w, _ = _load_problem(args.path, need_injection=False)
    gm = green_matrix(g, w)
    print("site," + ",".join(gm.active))
    for site, row in zip(gm.active, gm.entries):
        print(site + "," + ",".join(_fmt(v) for v in row))
    return 0


def cmd_hit(args) -> int:
    g, w, start = _load_problem(args.path)
    hs = hitting_split(g, w, start)
    print(f"alpha_inf = {_fmt(hs.alpha_inf)}")
    print("site,p")
    for site, p in zip(hs.active, hs.p):
        print(f"{site},{_fmt(p)}")
    return 0


def cmd_mc(args) -> int:
    g, w, start = _load_problem(args.path)
    kappa = _parse_kappa(args.kappa)
    cfg = mc_mod.SimConfig(
        step=args.delta,
        trajectories=args.n,
        seed=args.seed,
        step_cap=args.cap,
    )
    est = mc_mod.simulate(g, w, KappaSpec.constant(kappa), start, cfg)
    sys.stdout.write(mc_mod.estimate_csv(kappa, est, cfg))
    if est.biased:
        print(f"warning: {est.capped} trajectories hit the transition cap; "
              "the estimate is biased", file=sys.stderr)
    return 0


def cmd_diffuse(args) -> int:
    g, w, start = _load_problem(args.path)
    try:
        h_list = [float(tok) for tok in args.h_list.split(",") if tok.strip()]
    except ValueError:
        raise DocumentError(f"bad h list {args.h_list!r}") from None
    if not h_list:
        raise DocumentError("h list is empty")
    zone = diffuse_mod.ActiveZoneSpec(
        rate=args.k, delta=args.delta, diffusion=args.diffusion, h=h_list[0]
    )
    rows = diffuse_mod.collapse_study(g, w, zone, h_list, start)
    _emit(diffuse_mod.collapse_csv(rows), args.out)
    return 0


def cmd_compare(args) -> int:
    g, w, start = _load_problem(args.path)
    kappa = _parse_kappa(args.kappa)
    ks = KappaSpec.constant(kappa)
    res = conversion(g, w, start, ks)
    psi_fk = evaluate_at(solve_survival(g, w, ks), start)
    cfg = mc_mod.SimConfig(step=args.delta, trajectories=args.n, seed=args.seed)
    est = mc_mod.simulate(g, w, ks, start, cfg)
    ok = abs(est.mean - res.psi) <= 4.0 * est.standard_error
    print("method,alpha,psi,se,status")
    print(f"kac,{_fmt(res.alpha)},{_fmt(res.psi)},,")
    print(f"fk,{_fmt(1.0 - psi_fk)},{_fmt(psi_fk)},,")
    print(
        f"mc,{_fmt(1.0 - est.mean)},{_fmt(est.mean)},{_fmt(est.standard_error)},"
        + ("pass" if ok else "FAIL")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphreact",
        description="reaction probabilities on metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="conversion probability at one kappa")
    p.add_argument("path")
    p.add_argument("--kappa", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("sweep", help="conversion over a kappa grid, CSV")
    p.add_argument("path")
    p.add_argument("--kappa-min", type=float, required=True)
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--spacing", choices=("linear", "geometric"), default="linear")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rational", help="conversion curve as polynomial ratio")
    p.add_argument("path")
    p.set_defaults(func=cmd_rational)

    p = sub.add_parser("green", help="local-time matrix of the active sites")
    p.add_argument("path")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("hit", help="first-hit split over the active sites")
    p.add_argument("path")
    p.set_defaults(func=cmd_hit)

    p = sub.add_parser("mc", help="Monte Carlo survival estimate, CSV")
    p.add_argument("path")
    p.add_argument("--kappa", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cap", type=int, default=5_000_000,
                   help="most vertex transitions per trajectory (default 5000000)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("diffuse", help="diffuse-zone collapse table, CSV")
    p.add_argument("path")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--diffusion", type=float, required=True)
    p.add_argument("--h-list", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("compare", help="kac vs direct solve vs Monte Carlo")
    p.add_argument("path")
    p.add_argument("--kappa", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--n", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    return parser


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are input errors
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DocumentError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except GraphReactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
