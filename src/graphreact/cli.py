"""Command-line front end.

Exit codes: 0 success, 1 input or validation problem (or a reader that
closed stdout early), 2 numerical failure.  The route modules return
data; this module alone renders it.  Every float prints through ``_fmt``,
12 significant digits with -0.0 folded into 0, and every table through
``_table``; each subcommand writes its output once, through ``_emit``,
to stdout or --out.  Randomness enters only through --seed.  ``main``
builds its parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import diffuse as diffuse_mod
from . import mc as mc_mod
from .document import load_document, parse_document, prepare
from .errors import DocumentError, GraphReactError, PreconditionError, SingularSystemError
from .feynman_kac import conversion_at, evaluate_at, solve_survival, survival_curve
from .kac import KappaSpec, conversion, conversion_curve, rational_form
from .harmonic import flux_coefficients, green_matrix, hitting_split


_ROUTE_TOL = 1e-9  # how far two routes to the same survival may differ


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # adding 0.0 folds -0.0 into 0.0


def _row(cells) -> str:
    return ",".join(_fmt(c) if isinstance(c, float) else str(c) for c in cells)


def _table(header: str, rows) -> list[str]:
    """A CSV table's lines: the header, then one line per row of cells."""
    return [header, *map(_row, rows)]


def _emit(lines, out: str | None = None) -> None:
    """Write the lines, each ended by a newline, to the file out or to stdout."""
    text = "\n".join(lines) + "\n"
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:  # a missing directory, or a directory
            raise DocumentError(f"cannot write {out}: {exc.strerror or exc}") from None
        with fh:
            fh.write(text)
    elif not hasattr(sys.stdout, "buffer"):  # a text stream, such as io.StringIO
        sys.stdout.write(text)
    else:
        # an unbuffered stdout drops what a closing reader cut short: write it all, or EPIPE
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data):]


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
    parsed = parse_document(load_document(args.path))
    if parsed.graph.violations:
        _emit(parsed.graph.violations)
        return 1
    # the injection and the weights, as every other command reads them
    g, w, _ = prepare(parsed)
    # a weight lies in (0, 1], so p/l can overflow only on a length at or
    # below the float nearest 1/max, where 1/l is already inf, and can
    # underflow only if the smallest weight over the longest length does;
    # a valid graph has an edge at each exit
    lengths = [e.length for e in g.edges]
    if (min(lengths) <= 1.0 / sys.float_info.max
            or min(w.p.values()) / max(lengths) == 0.0):
        flux_coefficients(g, w)
    _emit(["OK"])
    return 0


def cmd_convert(args) -> int:
    g, w, start = _load_problem(args.path)
    ks = KappaSpec.constant(_parse_kappa(args.kappa))
    result = conversion(g, w, start, ks)
    alpha_fk = conversion_at(solve_survival(g, w, ks), start)
    lines = [
        f"alpha_kac = {_fmt(result.alpha)}",
        f"psi_kac   = {_fmt(result.psi)}",
        f"alpha_fk  = {_fmt(alpha_fk)}",
        f"diff      = {_fmt(abs(result.alpha - alpha_fk))}",
        f"alpha_inf = {_fmt(result.alpha_inf)}",
    ]
    if result.sites:
        lines += _table("site,p,site_survival,term", zip(
            result.sites, result.p, result.site_survival, result.breakdown))
    _emit(lines)
    return 0


def cmd_sweep(args) -> int:
    g, w, start = _load_problem(args.path)
    if args.steps < 2:
        raise DocumentError("steps must be >= 2")
    if not (math.isfinite(args.kappa_min) and math.isfinite(args.kappa_max)):
        raise DocumentError("kappa-min and kappa-max must be finite")
    if not (0 <= args.kappa_min < args.kappa_max):
        raise DocumentError("need 0 <= kappa-min < kappa-max")
    if args.spacing == "geometric" and args.kappa_min <= 0:
        raise DocumentError("geometric spacing needs kappa-min > 0")
    # near the largest float the last point can round past it on the way
    # (10**log10(kappa_max), or (steps - 1) * step + kappa_min); both grids
    # then set their ends to the exact inputs
    with np.errstate(over="ignore"):
        if args.spacing == "geometric":
            grid = np.geomspace(args.kappa_min, args.kappa_max, args.steps)
        else:
            grid = np.linspace(args.kappa_min, args.kappa_max, args.steps)
    specs = [KappaSpec.constant(kappa) for kappa in grid.tolist()]
    rows = []
    for kappa, res, field in zip(grid.tolist(), conversion_curve(g, w, start, specs),
                                 survival_curve(g, w, specs)):
        rows += [(kappa, res.alpha, res.psi, "kac"),
                 (kappa, conversion_at(field, start), evaluate_at(field, start), "fk")]
    _emit(_table("kappa,alpha,psi,method", rows), args.out)
    return 0


def cmd_rational(args) -> int:
    g, w, start = _load_problem(args.path)
    form = rational_form(g, w, start)
    _emit([_row(("numerator", *(form.numerator.coeffs or (0.0,)))),
           _row(("denominator", *form.denominator.coeffs))])
    return 0


def cmd_green(args) -> int:
    g, w, _ = _load_problem(args.path, need_injection=False)
    gm = green_matrix(g, w)
    _emit(_table(_row(("site", *gm.active)),
                 ((site, *row) for site, row in zip(gm.active, gm.entries.tolist()))))
    return 0


def cmd_hit(args) -> int:
    g, w, start = _load_problem(args.path)
    hs = hitting_split(g, w, start)
    _emit([f"alpha_inf = {_fmt(hs.alpha_inf)}", *_table("site,p", zip(hs.active, hs.p.tolist()))])
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
    _emit(_table("kappa,mean,se,n,delta,seed", [
        (kappa, est.mean, est.standard_error, est.trajectories, cfg.step, cfg.seed)]))
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
    _emit(_table("h,psi_h,psi_limit,abs_err",
                 ((r.h, r.psi_h, r.psi_limit, r.abs_err) for r in rows)), args.out)
    return 0


def cmd_compare(args) -> int:
    g, w, start = _load_problem(args.path)
    kappa = _parse_kappa(args.kappa)
    ks = KappaSpec.constant(kappa)
    res = conversion(g, w, start, ks)
    field = solve_survival(g, w, ks)
    cfg = mc_mod.SimConfig(step=args.delta, trajectories=args.n, seed=args.seed)
    est = mc_mod.simulate(g, w, ks, start, cfg)
    # four standard errors, and never less than the cross-route tolerance:
    # a product that is the same on every walk has standard error 0
    ok = abs(est.mean - res.psi) <= 4.0 * est.standard_error + _ROUTE_TOL
    _emit(_table("method,alpha,psi,se,status", [
        ("kac", res.alpha, res.psi, "", ""),
        ("fk", conversion_at(field, start), evaluate_at(field, start), "", ""),
        ("mc", 1.0 - est.mean, est.mean, est.standard_error, "pass" if ok else "FAIL"),
    ]))
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
                   help="most moves per trajectory between the walk's states, the sites, "
                        "exits and start (default 5000000)")
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so
        # that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DocumentError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except GraphReactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
