"""The three benchmark workloads.

Each workload has a ``setup`` (the program's own set-up work, timed by
the caller) and a ``round`` that runs a fixed list of operations, times
each one alone and checks every output.  A round always attempts the
same operations, so the share of failed operations does not depend on
how many rounds fit in a run.  Inputs come from ``numpy`` generators
seeded with ``[seed, ...]``: the same seed gives the same inputs.

Timing: the machine is shared, and other tenants' load changes the speed
of a run by tens of percent from one minute to the next; it only ever
adds time.  So every operation keeps the best of its times over the
rounds of a run, and the end-to-end figures are built from those best
times: ``round_s`` is their sum, the time of one round at its best, and
``op_ms_gmean`` is their geometric mean.  Every workload reports both.
Checks never run inside a stopwatch, and the tracer's operation id is 0
outside timed operations, so the spans of checks are left out of the
per-layer figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

# called through their modules, so that the tracer's wrappers are seen
from graphreact import cli, diffuse, document, feynman_kac, kac, mc
from graphreact.fixtures import fixture_suite
from graphreact.kac import KappaSpec, chain_alpha_recursive

from graphs import active_ids, chain_doc, random_graph_doc, reference_survival

TOL_ROUTES = 1e-9  # kac against fk, rational form against conversion
TOL_REF = 1e-8  # against the sparse reference solve
TOL_FIXTURE = 1e-9  # against the closed forms (12 printed digits)


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _load(path):
    return document.prepare(document.parse_document(document.load_document(path)))


class Workload:
    """Shared bookkeeping: operation ids, stopwatch, problems found."""

    setups_per_round = 5

    def __init__(self, root: Path, seed: int, out: Path, tracer) -> None:
        self.root = root
        self.seed = seed
        self.out = out
        self.tracer = tracer
        self.problems: list[str] = []
        self.samples: dict[object, list[float]] = {}
        self.next_op = 1

    def timed(self, key, fn, *args):
        """Run one operation under the stopwatch; returns its result.

        ``key`` names the operation within a round; its times over the
        rounds are kept in ``samples[key]``.
        """
        self.tracer.op = self.next_op
        self.next_op += 1
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            seconds = perf_counter() - t0
            self.tracer.op = 0
            self.samples.setdefault(key, []).append(seconds)

    def best(self, key) -> float:
        return min(self.samples[key])

    def end_to_end(self) -> dict:
        best = [self.best(key) for key in self.samples]
        return {"round_s": (sum(best), "s"),
                "op_ms_gmean": (statistics.geometric_mean(best) * 1e3, "ms")}

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def near(self, got: float, want: float, tol: float, what: str) -> None:
        self.check(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} (tol {tol})")

    def collapse_ratios(self, name: str, errors: list[float]) -> None:
        """First-order collapse: the error falls about tenfold per decade of h."""
        for e1, e2 in zip(errors, errors[1:]):
            self.check(5.0 <= e1 / e2 <= 20.0, f"{name}: collapse error ratio {e1 / e2}")


# ---------------------------------------------------------------- fixture-cli


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


class FixtureCli(Workload):
    """Every fixture document through ``graphreact.cli.main``.

    Per round and document: validate, convert, sweep, rational, green and
    hit; diffuse on the documents whose fixture carries a zone.  kappa,
    the sweep range and the zone rate are drawn anew each round.
    """

    setups_per_round = 1  # 170 rounds or more in a run
    h_list = (1e-3, 1e-4, 1e-5, 1e-6)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        by_name = {f.name: f for f in fixture_suite()}
        self.paths = sorted((self.root / "fixtures").glob("*.json"))
        self.fixtures = [by_name[p.stem] for p in self.paths]

    def setup(self) -> None:
        for path in self.paths:
            _load(path)

    def _call(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.timed((argv[0], argv[1]), cli.main, argv)
        self.check(code == 0, f"exit code {code} from {' '.join(argv)}")
        return out.getvalue()

    def round(self, r: int) -> tuple[int, int]:
        rng = np.random.default_rng([self.seed, r, 1])
        calls = 0
        for path, fx in zip(self.paths, self.fixtures):
            doc = str(path)
            kappa = loguniform(rng, 0.05, 20.0)
            kmin, kmax = loguniform(rng, 0.01, 0.1), loguniform(rng, 10.0, 100.0)
            out = {
                "validate": self._call(["validate", doc]),
                "convert": self._call(["convert", doc, "--kappa", repr(kappa)]),
                "sweep": self._call(["sweep", doc, "--kappa-min", repr(kmin),
                                     "--kappa-max", repr(kmax), "--steps", "6",
                                     "--spacing", "geometric"]),
                "rational": self._call(["rational", doc]),
                "green": self._call(["green", doc]),
                "hit": self._call(["hit", doc]),
            }
            calls += 6
            self._check_fixture(fx, kappa, out)
            if fx.zone is not None:
                # the first-order collapse coefficient of this fixture,
                # rate (rate/6 - 1/2), vanishes at rate 3: stay well below
                rate = loguniform(rng, 0.1, 1.5)
                text = self._call(["diffuse", doc, "--k", repr(rate), "--delta", "1",
                                   "--diffusion", "1", "--h-list", ",".join(map(repr, self.h_list))])
                calls += 1
                self._check_collapse(fx, rate, text)
        return calls, 0

    def _check_fixture(self, fx, kappa: float, out: dict) -> None:
        name = fx.name
        expected = fx.expected_alpha
        self.check(out["validate"].strip() == "OK", f"{name}: validate printed {out['validate']!r}")

        conv = dict(line.split(" = ") for line in out["convert"].splitlines() if " = " in line)
        conv = {key.strip(): float(value) for key, value in conv.items()}
        want = expected(kappa)
        self.near(conv["alpha_kac"], want, TOL_FIXTURE, f"{name}: convert alpha_kac")
        self.near(conv["alpha_fk"], want, TOL_FIXTURE, f"{name}: convert alpha_fk")
        self.near(conv["alpha_kac"], conv["alpha_fk"], TOL_ROUTES, f"{name}: kac against fk")
        self.near(conv["alpha_inf"], fx.expected_alpha_inf, TOL_FIXTURE, f"{name}: alpha_inf")

        rows = _rows(out["sweep"])
        self.check(rows[0] == ["kappa", "alpha", "psi", "method"] and len(rows) == 13,
                   f"{name}: sweep table shape")
        for k, alpha, _psi, method in rows[1:]:
            self.near(float(alpha), expected(float(k)), TOL_FIXTURE, f"{name}: sweep {method} at {k}")

        rows = {row[0]: row[1:] for row in _rows(out["rational"])}
        num = np.polynomial.Polynomial([float(c) for c in rows["numerator"]])
        den = np.polynomial.Polynomial([float(c) for c in rows["denominator"]])
        self.near(num(kappa) / den(kappa), want, TOL_FIXTURE, f"{name}: rational form")

        hit = _rows(out["hit"])
        alpha_inf = float(hit[0][0].split(" = ")[1])
        p = np.array([float(row[1]) for row in hit[2:]])
        self.near(alpha_inf, fx.expected_alpha_inf, TOL_FIXTURE, f"{name}: hit alpha_inf")
        self.near(float(p.sum()), 1.0, TOL_FIXTURE, f"{name}: hit split sums to 1")

        # alpha = alpha_inf (1 - p . (I + kappa G)^-1 1) from the printed G and split
        green = _rows(out["green"])
        self.check(green[0][1:] == [row[0] for row in hit[2:]], f"{name}: green and hit sites")
        g = np.array([[float(v) for v in row[1:]] for row in green[1:]])
        psi = np.linalg.solve(np.eye(len(g)) + kappa * g, np.ones(len(g)))
        self.near(alpha_inf * (1.0 - p @ psi), want, TOL_REF, f"{name}: alpha from green and hit")

    def _check_collapse(self, fx, rate: float, text: str) -> None:
        # survival at the closed end with zone scale h (fixture notes):
        # 1 / [cosh(mu h d) + mu sinh(mu h d) (L - h d)], mu = sqrt(rate / (h D))
        length, delta, diffusion = 1.0, 1.0, 1.0
        rows = [[float(v) for v in row] for row in _rows(text)[1:]]
        self.check(len(rows) == len(self.h_list), f"{fx.name}: diffuse rows")
        for h, psi_h, psi_limit, _err in rows:
            mu = math.sqrt(rate / (h * diffusion))
            z = mu * h * delta
            want = 1.0 / (math.cosh(z) + mu * math.sinh(z) * (length - h * delta))
            self.near(psi_h, want, TOL_FIXTURE * want, f"{fx.name}: diffuse psi_h at h={h}")
            self.near(psi_limit, 1.0 - fx.expected_alpha(rate * delta / diffusion),
                      TOL_FIXTURE, f"{fx.name}: diffuse limit")
        self.collapse_ratios(fx.name, [row[3] for row in rows])


# --------------------------------------------------------------- large-graphs


def _fk_alpha(g, w, ks, start) -> float:
    return 1.0 - feynman_kac.evaluate_at(feynman_kac.solve_survival(g, w, ks), start)


def _sweep(g, w, start, grid) -> list[tuple[float, float, float]]:
    """What ``graphreact sweep`` computes per point: kac and fk alpha."""
    rows = []
    for kappa in grid:
        ks = KappaSpec.constant(float(kappa))
        rows.append((float(kappa), kac.conversion(g, w, start, ks).alpha,
                     _fk_alpha(g, w, ks, start)))
    return rows


class LargeGraphs(Workload):
    """Generated chains, trees and cyclic graphs through the library API."""

    sweep_points = 8
    h_list = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7]
    convert_on = ("chain10", "chain40", "chain160", "tree100", "tree250x", "tree500",
                  "cyclic100x", "cyclic300")
    sweep_on = ("chain10", "chain40", "tree100", "cyclic100x")
    # at 4 sites rational_form keeps 1e-9 agreement with conversion
    rational_on = ("tree100", "tree250x", "tree500", "cyclic100x", "cyclic300")
    diffuse_on = "chain40"
    # a uniform chain this long makes rational_form raise, whatever the seed
    failing = "chain13u"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        # The shapes are the same for every seed: their conditioning sets how
        # many refinement passes algebra.solve_many makes, and so the cost.
        # The seed draws kappa, the sweep ranges and the zone rate.
        rng = np.random.default_rng(20150127)
        self.gaps = {f"chain{m}": [float(x) for x in rng.uniform(0.5, 1.5, m + 1)]
                     for m in (10, 40, 160)}
        self.docs = {name: chain_doc(gaps) for name, gaps in self.gaps.items()}
        for name, n, chords, explicit in (
            ("tree100", 100, 0, False),
            ("tree250x", 250, 0, True),
            ("tree500", 500, 0, False),
            ("cyclic100x", 100, 10, True),
            ("cyclic300", 300, 30, False),
        ):
            self.docs[name] = random_graph_doc(rng, n, 4, chords, explicit)
        self.docs[self.failing] = chain_doc([1.0] * 14)
        self.out.mkdir(parents=True, exist_ok=True)
        self.paths = {name: self.out / f"{name}.json" for name in self.docs}
        for name, doc in self.docs.items():
            self.paths[name].write_text(json.dumps(doc))

    def setup(self) -> None:
        # new problem objects before every round, so one-shot operations stay one-shot
        self.problems_of = {name: _load(path) for name, path in self.paths.items()}

    def _reference_alpha(self, name: str, kappa: float | dict, start: str) -> float:
        if not isinstance(kappa, dict):
            kappa = dict.fromkeys(active_ids(self.docs[name]), kappa)
        return 1.0 - reference_survival(self.docs[name], kappa)[start]

    def round(self, r: int) -> tuple[int, int]:
        rng = np.random.default_rng([self.seed, r, 2])
        probs = self.problems_of
        attempted = failed = 0
        uniform, alpha_kac = {}, {}

        for name in self.convert_on:
            g, w, start = probs[name]
            kappa = uniform[name] = loguniform(rng, 0.1, 10.0)
            res = self.timed(("convert", name), kac.conversion, g, w, start,
                             KappaSpec.constant(kappa))
            alpha_kac[name] = res.alpha
            self.near(res.alpha, self._reference_alpha(name, kappa, start), TOL_REF,
                      f"{name}: conversion at kappa={kappa}")
            if name in self.gaps:
                self.near(res.alpha, chain_alpha_recursive(self.gaps[name], 2.0 * kappa),
                          TOL_ROUTES, f"{name}: conversion against the chain recursion")
        for name in self.convert_on:
            g, w, start = probs[name]
            kappa = {s: loguniform(rng, 0.1, 10.0) for s in active_ids(self.docs[name])}
            res = self.timed(("convert-per-site", name), kac.conversion, g, w, start,
                             KappaSpec.per_vertex(kappa))
            self.near(res.alpha, self._reference_alpha(name, kappa, start), TOL_REF,
                      f"{name}: per-site conversion")
        for name in self.convert_on:
            g, w, start = probs[name]
            alpha = self.timed(("fk", name), _fk_alpha, g, w,
                               KappaSpec.constant(uniform[name]), start)
            self.near(alpha, alpha_kac[name], TOL_ROUTES, f"{name}: fk against kac")
        attempted += 3 * len(self.convert_on)

        for name in self.sweep_on:
            g, w, start = probs[name]
            grid = np.geomspace(loguniform(rng, 0.05, 0.2), loguniform(rng, 5.0, 10.0),
                                self.sweep_points)
            for kappa, a_kac, a_fk in self.timed(("sweep", name), _sweep, g, w, start, grid):
                self.near(a_kac, a_fk, TOL_ROUTES, f"{name}: sweep kac against fk at {kappa}")
                self.near(a_kac, self._reference_alpha(name, kappa, start), TOL_REF,
                          f"{name}: sweep at {kappa}")
        attempted += len(self.sweep_on)

        for name in self.rational_on:
            g, w, start = probs[name]
            form = self.timed(("rational", name), kac.rational_form, g, w, start)
            self.near(form(uniform[name]), alpha_kac[name], TOL_ROUTES, f"{name}: rational form")
        attempted += len(self.rational_on)

        name = self.diffuse_on
        g, w, start = probs[name]
        rate = loguniform(rng, 0.1, 10.0)
        zone = diffuse.ActiveZoneSpec(rate=rate, delta=1.0, diffusion=1.0, h=self.h_list[0])
        rows = self.timed(("diffuse", name), diffuse.collapse_study, g, w, zone,
                          self.h_list, start)
        psi_ref = reference_survival(self.docs[name],
                                     dict.fromkeys(active_ids(self.docs[name]), rate))[start]
        for row in rows:
            self.near(row.psi_limit, psi_ref, TOL_REF * psi_ref, f"{name}: collapse limit")
        self.collapse_ratios(name, [row.abs_err for row in rows])
        attempted += 1

        # the known failure, untimed: its spans carry operation id 0, so it
        # stays out of every end-to-end and per-layer figure
        g, w, start = probs[self.failing]
        try:
            form = kac.rational_form(g, w, start)
        except Exception:  # noqa: BLE001 - any raise counts as a failed operation
            failed += 1
        else:
            kappa = uniform["chain10"]
            want = kac.conversion(g, w, start, KappaSpec.constant(kappa)).alpha
            self.near(form(kappa), want, TOL_ROUTES, f"{self.failing}: rational form")
        attempted += 1
        return attempted, failed


# ------------------------------------------------------------------ mc-oracle


class McCase(NamedTuple):
    name: str
    path: Path
    step: float
    trajectories: int
    alpha: Callable[[float], float] | None  # closed form, else the sparse solve


class McOracle(Workload):
    """Monte Carlo survival estimates on prepared grids.

    Fine steps on ``path_site`` and ``chain_m3`` (step 0.05) put the time
    in interior steps; a coarse step on a generated 50-vertex tree puts
    it in vertex visits.  Every round repeats the same three estimates,
    and each repeat must match the first bit for bit.  The seed draws
    kappa, which changes the survival weights but not the walk.  The
    tree and the Monte Carlo seeds are the same for every seed: the
    tree's geometry sets the trajectory length, and the streams decide
    the longest trajectory, whose tail of nearly empty steps is a fifth
    of the cost of an estimate.
    """

    setups_per_round = 20  # a set-up takes about 2 ms
    fine_step = 0.05
    coarse_step = 0.8

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.tree = random_graph_doc(np.random.default_rng(20150126), 50, 3, n_exit=2,
                                     lengths=(0.8, 1.6))
        self.out.mkdir(parents=True, exist_ok=True)
        tree_path = self.out / "tree50.json"
        tree_path.write_text(json.dumps(self.tree))
        fixtures = self.root / "fixtures"
        by_name = {f.name: f for f in fixture_suite()}
        self.cases = [
            McCase("path_site", fixtures / "path_site.json", self.fine_step, 8192,
                   by_name["path_site"].expected_alpha),
            McCase("chain_m3", fixtures / "chain_m3.json", self.fine_step, 4096,
                   by_name["chain_m3"].expected_alpha),
            McCase("tree50", tree_path, self.coarse_step, 16384, None),
        ]
        rng = np.random.default_rng([self.seed, 3])
        self.kappa = {c.name: loguniform(rng, 0.2, 5.0) for c in self.cases}
        streams = np.random.default_rng(20150128)
        self.cfg = {c.name: mc.SimConfig(step=c.step, trajectories=c.trajectories,
                                         seed=int(streams.integers(2**62))) for c in self.cases}
        self.first: dict[str, mc.SimEstimate] = {}

    def setup(self) -> None:
        self.grids = []
        for case in self.cases:
            g, w, start = _load(case.path)
            self.grids.append((mc.build_grid(g, w, case.step), start))

    def round(self, r: int) -> tuple[int, int]:
        for case, (grid, start) in zip(self.cases, self.grids):
            name = case.name
            ks = KappaSpec.constant(self.kappa[name])
            est = self.timed(name, mc.estimate_survival, grid, ks, start, self.cfg[name])
            if r == 0:
                self.first[name] = est
                self._check_estimate(case, est, start)
            else:
                self.check(est == self.first[name],
                           f"{name}: rerun under seed {self.cfg[name].seed} gave {est}, "
                           f"first run {self.first[name]}")
        return len(self.cases), 0

    def _check_estimate(self, case: McCase, est, start: str) -> None:
        kappa = self.kappa[case.name]
        if case.alpha is not None:
            psi = 1.0 - case.alpha(kappa)
        else:
            psi = reference_survival(self.tree, dict.fromkeys(active_ids(self.tree), kappa))[start]
        self.check(est.capped == 0, f"{case.name}: {est.capped} trajectories capped")
        self.check(abs(est.mean - psi) <= 4.0 * est.standard_error,
                   f"{case.name}: estimate {est.mean} +- {est.standard_error}, reference {psi}")


WORKLOADS = {
    "fixture-cli": FixtureCli,
    "large-graphs": LargeGraphs,
    "mc-oracle": McOracle,
}
