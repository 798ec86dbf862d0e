"""Survival and conversion probabilities on the sites' reduced network.

Killing a diffusion at rate kappa per unit of local time at the active
vertices turns survival into linear algebra on the sites.  With L the
Laplacian of the walk watched on them, the inverse of the local-time
matrix G, and M_kappa the diagonal of site strengths, the survival
probabilities started on the sites solve (L + M_kappa) psi = L 1, whose
right side is each site's rate to the exits.  The first-hit split takes
that to any start point.  For uniform kappa the eigenvectors of L make
the curve a mixture of single-site curves lam kappa / (1 + lam kappa),
one per eigenvalue 1/lam of L: its closed rational form in kappa.

L and the splits do not depend on kappa, and harmonic memoizes them on
the graph.  conversion_curve takes a whole kappa grid: only the
diagonal and the scaling of the survival system move with kappa, so the
systems of its points are stacked for algebra.solve_many; conversion is
its one-point case, on the same survival_on_active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import algebra
from .algebra import Polynomial, RationalForm
from .errors import PreconditionError, SingularSystemError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, require_valid
from .harmonic import HittingSplit, SiteNetwork, green_matrix, site_network


@dataclass(frozen=True)
class KappaSpec:
    """Reaction strength per active site, in 1/length units.

    Either one uniform value for every site, or a per-site map.  Values
    must be >= 0; infinity means instant absorption at the site.
    """

    uniform: float | None = None
    per_site: dict[str, float] | None = None

    def __post_init__(self):
        if (self.uniform is None) == (self.per_site is None):
            raise PreconditionError("specify exactly one of uniform or per_site")
        values = [self.uniform] if self.per_site is None else self.per_site.values()
        for v in values:
            if math.isnan(v) or v < 0:
                raise PreconditionError(f"kappa values must be >= 0, got {v!r}")

    @classmethod
    def constant(cls, value: float) -> KappaSpec:
        return cls(uniform=float(value))

    @classmethod
    def per_vertex(cls, mapping: Mapping[str, float]) -> KappaSpec:
        return cls(per_site={k: float(v) for k, v in mapping.items()})

    @property
    def is_uniform(self) -> bool:
        return self.per_site is None

    def values(self, sites: Sequence[str]) -> np.ndarray:
        if self.per_site is None:
            return np.full(len(sites), self.uniform)
        missing = [s for s in sites if s not in self.per_site]
        if missing:
            raise PreconditionError(f"kappa missing for active sites {missing}")
        return np.array([self.per_site[s] for s in sites], dtype=float)


def strengths(specs: Sequence[KappaSpec], sites: Sequence[str]) -> np.ndarray:
    """kappa at the sites for each spec, one row per spec: (K, len(sites))."""
    m = len(sites)
    rows = [[ks.uniform] * m if ks.is_uniform else ks.values(sites) for ks in specs]
    return np.array(rows, dtype=float).reshape(len(specs), m)


@dataclass(frozen=True)
class ConversionResult:
    """Conversion probability alpha and survival psi = 1 - alpha.

    ``site_survival[j]`` is the survival probability started at active
    site j; the per-site contributions to survival are
    ``p[j] * site_survival[j]``, alpha = alpha_inf * (sum of p[j] * (1 -
    site_survival[j])), kept within [0, alpha_inf] against roundoff, and
    psi = (1 - alpha_inf) + alpha_inf * (sum of those contributions), kept
    within [1 - alpha_inf, 1]: each 1 - site_survival[j] is solved for where
    it is the smaller, so neither loses its digits far below 1e-16.
    """

    alpha: float
    psi: float
    alpha_inf: float
    sites: tuple[str, ...]
    p: tuple[float, ...]
    site_survival: tuple[float, ...]

    @property
    def breakdown(self) -> tuple[float, ...]:
        return tuple(pj * sj for pj, sj in zip(self.p, self.site_survival))


def survival_on_active(net: SiteNetwork, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Survival psi, (L + M_kappa) psi = L 1, and conversion phi = 1 - psi started
    on the active set, for strengths kappa of shape (m,), or (K, m) for a stack
    of K points; each has the shape of kappa.

    The same solve gives phi from (L + M_kappa) phi = M_kappa 1; each is
    accurate where it is the smaller, and the other is 1 minus it.  The
    columns are scaled by s_j = 1/max(1, kappa_j), so nothing overflows at huge
    finite kappa; an infinite kappa_j is s_j = 0: the site absorbs, psi_j = 0,
    and phi_j = 1 moves -L[:, j] to phi's right side.  The systems
    L S + diag(min(kappa, 1)) of a stack are one stack for algebra.solve_many.
    """
    m = kappa.shape[-1]
    s = 1.0 / np.maximum(kappa, 1.0)
    a = net.laplacian * s[..., None, :]
    a.reshape(-1, m * m)[:, :: m + 1] += np.minimum(kappa, 1.0)
    kill = kappa
    gone = np.isinf(kappa)
    if gone.any():
        kill = np.where(gone, 0.0, kappa) - (net.laplacian @ gone[..., None])[..., 0]
    rhs = np.empty((*kappa.shape, 2))
    rhs[..., 0] = net.exit_rates
    rhs[..., 1] = kill
    sol = s[..., None] * algebra.solve_many(a, rhs)
    psi, phi = sol[..., 0], sol[..., 1]
    small = phi < psi
    return np.where(small, 1.0 - phi, psi), np.where(small, phi, 1.0 - psi)


def conversion(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str, ks: KappaSpec
) -> ConversionResult:
    """Conversion probability from start point x at strengths ks: the
    one-point case of conversion_curve, one row of survival_on_active."""
    net = site_network(g, w)
    hs = net.split(g, x)
    if not hs.active:
        return _NO_SITES
    return _result(hs, ks, *survival_on_active(net, ks.values(hs.active)))


def conversion_curve(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str, specs: Sequence[KappaSpec]
) -> list[ConversionResult]:
    """Conversion probability from start point x at each strength in specs.

    The survival solves on the active set are stacked in blocks of
    algebra.blocks; each result is the one that conversion gives at its
    kappa alone.
    """
    net = site_network(g, w)
    hs = net.split(g, x)
    if not hs.active:
        return [_NO_SITES] * len(specs)
    kappa = strengths(specs, hs.active)
    solved = np.empty((2, *kappa.shape))  # the survivals, then the conversions
    for block in algebra.blocks(len(kappa), len(hs.active)):
        solved[:, block] = survival_on_active(net, kappa[block])
    return [_result(hs, ks, *pair) for ks, pair in zip(specs, zip(*solved))]


_NO_SITES = ConversionResult(0.0, 1.0, 0.0, (), (), ())


def _result(hs: HittingSplit, ks: KappaSpec, ratios, converted) -> ConversionResult:
    """Conversion from the split and the site survivals and conversions at
    ks; at uniform kappa 0, alpha is 0 and psi 1 exactly."""
    alpha_inf = hs.alpha_inf
    if (ks.is_uniform and ks.uniform == 0.0) or alpha_inf == 0.0:
        alpha, psi = 0.0, 1.0
    else:
        # each from its own column keeps its digits where it is far below the
        # other; both are kept within their ranges, as p may sum an ulp above 1
        alpha = min(max(alpha_inf * float(hs.p @ converted), 0.0), alpha_inf)
        held = float(hs.p @ ratios)
        psi = min(max((1.0 - alpha_inf) + alpha_inf * held, 1.0 - alpha_inf), 1.0)
    return ConversionResult(alpha, psi, alpha_inf, hs.active, tuple(hs.p.tolist()),
                            tuple(ratios.tolist()))


def _running_products(lam: np.ndarray) -> list[np.ndarray]:
    """Ascending coefficients of prod_{k < i} (1 + t lam_k), i = 0..len(lam)."""
    out = [np.ones(1, dtype=complex)]
    for value in lam:
        out.append(np.convolve(out[-1], (1.0, value)))
    return out


def rational_form(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str
) -> RationalForm:
    """Conversion as an explicit ratio of polynomials in kappa.

    With L = V diag(mu) V^-1, G = L^-1 has eigenvalues lambda = 1/mu on
    the same vectors; with c = (p V) * (V^-1 1), whose entries sum to 1,
    the curve is a mixture of single-site curves:

        alpha = alpha_inf * sum_i c_i kappa lambda_i / (1 + kappa lambda_i).

    The denominator is prod_i (1 + kappa lambda_i) = det(I + kappa G); the
    numerator, alpha_inf * sum_i c_i lambda_i kappa prod_{k != i} (1 +
    kappa lambda_k), comes from prefix and suffix products, which stay
    accurate where dividing the denominator by each factor does not.
    Explicit weights on cycles can make the spectrum complex; the
    coefficients are then real up to roundoff and their real parts kept.
    Coefficients that a float cannot hold raise SingularSystemError.
    """
    net = site_network(g, w)
    hs = net.split(g, x)
    if not hs.active:
        return RationalForm(Polynomial(), Polynomial((1.0,)))
    mu, vecs = np.linalg.eig(net.laplacian)
    lam = 1.0 / mu
    try:
        c = (hs.p @ vecs) * np.linalg.solve(vecs, np.ones(len(lam)))
    except np.linalg.LinAlgError:
        raise SingularSystemError("Green matrix is not diagonalizable") from None
    m = len(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        prefix, suffix = _running_products(lam), _running_products(lam[::-1])
        num = sum(c[i] * lam[i] * np.convolve(prefix[i], suffix[m - 1 - i]) for i in range(m))
    if not (np.isfinite(num).all() and np.isfinite(prefix[m]).all()):
        # the coefficients are elementary symmetric sums of the spectrum;
        # on a uniform unit chain they pass 1e308 between 500 and 600 sites
        raise SingularSystemError("rational coefficients overflow a float")
    return RationalForm(
        Polynomial((0.0, *(hs.alpha_inf * num.real))), Polynomial(tuple(prefix[m].real))
    )


def chain_alpha_recursive(lengths: Sequence[float], kappa: float) -> float:
    """Conversion on a chain of interior sites, by one-line recursion.

    ``lengths`` are the m+1 consecutive gaps: entrance to the first
    site, between sites, and last site to the exit (the first entry
    never enters the result).  Starting from g = 1, each site multiplies
    up g <- g + gap * (running sum of g's) * kappa, and alpha is
    (g - 1)/g at the exit.  g overflows on long chains, so the loop
    carries q = 1/g and r = (running sum)/g instead: with
    f = 1 + gap * r * kappa, q <- q/f and r <- r/f + 1, and alpha = 1 - q.
    This recursion corresponds to the unweighted
    Kirchhoff convention: it matches the weighted-convention engines on
    the same chain after the substitution kappa -> 2 * kappa.
    """
    if len(lengths) < 2:
        raise PreconditionError("need at least entrance and exit gaps (m >= 1)")
    if any(l <= 0 for l in lengths):
        raise PreconditionError("gap lengths must be positive")
    if math.isnan(kappa) or kappa < 0 or math.isinf(kappa):
        raise PreconditionError(f"kappa must be finite and >= 0, got {kappa!r}")
    q = r = 1.0
    for gap in lengths[1:]:
        f = 1.0 + gap * r * kappa
        q /= f
        r = r / f + 1.0
    return 1.0 - q


def placement_leading_coeff(g: MetricGraph, w: EdgeWeights) -> float:
    """Top-degree denominator coefficient of the conversion curve on a chain.

    This is the large-kappa growth coefficient used by the site-placement
    experiment; it requires a chain (every vertex of degree at most 2,
    one exit).  A coefficient that overflows a float raises
    SingularSystemError.
    """
    require_valid(g)
    if np.any(np.bincount(g.half_edge_table.source) > 2):
        raise PreconditionError("placement coefficient is defined for chains only")
    if len(g.exit_vertices) != 1:
        raise PreconditionError("chain must have exactly one exit")
    if not g.active_vertices:
        raise PreconditionError("chain has no active vertices")
    # the top coefficient of det(I + tG) is det(G)
    return algebra.det(green_matrix(g, w).entries)
