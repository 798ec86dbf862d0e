"""Survival and conversion probabilities from the Green matrix.

Killing a diffusion at rate kappa per unit of local time at the active
vertices turns survival into linear algebra on the local-time matrix G:
the survival probabilities started on the active set solve

    (I + G M_kappa) psi = 1,

with M_kappa the diagonal of site strengths.  Conversion from an
arbitrary start point combines that with the first-hit split.  For
uniform kappa the eigendecomposition of G makes the whole curve a
mixture of single-site curves L kappa / (1 + L kappa), one per
eigenvalue L, which yields its closed rational form in kappa.
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
from .harmonic import GreenMatrix, HittingSplit, green_and_split, green_matrix


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


@dataclass(frozen=True)
class ConversionResult:
    """Conversion probability alpha and survival psi = 1 - alpha.

    ``site_survival[j]`` is the survival probability started at active
    site j; the per-site contributions to survival are
    ``p[j] * site_survival[j]`` and
    alpha = alpha_inf * (1 - sum of those contributions).
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


def _finite_values(gm: GreenMatrix, ks: KappaSpec) -> np.ndarray:
    values = ks.values(gm.active)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("kappa must be finite here; conversion handles a uniform "
                                "infinity, and solve_survival infinite sites")
    return values


def survival_on_active(gm: GreenMatrix, ks: KappaSpec) -> np.ndarray:
    """Survival probabilities started on the active set: solve
    (I + G M_kappa) psi = 1.

    The columns are scaled by s_j = 1/max(1, kappa_j), so the solve is
    (S + G diag(min(kappa_j, 1))) y = 1 with psi = S y, and no entry
    overflows at huge finite kappa.
    """
    values = _finite_values(gm, ks)
    s = 1.0 / np.maximum(values, 1.0)
    a = gm.entries * np.minimum(values, 1.0)
    a.flat[:: len(s) + 1] += s
    return s * algebra.solve_many(a, np.ones(len(s)))


def survival_det(gm: GreenMatrix, ks: KappaSpec, j: int) -> float:
    """Survival at site j as the determinant ratio
    det(I + G^(j) M_kappa) / det(I + G M_kappa)."""
    if not (0 <= j < len(gm.active)):
        raise PreconditionError(f"site index {j} out of range")
    values = _finite_values(gm, ks)
    n = len(gm.active)
    eye = np.eye(n)
    num = algebra.det(eye + algebra.row_subtracted(gm.entries, j) * values[None, :])
    den = algebra.det(eye + gm.entries * values[None, :])
    return num / den


def conversion(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str, ks: KappaSpec
) -> ConversionResult:
    """Conversion probability from start point x at strengths ks.

    Finite kappa, uniform or per site, goes through the survival solve on
    the active set.  Uniform infinity is handled symbolically (alpha
    equals the hitting probability alpha_inf).
    """
    return conversion_from_split(*green_and_split(g, w, x), ks)


def conversion_from_split(
    gm: GreenMatrix, hs: HittingSplit, ks: KappaSpec
) -> ConversionResult:
    """conversion from a Green matrix and first-hit split already solved
    for, which a kappa sweep does once."""
    sites = hs.active
    if not sites:
        return ConversionResult(0.0, 1.0, 0.0, (), (), ())

    if ks.is_uniform and ks.uniform == 0.0:
        ratios = np.ones(len(sites))
    elif ks.is_uniform and math.isinf(ks.uniform):
        ratios = np.zeros(len(sites))
    else:
        ratios = survival_on_active(gm, ks)

    if hs.alpha_inf == 0.0 or (ks.is_uniform and ks.uniform == 0.0):
        alpha = 0.0
    else:
        alpha = hs.alpha_inf * (1.0 - float(hs.p @ ratios))
    return ConversionResult(
        alpha=alpha,
        psi=1.0 - alpha,
        alpha_inf=hs.alpha_inf,
        sites=sites,
        p=tuple(float(v) for v in hs.p),
        site_survival=tuple(float(v) for v in ratios),
    )


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

    With G = V diag(lambda) V^-1 and c = (p V) * (V^-1 1), whose entries
    sum to 1, the curve is a mixture of single-site curves:

        alpha = alpha_inf * sum_i c_i kappa lambda_i / (1 + kappa lambda_i).

    The denominator is prod_i (1 + kappa lambda_i) = det(I + kappa G); the
    numerator, alpha_inf * sum_i c_i lambda_i kappa prod_{k != i} (1 +
    kappa lambda_k), comes from prefix and suffix products, which stay
    accurate where dividing the denominator by each factor does not.
    Explicit weights on cycles can make the spectrum complex; the
    coefficients are then real up to roundoff and their real parts kept.
    """
    gm, hs = green_and_split(g, w, x)
    if not hs.active:
        return RationalForm(Polynomial(), Polynomial((1.0,)))
    lam, vecs = np.linalg.eig(gm.entries)
    try:
        c = (hs.p @ vecs) * np.linalg.solve(vecs, np.ones(len(lam)))
    except np.linalg.LinAlgError:
        raise SingularSystemError("Green matrix is not diagonalizable") from None
    prefix, suffix = _running_products(lam), _running_products(lam[::-1])
    m = len(lam)
    num = sum(c[i] * lam[i] * np.convolve(prefix[i], suffix[m - 1 - i]) for i in range(m))
    return RationalForm(
        Polynomial((0.0, *(hs.alpha_inf * num.real))), Polynomial(tuple(prefix[m].real))
    )


def chain_alpha_recursive(lengths: Sequence[float], kappa: float) -> float:
    """Conversion on a chain of interior sites, by one-line recursion.

    ``lengths`` are the m+1 consecutive gaps: entrance to the first
    site, between sites, and last site to the exit (the first entry
    never enters the result).  Starting from g = 1, each site multiplies
    up g <- g + gap * (running sum of g's) * kappa, and alpha is
    (g - 1)/g at the exit.  This recursion corresponds to the unweighted
    Kirchhoff convention: it matches the weighted-convention engines on
    the same chain after the substitution kappa -> 2 * kappa.
    """
    if len(lengths) < 2:
        raise PreconditionError("need at least entrance and exit gaps (m >= 1)")
    if any(l <= 0 for l in lengths):
        raise PreconditionError("gap lengths must be positive")
    if math.isnan(kappa) or kappa < 0 or math.isinf(kappa):
        raise PreconditionError(f"kappa must be finite and >= 0, got {kappa!r}")
    g = 1.0
    running = 1.0
    for gap in lengths[1:]:
        g = g + gap * running * kappa
        running += g
    return (g - 1.0) / g


def placement_leading_coeff(g: MetricGraph, w: EdgeWeights) -> float:
    """Top-degree denominator coefficient of the conversion curve on a chain.

    This is the large-kappa growth coefficient used by the site-placement
    experiment; it requires a chain (every vertex of degree at most 2,
    one exit).
    """
    require_valid(g)
    if any(g.degree(v.id) > 2 for v in g.vertices):
        raise PreconditionError("placement coefficient is defined for chains only")
    if len(g.exit_vertices) != 1:
        raise PreconditionError("chain must have exactly one exit")
    if not g.active_vertices:
        raise PreconditionError("chain has no active vertices")
    # the top coefficient of det(I + tG) is det(G)
    return algebra.det(green_matrix(g, w).entries)
