"""Dense linear algebra and polynomial arithmetic.

Everything here works on plain numpy arrays (square, float64).  A system
is factored once by LAPACK's row-pivoted LU (dgetrf), solved for all
right-hand columns at once (dgetrs) and refined at most twice, which
guarantees a residual bound and names the offending pivot on failure.
The vertex systems have at most a few hundred unknowns, and there dense
LAPACK beats a sparse factorization: scipy.sparse.linalg.splu made the
CLI calls on the fixture documents about 40% slower.  scipy is imported
at the first factorization: loading it more than doubles the start-up
time of commands that factor nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularSystemError

#: residual guarantee of solve_linear: ||Ax - b||_inf <= RTOL * (1 + ||b||_inf)
RTOL = 1e-10


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting (LAPACK dgetrf).

    Returns (lu, piv) in LAPACK's packed form, piv 0-based.  Raises on an
    exactly zero pivot.
    """
    from scipy.linalg.lapack import dgetrf

    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"matrix must be square, got shape {a.shape}")
    lu, piv, info = dgetrf(a)
    if info > 0:
        raise SingularSystemError(
            f"matrix is singular to working precision at pivot column {info - 1}"
        )
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    from scipy.linalg.lapack import dgetrs

    return dgetrs(lu, piv, b)[0]


def solve_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a vector or a matrix of right-hand columns.

    Refines the solution until ||a x - b||_inf <= RTOL * (1 + ||b||_inf)
    per column, and raises SingularSystemError if two refinement passes
    cannot get there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise PreconditionError(
            f"shape mismatch: matrix {a.shape} vs right-hand side {b.shape}"
        )
    lu, piv = _factor(a)
    rhs = b.reshape(b.shape[0], -1)
    tol = RTOL * (1.0 + np.max(np.abs(rhs), axis=0, initial=0.0))
    x = _lu_solve(lu, piv, rhs)
    for _ in range(2):
        r = rhs - a @ x
        bad = ~(np.max(np.abs(r), axis=0, initial=0.0) <= tol)  # NaN counts as bad
        if not bad.any():
            break
        x[:, bad] += _lu_solve(lu, piv, r[:, bad])
    else:
        worst = np.max(np.abs(rhs - a @ x), axis=0, initial=0.0)
        failed = np.flatnonzero(~(worst <= tol))
        if failed.size:
            j = failed[0]
            raise SingularSystemError(
                "system too ill-conditioned: residual "
                f"{worst[j]:.3e} exceeds {tol[j]:.3e}"
            )
    return x.reshape(b.shape)


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the square system a x = b by row-pivoted elimination."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise PreconditionError("right-hand side must be a vector")
    return solve_many(a, b)


def det(a: np.ndarray) -> float:
    """Determinant from the same LU factor; 0.0 when singular."""
    try:
        lu, piv = _factor(a)
    except SingularSystemError:
        return 0.0
    sign = -1.0 if np.count_nonzero(piv != np.arange(len(piv))) % 2 else 1.0
    return float(sign * np.prod(np.diag(lu)))


def row_subtracted(a: np.ndarray, j: int) -> np.ndarray:
    """Subtract row j from every row (row j of the result is zero)."""
    a = np.asarray(a, dtype=float)
    if not (0 <= j < a.shape[0]):
        raise PreconditionError(f"row index {j} out of range for {a.shape[0]} rows")
    return a - a[j][None, :]


def _trim(coeffs) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial, coefficients in ascending powers.

    Trailing exactly-zero coefficients are trimmed; the zero polynomial
    has an empty tuple and degree -inf.
    """

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def __call__(self, x):
        result = 0.0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ci in enumerate(self.coeffs):
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
            return Polynomial(tuple(out))
        return Polynomial(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__


@dataclass(frozen=True)
class RationalForm:
    """Ratio of two polynomials, normalized so denominator(0) = 1."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        d0 = self.denominator(0.0)
        if d0 == 0.0:
            raise PreconditionError("denominator must be nonzero at 0")
        if d0 != 1.0:
            object.__setattr__(self, "numerator", (1.0 / d0) * self.numerator)
            object.__setattr__(self, "denominator", (1.0 / d0) * self.denominator)

    def __call__(self, x):
        return self.numerator(x) / self.denominator(x)


def det_poly(g: np.ndarray) -> Polynomial:
    """Coefficients of det(I + t*G) as a polynomial in t.

    The coefficient of t^m is the sum of the m-by-m principal minors of
    G.  Coefficients are recovered by evaluating the determinant at the
    integer nodes t = 0..n and solving the (mild, small-n) Vandermonde
    system; the node t = 0 pins the constant term to exactly 1.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise PreconditionError(f"matrix must be square, got shape {g.shape}")
    n = g.shape[0]
    eye = np.eye(n)
    values = np.array([det(eye + t * g) - 1.0 for t in range(1, n + 1)])
    vand = np.array([[float(t**m) for m in range(1, n + 1)] for t in range(1, n + 1)])
    higher = solve_linear(vand, values)
    return Polynomial((1.0, *higher))
