"""Linear solves and polynomial arithmetic.

A system is a dense square numpy array or, for the vertex systems, a
``Triplets`` list of entries.  It is factored once, solved for all
right-hand columns at once and refined at most twice, which guarantees a
residual bound; a failure raises SingularSystemError.

The factorization is chosen by size.  Triplets of order above
SPARSE_MIN_ORDER go to SuperLU (scipy.sparse.linalg.splu, COLAMD
ordering); everything else, including every m-by-m Green-matrix system,
to LAPACK's row-pivoted LU (dgetrf/dgetrs), whose failure names the
pivot column.  A vertex system has O(E) nonzeros, so sparse elimination
wins once the fixed cost of building the CSC matrix and calling SuperLU
(about 0.2 ms) is below the O(n^3) dense work.  Best times in ms, dense
/ sparse, on a shared 2-vCPU Xeon: the survival solve on random trees
and on trees with n/10 chords, and conversion on chains of n-2 sites,
whose Green solve has n-2 right-hand columns:

    n      tree           with chords    chain
    100    0.21 / 0.46    0.19 / 0.50    1.12 / 1.10
    150    0.41 / 0.55    0.39 / 0.64    2.79 / 2.34
    200    0.73 / 0.67    0.76 / 0.82    5.42 / 3.57
    300    2.20 / 0.71    2.63 / 1.09    13.7 / 6.07
    500    6.36 / 0.76    6.75 / 1.15    40.4 / 22.9

The diffuse systems on chains, of order 144, 284 and 564, took 0.71 /
0.75, 2.04 / 1.36 and 13.2 / 3.34.  Chains break even near 100 unknowns,
diffuse systems near 150, trees near 190 and graphs with chords near
210; at 150 a tree or a graph with chords loses at most 0.25 ms and a
chain gains 0.45 ms.  scipy is imported at the first
factorization: loading it more than doubles the start-up time of
commands that factor nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularSystemError

#: residual guarantee of solve_linear: ||Ax - b||_inf <= RTOL * (1 + ||b||_inf)
RTOL = 1e-10

#: order above which solve_many factors Triplets with SuperLU (measured:
#: see the module docstring)
SPARSE_MIN_ORDER = 150


@functools.cache
def _lapack():
    """LAPACK's dgetrf and dgetrs, imported once, at the first factorization."""
    from scipy.linalg.lapack import dgetrf, dgetrs

    return dgetrf, dgetrs


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting (LAPACK dgetrf).

    Returns (lu, piv) in LAPACK's packed form, piv 0-based.  Raises on an
    exactly zero pivot.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"matrix must be square, got shape {a.shape}")
    lu, piv, info = _lapack()[0](a)
    if info > 0:
        raise SingularSystemError(
            f"matrix is singular to working precision at pivot column {info - 1}"
        )
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _lapack()[1](lu, piv, b)[0]


@dataclass(frozen=True, eq=False)
class Triplets:
    """An n-by-n matrix as (row, column, value) entries; entries at the
    same position add up.  ``len`` is the order n."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int

    def __len__(self) -> int:
        return self.n

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n

    def dense(self) -> np.ndarray:
        n = self.n
        return np.bincount(self.rows * n + self.cols, self.vals, n * n).reshape(n, n)


def _sparse_factor(t: Triplets):
    """The CSC matrix and the solve of its SuperLU factor (COLAMD order)."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    # CSC straight from the column-sorted entries; splu sums repeats
    order = np.lexsort((t.rows, t.cols))
    starts = np.searchsorted(t.cols[order], np.arange(t.n + 1))
    a = csc_matrix((t.vals[order], t.rows[order], starts), shape=t.shape)
    try:
        lu = splu(a)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystemError(f"matrix is singular to working precision: {exc}") from None
    return a, lu.solve


def solve_many(a: np.ndarray | Triplets, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a vector or a matrix of right-hand columns.

    ``a`` is a dense array, or Triplets, which SuperLU factors when the
    order exceeds SPARSE_MIN_ORDER.  Refines the solution until
    ||a x - b||_inf <= RTOL * (1 + ||b||_inf) per column, and raises
    SingularSystemError if two refinement passes cannot get there.
    """
    if not isinstance(a, Triplets):
        a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise PreconditionError(
            f"shape mismatch: matrix {a.shape} vs right-hand side {b.shape}"
        )
    if isinstance(a, Triplets) and a.n > SPARSE_MIN_ORDER:
        a, solve = _sparse_factor(a)
    else:
        if isinstance(a, Triplets):
            a = a.dense()
        lu, piv = _factor(a)
        solve = functools.partial(_lu_solve, lu, piv)
    rhs = b.reshape(b.shape[0], -1)
    tol = RTOL * (1.0 + np.abs(rhs).max(axis=0, initial=0.0))
    x = solve(rhs)
    for _ in range(2):
        r = rhs - a @ x
        bad = ~(np.abs(r).max(axis=0, initial=0.0) <= tol)  # NaN counts as bad
        if not bad.any():
            break
        x[:, bad] += solve(r[:, bad])
    else:
        worst = np.abs(rhs - a @ x).max(axis=0, initial=0.0)
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
