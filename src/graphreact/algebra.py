"""Linear solves, determinants and polynomial ratios.

A system is a dense square numpy array or, for the vertex systems, a
``Triplets`` list of entries.  It is factored once, solved for all
right-hand columns at once and refined at most twice, which guarantees a
residual bound; a failure raises SingularSystemError.

A stack of K systems of one order is a (K, n, n) array, or Triplets with
K rows of values; its right-hand sides carry the same leading axis.  A
kappa sweep is such a stack: its callers assemble all its systems in a
few array operations, where one call per point repeats them all.  Each
system of a stack is factored, solved and refined on its own, so its
solution and its error are the ones it has alone.  Callers cut a long
stack into blocks (``blocks``) of at most STACK_ENTRIES matrix entries,
K n^2 floats, so that a long grid never allocates them all at once.

The factorization is chosen by size.  Triplets of order above
SPARSE_MIN_ORDER go to SuperLU (scipy.sparse.linalg.splu, COLAMD
ordering); everything else, including every m-by-m Green-matrix system,
to LAPACK's row-pivoted LU (dgetrf/dgetrs), whose failure names the
pivot column.  A vertex system has O(E) nonzeros, so sparse elimination
wins once the fixed cost of building the CSC matrix and calling SuperLU
is below the O(n^3) dense work.  Best times in ms of solve_many alone,
dense / sparse, single-threaded on a shared 2-vCPU Xeon: the survival
system (one right-hand column) of random trees with 4 sites and of such
trees with n/10 chords, and a system with n - 2 right-hand columns, a
chain's vertex system with its n - 2 sites fixed.  That last is how the
sites' network was solved before dead ends were stripped; a chain now
leaves nothing to solve, but a kernel with many sites still has a column
per site:

    n      tree           with chords    n - 2 columns
    100    0.08 / 0.13    0.08 / 0.18    0.36 / 0.20
    150    0.20 / 0.19    0.20 / 0.27    1.27 / 0.38
    200    0.37 / 0.23    0.37 / 0.33    2.43 / 0.88
    300    1.69 / 0.35    1.71 / 0.46    7.79 / 1.75
    500    6.11 / 0.51    6.12 / 0.73    26.3 / 5.25

Trees break even near 150 unknowns and graphs with chords near 200; a
system with a column per unknown gains from SuperLU already at 100, by
0.16 ms.  The diffuse-zone solve is a vertex system of the same form.
scipy is imported at the first factorization: loading it more than
doubles the start-up time of commands that factor nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SingularSystemError

#: residual guarantee of solve_many: ||Ax - b||_inf <= RTOL * (1 + ||b||_inf)
RTOL = 1e-10

#: order above which solve_many factors Triplets with SuperLU (measured:
#: see the module docstring)
SPARSE_MIN_ORDER = 150

#: most matrix entries, points times order squared, in one stack of
#: systems; ``blocks`` cuts a longer stack into pieces of this size
STACK_ENTRIES = 1 << 20


@functools.cache
def _lapack():
    """LAPACK's dgetrf, dgetrs and dlaswp and BLAS's dtrsm, imported at the
    first factorization."""
    from scipy.linalg.blas import dtrsm
    from scipy.linalg.lapack import dgetrf, dgetrs, dlaswp

    return dgetrf, dgetrs, dlaswp, dtrsm


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting (LAPACK dgetrf) of a square
    float array.

    Returns (lu, piv) in LAPACK's packed form, piv 0-based.  Raises on an
    exactly zero pivot.
    """
    lu, piv, info = _lapack()[0](a)
    if info > 0:
        raise SingularSystemError(
            f"matrix is singular to working precision at pivot column {info - 1}"
        )
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dgetrs on the columns of b: the row swaps, then L, then U.  OpenBLAS's
    dgetrs solves one column with dtrsv, which dtrsm matches neither in its
    last bits nor in speed (3-17 us slower), and two or more with dtrsm.
    Threaded OpenBLAS runs the swaps of two or more columns on its threads,
    which stalled ~7 ms a call on a shared 2-vCPU host.  So one column goes
    to dgetrs, and two or more take their rows in dlaswp's order (dlaswp on
    one column is not threaded), where LU swapped any, and go to dtrsm, to
    dgetrs's bits."""
    _, dgetrs, dlaswp, dtrsm = _lapack()
    if b.shape[1] < 2:
        return dgetrs(lu, piv, b)[0]
    if piv.tolist() != list(range(len(piv))):
        b = b.take(dlaswp(np.arange(len(piv), dtype=float), piv).astype(np.intp), axis=0)
    return dtrsm(1.0, lu, dtrsm(1.0, lu, b, lower=1, diag=1), overwrite_b=1)


def _dense_factor(a: np.ndarray):
    """a, with the solve of its LU factor."""
    return a, functools.partial(_lu_solve, *_factor(a))


@dataclass(frozen=True, eq=False)
class Triplets:
    """An n-by-n matrix as (row, column, value) entries; entries at the
    same position add up.  ``len`` is the order n.  ``vals`` of shape
    (K, entries) is a stack of K matrices with the same entries."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n: int

    def __len__(self) -> int:
        return self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (*self.vals.shape[:-1], self.n, self.n)

    def dense(self) -> np.ndarray:
        n = self.n
        index = self.rows * n + self.cols
        if self.vals.ndim == 1:
            return np.bincount(index, self.vals, n * n).reshape(n, n)
        k = len(self.vals)  # one matrix after another
        index = (index + np.arange(0, k * n * n, n * n)[:, None]).ravel()
        return np.bincount(index, self.vals.ravel(), k * n * n).reshape(k, n, n)


def _sparse_factors(t: Triplets):
    """Each matrix of t in CSC form, with the solve of its SuperLU factor
    (COLAMD order)."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    # CSC straight from the column-sorted entries; splu sums repeats
    order = np.lexsort((t.rows, t.cols))
    starts = np.searchsorted(t.cols[order], np.arange(t.n + 1))
    for vals in t.vals.reshape(-1, len(order)).take(order, axis=1):
        a = csc_matrix((vals, t.rows[order], starts), shape=(t.n, t.n))
        try:
            lu = splu(a)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularSystemError(f"matrix is singular to working precision: {exc}") from None
        yield a, lu.solve


def blocks(count: int, order: int) -> list[slice]:
    """Consecutive slices that cover range(count), each of at least one
    and at most STACK_ENTRIES // order**2 points."""
    step = max(1, STACK_ENTRIES // max(order * order, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def solve_many(a: np.ndarray | Triplets, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for a vector or a matrix of right-hand columns.

    ``a`` is a dense array, or Triplets, which SuperLU factors when the
    order exceeds SPARSE_MIN_ORDER.  A (K, n, n) array, or Triplets with
    K rows of values, is a stack of K systems, and b then has the same
    leading axis.  Refines each solution until
    ||a x - b||_inf <= RTOL * (1 + ||b||_inf) per column, and raises
    SingularSystemError if two refinement passes cannot get there.
    """
    if isinstance(a, Triplets) and a.n > SPARSE_MIN_ORDER:
        factors, shape = _sparse_factors(a), a.shape
    else:
        a = np.asarray(a.dense() if isinstance(a, Triplets) else a, dtype=float)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            raise PreconditionError(f"matrix must be square, got shape {a.shape}")
        factors, shape = map(_dense_factor, a if a.ndim == 3 else (a,)), a.shape
    b = np.asarray(b, dtype=float)
    if b.shape[: len(shape) - 1] != shape[:-1]:
        raise PreconditionError(
            f"shape mismatch: matrix {shape} vs right-hand side {b.shape}"
        )
    if len(shape) == 3:
        return np.array([_refined(*factor, bk) for factor, bk in zip(factors, b)])
    return _refined(*next(factors), b)


def _refined(a, solve, b: np.ndarray) -> np.ndarray:
    """The solution of a x = b by solve, the solve of a's factor, refined
    to solve_many's residual bound."""
    rhs = b.reshape(b.shape[0], -1)
    x = solve(rhs)
    for _ in range(2):
        r = rhs - a @ x
        if np.abs(r).max(initial=0.0) <= RTOL:  # RTOL is below every column's bound
            break
        tol = RTOL * (1.0 + np.abs(rhs).max(axis=0, initial=0.0))
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


def det(a: np.ndarray) -> float:
    """Determinant from the same LU factor; 0.0 when singular.  A product
    of pivots that a float cannot hold, too large or too small for a
    normal float at any step, raises SingularSystemError: it would come
    back as inf, as 0.0, the answer for a singular matrix, or with lost
    digits."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"matrix must be square, got shape {a.shape}")
    try:
        lu, piv = _factor(a)
    except SingularSystemError:
        return 0.0
    sign = -1.0 if np.count_nonzero(piv != np.arange(len(piv))) % 2 else 1.0
    try:
        with np.errstate(over="ignore", under="raise"):
            d = float(sign * np.prod(np.diag(lu)))
    except FloatingPointError:  # 40 sites with gaps of 1e-10 have det(G) = 2^40 1e-400
        raise SingularSystemError("determinant underflows a float") from None
    if math.isinf(d):  # a uniform unit chain of 1024 sites has det(G) = 2^1024
        raise SingularSystemError("determinant overflows a float")
    return d


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
            for name in ("numerator", "denominator"):
                scaled = tuple((1.0 / d0) * c for c in getattr(self, name).coeffs)
                object.__setattr__(self, name, Polynomial(scaled))

    def __call__(self, x):
        return self.numerator(x) / self.denominator(x)

