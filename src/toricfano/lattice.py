"""Exact integer and rational linear algebra over lattices.

All arithmetic is arbitrary precision and exact: integer matrices are
sequences of rows of Python ints, rational vectors are tuples of
``fractions.Fraction`` (always in lowest terms with positive denominator,
which Fraction guarantees).  No floating point is used anywhere.
Rational rows are cleared of denominators on the way in, elimination
runs over Z, and ``Fraction`` values are built only for answers.
Inner loops run on C builtins (``map`` with ``operator.mul``,
``math.gcd``) for speed; the values are the same exact ints and
Fractions the plain loops give.

Conventions:
  * a "matrix" is a list/tuple of equal-length rows;
  * ``hermite_normal_form`` is row-style: U * M = H with U unimodular;
  * ``integer_kernel(M)`` returns a basis of the saturated left kernel
    {v : v * M = 0}, i.e. integer relations among the rows of M.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

IntVector = tuple[int, ...]
IntMatrix = list[list[int]]
RationalVector = tuple[Fraction, ...]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vector_gcd(v: Sequence[int]) -> int:
    return gcd(*v)


def _integer_row(row: Sequence) -> list[int]:
    """The row as ints; a row with ``Fraction`` entries is scaled by the
    lcm of its denominators, a positive factor that keeps its direction."""
    if all(isinstance(x, int) for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    mult = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (mult // f.denominator) for f in fracs]


def primitive_vector(v: Sequence) -> IntVector:
    """Scale a nonzero rational direction to its primitive integer vector.

    Only positive scaling is applied, so the ray direction is preserved.
    """
    try:
        g = gcd(*v)
    except TypeError:  # a Fraction entry: clear the denominators first
        v = _integer_row(v)
        g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def hermite_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form: returns (H, U) with U * M = H, |det U| = 1.

    H has its pivot rows on top (pivots positive, entries above a pivot
    reduced into [0, pivot)), zero rows at the bottom.  Total on any
    integer matrix, including zero matrices.
    """
    if not m:
        raise ValueError("empty matrix")
    rows, cols = len(m), len(m[0])
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    h = [list(map(int, r)) for r in m]
    u = identity_matrix(rows)
    pivot_row = 0
    for col in range(cols):
        # Euclid on the entries of this column at/below pivot_row.
        while True:
            nonzero = [i for i in range(pivot_row, rows) if h[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][col]), i))
            if i0 != pivot_row:
                h[i0], h[pivot_row] = h[pivot_row], h[i0]
                u[i0], u[pivot_row] = u[pivot_row], u[i0]
            a = h[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, rows):
                q = h[i][col] // a  # floor division keeps remainders in [0, |a|)
                if q:
                    for j in range(cols):
                        h[i][j] -= q * h[pivot_row][j]
                    for j in range(rows):
                        u[i][j] -= q * u[pivot_row][j]
                if h[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < rows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            a = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // a
                if q:
                    for j in range(cols):
                        h[i][j] -= q * h[pivot_row][j]
                    for j in range(rows):
                        u[i][j] -= q * u[pivot_row][j]
            pivot_row += 1
            if pivot_row == rows:
                break
    return h, u


def integer_kernel(m: Sequence[Sequence[int]]) -> list[IntVector]:
    """Basis of the saturated lattice {v : v * M = 0} (relations among rows).

    Computed from the unimodular transform of the HNF, then HNF-reduced
    again so the returned basis is canonical.  Saturation is automatic:
    v*M = 0 iff v lies in the span of the U-rows facing zero rows of H.
    """
    h, u = hermite_normal_form(m)
    kernel_rows = [u[i] for i in range(len(h)) if all(x == 0 for x in h[i])]
    if not kernel_rows:
        return []
    reduced, _ = hermite_normal_form(kernel_rows)
    return [tuple(r) for r in reduced if any(x != 0 for x in r)]


def _row_reduce(rows: IntMatrix, cols: int) -> list[tuple[int, int]]:
    """Fraction-free Gauss-Jordan elimination of integer ``rows`` in place,
    over their first ``cols`` columns; returns the (row, column) pivots.

    Pivot columns are taken left to right, each pivot from the first
    remaining row that is nonzero there.  Clearing a column replaces a
    row r by p*r - a*pivot_row and divides out the gcd of its entries,
    so entries stay integers without a common factor.  Afterwards each
    pivot column is zero outside its pivot row, and rows below the last
    pivot are zero in all ``cols`` columns.
    """
    n = len(rows)
    pivots: list[tuple[int, int]] = []
    for col in range(cols):
        rank = len(pivots)
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(n):
            a = rows[i][col]
            if a and i != rank:
                r = [p * x - a * y for x, y in zip(rows[i], prow)]
                g = gcd(*r)
                rows[i] = [x // g for x in r] if g > 1 else r
        pivots.append((rank, col))
        if rank + 1 == n:
            break
    return pivots


def dual_basis(m: Sequence[Sequence[int]]) -> Optional[list[IntVector]]:
    """The primitive g_i with g_i . v_j = 0 for j != i and g_i . v_i > 0,
    over the rows v_j of a square integer matrix M; None when M is
    singular.

    One fraction-free elimination of [M^T | I] leaves
    [diag(p) | diag(p) (M^T)^-1], so the right half of row i is p_i
    times the i-th dual-basis row; it is negated where p_i < 0.  When
    |det M| = 1 the rows are the dual basis itself.
    """
    n = len(m)
    work = [[v[t] for v in m] + [int(s == t) for s in range(n)] for t in range(n)]
    if len(_row_reduce(work, n)) < n:
        return None
    return [primitive_vector(r[n:] if r[i] > 0 else [-x for x in r[n:]]) for i, r in enumerate(work)]


def rational_rank(m: Sequence[Sequence]) -> int:
    """Rank over Q, by fraction-free Gaussian elimination."""
    if not m:
        return 0
    return len(_row_reduce([_integer_row(r) for r in m], len(m[0])))


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("not square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def solve_rational(a: Sequence[Sequence], b: Sequence) -> Optional[RationalVector]:
    """Exact solution x of A x = b, or None when the system is inconsistent.

    Underdetermined systems get the particular solution with free
    variables set to zero (deterministic: pivots chosen left to right).
    """
    if not a:
        raise ValueError("empty matrix")
    rows, cols = len(a), len(a[0])
    if len(b) != rows:
        raise ValueError(f"dimension mismatch: {rows} rows vs {len(b)} rhs entries")
    work = [_integer_row(list(row) + [b[i]]) for i, row in enumerate(a)]
    pivots = _row_reduce(work, cols)
    if any(work[i][cols] for i in range(len(pivots), rows)):
        return None
    x = [Fraction(0)] * cols
    for row, col in pivots:
        x[col] = Fraction(work[row][cols], work[row][col])
    return tuple(x)


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[IntVector]:
    """Integer solution x of A x = b, or None if none exists.

    Via the row HNF of A^T: A x = b becomes H^T y = b with x = U^T y,
    and H^T is lower triangular so y is found by forward substitution
    with exact divisibility checks.
    """
    if not a:
        raise ValueError("empty matrix")
    rows, cols = len(a), len(a[0])
    if len(b) != rows:
        raise ValueError(f"dimension mismatch: {rows} rows vs {len(b)} rhs entries")
    h, u = hermite_normal_form(transpose(a))
    # Solve H^T y = b; H^T is rows x cols with column k equal to row k of H.
    y = [0] * cols
    residual = list(map(int, b))
    for k in range(cols):
        hk = h[k]
        lead = next((j for j in range(rows) if hk[j] != 0), None)
        if lead is None:
            break
        if residual[lead] % hk[lead] != 0:
            return None
        y[k] = residual[lead] // hk[lead]
        if y[k]:
            for j in range(rows):
                residual[j] -= y[k] * hk[j]
    if any(residual):
        return None
    ut = transpose(u)
    return tuple(dot(row, y) for row in ut)
