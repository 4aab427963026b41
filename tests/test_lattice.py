from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricfano.lattice import (
    det_int,
    dot,
    dual_basis,
    hermite_normal_form,
    integer_kernel,
    primitive_vector,
    rational_rank,
    solve_integer,
    solve_rational,
    transpose,
)
from toricfano.variety import _as_coords

def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


small_ints = st.integers(min_value=-9, max_value=9)
entries = st.one_of(small_ints, st.fractions(min_value=-9, max_value=9, max_denominator=7))


def matrices(max_rows=5, max_cols=5):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_ints, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_hnf_identity():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == m


def test_hnf_zero_matrix():
    h, u = hermite_normal_form([[0, 0], [0, 0]])
    assert h == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]]


def test_hnf_2x2_example():
    m = [[2, 4], [1, 3]]
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert abs(det_int(u)) == 1
    # Upper triangular with positive pivots, above-pivot entries reduced.
    assert h[1][0] == 0
    assert h[0][0] > 0 and h[1][1] > 0
    assert 0 <= h[0][1] < h[1][1] or h[1][1] == 0
    assert abs(det_int(h)) == abs(det_int(m))


@settings(max_examples=120)
@given(matrices())
def test_hnf_transform_property(m):
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert abs(det_int(u)) == 1
    # Echelon shape: pivot columns strictly increase, zero rows last.
    pivots = []
    for row in h:
        nz = next((j for j, x in enumerate(row) if x != 0), None)
        pivots.append(nz)
    nontrivial = [p for p in pivots if p is not None]
    assert nontrivial == sorted(nontrivial)
    assert all(p is None for p in pivots[len(nontrivial):])


def test_kernel_p4_relation():
    rays = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, -1, -1, -1],
    ]
    assert integer_kernel(rays) == [(1, 1, 1, 1, 1)]


def test_kernel_identity_empty():
    assert integer_kernel([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == []


def test_kernel_two_equal_rows():
    assert integer_kernel([[1], [1]]) == [(1, -1)]


def test_kernel_is_saturated():
    # Rows (2,0),(0,2) of the column matrix [[2],[0],[0],[2]]? Use a case whose
    # naive spanning set is a finite-index sublattice: v*(2,2) = 0.
    assert integer_kernel([[2], [2]]) == [(1, -1)]


@settings(max_examples=120)
@given(matrices())
def test_kernel_property(m):
    k = integer_kernel(m)
    for v in k:
        assert all(
            sum(v[i] * m[i][j] for i in range(len(m))) == 0 for j in range(len(m[0]))
        )
    assert len(k) + rational_rank(m) == len(m)
    if k:
        assert rational_rank([list(v) for v in k]) == len(k)


def test_solve_rational_identity():
    a = [[1, 0], [0, 1]]
    assert solve_rational(a, [3, 5]) == (Fraction(3), Fraction(5))


def test_solve_rational_half():
    assert solve_rational([[2]], [1]) == (Fraction(1, 2),)


def test_solve_rational_inconsistent():
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


@settings(max_examples=100)
@given(matrices(4, 4), st.lists(small_ints, min_size=4, max_size=4))
def test_solve_rational_property(a, x):
    x = x[: len(a[0])]
    b = [sum(row[j] * x[j] for j in range(len(x))) for row in a]
    sol = solve_rational(a, b)
    assert sol is not None
    assert [sum(Fraction(row[j]) * sol[j] for j in range(len(sol))) for row in a] == [
        Fraction(v) for v in b
    ]


@settings(max_examples=100)
@given(matrices(4, 4), st.lists(small_ints, min_size=4, max_size=4))
def test_solve_integer_property(a, x):
    x = x[: len(a[0])]
    b = [sum(row[j] * x[j] for j in range(len(x))) for row in a]
    sol = solve_integer(a, b)
    assert sol is not None
    assert [sum(row[j] * sol[j] for j in range(len(sol))) for row in a] == b


def test_solve_integer_no_integer_solution():
    assert solve_integer([[2]], [1]) is None


def test_primitive_vector():
    assert primitive_vector([2, 4, 6]) == (1, 2, 3)
    assert primitive_vector([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert primitive_vector([-2, 0]) == (-1, 0)
    with pytest.raises(ValueError):
        primitive_vector([0, 0])


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0


def _assert_dual_basis(m, rows):
    assert len(rows) == len(m)
    for i, g in enumerate(rows):
        assert primitive_vector(g) == g
        pairings = [sum(a * b for a, b in zip(g, v)) for v in m]
        assert pairings[i] > 0
        assert all(x == 0 for j, x in enumerate(pairings) if j != i)


def test_dual_basis_of_a_singular_matrix_is_none():
    assert dual_basis([[1, 2], [2, 4]]) is None
    assert dual_basis([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) is None


def test_dual_basis_on_the_det_6_cone():
    # The rows of M^-T are not integral; each row is the primitive
    # positive multiple of its dual-basis row.
    m = [[1, 0, 0, 0], [1, 2, 0, 0], [0, 1, 3, 0], [1, 1, 1, 1]]
    rows = dual_basis(m)
    _assert_dual_basis(m, rows)
    assert [sum(a * b for a, b in zip(g, v)) for g, v in zip(rows, m)] == [6, 6, 3, 1]


def test_dual_basis_of_a_unimodular_matrix_is_its_inverse_transpose():
    m = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    rows = dual_basis(m)
    assert [[sum(a * b for a, b in zip(g, v)) for v in m] for g in rows] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_dual_basis_property(m):
    rows = dual_basis(m)
    if det_int(m) == 0:
        assert rows is None
    else:
        _assert_dual_basis(m, rows)


def test_transpose_round_trip():
    m = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(m)) == m


# -- the Fraction Gauss-Jordan the integer kernel replaced, as a reference --


def _reference_reduce(work, cols):
    rows = len(work)
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(rows):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        pivots.append((rank, col))
        rank += 1
        if rank == rows:
            break
    return pivots


def reference_rank(m):
    if not m:
        return 0
    return len(_reference_reduce([[Fraction(x) for x in row] for row in m], len(m[0])))


def reference_solve(a, b):
    rows, cols = len(a), len(a[0])
    work = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = _reference_reduce(work, cols)
    if any(work[i][cols] != 0 for i in range(len(pivots), rows)):
        return None
    x = [Fraction(0)] * cols
    for row, col in pivots:
        x[col] = work[row][cols]
    return tuple(x)


@st.composite
def mixed_matrices(draw, max_rows=5, max_cols=6):
    """Int and Fraction matrices, rectangular, with dependent and zero rows."""
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    row = st.lists(entries, min_size=cols, max_size=cols)
    m = draw(st.lists(row, min_size=1, max_size=max_rows))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(m) - 1))
        j = draw(st.integers(min_value=0, max_value=len(m) - 1))
        s, t = draw(entries), draw(entries)
        m.append([s * x + t * y for x, y in zip(m[i], m[j])])
    if draw(st.booleans()):
        m.insert(draw(st.integers(min_value=0, max_value=len(m))), [0] * cols)
    return m


@settings(max_examples=150)
@given(mixed_matrices())
def test_rank_matches_fraction_reference(m):
    assert rational_rank(m) == reference_rank(m)


@settings(max_examples=150)
@given(mixed_matrices(), st.data())
def test_solve_matches_fraction_reference(a, data):
    if data.draw(st.booleans()):  # consistent right-hand side
        x = data.draw(st.lists(entries, min_size=len(a[0]), max_size=len(a[0])))
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
    else:
        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    sol = solve_rational(a, b)
    assert sol == reference_solve(a, b)
    assert sol is None or all(type(v) is Fraction for v in sol)


def test_solve_free_variables_are_zero():
    assert solve_rational([[0, 2, 4, 1]], [6]) == (0, 3, 0, 0)
    assert solve_rational([[1, 1, 0], [2, 2, 0], [0, 0, 0]], [1, 2, 0]) == (1, 0, 0)


@settings(max_examples=200)
@given(st.lists(small_ints, min_size=1, max_size=6), st.integers(min_value=1, max_value=12))
def test_primitive_vector_int_and_fraction_agree(v, d):
    if not any(v):
        return
    p = primitive_vector(v)
    assert p == primitive_vector([Fraction(x, d) for x in v])
    assert all(type(x) is int for x in p)
    assert sum(x * y for x, y in zip(p, v)) > 0


# -- the kernels against their plain-loop forms ------------------------


def _reference_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def _reference_primitive_vector(v):
    if all(isinstance(x, int) for x in v):
        ints = list(v)
    else:
        fracs = [Fraction(x) for x in v]
        mult = lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (mult // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def _reference_as_coords(v):
    out = []
    for x in v:
        f = Fraction(x)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


fractions_only = st.fractions(min_value=-9, max_value=9, max_denominator=7)
# Int rows, Fraction rows (some entries integral) and mixed rows.
rows = st.one_of(
    st.lists(small_ints, max_size=6),
    st.lists(fractions_only, max_size=6),
    st.lists(entries, max_size=6),
)


@settings(max_examples=100)
@given(rows, rows)
def test_dot_refuses_unequal_lengths(u, v):
    # map() would stop at the shorter row; dot must refuse it instead.
    assume(len(u) != len(v))
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot(u, v)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(*[entries] * 2 * n)))
def test_dot_equals_the_generator_form(flat):
    u, v = flat[: len(flat) // 2], flat[len(flat) // 2 :]
    assert dot(u, v) == _reference_dot(u, v)
    assert type(dot(u, v)) is type(_reference_dot(u, v))


@settings(max_examples=150)
@given(rows)
def test_primitive_vector_equals_the_integer_row_path(v):
    if not any(v):
        with pytest.raises(ValueError, match="zero vector"):
            primitive_vector(v)
        with pytest.raises(ValueError, match="zero vector"):
            _reference_primitive_vector(v)
        return
    p = primitive_vector(v)
    assert p == _reference_primitive_vector(v)
    assert all(type(x) is int for x in p)


@settings(max_examples=150)
@given(rows)
def test_as_coords_keeps_values_and_types(v):
    got, want = _as_coords(v), _reference_as_coords(v)
    assert got == want and list(map(type, got)) == list(map(type, want))
