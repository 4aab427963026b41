from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import cones
from toricfano.cones import RationalCone, dual_extreme_rays
from toricfano.lattice import dot, integer_kernel, primitive_vector, rational_rank, solve_rational


def full_space(dim):
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return RationalCone.from_generators(units + [tuple(-x for x in u) for u in units], dim)


def _lineality_dim(c):
    """Dimension of the largest linear subspace inside the cone: the
    rank of the generators that come in +/- pairs."""
    negs = [g for g in c.generators if tuple(-x for x in g) in c.generators]
    return rational_rank([list(g) for g in negs]) if negs else 0


def _intersect(a, b):
    """Test-only reference: the intersection of two cones, by double
    description of their joint inequalities."""
    normals = list(a.facet_normals) + list(b.facet_normals)
    return RationalCone.from_generators(normals, a.ambient_dim).dual()


def brute_force_facets(gens, dim):
    """Facet normals of a full-dimensional cone by subset enumeration:
    every facet hyperplane is spanned by dim-1 generators."""
    assert rational_rank([list(g) for g in gens]) == dim
    normals = set()
    for subset in combinations(gens, dim - 1):
        if rational_rank([list(g) for g in subset]) != dim - 1:
            continue
        kernel = integer_kernel([list(x) for x in zip(*subset)])
        if len(kernel) != 1:
            continue
        h = kernel[0]
        signs = [dot(h, g) for g in gens]
        if all(s >= 0 for s in signs):
            normals.add(primitive_vector(h))
        elif all(s <= 0 for s in signs):
            normals.add(primitive_vector([-x for x in h]))
    return normals


def brute_force_extreme_rays(gens, normals):
    """g is extreme iff its tight facet set has rank dim(span) - 1."""
    dim = rational_rank([list(g) for g in gens])
    out = set()
    for g in gens:
        tight = [n for n in normals if dot(n, g) == 0]
        if tight and rational_rank([list(n) for n in tight]) == dim - 1:
            out.add(primitive_vector(g))
    return out


def test_first_quadrant():
    c = RationalCone.from_generators([(1, 0), (0, 1)])
    assert set(c.generators) == {(1, 0), (0, 1)}
    assert set(c.facet_normals) == {(1, 0), (0, 1)}


def test_redundant_generator_removed():
    c = RationalCone.from_generators([(1, 0), (1, 1), (1, 2)])
    assert set(c.generators) == {(1, 0), (1, 2)}
    assert c.contains((1, 1))


def test_zero_cone():
    c = RationalCone.from_generators([], ambient_dim=3)
    assert c.generators == ()
    assert c.dim == 0
    # Facet description spans the whole dual space.
    assert rational_rank([list(n) for n in c.facet_normals]) == 3
    assert c.contains((0, 0, 0))
    assert not c.contains((1, 0, 0))


def test_dual_first_orthant_self_dual():
    c = RationalCone.from_generators(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    assert c.dual() == c


def test_dual_two_dim_example():
    c = RationalCone.from_generators([(1, 0), (1, 1)])
    d = c.dual()
    assert set(d.generators) == {(0, 1), (1, -1)}
    for g in c.generators:
        for h in d.generators:
            assert dot(g, h) >= 0


def test_dual_zero_is_full_space():
    c = RationalCone.zero(3)
    d = c.dual()
    assert d.dim == 3
    assert _lineality_dim(d) == 3
    assert d.facet_normals == ()


def test_dual_of_halfspace_generators():
    # Non-pointed: half-plane x >= 0 in R^2.
    c = RationalCone.from_generators([(1, 0), (0, 1), (0, -1)])
    assert _lineality_dim(c) == 1
    assert c.dim == 2
    assert c.facet_normals == ((1, 0),)
    assert c.dual().generators == ((1, 0),)


def test_faces_of_quadrant():
    c = RationalCone.from_generators([(1, 0), (0, 1)])
    edges = c.faces_of_dim(1)
    assert {e.generators for e in edges} == {((1, 0),), ((0, 1),)}
    assert c.faces_of_dim(0) == [RationalCone.zero(2)]
    assert c.faces_of_dim(2) == [c]


def test_faces_of_simplicial_4cone():
    c = RationalCone.from_generators(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    assert len(c.faces_of_dim(1)) == 4
    assert len(c.faces_of_dim(2)) == 6
    assert len(c.faces_of_dim(3)) == 4


def test_faces_cone_over_square():
    c = RationalCone.from_generators(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    )
    assert len(c.generators) == 4
    assert len(c.faces_of_dim(2)) == 4
    assert len(c.faces_of_dim(1)) == 4


def test_contains_and_interior():
    q = RationalCone.from_generators([(1, 0), (0, 1)])
    assert q.contains((1, 1))
    assert not q.contains((-1, 0))
    assert q.contains_in_relative_interior((1, 1))
    assert not q.contains_in_relative_interior((1, 0))


def test_intersect():
    q = RationalCone.from_generators([(1, 0), (0, 1)])
    c = RationalCone.from_generators([(1, 1), (-1, 1)])
    inter = _intersect(q, c)
    assert set(inter.generators) == {(1, 1), (0, 1)}


def test_dual_dual_is_identity_pointed_and_not():
    cones = [
        RationalCone.from_generators([(1, 0), (1, 2)]),
        RationalCone.from_generators([(1, 0, 0), (0, 1, 0), (0, -1, 0)]),
        RationalCone.zero(2),
        full_space(3),
    ]
    for c in cones:
        assert c.dual().dual() == c


vectors3 = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(vectors3)
def test_dual_dual_property(vecs):
    vecs = [v for v in vecs if any(v)]
    if not vecs:
        c = RationalCone.zero(3)
    else:
        c = RationalCone.from_generators(vecs, 3)
    assert c.dual().dual() == c
    for g in c.generators:
        assert all(dot(n, g) >= 0 for n in c.facet_normals)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d),
            min_size=d,
            max_size=8,
        )
    )
)
def test_against_brute_force(vecs):
    vecs = [tuple(v) for v in vecs if any(v)]
    if not vecs:
        return
    dim = len(vecs[0])
    if rational_rank([list(v) for v in vecs]) != dim:
        return
    c = RationalCone.from_generators(vecs, dim)
    if _lineality_dim(c) != 0:
        return
    expected_normals = brute_force_facets(vecs, dim)
    assert set(c.facet_normals) == expected_normals
    expected_rays = brute_force_extreme_rays(
        [primitive_vector(v) for v in vecs], expected_normals
    )
    assert set(c.generators) == expected_rays


def test_generator_irredundancy():
    c = RationalCone.from_generators([(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 1, -1)])
    for g in c.generators:
        rest = [h for h in c.generators if h != g]
        smaller = RationalCone.from_generators(rest, 3)
        assert not smaller.contains(g)


def test_dimension_mismatch_raises():
    q = RationalCone.from_generators([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        q.contains((1, 0, 0))
    with pytest.raises(ValueError):
        RationalCone.from_generators([(1, 0), (1, 0, 0)])


def test_dual_extreme_rays_no_constraints():
    rays = dual_extreme_rays([], 2)
    assert set(rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


vectors4 = st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    min_size=1,
    max_size=7,
)


@settings(max_examples=120, deadline=None)
@given(vectors4, st.randoms(use_true_random=False), st.lists(st.integers(1, 5), min_size=7, max_size=7))
def test_dual_extreme_rays_ignores_order_duplicates_and_scale(vecs, rnd, scales):
    expected = dual_extreme_rays(vecs, 4)
    assert expected == sorted(set(expected))
    assert all(primitive_vector(r) == r for r in expected)
    scaled = [[k * x for x in v] for v, k in zip(vecs, scales)] + vecs[:2] + [[0, 0, 0, 0]]
    for _ in range(3):
        rnd.shuffle(scaled)
        assert dual_extreme_rays(scaled, 4) == expected
        assert dual_extreme_rays([tuple(v) for v in reversed(scaled)], 4) == expected


def test_dual_extreme_rays_returns_a_fresh_list():
    vecs = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    first = dual_extreme_rays(vecs, 3)
    expected = list(first)
    first.append((9, 9, 9))
    first[0] = (0, 0, 0)
    second = dual_extreme_rays(vecs, 3)
    assert second == expected
    assert second is not first


def _reference_pointed_extreme_rays(constraints, dim):
    """Double description as it was before tight sets were carried: a
    greedy rank-test base, one rational solve per initial ray, every
    tight set recomputed per halfspace and the algebraic (rank)
    adjacency test next to the combinatorial one.  None on constraints
    of rank below ``dim``, as ``cones._pointed_extreme_rays``."""
    if dim == 0:
        return []
    base = []
    for idx in range(len(constraints)):
        if rational_rank([constraints[i] for i in base] + [constraints[idx]]) > len(base):
            base.append(idx)
            if len(base) == dim:
                break
    if len(base) < dim:
        return None
    bmat = [constraints[i] for i in base]
    rays = [
        primitive_vector(solve_rational(bmat, [int(i == k) for i in range(dim)]))
        for k in range(dim)
    ]
    processed = list(base)
    for idx in range(len(constraints)):
        if idx in base:
            continue
        a = constraints[idx]
        vals = {r: dot(a, r) for r in rays}
        pos = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        neg = [r for r in rays if vals[r] < 0]
        processed.append(idx)
        if not neg:
            continue
        new_rays = pos + zero
        tight = {r: {j for j in processed if dot(constraints[j], r) == 0} for r in rays}
        for rp in pos:
            for rn in neg:
                common = tight[rp] & tight[rn]
                if any(r not in (rp, rn) and common <= tight[r] for r in rays):
                    continue
                rank = rational_rank([constraints[j] for j in common]) if common else 0
                if rank != dim - 2:
                    continue
                combo = [vals[rp] * x - vals[rn] * y for x, y in zip(rn, rp)]
                new_rays.append(primitive_vector(combo))
        rays = list(dict.fromkeys(new_rays))
    return rays


@st.composite
def degenerate_constraints(draw):
    """Constraints in dimension 2..7, half of them 0/1 sums of two or
    three of the others, so that many rows are tight on each ray."""
    d = draw(st.integers(min_value=2, max_value=7))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)
    gens = draw(st.lists(vec, min_size=d, max_size=d + 3))
    picks = st.sets(st.integers(min_value=0, max_value=len(gens) - 1), min_size=2, max_size=3)
    sums = [
        [sum(gens[i][t] for i in pick) for t in range(d)]
        for pick in draw(st.lists(picks, min_size=len(gens), max_size=len(gens)))
    ]
    order = draw(st.permutations(range(2 * len(gens))))
    rows = gens + sums
    return d, [rows[i] for i in order]


@settings(max_examples=200, deadline=None)
@given(degenerate_constraints())
def test_dual_extreme_rays_match_the_reference_on_degenerate_inputs(case):
    d, vecs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_pointed_extreme_rays", _reference_pointed_extreme_rays)
        expected = dual_extreme_rays(vecs, d)
    assert dual_extreme_rays(vecs, d) == expected


def _reference_dual_extreme_rays(vectors, ambient_dim):
    """Test-only reference: the conversion as it was before full-rank
    input skipped the lineality step.  The lineality space is always
    found by HNF, and the pointed part is converted inside its
    orthogonal complement."""
    cons = sorted(cones._dedupe_primitive(vectors))
    if not cons:
        units = cones._unit_vectors(ambient_dim)
        return sorted(units + [tuple(-x for x in u) for u in units])
    lineality = integer_kernel([list(c) for c in zip(*cons)])
    if lineality:
        complement = integer_kernel([list(c) for c in zip(*lineality)])
    else:
        complement = cones._unit_vectors(ambient_dim)
    out = []
    for l in lineality:
        out.append(tuple(l))
        out.append(tuple(-x for x in l))
    d = len(complement)
    if d:
        reduced = [tuple(dot(c, w) for w in complement) for c in cons]
        reduced = [r for r in reduced if any(r)]
        for t in cones._pointed_extreme_rays(cones._dedupe_primitive(reduced), d):
            ray = tuple(sum(t[k] * complement[k][j] for k in range(d)) for j in range(ambient_dim))
            out.append(primitive_vector(ray))
    return sorted(set(out))


@st.composite
def small_constraint_sets(draw):
    """Up to six constraints in dimension 1..5: possibly none, possibly
    of rank below the dimension (rows drawn in a random subspace), and
    possibly with +/- pairs, which put a hyperplane in the lineality."""
    d = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=d))
    vec = st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d)
    basis = draw(st.lists(vec, min_size=k, max_size=k))
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=k, max_size=k)
    rows = [
        [sum(c * b[t] for c, b in zip(cs, basis)) for t in range(d)]
        for cs in draw(st.lists(coeffs, max_size=6))
    ]
    negated = draw(st.sets(st.integers(min_value=0, max_value=5)))
    rows += [[-x for x in rows[i]] for i in sorted(negated) if i < len(rows)]
    return d, rows


@settings(max_examples=300, deadline=None)
@given(small_constraint_sets())
def test_dual_extreme_rays_match_the_lineality_path(case):
    d, vecs = case
    assert dual_extreme_rays(vecs, d) == _reference_dual_extreme_rays(vecs, d)


def test_full_rank_conversion_takes_no_lineality_step(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return integer_kernel(m)

    monkeypatch.setattr(cones, "integer_kernel", counted)
    # y >= 0 with y3 <= y1 + y2: full rank, so no kernel is taken.
    assert dual_extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3) == [
        (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)
    ]
    assert calls == []
    # A +/- pair leaves a line of lineality, found by one kernel.
    assert dual_extreme_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], 3) == [
        (0, 0, -1), (0, 0, 1), (0, 1, 0)
    ]
    assert len(calls) == 1
