"""Cross-cutting randomized and oracle-backed property tests."""

import functools
import random
from fractions import Fraction
from math import gcd, lcm
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.cones import RationalCone
from toricfano.fan import Fan
from toricfano.lattice import dot, dual_basis, primitive_vector
from toricfano.library import bl_pt_p4, builtin, p4, product_fan
from toricfano import mori
from toricfano.mori import (
    classified_fixed_divisors,
    cone_suite,
    lefschetz_defect,
    lefschetz_witnesses,
    mori_chambers,
    verify_bounds,
)
from toricfano.surgery import blowup, contract, extremal_rays, flip, ne_cone
from toricfano.variety import ToricVariety

CORPUS = ["P4", "P1xP3", "P2xP2", "F2xP2", "Bl_pt_P4", "D3", "B511", "Y_tower", "R3"]


# -- intersection numbers against the multinomial oracle ----------------


def product_oracle(dims, coeff_vectors):
    """Top intersection of divisors sum_i a_i H_i on a product of
    projective spaces, by multinomial expansion: the only surviving
    monomial is prod H_i^{dims[i]}."""
    total = sum(dims)
    acc = {(0,) * len(dims): Fraction(1)}
    for a in coeff_vectors:
        nxt = {}
        for expo, c in acc.items():
            for i, ai in enumerate(a):
                if ai == 0:
                    continue
                e = list(expo)
                e[i] += 1
                if e[i] > dims[i]:
                    continue
                key = tuple(e)
                nxt[key] = nxt.get(key, Fraction(0)) + c * ai
        acc = nxt
    assert total == len(coeff_vectors)
    return acc.get(tuple(dims), Fraction(0))


def _product_factors(name):
    return {
        "P4": ([4], [[0]]),
        "P1xP3": ([1, 3], None),
        "P2xP2": ([2, 2], None),
    }[name]


def _unit(X, i):
    """The coefficient vector of the invariant prime divisor D_i."""
    return tuple(int(j == i) for j in range(X.n_rays))


def _combine(coeffs, vectors):
    """sum_k coeffs[k] vectors[k], entrywise."""
    return tuple(sum(a * v[j] for a, v in zip(coeffs, vectors)) for j in range(len(vectors[0])))


def _hyperplane_classes(X, name):
    if name == "P4":
        return [_unit(X, 0)]
    if name == "P1xP3":
        return [_unit(X, 0), _unit(X, 2)]
    if name == "P2xP2":
        return [_unit(X, 0), _unit(X, 3)]
    raise KeyError(name)


@pytest.mark.parametrize("name", ["P4", "P1xP3", "P2xP2"])
def test_intersection_against_multinomial_oracle(name):
    X = builtin(name)
    dims, _ = _product_factors(name)
    hs = _hyperplane_classes(X, name)
    rng = random.Random(f"oracle-{name}")
    for _ in range(20):
        coeffs = [
            [rng.randint(-3, 3) for _ in dims] for _ in range(4)
        ]
        divisors = [_combine(a, hs) for a in coeffs]
        expected = product_oracle(dims, coeffs)
        assert X.intersection_number(*divisors) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=2, max_size=2),
        min_size=4,
        max_size=4,
    )
)
def test_intersection_multilinear_random(quads):
    X = bl_pt_p4()
    H = _unit(X, 4)
    E = _unit(X, 5)
    divisors = [_combine((a, b), (H, E)) for a, b in quads]
    v = X.intersection_number(*divisors)
    swapped = [divisors[1], divisors[0], divisors[3], divisors[2]]
    assert X.intersection_number(*swapped) == v
    doubled = [_combine((2,), divisors[:1])] + divisors[1:]
    assert X.intersection_number(*doubled) == 2 * v


# -- the fixed-point kernel against the Fraction restriction it replaced ----


def _reference_product_on_cycle(X, cycle, vectors):
    """Degree of the divisors' product with sum_sigma coef * V(sigma) by
    iterated restriction to orbit closures, as computed before the
    fixed-point kernel: per face one rational solve for m with
    m . u_i = a_i on the face, then a scan over all rays for the faces
    one dimension up, in Fraction arithmetic throughout."""
    from toricfano.lattice import solve_rational

    faces = {
        tuple(c[i] for i in range(len(c)) if mask >> i & 1)
        for c in X.fan.max_cones
        for mask in range(1 << len(c))
    }
    terms = {sigma: Fraction(coef) for sigma, coef in cycle.items()}
    for vec in vectors:
        nxt = {}
        for sigma, coef in terms.items():
            adj = list(vec)
            if sigma:
                m = solve_rational([list(X.fan.rays[i]) for i in sigma], [vec[i] for i in sigma])
                adj = [vec[i] - sum(a * b for a, b in zip(X.fan.rays[i], m)) for i in range(X.n_rays)]
            for i in range(X.n_rays):
                tau = tuple(sorted(sigma + (i,)))
                if i not in sigma and adj[i] != 0 and tau in faces:
                    nxt[tau] = nxt.get(tau, Fraction(0)) + coef * Fraction(adj[i])
        terms = {s: c for s, c in nxt.items() if c != 0}
    return sum(terms.values(), Fraction(0))


def _two_cones(X):
    return sorted({p for c in X.fan.max_cones for p in combinations(c, 2)})


def _bott_sum(X, xi, vectors, c2):
    """The fixed-point sum for another weight xi, in Fraction arithmetic."""
    total = Fraction(0)
    for cone, rows in X.report.dual_bases.items():
        w = [dot(g, xi) for g in rows]
        term = Fraction(1, w[0] * w[1] * w[2] * w[3])
        if c2:
            term *= sum(a * b for a, b in combinations(w, 2))
        for vec in vectors:
            term *= sum(vec[i] * x for i, x in zip(cone, w))
        total += term
    return total


@functools.cache
def _reference_models(name):
    """The builtin, its other chamber models, and its blow-ups at a face
    of 2, 3 and 4 rays of its first maximal cone."""
    X = builtin(name)
    chambers = [
        ToricVariety(f) for f in mori_chambers(X).fans if f.canonical_key() != X.fan.canonical_key()
    ]
    cone = X.fan.max_cones[0]
    return [X] + chambers + [blowup(X, cone[:k]) for k in (2, 3, 4)]


def _check_against_reference(X, data):
    # Integer divisor vectors, or the same halved into half-integers.
    entries = st.lists(st.integers(min_value=-3, max_value=3), min_size=X.n_rays, max_size=X.n_rays)
    half = data.draw(st.booleans())
    vecs = [
        [Fraction(x, 2) if half else x for x in v]
        for v in data.draw(st.lists(entries, min_size=4, max_size=4))
    ]
    value = X.intersection_number(*vecs)
    assert type(value) is Fraction
    assert value == _reference_product_on_cycle(X, {(): 1}, vecs)
    c2 = X.c2_product(vecs[0], vecs[1])
    assert type(c2) is Fraction
    # c2 is the sum of the invariant surfaces V(tau), tau a 2-cone.
    assert c2 == _reference_product_on_cycle(X, dict.fromkeys(_two_cones(X), 1), vecs[:2])
    # Any other weight with no zero tangent weight gives the same sums.
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    xi = [0] * 4
    while not all(dot(g, xi) for rows in X.report.dual_bases.values() for g in rows):
        xi = [rng.randint(-10**6, 10**6) for _ in range(4)]
    assert _bott_sum(X, xi, vecs, c2=False) == value
    assert _bott_sum(X, xi, vecs[:2], c2=True) == c2


@pytest.mark.parametrize("name", CORPUS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_intersections_match_fraction_reference(name, data):
    _check_against_reference(builtin(name), data)


@pytest.mark.parametrize("name", CORPUS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_intersections_match_fraction_reference_on_models(name, data):
    # The chamber models and the blow-ups at 2-, 3- and 4-ray faces.
    for X in _reference_models(name)[1:]:
        _check_against_reference(X, data)


@pytest.mark.parametrize("name", CORPUS)
def test_intersection_kernel_stays_integral_on_integer_input(name):
    rng = random.Random(f"integral-{name}")
    for X in _reference_models(name):
        vecs = [[1] * X.n_rays] + [
            [rng.randint(-5, 5) for _ in range(X.n_rays)] for _ in range(3)
        ]
        assert X.intersection_number(*vecs).denominator == 1
        assert X.c2_product(vecs[0], vecs[1]).denominator == 1
        assert X.c2_product(vecs[2], vecs[3]).denominator == 1


# -- the anticanonical ledger against a closed form on products of surfaces --


def _polygon_fan(rays):
    """Complete fan of a smooth toric surface, rays in cyclic order."""
    n = len(rays)
    return Fan.make(2, [list(r) for r in rays], [[i, (i + 1) % n] for i in range(n)])


DEL_PEZZO = {
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P1xP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "F1": [(1, 0), (0, 1), (-1, 1), (0, -1)],
    "S7": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    "S3": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
}


@pytest.mark.parametrize(
    "s,t", list(combinations_with_replacement(DEL_PEZZO, 2)), ids="x".join
)
def test_ledger_of_del_pezzo_products_matches_closed_form(s, t):
    # On S x T with e rays and k = K^2 = 12 - e per factor: -K = -K_S - K_T,
    # c2 = c2(S) + c1(S) c1(T) + c2(T) and chi(-K) = chi(-K_S) chi(-K_T).
    X = ToricVariety(product_fan(_polygon_fan(DEL_PEZZO[s]), _polygon_fan(DEL_PEZZO[t])))
    e_s, e_t = len(DEL_PEZZO[s]), len(DEL_PEZZO[t])
    k_s, k_t = 12 - e_s, 12 - e_t
    ledger = X.ledger_state()
    assert ledger.degK4 == 6 * k_s * k_t
    assert ledger.c2K2 == k_s * e_t + k_t * e_s + 2 * k_s * k_t
    assert ledger.chi_minusK == (k_s + 1) * (k_t + 1)
    assert ledger.rho == X.rho == e_s + e_t - 4
    assert X.is_fano


# -- stage 0 of the corpus: the 15 products of toric del Pezzo surfaces ---


def _del_pezzo_product(s, t):
    return ToricVariety(product_fan(_polygon_fan(DEL_PEZZO[s]), _polygon_fan(DEL_PEZZO[t])))


def _minus_one_curves(rays):
    """Rays of a smooth polygon fan whose curve has self-intersection -1,
    that is u_{i-1} + u_{i+1} = u_i."""
    n = len(rays)
    return [
        i for i in range(n)
        if all(a + b == c for a, b, c in zip(rays[i - 1], rays[(i + 1) % n], rays[i]))
    ]


# rho = 7 and rho = 8 with delta = 3: the claim "delta = 3 implies
# rho <= 6" fails on these smooth toric Fano 4-folds.  The claim stays
# as it is until its literature statement is quoted.
_BOUND_FAILURES = {("S7", "S3"), ("S3", "S3")}
DEL_PEZZO_PRODUCTS = list(combinations_with_replacement(DEL_PEZZO, 2))


@pytest.mark.parametrize("s,t", DEL_PEZZO_PRODUCTS, ids=[f"{s}x{t}" for s, t in DEL_PEZZO_PRODUCTS])
def test_engine_checks_on_del_pezzo_products(s, t):
    # One chamber, Mov = Nef; the fixed prime divisors are E x T and
    # S x E over the (-1)-curves E of each factor, each contracting to
    # a surface; delta = max(rho_S, rho_T) - 1, attained by the
    # divisors C x T over the factor of larger rho.
    X = _del_pezzo_product(s, t)
    off = len(DEL_PEZZO[s])
    rho = (off - 2, len(DEL_PEZZO[t]) - 2)
    suite = cone_suite(X)
    chambers = mori_chambers(X)
    assert chambers.count == 1 and chambers.excluded == []
    assert chambers.chambers[0] == suite.nef == suite.mov
    reports = classified_fixed_divisors(X)
    expected = _minus_one_curves(DEL_PEZZO[s]) + [off + i for i in _minus_one_curves(DEL_PEZZO[t])]
    assert [r.ray_index for r in reports] == expected
    assert all((r.type_label, r.pairing_D_CD, r.degK_CD) == ("(3,2)^sm", -1, 1) for r in reports)
    delta, witness = lefschetz_defect(X)
    assert delta == max(rho) - 1
    assert lefschetz_witnesses(X) == [i for i in range(X.n_rays) if rho[i >= off] == max(rho)]
    assert witness == lefschetz_witnesses(X)[0]


@pytest.mark.parametrize(
    "s,t",
    [
        pytest.param(
            s, t, id=f"{s}x{t}",
            marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason="delta = 3 with rho > 6")]
            if (s, t) in _BOUND_FAILURES else [],
        )
        for s, t in DEL_PEZZO_PRODUCTS
    ],
)
def test_verify_bounds_on_del_pezzo_products(s, t):
    assert [claim for claim, holds in verify_bounds(_del_pezzo_product(s, t)) if not holds] == []


# -- walls against the full-width reference ------------------------------


def _curve_class_from_relation(X, relation):
    """Curve-basis coordinates of an integer relation among the rays,
    checked and paired over all the rays: the relation lattice is
    saturated, so r is sum_a (r . s_a) k_a over the section columns s_a."""
    if len(relation) != X.n_rays:
        raise ValueError("relation has wrong length")
    if any(x != int(x) for x in relation) or any(
        sum(x * u[t] for x, u in zip(relation, X.fan.rays)) for t in range(X.dim)
    ):
        raise ValueError("vector is not an integer relation among the rays")
    return tuple(int(dot(relation, col)) for col in X._section)


def _reference_walls(X):
    """(relation, curve class, degK) of every wall, each relation built
    n_rays wide from a fresh dual basis of its cone and classed by
    ``_curve_class_from_relation``."""
    out = []
    for facet, (c1, c2) in sorted(X.fan.facets().items()):
        a = next(i for i in c1 if i not in facet)
        b = next(i for i in c2 if i not in facet)
        a, b = min(a, b), max(a, b)
        basis_cone = c1 if a in c1 else c2
        other = b if a in basis_cone else a
        normals = dual_basis([X.fan.rays[i] for i in basis_cone])
        scales = [dot(n, X.fan.rays[j]) for n, j in zip(normals, basis_cone)]
        denom = lcm(*scales)
        rel = [0] * X.n_rays
        rel[other] = denom
        for n, j, s in zip(normals, basis_cone, scales):
            rel[j] = -dot(n, X.fan.rays[other]) * (denom // s)
        g = gcd(*rel)
        rel = tuple(x // g for x in rel)
        curve = _curve_class_from_relation(X, rel) if X.is_smooth else (0,) * X.rho
        out.append((rel, curve, sum(rel)))
    return out


def _assert_walls_match_reference(X):
    assert [(w.relation, w.curve_class, w.degK) for w in X.walls] == _reference_walls(X)


def test_curve_class_from_relation_rejects_non_relations():
    X = bl_pt_p4()
    w = X.walls[0]
    assert _curve_class_from_relation(X, w.relation) == w.curve_class
    assert _curve_class_from_relation(X, [2 * x for x in w.relation]) == tuple(2 * x for x in w.curve_class)
    not_a_relation = list(w.relation)
    not_a_relation[0] += 1
    with pytest.raises(ValueError):
        _curve_class_from_relation(X, not_a_relation)
    with pytest.raises(ValueError):
        _curve_class_from_relation(X, [Fraction(x, 2) for x in w.relation])
    with pytest.raises(ValueError):
        _curve_class_from_relation(X, w.relation[:-1])


@pytest.mark.parametrize("name", CORPUS)
def test_walls_match_full_width_reference(name, monkeypatch):
    # The builtin, its chamber models and blow-ups, and every model the
    # exhaustive MMPs of its fixed divisors step to, singular ones too.
    visited = []
    apply_step = mori._apply_step

    def recording(*args):
        step, Y, vec = apply_step(*args)
        visited.append(Y)
        return step, Y, vec

    monkeypatch.setattr(mori, "_apply_step", recording)
    classified_fixed_divisors(builtin(name))
    for X in _reference_models(name) + visited:
        _assert_walls_match_reference(X)


@pytest.mark.parametrize("s,t", DEL_PEZZO_PRODUCTS, ids=[f"{s}x{t}" for s, t in DEL_PEZZO_PRODUCTS])
def test_walls_match_full_width_reference_on_del_pezzo_products(s, t):
    _assert_walls_match_reference(_del_pezzo_product(s, t))


# -- blow-up / contract round trips on random centers -------------------


@pytest.mark.parametrize("name", ["P4", "P1xP3", "P2xP2", "Bl_pt_P4"])
def test_blowup_contract_round_trip_random_centers(name):
    X = builtin(name)
    rng = random.Random(f"roundtrip-{name}")
    faces = sorted(
        {
            tuple(sorted(sub))
            for c in X.fan.max_cones
            for k in (2, 3, 4)
            for sub in combinations(c, k)
        }
    )
    for center in rng.sample(faces, min(10, len(faces))):
        Y = blowup(X, center)
        assert Y.report.ok
        back = contract(Y, Y.n_rays - 1, center)
        assert back.fan.canonical_key() == X.fan.canonical_key()


def test_blowup_ledger_cross_check_curve_centers():
    # Invariant-curve centers: the fan recomputation must match the
    # genus-0 curve blow-up deltas with -K.C read off the wall degree.
    X = p4()
    wall_by_shared = {w.shared: w for w in X.walls}
    for center in [(0, 1, 2), (1, 2, 3), (0, 2, 4)]:
        w = wall_by_shared[center]
        d = w.degK + 2
        before, after = X.ledger_state(), blowup(X, center).ledger_state()
        assert before.chi_minusK - after.chi_minusK == 3 * d
        assert before.degK4 - after.degK4 == 16 * d
        assert before.c2K2 - after.c2K2 == 4 * d


# -- flips ---------------------------------------------------------------


def _flippable_classes(X):
    return [
        c for c, d in extremal_rays(X) if d.kind == "small" and d.flippable
    ]


def test_flip_involution_across_chamber_graph():
    X = builtin("R3")
    graph = mori_chambers(X)
    count = 0
    for fan in graph.fans:
        node = ToricVariety(fan)
        for c in _flippable_classes(node):
            flipped, circuits = flip(node, c)
            back, _ = flip(flipped, [-x for x in c])
            assert back.fan.canonical_key() == node.fan.canonical_key()
            count += 1
    assert count >= 10


def test_flip_circuits_disjoint_on_fano():
    for name in ("D3", "R3"):
        X = builtin(name)
        for c in _flippable_classes(X):
            _, circuits = flip(X, c)
            for a, b in combinations(circuits, 2):
                assert not set(a.support) & set(b.support)


def test_flip_chi_conservation_everywhere():
    X = builtin("R3")
    graph = mori_chambers(X)
    for fan in graph.fans:
        node = ToricVariety(fan)
        before = node.ledger_state()
        for c in _flippable_classes(node):
            flipped, circuits = flip(node, c)
            after = flipped.ledger_state()
            s = len(circuits)
            assert after.chi_minusK == before.chi_minusK
            assert abs(after.degK4 - before.degK4) == s
            assert after.rho == before.rho


# -- chamber decomposition against the weight-perturbation oracle --------


def _chambers_by_weight_walk(X, max_nodes=64):
    """Independent enumeration of the movable-cone chambers: walk facets
    by perturbing a facet point beyond the wall and reading off the
    regular triangulation the perturbed weight selects."""
    classes = list(X.ray_classes)
    mov = cone_suite(X).mov

    def triangulation(w):
        cones = set()
        for sigma in combinations(range(X.n_rays), X.dim):
            complement = [classes[j] for j in range(X.n_rays) if j not in sigma]
            cone = RationalCone.from_generators(complement, X.rho)
            if cone.contains(w):
                cones.add(tuple(sigma))
        return cones

    def fan_for_weight(w):
        cones = [
            c
            for c in triangulation(w)
            if RationalCone.from_generators([X.fan.rays[i] for i in c], X.dim).dim
            == X.dim
        ]
        try:
            return ToricVariety(Fan.make(X.dim, [list(r) for r in X.fan.rays], cones))
        except Exception:
            return None

    start_nef = ne_cone(X).dual()
    seen = {X.fan.canonical_key(): (X, start_nef)}
    queue = [(X, start_nef)]
    while queue:
        node, nef = queue.pop()
        w_in = nef.interior_point()
        for facet in nef.faces_of_dim(X.rho - 1):
            p = facet.interior_point()
            if not mov.contains_in_relative_interior(p):
                continue
            for k in range(1, 13):
                scale = 2**k
                w_out = tuple((scale + 1) * a - b for a, b in zip(p, w_in))
                if not mov.contains(w_out) or nef.contains(w_out):
                    continue
                neighbor = fan_for_weight(w_out)
                if neighbor is None:
                    continue
                nnef = ne_cone(neighbor).dual()
                if not nnef.contains(p):
                    continue
                key = neighbor.fan.canonical_key()
                if key not in seen:
                    if len(seen) >= max_nodes:
                        raise RuntimeError("oracle walk exceeded node cap")
                    seen[key] = (neighbor, nnef)
                    queue.append((neighbor, nnef))
                break
    return seen


@pytest.mark.parametrize("name", ["Bl_pt_P4", "D3", "R3"])
def test_chamber_count_matches_weight_oracle(name):
    X = builtin(name)
    ours = mori_chambers(X)
    oracle = _chambers_by_weight_walk(X)
    assert ours.count == len(oracle)
    assert {f.canonical_key() for f in ours.fans} == set(oracle)


# -- cone suite on the whole corpus --------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_cone_suite_identities_corpus(name):
    X = builtin(name)
    suite = cone_suite(X)
    # The dual descriptions read back against the wall and ray classes.
    walls = [w.curve_class for w in X.walls]
    classes = list(X.ray_classes)
    assert set(suite.ne.generators) <= {primitive_vector(c) for c in walls}
    assert set(suite.eff.generators) <= {primitive_vector(c) for c in classes}
    assert all(dot(c, g) >= 0 for c in walls for g in suite.nef.generators)
    assert all(dot(c, g) >= 0 for c in classes for g in suite.mov_curves.generators)
    assert suite.mov.contains_cone(suite.nef)
    assert suite.eff.contains_cone(suite.mov)
    assert suite.nef.dim == X.rho


@pytest.mark.parametrize("name", CORPUS)
def test_walls_relations2_corpus(name):
    X = builtin(name)
    for w in X.walls:
        assert sum(w.relation) == w.degK
        combo = [
            sum(w.relation[i] * X.fan.rays[i][t] for i in range(X.n_rays))
            for t in range(X.dim)
        ]
        assert all(x == 0 for x in combo)


@pytest.mark.parametrize("name", CORPUS)
def test_point_count_on_unimodular_quadruples(name):
    X = builtin(name)
    cone = X.fan.max_cones[0]
    classes = [_unit(X, i) for i in cone]
    assert X.intersection_number(*classes) == 1


def test_random_blowup_chains_stay_consistent():
    # Random towers of invariant blow-ups: every intermediate fan must
    # validate, the class-group rank must track the ray count, the
    # Riemann-Roch identity must hold for the fan-derived ledger, and
    # the cone chain must survive.
    rng = random.Random("blowup-chains")
    for start_name in ("P4", "P1xP3"):
        for _ in range(6):
            X = builtin(start_name)
            for depth in range(3):
                faces = sorted(
                    {
                        tuple(sorted(sub))
                        for cone in X.fan.max_cones
                        for k in (2, 3, 4)
                        for sub in combinations(cone, k)
                    }
                )
                X = blowup(X, rng.choice(faces))
                assert X.report.ok
                assert X.rho == X.n_rays - 4
                s = X.ledger_state()
                assert 12 * (s.chi_minusK - s.chi_O) == 2 * s.degK4 + s.c2K2
            suite = cone_suite(X)
            walls = [w.curve_class for w in X.walls]
            assert all(dot(c, g) >= 0 for c in walls for g in suite.nef.generators)
            assert suite.eff.contains_cone(suite.mov)
            assert suite.mov.contains_cone(suite.nef)


# -- Euler characteristics against lattice-point enumeration -------------


def _lattice_points_of_nef(X, coeffs):
    """Count lattice points of {m : <m, u_i> >= -a_i}; for a nef divisor
    on a smooth complete toric variety this is chi(D), by vanishing."""
    from toricfano.lattice import solve_rational

    verts = []
    for cone in X.fan.max_cones:
        sol = solve_rational(
            [list(X.fan.rays[i]) for i in cone], [-coeffs[i] for i in cone]
        )
        assert sol is not None
        verts.append(sol)
    lo = [min(v[t] for v in verts) for t in range(X.dim)]
    hi = [max(v[t] for v in verts) for t in range(X.dim)]
    import math

    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    count = 0
    from itertools import product as iproduct

    for m in iproduct(*ranges):
        if all(
            sum(m[t] * X.fan.rays[i][t] for t in range(X.dim)) >= -coeffs[i]
            for i in range(X.n_rays)
        ):
            count += 1
    return count


def _chi_by_riemann_roch(X, coeffs):
    # chi(D) = (D^4 - 2 K.D^3 + D^2.(K^2 + c2) - D.K.c2) / 24 + chi(O).
    D = coeffs
    K = [-1] * X.n_rays
    D4 = X.intersection_number(D, D, D, D)
    KD3 = X.intersection_number(K, D, D, D)
    K2D2 = X.intersection_number(K, K, D, D)
    D2c2 = X.c2_pairing(D)
    DKc2 = X.c2_product(D, K)
    return (D4 - 2 * KD3 + K2D2 + D2c2 - DKc2) / 24 + 1


def _is_nef(X, coeffs):
    D = X.divisor_class(coeffs)
    return all(dot(D, w.curve_class) >= 0 for w in X.walls)


@pytest.mark.parametrize(
    "name", ["P4", "P1xP3", "P2xP2", "F2xP2", "Bl_pt_P4", "D3", "B511", "Y_tower", "R3"]
)
def test_chi_of_nef_divisors_counts_lattice_points(name):
    # Riemann-Roch from the intersection engine versus raw enumeration.
    X = builtin(name)
    rng = random.Random(f"chi-points-{name}")
    candidates = [tuple([1] * X.n_rays)]
    for _ in range(12):
        candidates.append(tuple(rng.randint(0, 2) for _ in range(X.n_rays)))
    tested = 0
    for coeffs in candidates:
        if not _is_nef(X, coeffs):
            continue
        chi = _chi_by_riemann_roch(X, coeffs)
        assert chi.denominator == 1
        assert int(chi) == _lattice_points_of_nef(X, coeffs)
        tested += 1
    assert tested >= 2
