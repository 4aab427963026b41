import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricfano
from fan_corruptions import BUILTIN_FANS, corrupted_fans
from toricfano.cones import RationalCone
from toricfano.fan import (
    Fan,
    ValidationError,
    _cone_normals,
    fan_from_json,
    fan_to_json,
    validate,
)
from toricfano.lattice import det_int, dot, dual_basis, primitive_vector, solve_integer, solve_rational
from toricfano.library import (
    BUILTIN_BUILDERS,
    bl_pt_p4,
    builtin,
    builtin_names,
    d3,
    f2xp2,
    hirzebruch_fan,
    p1xp3,
    p2xp2,
    p4,
    projective_space_fan,
)
from toricfano.variety import ToricVariety


def test_p4_fan_validates():
    report = validate(projective_space_fan(4))
    assert report.ok
    assert [c.name for c in report.checks] == [
        "structure",
        "primitivity",
        "smoothness",
        "face_compatibility",
        "completeness",
    ]


def test_weighted_projective_space_fails_smoothness():
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -2]]
    cones = [[j for j in range(5) if j != i] for i in range(5)]
    report = validate(Fan.make(4, rays, cones))
    assert not report.ok
    bad = next(c for c in report.checks if c.name == "smoothness")
    assert not bad.passed
    assert "|det| = 2" in bad.detail


def test_incomplete_fan_fails():
    f = projective_space_fan(4)
    report = validate(Fan.make(4, [list(r) for r in f.rays], f.max_cones[1:]))
    assert not report.ok
    assert not next(c for c in report.checks if c.name == "completeness").passed


def test_nonprimitive_ray_fails():
    rays = [[2, 0], [0, 1], [-2, -1]]
    cones = [[0, 1], [1, 2], [0, 2]]
    report = validate(Fan.make(2, rays, cones))
    assert not next(c for c in report.checks if c.name == "primitivity").passed


def test_overlapping_cones_fail_face_compatibility():
    # Two maximal cones overlapping in a 2-dim region of the plane.
    rays = [[1, 0], [0, 1], [1, 1], [-1, -1], [-1, 0], [0, -1]]
    cones = [[0, 1], [0, 2], [1, 4], [4, 3], [3, 5], [5, 0]]
    report = validate(Fan.make(2, rays, cones))
    assert not report.ok


def _reference_pair_meets_in_common_face(fan, c1, c2, normals):
    """The pairwise test ``validate`` used before: a separating hyperplane
    built from the inward normals, else an exact DD intersection."""
    shared = sorted(set(c1) & set(c2))
    for cone, other in ((c1, c2), (c2, c1)):
        h = [0] * fan.dim
        for k, r in enumerate(cone):
            if r not in shared:
                h = [a + b for a, b in zip(h, normals[cone][k])]
        # h >= 0 on `cone`, tight exactly on the shared rays there.
        if all(
            sum(h[t] * fan.rays[j][t] for t in range(fan.dim)) < 0
            for j in other
            if j not in shared
        ):
            return True
    inter = RationalCone.from_generators(list(normals[c1]) + list(normals[c2]), fan.dim).dual()
    expected = RationalCone.from_generators([fan.rays[i] for i in shared], fan.dim)
    return inter == expected


def _reference_face_checks(fan):
    """First of face_compatibility/completeness to fail under the pairwise
    reference (all C(m,2) pairs, then two cones per facet and a connected
    facet-adjacency graph), or None when both pass."""
    normals = {c: dual_basis([fan.rays[i] for i in c]) for c in fan.max_cones}
    for a, c1 in enumerate(fan.max_cones):
        for c2 in fan.max_cones[a + 1 :]:
            if not _reference_pair_meets_in_common_face(fan, c1, c2, normals):
                return "face_compatibility"
    facet_map = fan.facets()
    if any(len(cs) != 2 for cs in facet_map.values()):
        return "completeness"
    adj = {c: set() for c in fan.max_cones}
    for c1, c2 in facet_map.values():
        adj[c1].add(c2)
        adj[c2].add(c1)
    seen, stack = {fan.max_cones[0]}, [fan.max_cones[0]]
    while stack:
        for nb in adj[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    return None if len(seen) == len(fan.max_cones) else "completeness"


def _face_verdict(report):
    """(reached the face checks, first of them to fail or None)."""
    names = [c.name for c in report.checks]
    degenerate = any(c.detail == "a maximal cone is degenerate" for c in report.checks)
    first = next(
        (c.name for c in report.checks if not c.passed and c.name in ("face_compatibility", "completeness")),
        None,
    )
    return "face_compatibility" in names and not degenerate, first


def _assert_matches_reference(fan):
    reached, first = _face_verdict(validate(fan))
    if not reached:
        return
    ref = _reference_face_checks(fan)
    assert (first is None) == (ref is None), (first, ref)
    if first == "face_compatibility" or all(len(cs) > 1 for cs in fan.facets().values()):
        assert first == ref
    # Otherwise validate names a ridge lying in one cone (the fan is not
    # complete); the reference may have met an overlapping pair first.


@settings(max_examples=150, deadline=None)
@given(corrupted_fans())
def test_validate_agrees_with_pairwise_reference_on_corrupted_fans(obj):
    _assert_matches_reference(Fan.make(obj["dim"], obj["rays"], obj["max_cones"]))


def test_validate_agrees_with_pairwise_reference_on_walked_fans(monkeypatch):
    from toricfano import fan as fan_module
    from toricfano.mori import classified_fixed_divisors, mori_chambers
    from toricfano.surgery import contract, extremal_rays
    from toricfano.variety import ToricVariety

    seen = {}
    original = fan_module.validate

    def recording(fan):
        seen[fan.canonical_key()] = fan
        return original(fan)

    monkeypatch.setattr(fan_module, "validate", recording)
    for name in builtin_names():
        X = builtin(name)
        # Smooth blow-downs are typed without building their targets, so
        # the walk contracts them here to keep their fans in the sample.
        for model in mori_chambers(X).fans:
            Y = ToricVariety(model)
            for _, d in extremal_rays(Y):
                if d.type_label and d.type_label.endswith("^sm"):
                    contract(Y, d.exc_rays[0], d.center)
        classified_fixed_divisors(X)
    monkeypatch.undo()
    assert len(seen) >= 40
    for fan in seen.values():
        # Singular contraction targets fail smoothness only.
        assert _face_verdict(validate(fan)) == (True, None)
        assert _reference_face_checks(fan) is None


def _opposite(cone, ridge, fan):
    return fan.rays[next(i for i in cone if i not in ridge)]


def test_same_side_ridge_is_named():
    # P4 with its last ray negated: the cones through the other four rays
    # and the flipped ray now fold over the ridges they share.
    f = projective_space_fan(4)
    rays = [list(r) for r in f.rays]
    rays[4] = [1, 1, 1, 1]
    fan = Fan.make(4, rays, f.max_cones)
    report = validate(fan)
    check = report.checks[-1]
    assert check.name == "face_compatibility" and not check.passed
    assert _reference_face_checks(fan) == "face_compatibility"
    detail = check.detail
    assert "lie on the same side of ridge" in detail
    cones_part, ridge_part = detail.split(" lie on the same side of ridge ")
    c1, c2 = (tuple(json.loads(x)) for x in cones_part[len("cones ") :].split(" and "))
    ridge = tuple(json.loads(ridge_part))
    assert c1 in fan.max_cones and c2 in fan.max_cones
    assert set(ridge) <= set(c1) and set(ridge) <= set(c2)
    # The witness is real: some normal vanishing on the ridge is positive
    # on both opposite rays.
    k = next(k for k, i in enumerate(c1) if i not in ridge)
    n = dual_basis([fan.rays[i] for i in c1])[k]
    assert sum(a * b for a, b in zip(n, _opposite(c2, ridge, fan))) > 0


def test_ridge_in_three_cones_is_named():
    # A dim-2 fan whose ray 0 lies in three cones: two of them share a side.
    rays = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]]
    cones = [[0, 1], [0, 2], [1, 3], [3, 4], [0, 4]]
    report = validate(Fan.make(2, rays, cones))
    check = report.checks[-1]
    assert check.name == "face_compatibility" and not check.passed
    assert check.detail == (
        "facet [0] lies in 3 maximal cones; "
        "cones [0, 1] and [0, 2] lie on the same side of ridge [0]"
    )


def _two_disjoint_copies(fan, m):
    rays = [list(r) for r in fan.rays]
    rays += [[sum(a * b for a, b in zip(row, r)) for row in m] for r in fan.rays]
    off = fan.n_rays
    cones = list(fan.max_cones) + [[off + i for i in c] for c in fan.max_cones]
    return Fan.make(fan.dim, rays, cones)


def test_double_cover_names_the_point_and_its_cones():
    # Two copies of P2 in different coordinates: every ridge lies in two
    # cones on opposite sides, but the plane is covered twice.
    fan = _two_disjoint_copies(projective_space_fan(2), [[2, 1], [1, 1]])
    report = validate(fan)
    check = report.checks[-1]
    assert check.name == "face_compatibility" and not check.passed
    assert _reference_face_checks(fan) == "face_compatibility"
    assert check.detail == "point [1, 7] lies in 2 maximal cones: [0, 1], [4, 5]"
    for c in ([0, 1], [4, 5]):
        assert all(sum(a * b for a, b in zip(n, [1, 7])) > 0 for n in dual_basis([fan.rays[i] for i in c]))


def test_double_cover_of_two_merged_4_folds():
    pascal = [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]]
    fan = _two_disjoint_copies(BUILTIN_FANS["P1xP3"], pascal)
    assert all(len(cs) == 2 for cs in fan.facets().values())
    check = validate(fan).checks[-1]
    assert check.name == "face_compatibility" and not check.passed
    assert check.detail.startswith("point [") and "lies in 2 maximal cones" in check.detail


def test_open_ridge_is_named_where_the_reference_finds_an_overlap():
    # R3 with cone [2, 3, 5, 7] replaced by [2, 3, 6, 7]: the new cone
    # overlaps [0, 2, 4, 6] but shares no ridge with it and misses the
    # test point, so validate reports the ridge the old cone leaves open.
    f = BUILTIN_FANS["R3"]
    cones = [c if c != (2, 3, 5, 7) else (2, 3, 6, 7) for c in f.max_cones]
    fan = Fan.make(4, f.rays, cones)
    report = validate(fan)
    assert [c.name for c in report.checks][-1] == "completeness"
    assert report.checks[-1].detail == "facet [2, 5, 7] lies in 1 maximal cones"
    assert fan.facets()[(2, 5, 7)] == [(0, 2, 5, 7)]
    assert _reference_face_checks(fan) == "face_compatibility"


def test_fan_json_round_trip():
    f = projective_space_fan(4)
    text = fan_to_json(f)
    again = fan_from_json(text)
    assert again == f
    assert fan_to_json(again) == text


def test_fan_json_rejections():
    with pytest.raises(ValidationError):
        fan_from_json("not json")
    with pytest.raises(ValidationError):
        fan_from_json(json.dumps({"dim": 2, "rays": [[1, 0]]}))
    with pytest.raises(ValidationError):
        fan_from_json(
            json.dumps({"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 5]]})
        )
    with pytest.raises(ValidationError):
        fan_from_json(
            json.dumps({"dim": 2, "rays": [[1, 0, 0]], "max_cones": [[0]]})
        )


def test_class_group_p4():
    X = p4()
    assert X.rho == 1
    assert X.curve_basis == ((1, 1, 1, 1, 1),)


def test_class_group_products_and_blowup():
    assert p1xp3().rho == 2
    assert bl_pt_p4().rho == 2


def _unit(X, i):
    """The coefficient vector of the invariant prime divisor D_i."""
    return tuple(int(j == i) for j in range(X.n_rays))


def _combine(coeffs, vectors):
    """sum_k coeffs[k] vectors[k], entrywise."""
    return tuple(sum(a * v[j] for a, v in zip(coeffs, vectors)) for j in range(len(vectors[0])))


def test_anticanonical_p4_is_5H():
    X = p4()
    H = X.ray_classes[0]
    assert X.anticanonical_class == tuple(5 * h for h in H)


def test_anticanonical_p1xp3():
    X = p1xp3()
    fiber = X.ray_classes[0]   # {pt} x P3
    hyper = X.ray_classes[2]   # P1 x hyperplane
    mk = X.anticanonical_class
    assert mk == _combine((2, 4), (fiber, hyper))


def test_anticanonical_blowup_formula():
    X = bl_pt_p4()
    H = X.ray_classes[4]      # pullback hyperplane (the -sum ray)
    E = X.ray_classes[5]      # exceptional ray, appended last
    expected = _combine((5, -3), (H, E))
    assert X.anticanonical_class == expected


def test_intersection_h4_p4():
    X = p4()
    H = _unit(X, 0)
    assert X.intersection_number(H, H, H, H) == 1


def test_intersection_minus_k_4():
    X = p1xp3()
    mk = [1] * X.n_rays
    assert X.intersection_number(mk, mk, mk, mk) == 512
    Y = bl_pt_p4()
    mkY = [1] * Y.n_rays
    assert Y.intersection_number(mkY, mkY, mkY, mkY) == 544
    assert p4().intersection_number(*[[1] * p4().n_rays] * 4) == 625
    assert p2xp2().intersection_number(*[[1] * p2xp2().n_rays] * 4) == 486


def test_intersection_symmetry_and_linearity():
    X = bl_pt_p4()
    a = _unit(X, 0)
    b = _unit(X, 4)
    c = _unit(X, 5)
    d = [1] * X.n_rays
    base = X.intersection_number(a, b, c, d)
    for perm in permutations([a, b, c, d]):
        assert X.intersection_number(*perm) == base
    lhs = X.intersection_number(_combine((1, 1), (a, b)), b, c, d)
    assert lhs == base + X.intersection_number(b, b, c, d)
    assert X.intersection_number(_combine((3,), (a,)), b, c, d) == 3 * base


def test_point_class_of_maximal_cone():
    X = p1xp3()
    cone = X.fan.max_cones[0]
    classes = [_unit(X, i) for i in cone]
    assert X.intersection_number(*classes) == 1


def test_c2_pairing():
    assert p4().c2_pairing([1] * 5) == 250
    assert p1xp3().c2_pairing([1] * 6) == 224
    assert bl_pt_p4().c2_pairing([1] * 6) == 232


def test_chi_from_fan():
    assert p4().ledger_state().chi_minusK == 126
    assert p1xp3().ledger_state().chi_minusK == 105
    assert p2xp2().ledger_state().chi_minusK == 100
    assert bl_pt_p4().ledger_state().chi_minusK == 111


def test_is_fano():
    assert p4().is_fano
    assert p1xp3().is_fano
    assert bl_pt_p4().is_fano
    assert not f2xp2().is_fano


def test_f2xp2_zero_degree_wall():
    X = f2xp2()
    assert min(w.degK for w in X.walls) == 0


def test_walls_p4():
    X = p4()
    ws = X.walls
    assert len(ws) == 10
    classes = {w.curve_class for w in ws}
    assert len(classes) == 1
    assert all(w.degK == 5 for w in ws)


def test_walls_p1xp3_two_classes():
    X = p1xp3()
    classes = {w.curve_class for w in X.walls}
    assert len(classes) == 2


def test_wall_relation_holds_exactly():
    for X in (p4(), p1xp3(), bl_pt_p4()):
        for w in X.walls:
            combo = [
                sum(w.relation[i] * X.fan.rays[i][t] for i in range(X.n_rays))
                for t in range(X.dim)
            ]
            assert all(x == 0 for x in combo)
            assert w.relation[w.left] == 1 and w.relation[w.right] == 1
            assert w.degK == sum(w.relation)


def test_wall_curve_pairing_matches_relation():
    X = bl_pt_p4()
    for w in X.walls:
        for i in range(X.n_rays):
            assert dot(X.ray_classes[i], w.curve_class) == w.relation[i]


def _reference_cone_normals(fan, cone):
    """The normals as solved before: one rational solve per dual row."""
    mat = [list(fan.rays[i]) for i in cone]
    return [
        primitive_vector(solve_rational(mat, [1 if t == k else 0 for t in range(len(cone))]))
        for k in range(len(cone))
    ]


@pytest.mark.parametrize("name", builtin_names())
def test_cone_normals_are_the_dual_basis(name):
    fan = builtin(name).fan
    for cone in fan.max_cones:
        rows = dual_basis([fan.rays[i] for i in cone])
        for i, g in enumerate(rows):
            for j, r in enumerate(cone):
                assert sum(a * b for a, b in zip(g, fan.rays[r])) == (1 if i == j else 0)


def test_cone_normals_on_non_unimodular_cone():
    # |det| = 6: the dual-basis rows are not integral, so each normal is
    # the primitive positive multiple of its row.
    rays = [[1, 0, 0, 0], [1, 2, 0, 0], [0, 1, 3, 0], [1, 1, 1, 1]]
    fan = Fan.make(4, rays, [[0, 1, 2, 3]])
    cone = fan.max_cones[0]
    rows = dual_basis([fan.rays[i] for i in cone])
    assert rows == _reference_cone_normals(fan, cone)
    for i, g in enumerate(rows):
        pairings = [sum(a * b for a, b in zip(g, fan.rays[r])) for r in cone]
        assert pairings[i] > 0
        assert all(x == 0 for j, x in enumerate(pairings) if j != i)
    assert any(sum(a * b for a, b in zip(g, fan.rays[cone[i]])) > 1 for i, g in enumerate(rows))


def _reference_wall_relations(X):
    """Wall relations as solved before, in Fraction arithmetic."""
    out = []
    for facet, (c1, c2) in sorted(X.fan.facets().items()):
        a = next(i for i in c1 if i not in facet)
        b = next(i for i in c2 if i not in facet)
        a, b = min(a, b), max(a, b)
        basis_cone = c1 if a in c1 else c2
        other = b if a in basis_cone else a
        lam = solve_rational(
            [[X.fan.rays[i][t] for i in basis_cone] for t in range(X.dim)],
            list(X.fan.rays[other]),
        )
        rel = [Fraction(0)] * X.n_rays
        rel[other] = Fraction(1)
        for idx, j in enumerate(basis_cone):
            rel[j] -= lam[idx]
        out.append(primitive_vector(rel))
    return out


def _weighted_projective_space(weights):
    # Rays e_1..e_4 of weights w_0..w_3 and a last ray of weight 1.
    rays = [[1 if t == i else 0 for t in range(4)] for i in range(4)]
    rays.append([-w for w in weights])
    cones = [[j for j in range(5) if j != i] for i in range(5)]
    return ToricVariety(Fan.make(4, rays, cones), allow_singular=True)


def _weighted_p11112():
    # P4 with its last ray doubled off the primitive direction in one
    # coordinate: P(1,1,1,2,1), one cone of index 2.
    return _weighted_projective_space([1, 1, 1, 2])


def _weighted_p12361():
    # P(1,2,3,6,1): the cone without the weight-6 ray has index 6 and its
    # dual-basis rows have denominators 6, 3, 2 and 6, so each lambda_k
    # needs its own scaling.
    return _weighted_projective_space([1, 2, 3, 6])


def _singular_contraction_of_flipped_d3():
    from toricfano.surgery import contract, extremal_rays, flip

    X = d3()
    small_class = next(c for c, d in extremal_rays(X) if d.kind == "small")
    X2, _ = flip(X, small_class)
    exc = X.n_rays - 1
    (center,) = [d.center for _, d in extremal_rays(X2) if d.exc_rays == (exc,)]
    return contract(X2, exc, center, allow_singular=True)


@pytest.mark.parametrize(
    "make",
    [_weighted_p11112, _weighted_p12361, _singular_contraction_of_flipped_d3, bl_pt_p4, d3],
)
def test_walls_match_rational_construction(make):
    X = make()
    assert [w.relation for w in X.walls] == _reference_wall_relations(X)
    assert all(w.degK == sum(w.relation) for w in X.walls)


def test_walls_on_singular_fan_keep_non_unit_coefficients():
    X = _weighted_p11112()
    assert not X.is_smooth
    assert {w.relation for w in X.walls} == {(1, 1, 1, 2, 1)}
    Z = _singular_contraction_of_flipped_d3()
    assert not Z.is_smooth
    assert any(max(abs(x) for x in w.relation) > 1 for w in Z.walls)


@pytest.mark.parametrize("name", builtin_names() + ["singular contraction"])
def test_walls_by_class_indexes_each_nonzero_wall_once(name):
    if name == "singular contraction":
        X = _singular_contraction_of_flipped_d3()
        assert not X.is_smooth and X.walls
        with pytest.raises(ValidationError, match="^operation requires a smooth fan$"):
            X.walls_by_class
        return
    X = builtin(name)
    indexed = sorted(i for ix in X.walls_by_class.values() for i in ix)
    assert indexed == [i for i, w in enumerate(X.walls) if any(w.curve_class)]
    for cls, ix in X.walls_by_class.items():
        assert list(ix) == sorted(ix)
        assert all(primitive_vector(X.walls[i].curve_class) == cls for i in ix)


def test_library_imports_first_in_a_fresh_interpreter():
    src = str(Path(toricfano.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import toricfano.library as m; print(m.builtin('P4').rho)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def test_builtin_names_are_the_data_files():
    assert builtin_names() == sorted([*BUILTIN_BUILDERS, "R3"])
    with pytest.raises(KeyError):
        builtin("../data/P4")


@pytest.mark.parametrize("name", sorted(BUILTIN_BUILDERS))
def test_builders_agree_with_their_data_files(name):
    X = builtin(name)
    assert X.name == name
    assert BUILTIN_BUILDERS[name]().fan.canonical_key() == X.fan.canonical_key()


def _reference_section(X):
    """The section as solved before: one ``solve_integer`` per unit vector."""
    basis = [list(k) for k in X.curve_basis]
    return [solve_integer(basis, [int(b == a) for b in range(X.rho)]) for a in range(X.rho)]


@pytest.mark.parametrize("name", builtin_names())
def test_section_matches_per_column_solves(name):
    from toricfano.mori import mori_chambers

    X = builtin(name)
    models = [ToricVariety(f, allow_singular=True) for f in mori_chambers(X).fans]
    for Y in [X] + models:
        assert Y._section == _reference_section(Y)


def test_section_rejects_a_non_saturated_basis():
    # A kernel basis is always saturated, so plant one that is not: twice
    # the relation of P4 has no integer right inverse.
    X = ToricVariety(projective_space_fan(4))
    X.__dict__["curve_basis"] = ((2, 2, 2, 2, 2),)
    assert _reference_section(X) == [None]
    with pytest.raises(ValidationError, match="class lattice is not saturated"):
        X._section


def test_max_cone_count_equals_fixed_points():
    # chi_top of a smooth complete toric 4-fold is the number of maximal
    # cones; cross-check against the Euler number from the products.
    assert len(p4().fan.max_cones) == 5
    assert len(p1xp3().fan.max_cones) == 2 * 4
    assert len(p2xp2().fan.max_cones) == 9


def test_hirzebruch_fan_negative_section():
    X = ToricVariety(hirzebruch_fan(2), name="F2")
    w = next(w for w in X.walls if w.relation[2] != 0 and len(w.shared) == 1 and w.shared[0] == 2)
    assert w.relation[2] == -2


def test_validation_cached_and_hash():
    f = projective_space_fan(4)
    assert validate(f) is validate(f)
    assert f.content_hash() == projective_space_fan(4).content_hash()


def test_each_cone_dual_basis_is_computed_once(monkeypatch):
    from toricfano import fan as fan_module
    from toricfano import variety
    from toricfano.surgery import ne_cone

    fan = builtin("R3").fan
    calls = []

    def counting(m):
        calls.append(m)
        return dual_basis(m)

    monkeypatch.setattr(fan_module, "dual_basis", counting)
    monkeypatch.setattr(variety, "dual_basis", counting, raising=False)
    validate.cache_clear()
    _cone_normals.cache_clear()
    for expected in (len(fan.max_cones), 0):
        # The second build is of an equal fan, a new object: validation's
        # cache hands back the same report and its bases.  The per-cone
        # memo is cleared too, so the counts stay 21 then 0 as before it;
        # left warm, the first build would eliminate nothing (the
        # builtin's cones are already in it).
        X = ToricVariety(Fan.make(fan.dim, fan.rays, fan.max_cones))
        X.walls
        X.ledger_state()
        ne_cone(X)
        assert len(calls) == expected
        calls.clear()
    assert X.report.dual_bases == {c: tuple(dual_basis([fan.rays[i] for i in c])) for c in fan.max_cones}
    assert "dual_bases" not in X.report.as_dict()


def test_the_facet_map_is_built_once_per_fan(monkeypatch):
    fan = builtin("R3").fan
    facets = Fan.facets
    calls = []

    def counting(self):
        calls.append(self)
        return facets(self)

    monkeypatch.setattr(Fan, "facets", counting)
    validate.cache_clear()
    _cone_normals.cache_clear()
    for expected in (1, 0):
        # The second build is of an equal fan, a new object: validation's
        # cache hands back the same report and its ridge map.
        X = ToricVariety(Fan.make(fan.dim, fan.rays, fan.max_cones))
        X.walls
        X.ledger_state()
        assert len(calls) == expected
        calls.clear()
    assert X.report.facets == facets(fan)
    assert "facets" not in X.report.as_dict()


# -- validation's per-cone memo ---------------------------------------------


def _fresh_cone_entry(rays):
    """A cone's entry eliminated afresh, with unimodularity read off the
    determinant instead of the pairings."""
    rows = dual_basis(list(rays))
    if rows is None:
        return None, False
    return tuple(rows), abs(det_int(list(rays))) == 1


def _reference_facets(fan):
    out = {}
    for c in fan.max_cones:
        for drop in c:
            out.setdefault(tuple(i for i in c if i != drop), []).append(c)
    return out


def _assert_memo_matches_reference(fan):
    from toricfano import fan as fan_module

    report = validate(fan)
    again = validate.__wrapped__(fan)  # every cone now read from the memo
    with mock.patch.object(fan_module, "_cone_normals", _fresh_cone_entry):
        ref = validate.__wrapped__(fan)
    for c in fan.max_cones:
        key = tuple(fan.rays[i] for i in c)
        assert _cone_normals(key) == _fresh_cone_entry(key)
    for got in (report, again):
        assert got.checks == ref.checks
        assert list(got.dual_bases.items()) == list(ref.dual_bases.items())
        assert list(got.facets.items()) == list(ref.facets.items())
        assert all(again.dual_bases[c] is rows for c, rows in got.dual_bases.items())
    if ref.dual_bases:
        assert list(ref.facets.items()) == list(_reference_facets(fan).items())
    return report


@st.composite
def _relabelled_builtins(draw):
    """A builtin fan under a random signed permutation of the coordinates
    and a random permutation of the rays."""
    fan = BUILTIN_FANS[draw(st.sampled_from(sorted(BUILTIN_FANS)))]
    axes = draw(st.permutations(range(fan.dim)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=fan.dim, max_size=fan.dim))
    order = draw(st.permutations(range(fan.n_rays)))
    where = {old: new for new, old in enumerate(order)}
    rays = [[s * fan.rays[i][a] for a, s in zip(axes, signs)] for i in order]
    return Fan.make(fan.dim, rays, [[where[i] for i in c] for c in fan.max_cones])


@settings(max_examples=60, deadline=None)
@given(_relabelled_builtins())
def test_the_cone_memo_matches_fresh_elimination_on_relabelled_builtins(fan):
    assert _assert_memo_matches_reference(fan).ok


def test_the_cone_memo_matches_fresh_elimination_on_a_flagged_singular_fan():
    S = _singular_contraction_of_flipped_d3()
    assert S.fan.content_hash() == "63998c7626e7748f"
    report = _assert_memo_matches_reference(S.fan)
    assert [c.name for c in report.failures()] == ["smoothness"]
    assert report.dual_bases


def test_a_degenerate_cone_has_no_memo_entry_and_fails_face_compatibility():
    # P4 with its last ray moved to e1 + e2: the cone on e1, e2, e3 and
    # that ray spans only a hyperplane.
    f = projective_space_fan(4)
    rays = [list(r) for r in f.rays]
    rays[4] = [1, 1, 0, 0]
    fan = Fan.make(4, rays, f.max_cones)
    assert _cone_normals(tuple(fan.rays[i] for i in (0, 1, 2, 4))) == (None, False)
    report = _assert_memo_matches_reference(fan)
    assert not report.dual_bases and not report.facets
    (face,) = [c for c in report.checks if c.name == "face_compatibility"]
    assert face.detail == "a maximal cone is degenerate"


def test_models_sharing_a_cone_share_its_rows():
    from toricfano.surgery import extremal_rays, flip

    X = d3()
    small_class = next(c for c, d in extremal_rays(X) if d.kind == "small")
    Y, _ = flip(X, small_class)
    shared = set(X.fan.max_cones) & set(Y.fan.max_cones)
    assert shared and shared != set(Y.fan.max_cones)
    for c in shared:
        rows = Y.report.dual_bases[c]
        assert rows is X.report.dual_bases[c]
        assert type(rows) is tuple and all(type(g) is tuple for g in rows)


def test_intersections_refuse_a_coefficient_vector_of_the_wrong_length():
    X = p4()
    for bad in ([1] * 4, [1] * 6):
        with pytest.raises(ValueError, match="coefficient vector has wrong length"):
            X.intersection_number(bad, *[[1] * 5] * 3)
        with pytest.raises(ValueError, match="coefficient vector has wrong length"):
            X.c2_pairing(bad)


def test_require_smooth_gates():
    rays = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -2]]
    cones = [[j for j in range(5) if j != i] for i in range(5)]
    X = ToricVariety(Fan.make(4, rays, cones), allow_singular=True)
    assert not X.is_smooth
    with pytest.raises(ValidationError):
        X.intersection_number(*[None] * 4)


def test_fraction_exactness():
    X = p4()
    H = _unit(X, 0)
    half = [Fraction(1, 2) * h for h in H]
    assert X.intersection_number(half, half, half, half) == Fraction(1, 16)


def test_fan_labels_round_trip():
    f = Fan.make(
        4,
        [list(r) for r in projective_space_fan(4).rays],
        projective_space_fan(4).max_cones,
        labels={4: "H"},
    )
    text = fan_to_json(f)
    again = fan_from_json(text)
    assert again.ray_label(4) == "H"
    assert again.ray_label(0) == "u0"
    assert fan_to_json(again) == text


def test_fan_json_rejects_boolean_entries():
    with pytest.raises(ValidationError):
        fan_from_json(json.dumps({"dim": True, "rays": [[1]], "max_cones": [[0]]}))
    with pytest.raises(ValidationError):
        fan_from_json(
            json.dumps({"dim": 1, "rays": [[True], [-1]], "max_cones": [[0], [1]]})
        )
