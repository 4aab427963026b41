import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import toricfano
from toricfano import variety
from toricfano.fan import Fan, _cone_normals, validate
from toricfano.lattice import dot, primitive_vector
from toricfano.library import (
    bl_pt_p4,
    builtin,
    builtin_names,
    bundle_over_p1xp2_O11,
    bundle_over_p2_O_O1_O2,
    d3,
    p1xp3,
    p4,
    plane_blowup_tower_base,
)
from toricfano.mori import (
    _negative_candidates,
    classified_fixed_divisors,
    mmp_all_for_divisor,
    mori_chambers,
)
from toricfano.surgery import (
    ContractionDescriptor,
    FlipCircuit,
    SurgeryError,
    _analyze_walls_on_ray,
    blowup,
    contract,
    divisor_link_fan,
    extremal_rays,
    flip,
    flip_circuits,
    looks_like_quadric_cone,
    ne_cone,
)
from toricfano.variety import ToricVariety


def test_blowup_p4_at_point():
    X = blowup(p4(), (0, 1, 2, 3))
    assert X.rho == 2
    assert X.is_fano
    mk = [1] * X.n_rays
    assert X.intersection_number(mk, mk, mk, mk) == 544


def test_blowup_rejects_non_cone_center():
    with pytest.raises(SurgeryError):
        blowup(p4(), (0, 1, 2, 3, 4))
    with pytest.raises(SurgeryError):
        blowup(bl_pt_p4(), (4, 5))  # u5+u4 rays never span a cone here
    with pytest.raises(SurgeryError):
        blowup(p4(), (0,))


def test_blowup_contract_round_trip():
    X = p4()
    Y = blowup(X, (0, 1, 2, 3))
    Z = contract(Y, 5, (0, 1, 2, 3))
    assert Z.fan.canonical_key() == X.fan.canonical_key()


def _labelled(fan):
    """The fan with every ray labelled ``r<index>``."""
    return Fan.make(fan.dim, fan.rays, fan.max_cones, {i: f"r{i}" for i in range(fan.n_rays)})


def test_a_blowup_and_its_contraction_keep_the_ray_labels():
    X = ToricVariety(_labelled(p4().fan))
    Y = blowup(X, (0, 1, 2, 3))
    assert Y.fan.labels == X.fan.labels + (None,)  # the new ray is unlabelled
    Z = contract(Y, 5, (0, 1, 2, 3))
    assert Z.fan.labels == X.fan.labels
    assert Z.fan.content_hash() == X.fan.content_hash() != p4().fan.content_hash()
    # With the exceptional ray first, its label goes and the rest move down.
    order = [5, 0, 1, 2, 3, 4]
    where = {old: new for new, old in enumerate(order)}
    E = ToricVariety(
        Fan.make(
            4,
            [Y.fan.rays[i] for i in order],
            [[where[i] for i in c] for c in Y.fan.max_cones],
            {0: "E", **{where[i]: f"r{i}" for i in range(5)}},
        )
    )
    W = contract(E, 0, (1, 2, 3, 4))
    assert W.fan.labels == X.fan.labels and W.fan.content_hash() == X.fan.content_hash()


def test_flips_and_chamber_walks_keep_the_ray_labels():
    X = ToricVariety(_labelled(d3().fan))
    assert X.fan.content_hash() == "3afaf151d3e8828f"
    c = next(c for c, d in extremal_rays(X) if d.kind == "small")
    Y, _ = flip(X, c)
    unlabelled, _ = flip(d3(), c)
    assert unlabelled.fan.content_hash() == "ca8b5f4f6b59c620"
    assert Y.fan.labels == X.fan.labels and Y.fan == unlabelled.fan
    assert Y.fan.content_hash() != unlabelled.fan.content_hash()
    assert all(f.labels == X.fan.labels for f in mori_chambers(X).fans)


def test_contract_exceptional_on_blowup_of_curve():
    X = blowup(p4(), (0, 1, 2))
    assert X.rho == 2
    Z = contract(X, 5, (0, 1, 2))
    assert Z.fan.canonical_key() == p4().fan.canonical_key()


def test_contract_refuses_noncontractible_ray():
    assert all(d.kind != "divisorial" for _, d in extremal_rays(p4()))
    with pytest.raises(SurgeryError, match="not part of a star subdivision over"):
        contract(p4(), 0, (1, 2))


def test_contract_requires_a_center():
    with pytest.raises(TypeError):
        contract(blowup(p4(), (0, 1, 2, 3)), 5)


def test_point_blowup_ledger_deltas():
    before = p4().ledger_state()
    after = blowup(p4(), (0, 1, 2, 3)).ledger_state()
    assert before.chi_minusK - after.chi_minusK == 15
    assert before.degK4 - after.degK4 == 81
    assert before.c2K2 - after.c2K2 == 18
    assert after.rho - before.rho == 1


def test_curve_blowup_ledger_deltas():
    # Invariant line in P4: -K.C = 5, genus 0, d(C) = 7.
    X = blowup(p4(), (0, 1, 2))
    s = X.ledger_state()
    assert s.as_tuple() == (105, 513, 222, 2)


def test_extremal_rays_bl_pt_p4():
    X = bl_pt_p4()
    rays = extremal_rays(X)
    assert len(rays) == 2
    kinds = {d.kind for _, d in rays}
    assert kinds == {"divisorial", "fiber_type"}
    div = next(d for _, d in rays if d.kind == "divisorial")
    assert div.type_label == "(3,0)^sm"
    assert div.exc_rays == (5,)
    assert div.image_dim == 0
    fib = next(d for _, d in rays if d.kind == "fiber_type")
    assert fib.image_dim == 3


def test_extremal_rays_p1xp3_both_fiber_type():
    rays = extremal_rays(p1xp3())
    assert len(rays) == 2
    assert all(d.kind == "fiber_type" for _, d in rays)


def test_ne_cone_p4():
    ne = ne_cone(p4())
    assert ne.dim == 1
    assert len(ne.generators) == 1


def test_anticanonical_wall_degrees_p4():
    assert {w.degK for w in p4().walls} == {5}


def test_bundle_511_section_normal_degrees():
    X = bundle_over_p1xp2_O11()
    assert X.rho == 3
    assert X.is_fano
    # Section divisor = pure fiber ray u0; its two kinds of invariant
    # curves pair with it as the normal-bundle degrees (-1, -1).
    section = 0
    pairings = {
        w.relation[section]
        for w in X.walls
        if section in w.shared
    }
    assert pairings == {-1}


def test_bundle_511_two_divisorial_types():
    X = bundle_over_p1xp2_O11()
    rays = extremal_rays(X)
    labels = {d.type_label for _, d in rays if d.kind == "divisorial" and d.exc_rays == (0,)}
    assert labels == {"(3,1)^sm", "(3,2)^sm"}


def test_bundle_d3_construction():
    Y = bundle_over_p2_O_O1_O2()
    assert Y.rho == 2
    # The section cut out by the fiber rays 0,1 has normal degrees -1, -2.
    wall = next(w for w in Y.walls if 0 in w.shared and 1 in w.shared)
    assert sorted(wall.relation[i] for i in (0, 1)) == [-2, -1]
    X = d3()
    assert X.rho == 3
    assert X.is_fano


def test_d3_has_small_ray_and_32sm_ray_on_exceptional():
    X = d3()
    exc = X.n_rays - 1
    rays = extremal_rays(X)
    negative = [
        (c, d) for c, d in rays if dot(X.ray_classes[exc], c) < 0
    ]
    kinds = {d.kind for _, d in negative}
    assert kinds == {"divisorial", "small"}
    div = next(d for _, d in negative if d.kind == "divisorial")
    assert div.type_label == "(3,2)^sm"
    small = next(d for _, d in negative if d.kind == "small")
    assert small.flippable


def test_d3_flip_produces_minus2_wall():
    X = d3()
    exc = X.n_rays - 1
    rays = extremal_rays(X)
    small_class = next(c for c, d in rays if d.kind == "small")
    X2, circuits = flip(X, small_class)
    assert len(circuits) == 1
    assert X2.rho == X.rho
    assert X2.n_rays == X.n_rays
    # The transform of the exceptional divisor now has a unique negative
    # wall with pairing -2 (the contraction to a half-point).
    neg = [w for w in X2.walls if w.relation[exc] < 0]
    assert {w.relation[exc] for w in neg} == {-2}
    rays2 = extremal_rays(X2)
    labels = {
        d.type_label
        for c, d in rays2
        if d.kind == "divisorial" and d.exc_rays == (exc,)
    }
    assert labels == {"(3,0)_other"}


def test_d3_flipped_contraction_leaves_smooth_category():
    X = d3()
    small_class = next(c for c, d in extremal_rays(X) if d.kind == "small")
    X2, _ = flip(X, small_class)
    exc = X.n_rays - 1
    (center,) = [d.center for _, d in extremal_rays(X2) if d.exc_rays == (exc,)]
    with pytest.raises(SurgeryError, match="smooth toric category"):
        contract(X2, exc, center)
    Z = contract(X2, exc, center, allow_singular=True)
    assert not Z.is_smooth
    smooth_check = next(c for c in Z.report.checks if c.name == "smoothness")
    assert not smooth_check.passed
    assert all(c.passed for c in Z.report.checks if c.name != "smoothness")


def test_flip_involution():
    X = d3()
    small_class = next(c for c, d in extremal_rays(X) if d.kind == "small")
    X2, circ1 = flip(X, small_class)
    X3, circ2 = flip(X2, [-x for x in small_class])
    assert X3.fan.canonical_key() == X.fan.canonical_key()
    assert len(circ1) == len(circ2) == 1


def test_flip_conserves_chi_and_tracks_degK4():
    X = d3()
    small_class = next(c for c, d in extremal_rays(X) if d.kind == "small")
    before = X.ledger_state()
    X2, circuits = flip(X, small_class)
    after = X2.ledger_state()
    s = len(circuits)
    assert after.chi_minusK == before.chi_minusK
    assert before.degK4 - after.degK4 == s
    assert after.c2K2 - before.c2K2 == 2 * s


def test_flip_rejects_divisorial_class():
    X = bl_pt_p4()
    div_class = next(c for c, d in extremal_rays(X) if d.kind == "divisorial")
    with pytest.raises(SurgeryError):
        flip(X, div_class)


def test_tower_base_y_is_fano_rho3():
    Y = plane_blowup_tower_base()
    assert Y.rho == 3
    assert Y.is_fano


def test_divisor_link_fan_of_exceptional_p3():
    X = bl_pt_p4()
    link = divisor_link_fan(X, 5)
    assert link.dim == 3
    assert link.n_rays == 4
    assert len(link.max_cones) == 4
    assert ToricVariety(link).rho == 1  # it is a P3


def test_quadric_cone_shape_recognizer():
    # Simplicial subdivision of the projective cone over P1 x P1.
    rays = [[0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, 0, -1], [0, -1, -1]]
    cones = [
        [0, 1, 2],
        [0, 1, 4],
        [0, 2, 3],
        [0, 3, 4],
        [1, 2, 3],
        [1, 3, 4],
    ]
    fan3 = Fan.make(3, rays, cones)
    assert looks_like_quadric_cone(fan3)
    assert not looks_like_quadric_cone(divisor_link_fan(bl_pt_p4(), 5))


def test_quadric_cone_shape_reads_the_rays_alone():
    # X = P_{P1}(O + O(1) + O(1)) x P1 is smooth, so the links of its
    # divisors are smooth, yet two of them have the rays of a quadric cone.
    from toricfano.library import product_fan, projective_space_fan, split_bundle_fan

    X = ToricVariety(
        product_fan(split_bundle_fan(projective_space_fan(1), [[1, 0], [1, 0]]), projective_space_fan(1))
    )
    assert X.is_smooth
    passing = [r for r in range(X.n_rays) if looks_like_quadric_cone(divisor_link_fan(X, r))]
    assert passing == [5, 6]
    for r in passing:
        assert ToricVariety(divisor_link_fan(X, r)).is_smooth


def test_blowup_all_centers_validate():
    X = p4()
    for size in (2, 3, 4):
        center = tuple(range(size))
        Y = blowup(X, center)
        assert Y.report.ok
        assert Y.rho == 2


def test_tower_intermediate_wall_degrees():
    # The two-point blow-up of the tower base carries degree -1 walls
    # (the loci to flip); each flip turns them into degree +1 walls, and
    # the final Fano model has every wall degree >= 1.
    from toricfano.library import plane_blowup_tower_base, two_point_tower

    Y = plane_blowup_tower_base()
    tower = two_point_tower(Y, (Y.fan.max_cones[0], Y.fan.max_cones[6]))
    assert min(w.degK for w in tower.blown_up.walls) == -1
    from itertools import combinations as _pairs

    current = tower.blown_up
    for cls in tower.flip_classes:
        current, circuits = flip(current, cls)
        for circ in circuits:
            # On the line side the negative rays are the incoming 3-side;
            # the exchange creates one wall per pair of them, of degree 1.
            assert len(circ.negative) == 3
            for m1, m2 in _pairs(circ.negative, 2):
                shared = tuple(sorted(set(circ.support) - {m1, m2}))
                match = [w for w in current.walls if w.shared == shared]
                assert match and all(w.degK == 1 for w in match)
    assert current.fan.canonical_key() == tower.fano.fan.canonical_key()
    assert min(w.degK for w in current.walls) >= 1


def test_contract_both_rays_on_bundle_511_section():
    # The section divisor carries two divisorial extremal rays; the
    # center argument selects which contraction is performed, and the
    # two targets are genuinely different rho = 2 smooth blow-downs.
    X = bundle_over_p1xp2_O11()
    rays = extremal_rays(X)
    d32 = next(
        d for _, d in rays if d.kind == "divisorial" and d.type_label == "(3,2)^sm"
    )
    d31 = next(
        d for _, d in rays if d.kind == "divisorial" and d.type_label == "(3,1)^sm"
    )
    assert d32.exc_rays == d31.exc_rays == (0,)
    Y = contract(X, 0, d32.center)
    Z = contract(X, 0, d31.center)
    assert Y.rho == Z.rho == 2
    assert Y.report.ok and Z.report.ok
    assert Y.fan.canonical_key() != Z.fan.canonical_key()


def test_mmp_routes_honor_chosen_contraction_center():
    from toricfano.mori import mmp_all_for_divisor

    X = bundle_over_p1xp2_O11()
    traces = {
        t.terminal_descriptor.type_label: t for t in mmp_all_for_divisor(X, 0)
    }
    assert set(traces) == {"(3,1)^sm", "(3,2)^sm"}
    finals = {label: t.final.canonical_key() for label, t in traces.items()}
    assert finals["(3,1)^sm"] != finals["(3,2)^sm"]


@pytest.mark.parametrize("cone", [(0, 2), (0, 3)])
def test_mmp_contracts_the_center_of_its_own_ray(cone):
    # On these blow-ups of B511, ray 0 carries a (3,2) ray, whose own
    # contraction is singular, and a (3,1)^sm ray with center (4, 5, 6).
    # Each trace must end on the target of the ray it typed, not on the
    # first smooth one.
    Y = blowup(bundle_over_p1xp2_O11(), cone)
    traces = {t.terminal_descriptor.type_label: t for t in mmp_all_for_divisor(Y, 0)}
    assert set(traces) == {"(3,2)", "(3,1)^sm"}
    assert traces["(3,1)^sm"].terminal_descriptor.center == (4, 5, 6)
    for label, t in traces.items():
        d = t.terminal_descriptor
        target = contract(Y, 0, d.center, allow_singular=True)
        assert t.final.canonical_key() == target.fan.canonical_key()
        assert target.is_smooth == (label == "(3,1)^sm")


def test_walls_disagreeing_on_a_divisorial_ray_are_refused():
    # B511's section carries two divisorial rays on ray 0; their walls
    # taken together name two centers for one contraction.
    X = bundle_over_p1xp2_O11()
    walls = [w for w in X.walls if w.negative_rays == (0,)]
    assert len({w.positive_rays for w in walls}) == 2
    with pytest.raises(SurgeryError, match=r"inconsistent centers \[\[.*\], \[.*\]\]"):
        _analyze_walls_on_ray(X, walls)


# -- the wall-by-class index against the scan it replaced --------------


def _proportional_positive(a, b):
    """Reference: the per-wall test every walls-on-a-ray search made."""
    if all(x == 0 for x in a) or all(x == 0 for x in b):
        return False
    return primitive_vector(a) == primitive_vector(b)


def _walls_on_ray(X, coords):
    return [w for w in X.walls if _proportional_positive(w.curve_class, coords)]


def _reference_circuits(X, coords):
    by_support = {}
    for w in _walls_on_ray(X, coords):
        by_support.setdefault(w.circuit_support, w)
    return [
        FlipCircuit(s, w.positive_rays, w.negative_rays)
        for s, w in sorted(by_support.items())
    ]


def _reference_negative_candidates(X, vec):
    coords = X.divisor_class(vec)
    wall_index = {w: i for i, w in enumerate(X.walls)}
    out = []
    for c, desc in extremal_rays(X):
        pairing = dot(coords, c)
        if pairing < 0:
            first = min(wall_index[w] for w in _walls_on_ray(X, c))
            out.append((pairing, first, c, desc))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


@pytest.mark.parametrize("name", builtin_names())
def test_extremal_rays_match_the_wall_scan(name):
    X = builtin(name)
    gens = ne_cone(X).generators
    reference = [
        (g, _analyze_walls_on_ray(X, _walls_on_ray(X, g))) for g in gens
    ]
    assert extremal_rays(X) == reference


def test_extremal_rays_are_typed_once_per_variety(monkeypatch):
    from toricfano import surgery

    reference = extremal_rays(d3())
    calls = []

    def counting_ne_cone(X):
        calls.append(X)
        return ne_cone(X)

    monkeypatch.setattr(surgery, "ne_cone", counting_ne_cone)
    X = ToricVariety(d3().fan)
    first = extremal_rays(X)
    first.clear()
    second = extremal_rays(X)
    assert second == extremal_rays(X) == reference
    assert second is not extremal_rays(X)
    assert calls == [X]
    extremal_rays(ToricVariety(X.fan))
    assert len(calls) == 2


def test_extremal_rays_failure_is_not_cached():
    from toricfano.library import projective_space_fan

    X = ToricVariety(projective_space_fan(2))
    for _ in range(2):
        with pytest.raises(SurgeryError, match="4-folds"):
            extremal_rays(X)
        assert X._extremal_rays is None


@pytest.mark.parametrize("name", builtin_names())
def test_flip_circuits_match_the_wall_scan(name):
    X = builtin(name)
    for c, d in extremal_rays(X):
        if d.kind != "small" or not d.flippable:
            continue
        reference = _reference_circuits(X, c)
        assert flip_circuits(X, c) == reference
        assert flip_circuits(X, [2 * x for x in c]) == reference


def test_flip_accepts_exactly_the_flippable_small_extremal_rays():
    # Over the 15 chamber models of a blow-up of R3, every wall class is
    # tried; 8 of the 169 non-extremal ones used to be flipped.
    models = mori_chambers(blowup(builtin("R3"), (0, 2, 4, 6))).fans
    assert len(models) == 15
    for fan in models:
        X = ToricVariety(fan)
        good = {c for c, d in extremal_rays(X) if d.kind == "small" and d.flippable}
        for cls in {w.curve_class for w in X.walls}:
            try:
                flip(X, cls)
            except SurgeryError:
                assert cls not in good
            else:
                assert cls in good


@pytest.mark.parametrize("name", builtin_names())
def test_negative_candidates_match_the_wall_scan(name):
    X = builtin(name)
    divisors = [[int(i == r) for i in range(X.n_rays)] for r in range(X.n_rays)]
    divisors.append([-1] * X.n_rays)
    for vec in divisors:
        assert _negative_candidates(X, vec) == _reference_negative_candidates(X, vec)


# -- typing and centers from wall relations against trial contractions --


@pytest.fixture(scope="module")
def walked_models():
    """Every builtin, its chamber models and the smooth models its
    exhaustive MMPs visit, each once."""
    fans = {}
    for name in sorted(builtin_names()):
        X = builtin(name)
        fans.setdefault(X.fan.canonical_key(), X.fan)
        for fan in mori_chambers(X).fans:
            fans.setdefault(fan.canonical_key(), fan)
        for r in range(X.n_rays):
            for trace in mmp_all_for_divisor(X, r):
                for step in trace.steps:
                    fans.setdefault(step.fan_after.canonical_key(), step.fan_after)
    models = [ToricVariety(f, allow_singular=True) for f in fans.values()]
    return [Y for Y in models if Y.is_smooth]


def _trial_contraction_typing(X, walls):
    """Reference: a unit-pattern divisorial ray typed by building its
    contraction; None when the contraction is refused."""
    r = walls[0].negative_rays[0]
    center = walls[0].positive_rays
    try:
        contract(X, r, center=center)
    except SurgeryError:
        return None
    m = X.dim - len(center)
    return ContractionDescriptor(
        kind="divisorial",
        type_label=f"(3,{m})^sm",
        exc_rays=(r,),
        image_dim=m,
        center=center,
        relation_sample=walls[0].relation,
    )


def test_walls_type_smooth_blowdowns_as_trial_contractions_did(walked_models):
    unit_rays = 0
    for X in walked_models:
        for c, d in extremal_rays(X):
            walls = [X.walls[i] for i in X.walls_by_class[c]]
            if d.kind != "divisorial" or len({w.relation for w in walls}) != 1:
                continue
            if any(x not in (-1, 0, 1) for x in walls[0].relation):
                continue
            unit_rays += 1
            reference = _trial_contraction_typing(X, walls)
            if reference is None:
                assert d.center == walls[0].positive_rays  # typed as before, by the image
            else:
                assert d == reference
    assert len(walked_models) >= 29 and unit_rays >= 42


def test_extremal_rays_build_no_variety(walked_models, monkeypatch):
    from toricfano import surgery

    fresh = [ToricVariety(X.fan) for X in walked_models]
    reference = [extremal_rays(X) for X in walked_models]

    def refuse(*args, **kwargs):
        raise AssertionError("a variety was built")

    monkeypatch.setattr(surgery, "contract", refuse)
    monkeypatch.setattr(ToricVariety, "__init__", refuse)
    assert [extremal_rays(X) for X in fresh] == reference


@pytest.fixture(scope="module")
def walked_and_blown_up(walked_models):
    """The walked models plus one blow-up per maximal cone of each, of a
    face of 2, 3 or 4 rays in turn; most blow-ups are not Fano."""
    return list(walked_models) + [
        blowup(X, cone[: 2 + k % 3]) for X in walked_models for k, cone in enumerate(X.fan.max_cones)
    ]


def test_every_divisorial_ray_contracts_its_own_center(walked_and_blown_up):
    targets = {True: 0, False: 0}
    for X in walked_and_blown_up:
        for c, d in extremal_rays(X):
            if d.kind != "divisorial":
                continue
            walls = [X.walls[i] for i in X.walls_by_class[c]]
            assert {w.positive_rays for w in walls} == {d.center}
            Y = contract(X, d.exc_rays[0], d.center, allow_singular=True)
            assert Y.rho == X.rho - 1
            assert Y.is_smooth == d.type_label.endswith("^sm")
            targets[Y.is_smooth] += 1
    assert len(walked_and_blown_up) >= 434 and targets[True] >= 961 and targets[False] >= 43


def test_every_divisorial_ray_is_labelled(walked_and_blown_up):
    # A curve center whose relation is not unit, such as
    # -2 u_6 + u_4 + u_5 + u_7 = 0, is the (3,1) analogue of (3,2).
    three_one = []
    for X in walked_and_blown_up:
        for _, d in extremal_rays(X):
            if d.kind != "divisorial":
                continue
            assert d.type_label is not None
            assert d.type_label.startswith(f"(3,{d.image_dim})")
            if d.type_label == "(3,1)":
                three_one.append(sorted(x for x in d.relation_sample if x))
    assert three_one == [[-2, 1, 1, 1]] * 3


# -- models on the same rays share one record of them --------------------


def _fresh(fan, **kwargs):
    """The variety of an equal fan built from nothing: no cached report or
    cone normals, and a record of its rays of its own."""
    validate.cache_clear()
    _cone_normals.cache_clear()
    variety._RECORDS.clear()
    return ToricVariety(fan, **kwargs)


@pytest.mark.parametrize("name", sorted(builtin_names()) + ["R3_06"])
def test_flipped_models_of_the_walks_equal_fresh_builds(name, monkeypatch):
    from toricfano import mori

    start = blowup(builtin("R3"), (0, 6)).fan if name == "R3_06" else builtin(name).fan
    built = []

    def recording(fan, **kwargs):
        Y = ToricVariety(fan, **kwargs)
        built.append(Y)
        return Y

    monkeypatch.setattr(mori, "ToricVariety", recording)
    X = _fresh(start)
    mori_chambers(X)
    classified_fixed_divisors(X)
    # Every model the walks built on one set of rays holds one record of
    # them, and each wall is one object across all the models holding it.
    records = {X.fan.rays: X._record}
    walls, reused = {}, 0
    for Y in [X] + built:
        assert records.setdefault(Y.fan.rays, Y._record) is Y._record
        for w in Y.walls:
            v = walls.setdefault((Y.fan.rays, w.shared, w.left, w.right, Y.is_smooth), w)
            assert v is w
            reused += Y is not X and any(w is u for u in X.walls)
    assert reused or not built
    for Y in built:
        fresh = _fresh(Y.fan)
        assert fresh._record is not Y._record
        assert Y.report.checks == fresh.report.checks and Y.report.ok
        assert list(Y.report.dual_bases.items()) == list(fresh.report.dual_bases.items())
        assert list(Y.report.facets.items()) == list(fresh.report.facets.items())
        assert Y.walls == fresh.walls
        assert Y.curve_basis == fresh.curve_basis and Y._section == fresh._section
        assert Y.ledger_state() == fresh.ledger_state()


def test_a_model_on_the_rays_of_a_live_model_reuses_every_wall_and_eliminates_once_per_cone(
    monkeypatch,
):
    from toricfano import fan as fan_module

    # With both validation caches cleared, a second model on the fan
    # eliminates each maximal cone once and reads every wall, the basis
    # and the section from the first model's record; a third, with only
    # validation's cache cleared, reads every cone from the memo (12
    # eliminations before the per-cone memo, 0 with it).
    X = ToricVariety(d3().fan)
    walls = X.walls
    validate.cache_clear()
    _cone_normals.cache_clear()
    calls = []
    eliminate = fan_module.dual_basis

    def counted(m):
        calls.append(m)
        return eliminate(m)

    monkeypatch.setattr(fan_module, "dual_basis", counted)
    Y = ToricVariety(X.fan)
    assert Y.report.ok and len(calls) == len(X.fan.max_cones)
    assert Y._record is X._record
    assert len(Y.walls) == len(walls) and all(w is v for w, v in zip(Y.walls, walls))
    assert Y.curve_basis is X.curve_basis and Y._section is X._section
    validate.cache_clear()
    Z = ToricVariety(X.fan)
    assert Z.report.ok and len(calls) == len(X.fan.max_cones)
    assert all(Z.report.dual_bases[c] is Y.report.dual_bases[c] for c in X.fan.max_cones)


def test_live_models_on_the_same_rays_share_one_record():
    X = _fresh(d3().fan)
    Y = ToricVariety(Fan.make(X.fan.dim, X.fan.rays, X.fan.max_cones))
    c = next(c for c, d in extremal_rays(X) if d.kind == "small" and d.flippable)
    flipped, _ = flip(X, c)
    assert X._record is Y._record is flipped._record is variety._RECORDS[X.fan.rays]
    assert flipped.fan != X.fan
    # The flip's walls on the cones it kept are the ones X built.
    kept = set(X.fan.max_cones) & set(flipped.fan.max_cones)
    on_kept = [
        w
        for w in flipped.walls
        if {tuple(sorted((*w.shared, w.left))), tuple(sorted((*w.shared, w.right)))} <= kept
    ]
    assert on_kept and all(any(w is v for v in X.walls) for w in on_kept)


def test_a_record_leaves_the_map_with_the_last_model_on_its_rays():
    # R3 with its rays in reverse order, a set of rays no other test holds.
    F = builtin("R3").fan
    order = list(reversed(range(F.n_rays)))
    where = {old: new for new, old in enumerate(order)}
    F = Fan.make(F.dim, [F.rays[i] for i in order], [[where[i] for i in c] for c in F.max_cones])
    gc.collect()
    assert F.rays not in variety._RECORDS
    X = ToricVariety(F)
    Y = ToricVariety(F)
    X.walls
    record = weakref.ref(X._record)
    del X
    gc.collect()
    assert variety._RECORDS[F.rays] is record() is Y._record
    del Y
    gc.collect()
    assert record() is None and F.rays not in variety._RECORDS


def test_models_on_other_rays_share_nothing():
    X = d3()
    X.walls
    Y = blowup(X, X.fan.max_cones[0][:2])
    assert Y._record is not X._record
    assert not any(w is v for w in Y.walls for v in X.walls)
    fresh = _fresh(Y.fan)
    assert Y.report.checks == fresh.report.checks
    assert list(Y.report.dual_bases.items()) == list(fresh.report.dual_bases.items())
    assert Y.walls == fresh.walls
    assert Y.curve_basis == fresh.curve_basis and Y._section == fresh._section
    assert Y.ledger_state() == fresh.ledger_state()


def test_fans_that_differ_in_smoothness_on_the_same_rays_share_no_walls():
    # P(O + O(1) + O(2)) over P1, and a singular fan on its rays that
    # keeps four of its six cones: the walls between kept cones have a
    # curve class on the smooth fan and none on the singular one.
    from toricfano.library import projective_space_fan, split_bundle_fan

    smooth_fan = split_bundle_fan(projective_space_fan(1), [[1, 0], [2, 0]])
    cones = [[0, 2, 3], [0, 2, 4], [0, 3, 4], [1, 2, 3], [1, 2, 4], [1, 3, 4]]
    singular_fan = Fan.make(3, smooth_fan.rays, cones)
    for first, second in ((smooth_fan, singular_fan), (singular_fan, smooth_fan)):
        A = _fresh(first, allow_singular=True)
        A.walls
        B = ToricVariety(second, allow_singular=True)
        assert B._record is A._record and A.is_smooth != B.is_smooth
        pairs = [
            (w, v)
            for w in A.walls
            for v in B.walls
            if (w.shared, w.left, w.right) == (v.shared, v.left, v.right)
        ]
        assert pairs and all(w is not v and w.curve_class != v.curve_class for w, v in pairs)
        assert B.walls == _fresh(second, allow_singular=True).walls


_COUNTS = """
import sys
from toricfano import fan, lattice, mori, variety
from toricfano.fan import Fan
from toricfano.library import builtin
from toricfano.variety import ToricVariety

counts = {"models": 0, "dual_basis": 0, "smooth": 0, "walls": 0, "built": 0}
init, eliminate, Wall = ToricVariety.__init__, lattice.dual_basis, variety.Wall
walls = ToricVariety.__dict__["walls"]
wall_func = walls.func

def counted_init(self, *args, **kwargs):
    counts["models"] += 1
    init(self, *args, **kwargs)
    counts["smooth"] += self.is_smooth

def counted_dual_basis(m):
    counts["dual_basis"] += 1
    return eliminate(m)

def counted_walls(self):
    counts["walls"] += 1
    return wall_func(self)

def counted_wall(**kwargs):
    counts["built"] += 1
    return Wall(**kwargs)

name, walk = sys.argv[1:]
F = builtin(name).fan
order = list(reversed(range(F.n_rays)))
where = {old: new for new, old in enumerate(order)}
F = Fan.make(F.dim, [F.rays[i] for i in order], [[where[i] for i in c] for c in F.max_cones])
ToricVariety.__init__ = counted_init
walls.func = counted_walls
variety.Wall = counted_wall
fan.dual_basis = mori.dual_basis = counted_dual_basis  # validation and the Gale walk
X = ToricVariety(F)
if "chambers" in walk:
    mori.mori_chambers(X)
if "fixed" in walk:
    mori.classified_fixed_divisors(X)
print(*counts.values())
"""

_WALKS = [
    ("R3", "chambers", "9 77 9", 9, 73),
    ("R3", "fixed", "13 43 13", 7, 66),
    ("R3", "chambers+fixed", "21 93 21", 15, 73),
    ("D3", "chambers", "2 33 2", 2, 31),
    ("D3", "fixed", "5 19 4", 2, 31),
]


@pytest.mark.parametrize(
    "name,walk,counts,walls,built", _WALKS, ids=[f"{n}-{w}-{c}" for n, w, c, *_ in _WALKS]
)
def test_walks_build_one_model_per_fan_from_a_fresh_process(name, walk, counts, walls, built):
    # (models built, dual_basis eliminations, smooth models built), the
    # models that computed their walls, and the walls constructed, on the
    # builtin with its rays in reverse order.
    # Before flipped models inherited, models, eliminations and walls
    # read 27 224 9, 22 236 13, 3 42 2 and 6 48 4.  Validation reads
    # each cone's normals from a memo keyed on its rays, so a model
    # eliminates only the cones new to the process: 224 -> 77,
    # 236 -> 43, 42 -> 33 and 48 -> 19 eliminations (the Gale walk's
    # own eliminations included).  Walls are computed only on the models
    # a walk goes on from, so not on the contraction targets where the
    # fixed-divisor walks end.  Each model reads its walls from the
    # record of its rays that every model on them shares, so a wall is
    # constructed once however many models hold it: 98 -> 73, 84 -> 66
    # and 140 -> 73 on R3 (chambers, fixed, chambers then fixed) against
    # a flipped model reusing only its parent's walls; D3 reads 31 either
    # way.
    src = str(Path(toricfano.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _COUNTS, name, walk],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == counts.split() + [str(walls), str(built)]
