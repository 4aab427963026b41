import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import toricfano
from toricfano.cli import main
from toricfano.cones import RationalCone, dual_extreme_rays
from toricfano.fan import Fan, fan_to_json
from toricfano.lattice import det_int, dot, primitive_vector, solve_rational
from toricfano.ledger import apply_point_blowup
from toricfano.library import (
    bl_pt_p4,
    builtin,
    builtin_names,
    bundle_over_p1xp2_O11,
    d3,
    p1xp3,
    p2xp2,
    p4,
)
from toricfano.mori import (
    MoriError,
    classified_fixed_divisors,
    classify_fixed_divisor,
    cone_suite,
    fixed_prime_divisors,
    lefschetz_defect,
    lefschetz_witnesses,
    mmp_all_for_divisor,
    mmp_for_divisor,
    mori_chambers,
    verify_bounds,
    _facet_points,
    _gale_inverses,
    _triangulation_from_weight,
)
from toricfano.surgery import SurgeryError, blowup, flip, flipped_fan, ne_cone
from toricfano.variety import ToricVariety

from test_cones import _intersect


def test_cone_suite_p1xp3_everything_is_the_quadrant():
    X = p1xp3()
    suite = cone_suite(X)
    assert suite.eff == suite.nef == suite.mov
    assert fixed_prime_divisors(X) == []


def test_cone_suite_bl_pt_p4():
    X = bl_pt_p4()
    suite = cone_suite(X)
    E = X.ray_classes[5]
    H_minus_E = X.ray_classes[0]
    assert set(suite.eff.generators) == {E, H_minus_E}
    H = tuple(a + b for a, b in zip(E, H_minus_E))
    assert set(suite.mov.generators) == {H, H_minus_E}
    assert suite.mov == suite.nef


def test_cone_suite_dualities_hold():
    for X in (p4(), p1xp3(), p2xp2(), bl_pt_p4(), d3()):
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


def test_fixed_divisors_bl_pt_p4():
    X = bl_pt_p4()
    assert fixed_prime_divisors(X) == [5]


def test_classify_exceptional_of_point_blowup():
    X = bl_pt_p4()
    rep = classify_fixed_divisor(X, fixed_prime_divisors(X)[0])
    assert rep.type_label == "(3,0)^sm"
    assert rep.pairing_D_CD == -1
    assert rep.degK_CD == 3
    assert rep.mmp_trace.outcome == "contracted"
    assert len(rep.mmp_trace.steps) == 1
    assert rep.mmp_trace.steps[0].move == "contraction"


def test_mmp_for_nef_divisor_is_empty():
    X = p4()
    trace = mmp_for_divisor(X, [1, 1, 1, 1, 1])
    assert trace.outcome == "nef"
    assert trace.steps == ()


def test_mmp_anticanonical_on_fano_is_empty():
    for X in (bl_pt_p4(), d3()):
        trace = mmp_for_divisor(X, [1] * X.n_rays)
        assert trace.outcome == "nef"
        assert trace.steps == ()


def test_mmp_exhaustive_d3_finds_two_routes():
    X = d3()
    exc = X.n_rays - 1
    traces = mmp_all_for_divisor(X, exc)
    labels = {
        t.terminal_descriptor.type_label
        for t in traces
        if t.outcome == "contracted"
    }
    assert labels == {"(3,2)^sm", "(3,0)_other"}
    flips = {t.flip_count for t in traces}
    assert flips == {0, 1}


def test_classify_d3_ambiguous():
    X = d3()
    exc = X.n_rays - 1
    assert set(fixed_prime_divisors(X)) == {1, exc}
    rep = classify_fixed_divisor(X, exc)
    assert rep.type_label == "ambiguous((3,0)_other, (3,2)^sm)"
    assert set(rep.outcomes) == {"(3,2)^sm", "(3,0)_other"}
    # The untouched fiber divisor is unambiguously a point blow-down.
    other = classify_fixed_divisor(X, 1)
    assert other.type_label == "(3,0)^sm"


def test_classify_511_ambiguous():
    X = bundle_over_p1xp2_O11()
    assert fixed_prime_divisors(X) == [0]
    rep = classify_fixed_divisor(X, 0)
    assert set(rep.outcomes) == {"(3,1)^sm", "(3,2)^sm"}
    assert rep.type_label == "ambiguous((3,1)^sm, (3,2)^sm)"


def test_mmp_traces_never_revisit_a_model():
    # Termination certificate: every step lands in a fresh chamber, so a
    # trace never revisits a fan (the naive sum of |D.C_w| over negative
    # walls can stay constant across a flip and is not a valid measure).
    for X in (d3(), bundle_over_p1xp2_O11(), builtin("R3")):
        for r in fixed_prime_divisors(X):
            for trace in mmp_all_for_divisor(X, r):
                keys = [trace.start.canonical_key()]
                keys += [s.fan_after.canonical_key() for s in trace.steps]
                assert len(keys) == len(set(keys))


def _count_walls(monkeypatch):
    """A list that grows by one each time a model computes its walls,
    counted by wrapping the cached property's function."""
    walls = ToricVariety.__dict__["walls"]
    compute, calls = walls.func, []

    def counted(X):
        calls.append(X.fan)
        return compute(X)

    monkeypatch.setattr(walls, "func", counted)
    return calls


_WALKED = [("R3", 13, 7), ("D3", 4, 2), ("B511", 3, 1), ("Y_tower", 3, 1)]


@pytest.mark.parametrize(
    "name,smooth,walled", _WALKED, ids=[f"{name}-{smooth}" for name, smooth, _ in _WALKED]
)
def test_mmp_walks_from_one_variety_build_each_fan_once(monkeypatch, name, smooth, walled):
    # The fixed-divisor walks reach `smooth` smooth models, the start
    # included; D3's also reach a singular contraction target.  Every
    # model a walk goes on from, the start and the flipped models,
    # computes its walls once.  The contraction targets, where each walk
    # ends, compute none.
    calls = _count_walls(monkeypatch)
    X = ToricVariety(builtin(name).fan)
    reports = classified_fixed_divisors(X)
    models = {X.fan: X, **X._models}
    assert sum(m.is_smooth for m in models.values()) == smooth
    assert len(calls) == len(set(calls)) == walled
    calls.clear()
    for rep in reports:
        assert mmp_all_for_divisor(X, rep.ray_index) == mmp_all_for_divisor(X, rep.ray_index)
    assert calls == []


def test_default_mmp_reuses_the_models_of_the_exhaustive_walk(monkeypatch):
    calls = _count_walls(monkeypatch)
    X = ToricVariety(builtin("R3").fan)
    rays = fixed_prime_divisors(X)
    for r in rays:
        mmp_for_divisor(X, r)
    for r in rays:
        mmp_all_for_divisor(X, r)
    assert len(calls) == len(set(calls)) == 7
    calls.clear()
    for r in rays:
        mmp_for_divisor(X, r)
    assert calls == []


def test_mmp_steps_keep_the_ledger_rules():
    # The ledger identities of the steps the fixed-divisor walks take, on
    # the models the walks built: a flip keeps chi(-K) and rho and moves
    # (-K)^4 by its circuit count (down when every circuit flips planes
    # away, as in criterion 9), and a smooth point blow-down is undone
    # by the point blow-up rule.
    flips = point_blowdowns = 0
    for name in builtin_names():
        X = ToricVariety(builtin(name).fan)
        for r in fixed_prime_divisors(X):
            for trace in mmp_all_for_divisor(X, r):
                before = X
                for step in trace.steps:
                    after = X._models[step.fan_after]
                    lb = before.ledger_state()
                    if step.move == "flip":
                        _, circuits = flipped_fan(before, step.curve_class)
                        s = step.circuit_count
                        assert s == len(circuits) > 0
                        la = after.ledger_state()
                        assert (la.chi_minusK, la.rho) == (lb.chi_minusK, lb.rho)
                        planes_side = all(len(c.positive) == 3 for c in circuits)
                        assert la.degK4 - lb.degK4 == (-s if planes_side else s)
                        flips += 1
                    elif step.descriptor.type_label == "(3,0)^sm":
                        assert apply_point_blowup(after.ledger_state()).as_tuple() == lb.as_tuple()
                        point_blowdowns += 1
                    before = after
    assert (flips, point_blowdowns) == (8, 4)


def test_typing_the_fixed_divisors_computes_no_ledger(monkeypatch):
    def refuse(X):
        raise AssertionError(f"ledger computed on fan {X.fan.content_hash()}")

    monkeypatch.setattr(ToricVariety, "ledger_state", refuse)
    reports = classified_fixed_divisors(ToricVariety(builtin("R3").fan))
    assert len(reports) == 6 and all(r.type_label for r in reports)


def test_lefschetz_defects():
    assert lefschetz_defect(p2xp2())[0] == 0
    delta, witness = lefschetz_defect(p1xp3())
    assert delta == 1
    assert witness in (0, 1)  # a P3 fiber divisor
    X = bl_pt_p4()
    delta, _ = lefschetz_defect(X)
    assert delta == 1
    assert 5 in lefschetz_witnesses(X)  # the exceptional divisor


def test_verify_bounds_on_corpus():
    for X in (p4(), p1xp3(), p2xp2(), bl_pt_p4(), d3(), builtin("R3")):
        assert all(holds for _, holds in verify_bounds(X))


def test_mori_chambers_bl_pt_p4_single():
    X = bl_pt_p4()
    ch = mori_chambers(X)
    assert ch.count == 1
    assert ch.chambers[0] == cone_suite(X).nef
    assert ch.adjacency == []


def test_mori_chambers_d3_two():
    X = d3()
    ch = mori_chambers(X)
    assert ch.count == 2
    assert len(ch.adjacency) == 1
    # The two chambers tile Mov: their union has the same extreme rays.
    union = RationalCone.from_generators(
        [g for c in ch.chambers for g in c.generators], X.rho
    )
    assert union == ch.mov


def _nonprojective_fan() -> Fan:
    """A complete smooth fan that is not projective: on a flip of a
    blow-up of R3, the circuits of the walls on the non-extremal class
    (1, 0, 1, 1, 0, 0) exchanged by hand."""
    Z1, _ = flip(blowup(builtin("R3"), (0, 2, 4, 6)), (-1, 0, -1, 0, 0, -1))
    cones = set(Z1.fan.max_cones)
    for i in Z1.walls_by_class[(1, 0, 1, 1, 0, 0)]:
        w = Z1.walls[i]
        support = set(w.circuit_support)
        cones -= {tuple(sorted(support - {p})) for p in w.positive_rays}
        cones |= {tuple(sorted(support - {m})) for m in w.negative_rays}
    return Fan(Z1.dim, Z1.fan.rays, tuple(sorted(cones)))


def test_mori_chambers_nonprojective_rejected(capsys, tmp_path):
    X = p4()
    ch = mori_chambers(X)
    assert ch.count == 1
    fan = _nonprojective_fan()
    Y = ToricVariety(fan)
    assert fan.content_hash() == "d0219caf60117461" and Y.is_smooth
    message = "fan is not projective: nef cone has empty interior"
    with pytest.raises(SurgeryError) as e:
        ne_cone(Y)
    assert str(e.value) == message
    path = tmp_path / "nonprojective.json"
    path.write_text(fan_to_json(fan) + "\n")
    registry = str(tmp_path / "fans")
    for command in (["cones"], ["fixed"], ["chambers"], ["delta"], ["mmp", "--divisor", "0"]):
        assert main(["--registry", registry, *command, str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"


def test_chamber_cap_names_the_fan():
    X = builtin("R3")
    assert mori_chambers(X, max_chambers=9).count == 9
    with pytest.raises(MoriError) as e:
        mori_chambers(X, max_chambers=8)
    assert str(e.value) == f"chamber enumeration of fan {X.fan.content_hash()} exceeds the cap of 8 chambers"


def _v4_fan() -> Fan:
    """V^4: the rays +-e_1 .. +-e_4 and +-(1, 1, 1, 1), interleaved, and
    as maximal cones the 30 facets of their convex hull, each the four
    rays on an affine hyperplane n . x = 1 with n . u <= 1 on every ray."""
    rays = []
    for t in range(4):
        e = tuple(int(s == t) for s in range(4))
        rays += [e, tuple(-x for x in e)]
    rays += [(1, 1, 1, 1), (-1, -1, -1, -1)]
    cones = []
    for quad in combinations(range(len(rays)), 4):
        if det_int([rays[i] for i in quad]) == 0:
            continue
        n = solve_rational([rays[i] for i in quad], [1, 1, 1, 1])
        if all(dot(n, u) <= 1 for u in rays):
            cones.append(quad)
    return Fan.make(4, rays, cones)


def test_the_v4_chamber_walk_stops_at_its_cap_and_builds_each_wall_once(monkeypatch):
    # Uncapped, the walk finds 2,098 chambers; the cap stops it at 512.
    # Every chamber model is on V^4's rays and reads its walls from their
    # shared record, so no wall is constructed twice.
    from toricfano import variety

    fan = _v4_fan()
    assert len(fan.max_cones) == 30 and fan.content_hash() == "c7cf421e28ba8107"
    built, Wall = [], variety.Wall

    def counted(**kwargs):
        built.append((kwargs["shared"], kwargs["left"], kwargs["right"]))
        return Wall(**kwargs)

    monkeypatch.setattr(variety, "Wall", counted)
    with pytest.raises(MoriError, match="exceeds the cap of 512 chambers"):
        mori_chambers(ToricVariety(fan))
    assert built and len(set(built)) == len(built)


def test_r3_profile():
    X = builtin("R3")
    assert X.rho == 5
    assert X.is_fano
    reports = classified_fixed_divisors(X)
    assert len(reports) == 6
    labels = [r.type_label for r in reports]
    assert labels.count("(3,0)^sm") == 2
    for r in reports:
        assert r.pairing_D_CD == -1
        table = {"(3,2)": 1, "(3,2)^sm": 1, "(3,1)^sm": 2, "(3,0)^sm": 3}
        if r.type_label in table:
            assert r.degK_CD == table[r.type_label]


def test_r3_chamber_graph_contains_flip_path():
    X = builtin("R3")
    ch = mori_chambers(X)
    # The three-flip construction path lives inside the chamber graph.
    assert ch.count >= 4
    keys = {f.canonical_key() for f in ch.fans}
    from toricfano.library import plane_blowup_tower_base, two_point_tower

    Y = plane_blowup_tower_base()
    tower = two_point_tower(Y, (Y.fan.max_cones[0], Y.fan.max_cones[6]))
    assert tower.fano.fan.canonical_key() in keys
    assert tower.blown_up.fan.canonical_key() in keys


def test_fixed_divisor_report_serialization():
    X = bl_pt_p4()
    rep = classified_fixed_divisors(X)[0]
    d = rep.as_dict()
    assert d["type_label"] == "(3,0)^sm"
    assert d["ray_index"] == 5


def test_mmp_step_cap_diagnostic():
    X = d3()
    exc = X.n_rays - 1
    for cap in (0, -1):
        with pytest.raises(MoriError):
            mmp_for_divisor(X, exc, max_steps=cap)


def _fixed_divisor_cases():
    return [
        (name, ray)
        for name in ("B511", "Bl_pt_P4", "D3", "R3", "Y_tower")
        for ray in fixed_prime_divisors(builtin(name))
    ]


@pytest.mark.parametrize("name,ray", _fixed_divisor_cases())
def test_mmp_step_cap_allows_exactly_max_steps(name, ray):
    X = builtin(name)
    default = mmp_for_divisor(X, ray)
    traces = mmp_all_for_divisor(X, ray)
    for run, k in (
        (mmp_for_divisor, len(default.steps)),
        (mmp_all_for_divisor, max(len(t.steps) for t in traces)),
    ):
        assert k >= 1
        run(X, ray, max_steps=k)
        with pytest.raises(MoriError) as e:
            run(X, ray, max_steps=k - 1)
        message = str(e.value)
        assert message.endswith(f"within the step cap of {k - 1}")
        assert str(list(default.divisor)) in message
        assert X.fan.content_hash() in message


def _divisor_cases():
    cases = []
    for name in sorted(builtin_names()):
        n_rays = builtin(name).n_rays
        cases += [(name, r) for r in range(n_rays)] + [(name, (1,) * n_rays)]
    return cases


@pytest.mark.parametrize("name,divisor", _divisor_cases())
def test_default_trace_is_the_first_exhaustive_trace(name, divisor):
    X = builtin(name)
    assert mmp_all_for_divisor(X, divisor)[0] == mmp_for_divisor(X, divisor)


def test_internal_check_failures_name_the_fan(monkeypatch, capsys, tmp_path):
    from toricfano import mori
    from toricfano.cli import main

    X = d3()
    h = X.fan.content_hash()
    monkeypatch.setattr(mori, "_triangulation_from_weight", lambda inverses, w: frozenset())
    with pytest.raises(mori.InternalCheckError) as e:
        mori_chambers(X)
    assert f"chamber 0 (fan {h}) of fan {h}" in str(e.value)
    assert str(e.value).endswith("cones " + str([list(c) for c in sorted(X.fan.max_cones)]))

    assert main(["--registry", str(tmp_path), "chambers", "D3"]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and h in err


def test_cone_chain_failure_names_the_fan(monkeypatch):
    from toricfano import mori

    # Every cone claims to miss one generator of Nef.
    X = p2xp2()
    outside = ne_cone(X).dual().generators[-1]
    contains = RationalCone.contains
    monkeypatch.setattr(RationalCone, "contains", lambda self, v: tuple(v) != outside and contains(self, v))
    with pytest.raises(mori.InternalCheckError, match=f"on fan {X.fan.content_hash()}: not Nef <= Mov") as e:
        cone_suite(X)
    assert str(e.value).endswith(f": Nef generator {list(outside)} is not in Mov")


# -- test-only references for the chamber walk's cross-checks ------------


def _chamber_models():
    """(builtin name, chamber model, its nef cone) for every chamber of
    every builtin."""
    out = []
    for name in builtin_names():
        for k, fan in enumerate(mori_chambers(builtin(name)).fans):
            Y = ToricVariety(fan)
            out.append(pytest.param(name, Y, ne_cone(Y).dual(), id=f"{name}-{k}"))
    return out


CHAMBER_MODELS = _chamber_models()


def _dd_complement_cones(X):
    """For each 4-subset sigma with independent rays, the cone of the
    classes of the other rays, built by double description."""
    classes = list(X.ray_classes)
    out = {}
    for sigma in combinations(range(X.n_rays), X.dim):
        if det_int([list(X.fan.rays[i]) for i in sigma]) == 0:
            continue
        complement = [classes[j] for j in range(X.n_rays) if j not in sigma]
        out[sigma] = RationalCone.from_generators(complement, X.rho)
    return out


@pytest.mark.parametrize("name,Y,nef", CHAMBER_MODELS)
def test_gale_triangulation_matches_the_double_description_one(name, Y, nef):
    cones = _dd_complement_cones(Y)
    # Boundary weights (generators of the chamber and of Mov) put some
    # complement cones on their boundary, where ">= 0" and contains()
    # must still agree.
    weights = [nef.interior_point(), *nef.generators, *cone_suite(Y).mov.generators]
    inverses = _gale_inverses(Y)
    assert list(inverses) == list(cones)
    for w in weights:
        expected = frozenset(sigma for sigma, c in cones.items() if c.contains(w))
        assert _triangulation_from_weight(inverses, w) == expected
    assert _triangulation_from_weight(inverses, nef.interior_point()) == frozenset(Y.fan.max_cones)


@pytest.mark.parametrize("name,Y,nef", CHAMBER_MODELS)
def test_facet_points_match_the_face_lattice(name, Y, nef):
    expected = [f.interior_point() for f in nef.faces_of_dim(Y.rho - 1)]
    pairs = _facet_points(nef)
    assert [p for _, p in pairs] == expected
    assert sorted(n for n, _ in pairs) == sorted(nef.facet_normals)
    assert all(dot(n, p) == 0 for n, p in pairs)


@pytest.mark.parametrize("name,Y,nef", CHAMBER_MODELS)
def test_movable_cone_equals_the_intersection_over_every_ray(name, Y, nef):
    classes = list(Y.ray_classes)
    mov = RationalCone.from_generators(classes, Y.rho)
    for i in range(Y.n_rays):
        others = [c for j, c in enumerate(classes) if j != i]
        mov = _intersect(mov, RationalCone.from_generators(others, Y.rho))
    assert cone_suite(Y).mov == mov


def test_chamber_walk_cross_checks_make_no_dd_call_and_ne_is_built_once(monkeypatch):
    from toricfano import cones, mori, surgery

    inside = []
    dd_inside = []
    built = {}  # fan key -> the distinct NE objects handed out for it

    def tracked(fn):
        def wrapper(*args):
            inside.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapper

    def counting_dd(vectors, ambient_dim):
        if inside:
            dd_inside.append(inside[-1])
        return dual_extreme_rays(vectors, ambient_dim)

    def counting_ne_cone(X):
        ne = ne_cone(X)
        objects = built.setdefault(X.fan.canonical_key(), [])
        if not any(ne is o for o in objects):
            objects.append(ne)
        return ne

    def no_face_lattice(self):
        raise AssertionError("the chamber walk closed a face lattice")

    monkeypatch.setattr(cones, "dual_extreme_rays", counting_dd)
    monkeypatch.setattr(RationalCone, "all_faces", no_face_lattice)
    monkeypatch.setattr(mori, "_triangulation_from_weight", tracked(_triangulation_from_weight))
    monkeypatch.setattr(mori, "_gale_inverses", tracked(_gale_inverses))
    facet_point_calls = []
    tracked_facet_points = tracked(_facet_points)
    monkeypatch.setattr(mori, "_facet_points", lambda ch: facet_point_calls.append(ch) or tracked_facet_points(ch))
    tested = []  # the cones a point was tested against
    contains = RationalCone.contains
    monkeypatch.setattr(RationalCone, "contains", lambda self, v: tested.append(self) or contains(self, v))
    monkeypatch.setattr(mori, "ne_cone", counting_ne_cone)
    monkeypatch.setattr(surgery, "ne_cone", counting_ne_cone)
    X = ToricVariety(builtin("R3").fan)
    result = mori_chambers(X)
    assert result.count == 9
    assert dd_inside == []
    # No pairwise work: each chamber's facets are listed once, and each
    # facet point inside Mov is tested against one chamber, the one the
    # walk reached across that facet.
    assert facet_point_calls == result.chambers
    inner = [
        p for ch in result.chambers for _, p in _facet_points(ch) if result.mov.contains_in_relative_interior(p)
    ]
    assert len(inner) == 2 * len(result.adjacency) == 2 * 13
    assert sum(any(c is ch for ch in result.chambers) for c in tested) == len(inner)
    assert sorted(built) == sorted(f.canonical_key() for f in result.fans)
    assert all(len(objects) == 1 for objects in built.values())


def _separated(A, B):
    return any(
        all(dot(n, g) <= 0 for g in Q.generators)
        for P, Q in ((A, B), (B, A))
        for n in P.facet_normals
    )


def _interiors_overlap(A, B):
    """Test-only reference: whether two cones meet in a full-dimensional
    cone.  A separating facet normal decides most pairs; facet normals
    alone do not decide disjointness from rho = 4 on, so otherwise the
    intersection is built by double description."""
    if _separated(A, B):
        return False
    return _intersect(A, B).dim == A.ambient_dim


def _pairwise_scans_accept(result):
    """Test-only reference: the chamber walk's former post-walk checks.
    No two chambers overlap, and unless walls were excluded, every facet
    point inside Mov lies in some other chamber."""
    chambers = result.chambers
    if any(_interiors_overlap(A, B) for A, B in combinations(chambers, 2)):
        return False
    return bool(result.excluded) or all(
        any(other is not ch and other.contains(p) for other in chambers)
        for ch in chambers
        for _, p in _facet_points(ch)
        if result.mov.contains_in_relative_interior(p)
    )


def test_interiors_overlap_agrees_with_the_double_description_on_every_chamber_pair():
    pairs = 0
    for name in builtin_names():
        result = mori_chambers(builtin(name))
        for A, B in combinations(result.chambers, 2):
            assert _separated(A, B)  # the double description is never reached
            assert _interiors_overlap(A, B) == (_intersect(A, B).dim == A.ambient_dim)
            pairs += 1
        for A in result.chambers:
            assert _interiors_overlap(A, result.mov)
            assert _interiors_overlap(A, A)
    assert pairs >= 37  # the 36 pairs of R3 and the pair of D3


def test_interiors_overlap_falls_back_when_no_facet_separates(monkeypatch):
    A = RationalCone.from_generators([(1, -2, 0, 0), (1, 2, 0, 0), (1, 0, 2, -2), (1, 0, -2, -2)])
    B = RationalCone.from_generators([(1, 0, 2, 1), (1, 0, -2, 1), (1, 2, 0, 3), (1, -2, 0, 3)])
    assert A.dim == B.dim == 4
    assert not _separated(A, B)
    intersections = []
    intersect = _intersect

    def counting_intersect(P, Q):
        intersections.append((P, Q))
        return intersect(P, Q)

    monkeypatch.setitem(globals(), "_intersect", counting_intersect)
    assert not _interiors_overlap(A, B)
    assert len(intersections) == 1
    assert intersect(A, B).dim == 0


@pytest.mark.parametrize(
    "name,center,count,excluded",
    [(name, None, None, None) for name in sorted(builtin_names())]
    + [("R3", (0, 6), 13, 0), ("R3", (2, 4, 6), 37, 33)],
)
def test_local_certificates_accept_where_the_pairwise_scans_accept(name, center, count, excluded):
    X = builtin(name) if center is None else blowup(builtin(name), center)
    result = mori_chambers(X)  # the local certificates accept
    assert _pairwise_scans_accept(result)
    if count is not None:
        assert result.count == count
        assert len(result.excluded) == excluded
    if result.excluded:
        assert result.excluded[-1] == "coverage of the movable cone not verified (walls excluded)"


def test_mori_chambers_rejects_an_overlapping_chamber(monkeypatch):
    from toricfano import mori

    # D3 has chambers cone{(0,0,1),(1,-1,0),(1,0,0)} and
    # cone{(0,0,1),(0,1,1),(1,0,0)}.  The fake second chamber reaches
    # into the first through (2,-1,3), and the sum of its generators,
    # (3,1,7), still selects the second model's triangulation.
    fake = RationalCone.from_generators([(1, 0, 0), (0, 0, 1), (0, 2, 3), (2, -1, 3)])
    assert fake.interior_point() == (3, 1, 7)
    X = d3()
    fans = mori_chambers(d3()).fans
    key = fans[1].canonical_key()
    assert _interiors_overlap(ne_cone(ToricVariety(fans[0])).dual(), fake)  # the reference rejects it too
    monkeypatch.setattr(
        mori, "ne_cone", lambda Y: fake.dual() if Y.fan.canonical_key() == key else ne_cone(Y)
    )
    with pytest.raises(mori.InternalCheckError) as e:
        mori_chambers(X)
    assert str(e.value) == (
        "chamber leaves the Gale cone of its fan: chamber 1"
        f" (fan {fans[1].content_hash()}) of fan {X.fan.content_hash()}, generator [2, -1, 3]"
    )


def test_mori_chambers_rejects_a_shrunken_neighbour(monkeypatch):
    from toricfano import mori

    # The second chamber of D3, cone{(0,0,1),(0,1,1),(1,0,0)}, shrunk
    # away from the wall it shares with the first: its weight (1,3,4)
    # still selects its fan, and it stays inside its Gale cone, but the
    # first chamber's facet point (1,0,1) on that wall is in no chamber
    # across it.
    shrunk = RationalCone.from_generators([(0, 1, 2), (0, 1, 1), (1, 1, 1)])
    X = d3()
    fans = mori_chambers(d3()).fans
    key = fans[1].canonical_key()
    first = ne_cone(ToricVariety(fans[0])).dual()
    assert (1, 0, 1) in [p for _, p in _facet_points(first)] and not shrunk.contains((1, 0, 1))
    monkeypatch.setattr(
        mori, "ne_cone", lambda Y: shrunk.dual() if Y.fan.canonical_key() == key else ne_cone(Y)
    )
    with pytest.raises(mori.InternalCheckError) as e:
        mori_chambers(X)
    h = X.fan.content_hash()
    assert str(e.value) == (
        f"movable cone not covered: facet point [1, 0, 1] of chamber 0 (fan {h}) of fan {h}"
        " lies in no chamber the walk reached across that facet"
    )


def test_mori_chambers_rejects_a_facet_the_walk_never_crossed(monkeypatch):
    from toricfano import mori

    # The second chamber of D3 forgets its small ray, so the walk never
    # crosses back from it; it still has both chambers.  The pairwise
    # coverage scan accepts them (the first chamber holds the facet
    # point); the walk's own edges do not.
    X = d3()
    fans = mori_chambers(d3()).fans
    key = fans[1].canonical_key()
    real = mori.extremal_rays
    monkeypatch.setattr(
        mori,
        "extremal_rays",
        lambda Y: [t for t in real(Y) if t[1].kind != "small"] if Y.fan.canonical_key() == key else real(Y),
    )
    with pytest.raises(mori.InternalCheckError) as e:
        mori_chambers(X)
    message = str(e.value)
    assert message.startswith("movable cone not covered: facet point ")
    assert f"of chamber 1 (fan {fans[1].content_hash()}) of fan {X.fan.content_hash()}" in message
    monkeypatch.undo()
    assert _pairwise_scans_accept(mori_chambers(X))


def test_gale_inverses_refuse_a_dependent_complement(monkeypatch):
    from toricfano import mori

    X = builtin("R3")
    monkeypatch.setattr(mori, "det_int", lambda m: 1)  # every 4-subset claims independent rays
    with pytest.raises(mori.InternalCheckError, match=f"Gale duality failure: .* on fan {X.fan.content_hash()}"):
        _gale_inverses(X)


def test_mori_chambers_refuses_a_model_with_other_rays(monkeypatch):
    from toricfano import mori
    from toricfano.fan import Fan

    def relabelled_flipped_fan(node, c):
        fan, circuits = flipped_fan(node, c)
        order = list(reversed(range(fan.n_rays)))  # new ray k is old ray order[k]
        where = {old: new for new, old in enumerate(order)}
        cones = [[where[i] for i in cone] for cone in fan.max_cones]
        return Fan.make(fan.dim, [fan.rays[i] for i in order], cones), circuits

    X = d3()
    monkeypatch.setattr(mori, "flipped_fan", relabelled_flipped_fan)
    with pytest.raises(mori.InternalCheckError, match=f"changed the rays: chamber 1 .* of fan {X.fan.content_hash()}"):
        mori_chambers(X)


def test_cone_suite_duality_checks_read_the_walls_and_the_ray_classes(monkeypatch):
    from toricfano import mori

    # NE without its first extremal ray: dual(NE) is too big for the walls.
    X = d3()
    ne = ne_cone(X)
    monkeypatch.setattr(mori, "ne_cone", lambda Y: RationalCone.from_generators(ne.generators[1:], Y.rho))
    with pytest.raises(mori.InternalCheckError, match=f"duality failure: .* Nef on fan {X.fan.content_hash()}") as e:
        cone_suite(X)
    c, g = _witness(r": wall class (\[.*\]) on Nef generator (\[.*\])$", e.value)
    assert c in [w.curve_class for w in X.walls]
    assert g in RationalCone.from_generators(ne.generators[1:], X.rho).dual().generators
    assert dot(c, g) < 0
    monkeypatch.undo()

    # Eff without its first extremal ray: dual(Eff) is too big for the rays.
    X = d3()
    from_generators = RationalCone.from_generators
    eff = from_generators(list(X.ray_classes), X.rho)

    def corrupted(vectors, ambient_dim=None):
        cone = from_generators(vectors, ambient_dim)
        return from_generators(eff.generators[1:], ambient_dim) if cone == eff else cone

    monkeypatch.setattr(RationalCone, "from_generators", staticmethod(corrupted))
    with pytest.raises(mori.InternalCheckError, match=f"duality failure: .* dual\\(Eff\\) on fan {X.fan.content_hash()}") as e:
        cone_suite(X)
    c, i, g = _witness(r": class (\[.*\]) of ray (\d+) on dual\(Eff\) generator (\[.*\])$", e.value)
    assert c == X.ray_classes[i]
    assert g in from_generators(eff.generators[1:], X.rho).dual().generators
    assert dot(c, g) < 0


def _witness(pattern, error):
    """The vectors and indices a failure message ends with."""
    match = re.search(pattern, str(error))
    assert match, str(error)
    return [tuple(json.loads(x)) if x.startswith("[") else int(x) for x in match.groups()]


def test_smooth_label_on_a_singular_contraction_is_an_internal_error(monkeypatch):
    from dataclasses import replace

    from toricfano import mori
    from toricfano.surgery import extremal_rays

    # After the flip, the exceptional divisor of D3 contracts to a
    # singular point, typed (3,0)_other; relabelled smooth, executing
    # the contraction must refuse the label.
    X = d3()
    small = next(c for c, d in extremal_rays(X) if d.kind == "small")
    Y, _ = flip(X, small)
    relabelled = [
        (c, replace(d, type_label="(3,0)^sm") if d.type_label == "(3,0)_other" else d)
        for c, d in extremal_rays(Y)
    ]
    assert relabelled != extremal_rays(Y)
    monkeypatch.setattr(mori, "extremal_rays", lambda Z: relabelled if Z is Y else extremal_rays(Z))
    with pytest.raises(mori.InternalCheckError) as e:
        mmp_for_divisor(Y, X.n_rays - 1)
    assert str(e.value) == (
        f"(3,0)^sm contraction of ray {X.n_rays - 1} has a singular target"
        f" on fan {Y.fan.content_hash()}"
    )


def test_singular_label_on_a_smooth_contraction_is_an_internal_error(monkeypatch):
    from dataclasses import replace

    from toricfano import mori
    from toricfano.surgery import extremal_rays

    # B511's section contracts smoothly along its (3,2)^sm ray; relabelled
    # singular, executing the contraction must refuse the label.
    X = bundle_over_p1xp2_O11()
    relabelled = [
        (c, replace(d, type_label="(3,2)") if d.type_label == "(3,2)^sm" else d)
        for c, d in extremal_rays(X)
    ]
    assert relabelled != extremal_rays(X)
    monkeypatch.setattr(mori, "extremal_rays", lambda Z: relabelled if Z is X else extremal_rays(Z))
    with pytest.raises(mori.InternalCheckError) as e:
        mmp_all_for_divisor(X, 0)
    assert str(e.value) == (
        f"(3,2) contraction of ray 0 has a smooth target on fan {X.fan.content_hash()}"
    )


_HASHES = """
from toricfano import mori
from toricfano.fan import Fan
from toricfano.library import builtin
from toricfano.variety import ToricVariety

calls = {"content_hash": 0, "divisor_class": 0}
content_hash, divisor_class = Fan.content_hash, ToricVariety.divisor_class

def counted_content_hash(self):
    calls["content_hash"] += 1
    return content_hash(self)

def counted_divisor_class(self, coefficients):
    calls["divisor_class"] += 1
    return divisor_class(self, coefficients)

F = builtin("R3").fan
order = list(reversed(range(F.n_rays)))
where = {old: new for new, old in enumerate(order)}
F = Fan.make(F.dim, [F.rays[i] for i in order], [[where[i] for i in c] for c in F.max_cones])
Fan.content_hash = counted_content_hash
ToricVariety.divisor_class = counted_divisor_class
X = ToricVariety(F)
mori.cone_suite(X)
mori._gale_inverses(X)
print(calls["content_hash"], calls["divisor_class"])
d = mori.mori_chambers(X).as_dict()
print(calls["content_hash"], len(d["nodes"]))
"""


def test_chamber_walk_hashes_each_fan_once_from_a_fresh_process():
    # On R3 with its rays in reverse order: the cone suite and the Gale
    # inverses read the ray classes without one divisor_class solve and
    # hash no fan; the walk and its as_dict hash each of the 9 chamber
    # fans once (as_dict alone made 35 before its edges read the node
    # hashes).
    src = str(Path(toricfano.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _HASHES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "9", "9"]
