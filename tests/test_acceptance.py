"""Acceptance suite: the twelve exit criteria, one test each, every
tolerance exact.  Run with ``pytest -s tests/test_acceptance.py`` to see
one pass line per criterion."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from toricfano.cones import RationalCone
from toricfano.lattice import dot, primitive_vector
from toricfano.ledger import (
    CurveBlowupData,
    apply_curve_blowup,
    apply_flip,
    apply_plane_blowup,
    apply_point_blowup,
    h0_bound_rho1,
    max_point_blowups,
)
from toricfano.library import builtin
from toricfano.mori import (
    classified_fixed_divisors,
    cone_suite,
    lefschetz_defect,
    mori_chambers,
    verify_bounds,
)
from toricfano.replays import REPLAYS, Checklist
from toricfano.surgery import blowup, contract, extremal_rays, flip
from toricfano.variety import ToricVariety

CORPUS = ["P4", "P1xP3", "P2xP2", "F2xP2", "Bl_pt_P4", "D3", "B511", "Y_tower", "R3"]


def _report(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n:>2}: PASS  {message}")


def _assert_replay(name: str) -> None:
    cl = Checklist()
    REPLAYS[name](cl)
    assert cl.ok, f"replay {name} failed: {[d for d, p in cl.items if not p]}"


def test_criterion_01_point_blowup_deltas():
    X = builtin("P4")
    Y = blowup(X, (0, 1, 2, 3))
    before, after = X.ledger_state(), Y.ledger_state()
    assert after.chi_minusK - before.chi_minusK == -15
    assert after.degK4 - before.degK4 == -81
    assert after.c2K2 - before.c2K2 == -18
    assert after.rho - before.rho == 1
    _report(1, "toric point blow-up recomputation gives deltas (-15, -81, -18)")


def test_criterion_02_ledger_chain_eight_points_then_flip():
    _assert_replay("ex61_ledger")
    _report(2, "ledger chain 625 -> -23 -> 13 with chi = h0 = 6 and rho = 9")


def test_criterion_03_r_bounds():
    assert max_point_blowups(126) == 8
    assert max_point_blowups(105) == 6
    assert max_point_blowups(40) == 2
    _report(3, "max point blow-ups: 126 -> 8, 105 -> 6, 40 -> 2")


def test_criterion_04_h0_bound_table():
    assert h0_bound_rho1("P4") == 126
    assert h0_bound_rho1("quadric") == 105
    assert max(h0_bound_rho1("index3", h) for h in range(1, 6)) == 85
    assert max(h0_bound_rho1("index2", h) for h in range(1, 23)) == 75
    assert h0_bound_rho1("index1_deg3_family") == 121
    assert h0_bound_rho1("index1_general") == 97
    _report(4, "h0(-K) caps: 126 / 105 / 85 / 75 / 121 (97 generic index 1)")


def test_criterion_05_section_with_two_divisorial_types():
    _assert_replay("ex511")
    _report(5, "P(O+O(1,1)) section carries both a (3,1)^sm and a (3,2)^sm ray")


def test_criterion_06_blowup_of_negative_section():
    _assert_replay("ex52")
    _report(6, "D3: direct (3,2)^sm MMP and flip-then-(3,0) MMP with E.C = -2")


def test_criterion_07_two_point_tower_search():
    _assert_replay("ex62")
    _report(7, "tower search: 3 flips to a Fano with rho 5, 6 fixed divisors, two (3,0)^sm")


def test_criterion_08_cone_dualities_on_corpus():
    assert len(CORPUS) >= 8
    for name in CORPUS:
        X = builtin(name)
        suite = cone_suite(X)
        assert suite.nef.dual() == suite.ne
        assert suite.eff.dual() == suite.mov_curves
        assert suite.mov.contains_cone(suite.nef)
        assert suite.eff.contains_cone(suite.mov)
        # The dual descriptions read back against the inputs they came from.
        walls = [w.curve_class for w in X.walls]
        classes = list(X.ray_classes)
        assert set(suite.ne.generators) <= {primitive_vector(c) for c in walls}
        assert set(suite.eff.generators) <= {primitive_vector(c) for c in classes}
        assert all(dot(c, g) >= 0 for c in walls for g in suite.nef.generators)
        assert all(dot(c, g) >= 0 for c in classes for g in suite.mov_curves.generators)
    _report(8, f"dual(Nef) = NE, dual(Eff) = mov, Nef <= Mov <= Eff on {len(CORPUS)} fans")


def _all_flips_in_graph(names):
    for name in names:
        graph = mori_chambers(builtin(name))
        for fan in graph.fans:
            node = ToricVariety(fan)
            for c, d in extremal_rays(node):
                if d.kind == "small" and d.flippable:
                    yield node, c


def test_criterion_09_flip_conservation():
    executed = 0
    for node, c in _all_flips_in_graph(["D3", "R3"]):
        before = node.ledger_state()
        flipped, circuits = flip(node, c)
        after = flipped.ledger_state()
        s = len(circuits)
        planes_side = all(len(circ.positive) == 3 for circ in circuits)
        assert after.chi_minusK == before.chi_minusK
        assert after.degK4 - before.degK4 == (-s if planes_side else s)
        executed += 1
    assert executed >= 10
    _report(9, f"chi(-K) conserved and (-K)^4 moved by the circuit count on {executed} flips")


def _multinomial_oracle(dims, coeff_vectors):
    acc = {(0,) * len(dims): Fraction(1)}
    for a in coeff_vectors:
        nxt = {}
        for expo, c in acc.items():
            for i, ai in enumerate(a):
                if ai and expo[i] < dims[i]:
                    key = expo[:i] + (expo[i] + 1,) + expo[i + 1:]
                    nxt[key] = nxt.get(key, Fraction(0)) + c * ai
        acc = nxt
    return acc.get(tuple(dims), Fraction(0))


def test_criterion_10_oracle_equivalence():
    setups = {
        "P4": ([4], [0]),
        "P1xP3": ([1, 3], [0, 2]),
        "P2xP2": ([2, 2], [0, 3]),
    }
    rng = random.Random("acceptance-10")
    for name, (dims, h_rays) in setups.items():
        X = builtin(name)
        hs = [[int(j == i) for j in range(X.n_rays)] for i in h_rays]
        for _ in range(20):
            coeffs = [[rng.randint(-3, 3) for _ in dims] for _ in range(4)]
            divisors = [[sum(ai * h[j] for ai, h in zip(a, hs)) for j in range(X.n_rays)] for a in coeffs]
            assert X.intersection_number(*divisors) == _multinomial_oracle(dims, coeffs)
    _report(10, "intersection numbers match the multinomial oracle (3 x 20 quadruples)")


def test_criterion_11_delta_values_and_bounds():
    assert lefschetz_defect(builtin("P2xP2"))[0] == 0
    assert lefschetz_defect(builtin("P1xP3"))[0] == 1
    assert lefschetz_defect(builtin("Bl_pt_P4"))[0] == 1
    for name in CORPUS:
        assert all(holds for _, holds in verify_bounds(builtin(name)))
    _report(11, "delta(P2xP2)=0, delta(P1xP3)=1, delta(Bl_pt P4)=1; no bound violations")


def test_criterion_12_randomized_property_suites():
    cases = 0
    rng = random.Random("acceptance-12")

    # (a) dual-of-dual involution on random cones.
    for _ in range(70):
        dim = rng.randint(2, 5)
        vecs = [
            [rng.randint(-4, 4) for _ in range(dim)]
            for _ in range(rng.randint(1, 8))
        ]
        vecs = [v for v in vecs if any(v)]
        c = RationalCone.from_generators(vecs, dim) if vecs else RationalCone.zero(dim)
        assert c.dual().dual() == c
        cases += 1

    # (b) blow-up / contract round trips on random invariant centers.
    for name in ("P4", "P1xP3", "P2xP2", "Bl_pt_P4", "D3"):
        X = builtin(name)
        faces = sorted(
            {
                tuple(sorted(sub))
                for cone in X.fan.max_cones
                for k in (2, 3, 4)
                for sub in combinations(cone, k)
            }
        )
        for center in rng.sample(faces, 8):
            Y = blowup(X, center)
            back = contract(Y, Y.n_rays - 1, center)
            assert back.fan.canonical_key() == X.fan.canonical_key()
            cases += 1

    # (c) flip involutions across the chamber graphs.
    for node, c in _all_flips_in_graph(["D3", "R3"]):
        flipped, _ = flip(node, c)
        back, _ = flip(flipped, [-x for x in c])
        assert back.fan.canonical_key() == node.fan.canonical_key()
        cases += 1

    # (d) Riemann-Roch integer identity after random ledger move chains.
    from toricfano.ledger import P4_STATE

    for _ in range(70):
        s = P4_STATE
        for _ in range(rng.randint(1, 10)):
            move = rng.choice(["point", "plane", "curve", "flip"])
            if move == "point":
                s = apply_point_blowup(s)
            elif move == "plane":
                s = apply_plane_blowup(s)
            elif move == "curve":
                s = apply_curve_blowup(
                    s, CurveBlowupData(rng.randint(-2, 9), rng.randint(0, 3))
                )
            else:
                s = apply_flip(s, rng.choice(["f2s", "s2f"]), rng.randint(0, 30))
            assert 12 * (s.chi_minusK - s.chi_O) == 2 * s.degK4 + s.c2K2
        cases += 1

    # (e) D.C_D = -1 and the anticanonical degree table on every
    # classified fixed divisor of the corpus.
    degree_table = {"(3,2)": 1, "(3,2)^sm": 1, "(3,1)^sm": 2, "(3,0)^sm": 3}
    for name in ("Bl_pt_P4", "D3", "B511", "Y_tower", "R3"):
        for rep in classified_fixed_divisors(builtin(name)):
            if rep.type_label in degree_table:
                assert rep.pairing_D_CD == -1
                assert rep.degK_CD == degree_table[rep.type_label]
                cases += 1

    assert cases >= 200
    _report(12, f"randomized property suites passed on {cases} cases")
