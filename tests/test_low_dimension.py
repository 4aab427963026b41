"""The engine below dimension 4, against classical oracles.

Every layer but the anticanonical ledger is dimension-free, so surfaces
and 3-folds built by hand check it against exact classical values: the
toric del Pezzo surfaces (K^2 = 12 - #rays, one (-1)-curve per
divisorial extremal ray, Riemann-Roch chi(D) = D.(D - K)/2 + 1), the
toric Fano 3-folds (chi(-K) = (-K)^3/2 + 3, and no small extremal ray by
Mori, "Threefolds whose canonical bundles are not numerically effective",
Ann. Math. 1982), and the Atiyah flop (Reid, "Decomposition of toric
morphisms", 1983).
"""

from collections import Counter
from itertools import product

import pytest

from test_properties import _is_nef, _lattice_points_of_nef
from toricfano.fan import ValidationError
from toricfano.library import hirzebruch_fan, product_fan, projective_space_fan, split_bundle_fan
from toricfano.mori import mori_chambers, verify_bounds
from toricfano.surgery import blowup, extremal_rays, flip_circuits
from toricfano.variety import ToricVariety

P1, P2, P3 = (projective_space_fan(n) for n in (1, 2, 3))


def _blown_up(fan, *centers):
    X = ToricVariety(fan)
    for center in centers:
        X = blowup(X, center)
    return X


BL2_P2 = _blown_up(P2, (0, 1), (1, 2)).fan
BL3_P2 = _blown_up(P2, (0, 1), (1, 2), (0, 2)).fan

# name: (fan, K^2, number of (-1)-curves, ten over the five)
DEL_PEZZO = {
    "P2": (P2, 9, 0),
    "P1xP1": (product_fan(P1, P1), 8, 0),
    "F1": (hirzebruch_fan(1), 8, 1),
    "Bl2P2": (BL2_P2, 7, 3),
    "Bl3P2": (BL3_P2, 6, 6),
}

# name: (fan, (-K)^3)
FANO_3FOLDS = {
    "P3": (P3, 64),
    "P1xP2": (product_fan(P1, P2), 54),
    "P1xP1xP1": (product_fan(P1, product_fan(P1, P1)), 48),
    "P1xF1": (product_fan(P1, hirzebruch_fan(1)), 48),
    "P1xBl2P2": (product_fan(P1, BL2_P2), 42),
    "P1xBl3P2": (product_fan(P1, BL3_P2), 36),
    "Bl_pt_P3": (_blown_up(P3, (0, 1, 2)).fan, 56),
    "Bl_line_P3": (_blown_up(P3, (0, 1)).fan, 54),
    "P(O+O(2))/P2": (split_bundle_fan(P2, [[2, 0, 0]]), 62),
    "P(O+O(1,1))/P1xP1": (split_bundle_fan(product_fan(P1, P1), [[1, 0, 1, 0]]), 52),
}

# Mori's divisorial types on a smooth Fano 3-fold, by (-K.l, E.l):
# E1 the blow-up of a curve, E2 of a point, E5 the contraction of a
# plane with normal bundle O(-2).
MORI_TYPES = {(1, -1): "(2,1)^sm", (2, -1): "(2,0)^sm", (1, -2): "(2,0)_other"}


def _divisorial(X):
    """(-K.l, E.l, label) for each divisorial extremal ray l."""
    return [
        (sum(d.relation_sample), d.relation_sample[d.exc_rays[0]], d.type_label)
        for _, d in extremal_rays(X)
        if d.kind == "divisorial"
    ]


@pytest.mark.parametrize("name", DEL_PEZZO)
def test_del_pezzo_surfaces(name):
    fan, k2, curves = DEL_PEZZO[name]
    X = ToricVariety(fan)
    mk = [1] * X.n_rays
    assert X.is_fano and X.intersection_number(mk, mk) == k2 == 12 - X.n_rays
    assert _divisorial(X) == [(1, -1, "(1,0)^sm")] * curves
    assert mori_chambers(X).count == 1
    # Riemann-Roch on nef D: chi(D) = D.(D - K)/2 + 1, K = -sum D_i.
    nef = [d for d in product((0, 1), repeat=X.n_rays) if _is_nef(X, d)]
    for d in nef:
        chi = X.intersection_number(d, [x + 1 for x in d]) / 2 + 1
        assert chi == _lattice_points_of_nef(X, d)
    assert len(nef) >= 3


@pytest.mark.parametrize("name", FANO_3FOLDS)
def test_toric_fano_3folds(name):
    fan, degree = FANO_3FOLDS[name]
    X = ToricVariety(fan)
    mk = [1] * X.n_rays
    assert X.is_fano and X.intersection_number(mk, mk, mk) == degree
    assert degree // 2 + 3 == _lattice_points_of_nef(X, mk)
    assert mori_chambers(X).count == 1
    rays = extremal_rays(X)
    assert all(d.kind != "small" for _, d in rays)  # Mori 1982
    for k, e, label in _divisorial(X):
        assert MORI_TYPES[k, e] == label
    # The Picard-number bounds are theorems on Fano 4-folds only.
    assert verify_bounds(X) == []
    with pytest.raises(ValidationError, match="ledger is implemented for 4-folds"):
        X.ledger_state()


def test_mori_types_over_the_ten_3folds():
    # E1: one each on P1xF1 and Bl_line_P3, three on P1xBl2P2, six on
    # P1xBl3P2, and two on P(O+O(1,1)), one per ruling of its section.
    types = Counter(t for fan, _ in FANO_3FOLDS.values() for t in _divisorial(ToricVariety(fan)))
    assert types == {(1, -1, "(2,1)^sm"): 13, (2, -1, "(2,0)^sm"): 1, (1, -2, "(2,0)_other"): 1}


def test_p3_blown_up_at_two_points_walks_across_its_flop():
    # The line through the two points has -K.l = 0, and its relation
    # u_4 + u_5 = u_0 + u_1 is the Atiyah flop: a 4-ray unit circuit.
    X = _blown_up(P3, (0, 1, 2), (0, 1, 3))
    assert not X.is_fano
    (flop,) = [(c, d) for c, d in extremal_rays(X) if d.kind == "small"]
    assert flop[1].flippable and flop[1].relation_sample == (-1, -1, 0, 0, 1, 1)
    (circuit,) = flip_circuits(X, flop[0])
    assert (circuit.positive, circuit.negative) == ((4, 5), (0, 1))
    ch = mori_chambers(X)
    assert ch.count == 2 and ch.excluded == []
