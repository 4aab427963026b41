from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.ledger import (
    P4_STATE,
    CurveBlowupData,
    LedgerError,
    LedgerState,
    apply_curve_blowup,
    apply_flip,
    apply_plane_blowup,
    apply_point_blowup,
    h0_bound_rho1,
    max_point_blowups,
    run_script,
)


def chi_general(D4, KD3, D2_K2_plus_c2, D_K_c2, chi_O=1):
    """4-fold Riemann-Roch: chi(D) from D^4, K.D^3, D^2.(K^2+c2), D.K.c2."""
    return Fraction(D4 - 2 * KD3 + D2_K2_plus_c2 - D_K_c2, 24) + chi_O


def test_chi_general_zero_divisor():
    assert chi_general(0, 0, 0, 0, chi_O=1) == 1
    assert chi_general(0, 0, 0, 0, chi_O=2) == 2


def test_chi_general_anticanonical_p4():
    # D = -K on P^4: D^4 = 625, K.D^3 = -625, D^2(K^2+c2) = 625+250,
    # D.K.c2 = -250; the generic formula reduces to the anticanonical one.
    assert chi_general(625, -625, 875, -250) == 126


def test_chi_general_hyperplane_p4():
    assert chi_general(1, -5, 35, -50) == 5


def test_p4_state():
    assert P4_STATE.as_tuple() == (126, 625, 250, 1)


def test_identity_enforced():
    with pytest.raises(LedgerError):
        LedgerState(100, 625, 250, 1)
    with pytest.raises(LedgerError):
        LedgerState(126, 625, 250, 0)


def test_point_blowup():
    s = apply_point_blowup(P4_STATE)
    assert s.as_tuple() == (111, 544, 232, 2)
    assert 12 * (111 - 1) == 2 * 544 + 232


def test_eight_point_blowups():
    s = P4_STATE
    for _ in range(8):
        s = apply_point_blowup(s)
    assert s.chi_minusK == 6
    assert s.degK4 == -23
    assert s.rho == 9


def test_curve_blowup_line_in_p4():
    c = CurveBlowupData(degKC=5, genus=0)
    assert c.dC == 7
    s = apply_curve_blowup(P4_STATE, c)
    assert s.as_tuple() == (105, 513, 222, 2)


def test_curve_blowup_elliptic_degree_zero():
    c = CurveBlowupData(degKC=0, genus=1)
    assert c.dC == 0
    s = apply_curve_blowup(P4_STATE, c)
    assert s.as_tuple() == (126, 625, 250, 2)


def test_plane_blowup():
    s = apply_plane_blowup(P4_STATE)
    assert s.as_tuple() == (123, 608, 248, 2)
    assert 12 * (123 - 1) == 2 * 608 + 248


def test_flip_example_chain():
    s = P4_STATE
    for _ in range(8):
        s = apply_point_blowup(s)
    assert s.degK4 == -23
    s = apply_flip(s, "s2f", 36)
    assert s.degK4 == 13
    assert s.chi_minusK == 6
    assert s.rho == 9


def test_flip_zero_is_identity_on_numbers():
    s = apply_flip(P4_STATE, "f2s", 0)
    assert s.as_tuple() == P4_STATE.as_tuple()


def test_flip_involution():
    for s0 in (P4_STATE, apply_point_blowup(P4_STATE)):
        for n in (1, 5, 36):
            there = apply_flip(s0, "f2s", n)
            back = apply_flip(there, "s2f", n)
            assert back.as_tuple() == s0.as_tuple()


def test_flip_rejects_negative_count():
    with pytest.raises(LedgerError):
        apply_flip(P4_STATE, "f2s", -1)


def test_h0_bounds():
    assert h0_bound_rho1("P4") == 126
    assert h0_bound_rho1("quadric") == 105
    assert h0_bound_rho1("index3", 5) == 85
    assert h0_bound_rho1("index3", 1) == 25
    assert h0_bound_rho1("index2", 22) == 75
    assert h0_bound_rho1("index1_general") == 97
    assert h0_bound_rho1("index1_deg3_family") == 121


def test_h0_bounds_range_errors():
    with pytest.raises(LedgerError):
        h0_bound_rho1("index3", 6)
    with pytest.raises(LedgerError):
        h0_bound_rho1("index2", 23)
    with pytest.raises(LedgerError):
        h0_bound_rho1("index2", 0)
    with pytest.raises(LedgerError):
        h0_bound_rho1("index3")


def test_max_point_blowups():
    assert max_point_blowups(126) == 8
    assert max_point_blowups(105) == 6
    assert max_point_blowups(40) == 2
    assert max_point_blowups(126, threshold=2) == 8
    assert max_point_blowups(105, threshold=2) == 6


@given(st.integers(min_value=1, max_value=10_000))
def test_max_point_blowups_monotone(h0):
    assert max_point_blowups(h0 + 1) >= max_point_blowups(h0)


@given(st.integers(min_value=0, max_value=500))
def test_max_point_blowups_exact_on_15k_plus_1(k):
    assert max_point_blowups(15 * k + 1) == k


moves = st.lists(
    st.one_of(
        st.just(("point",)),
        st.just(("plane",)),
        st.tuples(
            st.just("curve"),
            st.integers(min_value=-3, max_value=12),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(
            st.just("flip"),
            st.sampled_from(["f2s", "s2f"]),
            st.integers(min_value=0, max_value=40),
        ),
    ),
    max_size=12,
)


@settings(max_examples=150)
@given(moves)
def test_identity_preserved_along_any_move_sequence(seq):
    s = P4_STATE
    for mv in seq:
        if mv[0] == "point":
            s = apply_point_blowup(s)
        elif mv[0] == "plane":
            s = apply_plane_blowup(s)
        elif mv[0] == "curve":
            s = apply_curve_blowup(s, CurveBlowupData(mv[1], mv[2]))
        else:
            s = apply_flip(s, mv[1], mv[2])
        assert 12 * (s.chi_minusK - s.chi_O) == 2 * s.degK4 + s.c2K2


def test_run_script_example_chain():
    script = "start P4\n" + "blowup point\n" * 8 + "flip dir=s2f s=36\n"
    steps = run_script(script)
    assert len(steps) == 10
    final = steps[-1].state
    assert final.chi_minusK == 6
    assert final.degK4 == 13
    assert final.rho == 9


def test_run_script_custom_start_and_errors():
    steps = run_script("start custom chi=10 degK4=42 c2K2=24 rho=3")
    assert steps[0].state.as_tuple() == (10, 42, 24, 3)
    with pytest.raises(LedgerError):
        run_script("blowup point")
    with pytest.raises(LedgerError):
        run_script("start P4\nblowup line")
    with pytest.raises(LedgerError):
        run_script("")
    with pytest.raises(LedgerError):
        run_script("start custom chi=1 degK4=0 c2K2=0 rho=1\nflip dir=up s=1")


def test_run_script_comments_and_curve():
    steps = run_script(
        """
        # a line blow-up
        start P4
        blowup curve degKC=5 genus=0
        """
    )
    assert steps[-1].state.as_tuple() == (105, 513, 222, 2)


def test_chi_general_returns_exact_fraction():
    val = chi_general(1, 0, 0, 0)
    assert val == Fraction(1, 24) + 1


def test_run_script_rejects_non_integer_flip_count():
    with pytest.raises(LedgerError):
        run_script("start P4\nflip dir=f2s s=abc")


@pytest.mark.parametrize(
    "script,message",
    [
        ("start P4\nblowup point extra", "line 2: blowup point takes no arguments, got 'extra'"),
        ("start P4\n\nblowup plane junk", "line 3: blowup plane takes no arguments, got 'junk'"),
        ("start P4\nflip dir=f2s s=1 oops", "line 2: expected key=value, got 'oops'"),
        ("start P4\nflip dir=f2s s=-1", "line 2: component count s must be nonnegative"),
        ("start P4\nblowup curve degKC=5 genus=-1", "line 2: genus must be nonnegative"),
        (
            "# custom start\nstart custom chi=100 degK4=625 c2K2=250 rho=1",
            "line 2: Riemann-Roch identity violated: 12*(100-1) != 2*625 + 250",
        ),
        ("start custom chi=126 degK4=625 c2K2=250 rho=0", "line 1: rho must be >= 1, got 0"),
    ],
)
def test_run_script_errors_name_the_line(script, message):
    with pytest.raises(LedgerError) as e:
        run_script(script)
    assert str(e.value) == message


def test_run_script_keeps_the_line_prefix_single():
    with pytest.raises(LedgerError) as e:
        run_script("start P4\nflip dir=up s=1")
    assert str(e.value) == "line 2: unknown direction 'up'"
    with pytest.raises(LedgerError) as e:
        run_script("start custom chi=x degK4=0 c2K2=0 rho=1")
    assert str(e.value) == "line 1: value of 'chi' is not an integer"


@pytest.mark.parametrize(
    "script,message",
    [
        ("start P4\nflip dir=f2s s=1 foo=2 s=3", "line 2: unknown key 'foo', expected one of dir, s"),
        ("start P4\nflip dir=f2s s=1 s=3", "line 2: repeated key 's'"),
        ("start P4\nflip dir=f2s dir=s2f s=1", "line 2: repeated key 'dir'"),
        (
            "start custom chi=126 degK4=625 c2K2=250 rho=1 colour=7",
            "line 1: unknown key 'colour', expected one of chi, degK4, c2K2, rho",
        ),
        ("start custom chi=126 chi=126 degK4=625 c2K2=250 rho=1", "line 1: repeated key 'chi'"),
        ("start P4\n\nblowup curve degKC=5 genus=0 genus=1", "line 3: repeated key 'genus'"),
        # A key of another move is not a key of this one.
        ("start P4\nblowup curve degKC=5 genus=0 s=1", "line 2: unknown key 's', expected one of degKC, genus"),
        ("start P4\nflip dir=f2s s=1 genus=0", "line 2: unknown key 'genus', expected one of dir, s"),
        ("start P4\nflip s=1", "line 2: missing ['dir']"),
        ("start P4\nblowup curve", "line 2: missing ['degKC', 'genus']"),
        ("start custom chi=126 rho=1", "line 1: missing ['degK4', 'c2K2']"),
    ],
)
def test_run_script_refuses_unknown_and_repeated_keys(script, message):
    with pytest.raises(LedgerError) as e:
        run_script(script)
    assert str(e.value) == message
