"""Anticanonical invariant bookkeeping for smooth projective 4-folds.

Tracks the tuple (chi(-K), (-K)^4, (-K)^2.c2, rho) through point
blow-ups, curve blow-ups, plane blow-ups and small modifications.  Each
move adds its exact delta from the 4-fold Riemann-Roch formula, and the
integer identity

    12 * (chi(-K) - chi(O)) = 2 * (-K)^4 + (-K)^2 . c2

is enforced after every construction and every move.  chi(O) is the
constant 1, which no script can set: the ledger tracks smooth Fano
4-folds and what blow-ups and flips reach from them, where h^i(O) = 0
for i > 0 (Kodaira vanishing on the Fano, then birational invariance).

The module is usable standalone (non-toric scenarios are pure ledger
arithmetic, driven by the move-script format below) and as a
cross-check against fan-level recomputation.

Move-script format, one move per line::

    start P4
    start custom chi=<n> degK4=<n> c2K2=<n> rho=<n>
    blowup point
    blowup curve degKC=<n> genus=<n>
    blowup plane
    flip dir=<f2s|s2f> s=<n>

Blank lines and '#' comments are ignored.  A word after ``blowup
point`` or ``blowup plane`` is an error.  The arguments of ``start
custom``, ``blowup curve`` and ``flip`` are ``key=value`` pairs over
exactly the keys shown, in any order; a missing key, a key of another
move or an unknown one, and a key given twice are errors.  Every error
on a line, including an invariant the move breaks, names the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Optional


class LedgerError(ValueError):
    pass


@dataclass(frozen=True)
class LedgerState:
    chi_minusK: int
    degK4: int
    c2K2: int
    rho: int
    chi_O: ClassVar[int] = 1

    def __post_init__(self):
        if self.rho < 1:
            raise LedgerError(f"rho must be >= 1, got {self.rho}")
        if 12 * (self.chi_minusK - self.chi_O) != 2 * self.degK4 + self.c2K2:
            raise LedgerError(
                "Riemann-Roch identity violated: "
                f"12*({self.chi_minusK}-{self.chi_O}) != 2*{self.degK4} + {self.c2K2}"
            )

    @staticmethod
    def from_geometry(degK4: int, c2K2: int, rho: int) -> "LedgerState":
        num = 2 * degK4 + c2K2
        if num % 12 != 0:
            raise LedgerError(
                f"2*(-K)^4 + (-K)^2.c2 = {num} is not divisible by 12"
            )
        return LedgerState(num // 12 + LedgerState.chi_O, degK4, c2K2, rho)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.chi_minusK, self.degK4, self.c2K2, self.rho)


P4_STATE = LedgerState(126, 625, 250, 1)


@dataclass(frozen=True)
class CurveBlowupData:
    """Degree and genus of the blown-up curve; d(C) = -K.C + 2 - 2g."""

    degKC: int
    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise LedgerError("genus must be nonnegative")

    @property
    def dC(self) -> int:
        return self.degKC + 2 - 2 * self.genus


def _moved(s: LedgerState, chi: int, deg: int, c2: int, rho: int) -> LedgerState:
    """The state after a move with these deltas of (chi(-K), (-K)^4,
    (-K)^2.c2, rho)."""
    return LedgerState(s.chi_minusK + chi, s.degK4 + deg, s.c2K2 + c2, s.rho + rho)


def apply_point_blowup(s: LedgerState) -> LedgerState:
    """Blow-up of a smooth point: deltas (-15, -81, -18), rho + 1."""
    return _moved(s, -15, -81, -18, 1)


def apply_curve_blowup(s: LedgerState, c: CurveBlowupData) -> LedgerState:
    """Blow-up of a smooth curve: deltas (-3d, -16d, -4d) with d = d(C)."""
    return _moved(s, -3 * c.dC, -16 * c.dC, -4 * c.dC, 1)


def apply_plane_blowup(s: LedgerState) -> LedgerState:
    """Blow-up of a plane with normal bundle O(-1)+O(-1): (-3, -17, -2)."""
    return _moved(s, -3, -17, -2, 1)


def apply_flip(s: LedgerState, direction: str, s_count: int) -> LedgerState:
    """Small modification across s_count disjoint flipped components,
    ``f2s`` away from the Fano side and ``s2f`` back to it.

    chi(-K) and rho are unchanged; (-K)^4 drops by s_count from the
    side containing the planes to the side containing the lines and
    rises the other way; the c2 term moves by the compensating 2*s so
    the Riemann-Roch identity is preserved.
    """
    if direction not in ("f2s", "s2f"):
        raise LedgerError(f"unknown direction {direction!r}")
    if s_count < 0:
        raise LedgerError("component count s must be nonnegative")
    t = s_count if direction == "s2f" else -s_count
    return _moved(s, 0, t, -2 * t, 0)


_H0_RANGES = {"index3": (1, 5), "index2": (1, 22)}


def h0_bound_rho1(kind: str, H4: Optional[int] = None) -> int:
    """Upper bound for h^0(-K) of a smooth Fano 4-fold with rho = 1.

    Flat values for P4 (126), the quadric (105), the general index-1
    case (97) and the index-1 case carrying a covering family of
    degree-3 rational curves (121); index 3 and 2 evaluate 15*H^4 + 10
    and 3*H^4 + 9 on the classification range of H^4.
    """
    flat = {"P4": 126, "quadric": 105, "index1_general": 97, "index1_deg3_family": 121}
    if kind in flat:
        return flat[kind]
    if kind in _H0_RANGES:
        lo, hi = _H0_RANGES[kind]
        if H4 is None:
            raise LedgerError(f"kind {kind!r} requires H4")
        if not lo <= H4 <= hi:
            raise LedgerError(
                f"H^4 = {H4} outside the classification range [{lo}, {hi}] for {kind}"
            )
        return 15 * H4 + 10 if kind == "index3" else 3 * H4 + 9
    raise LedgerError(f"unknown kind {kind!r}")


def max_point_blowups(h0_Y: int, threshold: int = 1) -> int:
    """Largest r with h0_Y - 15 r >= threshold.

    The default positivity threshold is h^0 >= 1; pass threshold=2 for
    the stronger known positivity.
    """
    if h0_Y < threshold:
        raise LedgerError(f"h0 = {h0_Y} already below threshold {threshold}")
    return (h0_Y - threshold) // 15


# -- move scripts -----------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    lineno: int
    text: str
    state: LedgerState


def _parse_kv(parts: Iterable[str], keys: tuple[str, ...], integers: bool = True) -> dict:
    """key=value tokens over exactly ``keys``, each given once, as a
    dict; the values as ints unless told not to."""
    out: dict = {}
    for p in parts:
        if "=" not in p:
            raise LedgerError(f"expected key=value, got {p!r}")
        k, v = p.split("=", 1)
        if k not in keys:
            raise LedgerError(f"unknown key {k!r}, expected one of {', '.join(keys)}")
        if k in out:
            raise LedgerError(f"repeated key {k!r}")
        if not integers:
            out[k] = v
            continue
        try:
            out[k] = int(v)
        except ValueError:
            raise LedgerError(f"value of {k!r} is not an integer") from None
    missing = [k for k in keys if k not in out]
    if missing:
        raise LedgerError(f"missing {missing}")
    return out


def _apply_line(state: Optional[LedgerState], parts: list[str]) -> LedgerState:
    """The state after one script line, split into tokens."""
    head, args = parts[0], parts[1:]
    if head == "start":
        if state is not None:
            raise LedgerError("duplicate start")
        if args == ["P4"]:
            return P4_STATE
        if args[:1] == ["custom"]:
            kv = _parse_kv(args[1:], ("chi", "degK4", "c2K2", "rho"))
            return LedgerState(kv["chi"], kv["degK4"], kv["c2K2"], kv["rho"])
        raise LedgerError("unknown start form")
    if state is None:
        raise LedgerError("move before start")
    if head == "blowup":
        center = args[0] if args else None
        if center == "curve":
            kv = _parse_kv(args[1:], ("degKC", "genus"))
            return apply_curve_blowup(state, CurveBlowupData(kv["degKC"], kv["genus"]))
        if center not in ("point", "plane"):
            raise LedgerError("unknown blowup center")
        if len(args) > 1:
            raise LedgerError(f"blowup {center} takes no arguments, got {args[1]!r}")
        return apply_point_blowup(state) if center == "point" else apply_plane_blowup(state)
    if head == "flip":
        kv = _parse_kv(args, ("dir", "s"), integers=False)
        try:
            s_count = int(kv["s"])
        except ValueError:
            apply_flip(state, kv["dir"], 0)  # names an unknown direction first
            raise LedgerError("s must be an integer") from None
        return apply_flip(state, kv["dir"], s_count)
    raise LedgerError(f"unknown move {head!r}")


def run_script(text: str) -> list[ScriptStep]:
    """Interpret a move script; returns the full trajectory including the
    start state.  Every error on a line, including one raised while the
    move is applied, names the line."""
    steps: list[ScriptStep] = []
    state: Optional[LedgerState] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            state = _apply_line(state, line.split())
        except LedgerError as e:
            raise LedgerError(f"line {lineno}: {e}") from None
        steps.append(ScriptStep(lineno, line, state))
    if state is None:
        raise LedgerError("empty script")
    return steps
