"""Builtin fan constructions: projective spaces, products, projectivized
split bundles, and the worked blow-up/flip towers.

Everything is produced programmatically; the shipped data files under
``data/`` are frozen emissions of these constructions (tests assert
they agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import combinations
from typing import Sequence

from .fan import Fan, fan_from_json
from .lattice import dot
from .mori import classified_fixed_divisors
from .surgery import SurgeryError, blowup, extremal_rays, flip
from .variety import ToricVariety


def projective_space_fan(n: int) -> Fan:
    """P^n: unit rays plus the negative-sum ray; cones omit one ray each."""
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rays.append([-1] * n)
    cones = [[j for j in range(n + 1) if j != i] for i in range(n + 1)]
    return Fan.make(n, rays, cones)


def product_fan(f1: Fan, f2: Fan) -> Fan:
    dim = f1.dim + f2.dim
    rays = [list(r) + [0] * f2.dim for r in f1.rays]
    rays += [[0] * f1.dim + list(r) for r in f2.rays]
    off = f1.n_rays
    cones = [
        list(c1) + [off + i for i in c2]
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    ]
    return Fan.make(dim, rays, cones)


def hirzebruch_fan(n: int) -> Fan:
    """P(O + O(n)) over P^1; the fiber-ray divisor u2 is the section of
    self-intersection -n."""
    rays = [[1, 0], [-1, n], [0, 1], [0, -1]]
    cones = [[0, 2], [0, 3], [1, 2], [1, 3]]
    return Fan.make(2, rays, cones)


def split_bundle_fan(base: Fan, twists: Sequence[Sequence[int]]) -> Fan:
    """Projectivization P(O + O(D_1) + ... + O(D_r)) over a smooth base.

    ``twists`` lists, for each of the r twisted summands, the coefficient
    vector of D_k over the base rays (effective representatives).  Fiber
    rays come first in the order f_1..f_r, f_0 = -(f_1+...+f_r); the
    invariant section cut out by f_1, ..., f_r has normal bundle
    O(-D_1) + ... + O(-D_r).
    """
    r = len(twists)
    if r < 1:
        raise ValueError("need at least one twisted summand")
    if any(len(t) != base.n_rays for t in twists):
        raise ValueError("twist vector length must match the base ray count")
    dim = base.dim + r
    rays: list[list[int]] = []
    for k in range(r):
        rays.append([0] * base.dim + [1 if j == k else 0 for j in range(r)])
    rays.append([0] * base.dim + [-1] * r)
    for i, v in enumerate(base.rays):
        rays.append(list(v) + [twists[k][i] for k in range(r)])
    fiber_cones = [[j for j in range(r + 1) if j != i] for i in range(r + 1)]
    off = r + 1
    cones = [
        fc + [off + i for i in bc]
        for bc in base.max_cones
        for fc in fiber_cones
    ]
    return Fan.make(dim, rays, cones)


# -- named 4-fold library ---------------------------------------------


def p4() -> ToricVariety:
    return ToricVariety(projective_space_fan(4))


def p1xp3() -> ToricVariety:
    return ToricVariety(product_fan(projective_space_fan(1), projective_space_fan(3)))


def p2xp2() -> ToricVariety:
    return ToricVariety(product_fan(projective_space_fan(2), projective_space_fan(2)))


def f2xp2() -> ToricVariety:
    return ToricVariety(product_fan(hirzebruch_fan(2), projective_space_fan(2)))


def bl_pt_p4() -> ToricVariety:
    """Blow-up of P4 at the torus-fixed point of the cone on e1..e4."""
    return blowup(p4(), (0, 1, 2, 3))


def bundle_over_p2_O_O1_O2() -> ToricVariety:
    """P(O + O(1) + O(2)) over P2.

    The section cut out by the two pure fiber rays has normal bundle
    O(-1) + O(-2).
    """
    base = projective_space_fan(2)
    # O(1) = D_{u2}, O(2) = 2 D_{u2} with u2 the (-1,-1) ray of P2.
    fan = split_bundle_fan(base, [[0, 0, 1], [0, 0, 2]])
    return ToricVariety(fan)


def d3() -> ToricVariety:
    """Blow-up of P(O+O(1)+O(2)) over P2 along the negative section."""
    return blowup(bundle_over_p2_O_O1_O2(), (0, 1))


def bundle_over_p1xp2_O11() -> ToricVariety:
    """P(O + O(1,1)) over P1 x P2; the fiber-ray divisor u0 is the
    section with normal bundle O(-1,-1)."""
    base = product_fan(projective_space_fan(1), projective_space_fan(2))
    # O(1,1) = D_{u1} + D_{u4}: one ray from each factor.
    twist = [0] * base.n_rays
    twist[1] = 1
    twist[4] = 1
    fan = split_bundle_fan(base, [twist])
    return ToricVariety(fan)


def plane_blowup_tower_base() -> ToricVariety:
    """Bl_pt P4 blown up along the transform of an invariant plane
    through the blown-up point (rho = 3)."""
    return blowup(bl_pt_p4(), (0, 1))


# -- blow-up/flip tower ------------------------------------------------


@dataclass(frozen=True)
class TowerResult:
    points: tuple[tuple[int, ...], tuple[int, ...]]
    blown_up: ToricVariety
    flip_classes: tuple[tuple[int, ...], ...]
    fano: ToricVariety

    @property
    def flips(self) -> int:
        return len(self.flip_classes)


def flips_to_fano(X: ToricVariety) -> tuple[ToricVariety, list[tuple[int, ...]]]:
    """Flip anticanonically negative small extremal rays until the fan
    is Fano.  Raises when stuck or after 8 flips."""
    flipped: list[tuple[int, ...]] = []
    current = X
    while not current.is_fano:
        if len(flipped) >= 8:
            raise SurgeryError("not Fano after 8 flips")
        mk = current.anticanonical_class
        candidates = sorted(
            c
            for c, d in extremal_rays(current)
            if d.kind == "small" and d.flippable and dot(mk, c) < 0
        )
        if not candidates:
            raise SurgeryError("no anticanonically negative flippable ray; stuck")
        current, _ = flip(current, candidates[0])
        flipped.append(candidates[0])
    return current, flipped


def two_point_tower(base: ToricVariety, pair: tuple[tuple[int, ...], tuple[int, ...]]) -> TowerResult:
    """Blow up two torus-fixed points of the base, then flip to Fano."""
    sigma1, sigma2 = pair
    x1 = blowup(base, sigma1)
    x2 = blowup(x1, sigma2)
    fano, classes = flips_to_fano(x2)
    return TowerResult(
        points=(tuple(sigma1), tuple(sigma2)),
        blown_up=x2,
        flip_classes=tuple(classes),
        fano=fano,
    )


def r3_tower_search() -> TowerResult:
    """Search the fixed-point pairs of the rho = 3 tower base for one
    whose two-point blow-up reaches, by exactly three flips, a Fano fan
    with six fixed prime divisors of which exactly two are smooth point
    blow-downs."""
    base = plane_blowup_tower_base()
    cones = base.fan.max_cones
    failures = []
    for i, j in combinations(range(len(cones)), 2):
        try:
            tower = two_point_tower(base, (cones[i], cones[j]))
        except SurgeryError as e:
            failures.append((cones[i], cones[j], str(e)))
            continue
        if tower.flips != 3 or tower.fano.rho != 5:
            continue
        reports = classified_fixed_divisors(tower.fano)
        if len(reports) == 6 and sum(
            1 for r in reports if r.type_label == "(3,0)^sm"
        ) == 2:
            return tower
    raise SurgeryError(
        f"no fixed-point pair produces the three-flip Fano tower; "
        f"{len(failures)} pairs failed outright"
    )


# The constructions behind the frozen data files (R3's is ``r3_tower_search``).
BUILTIN_BUILDERS = {
    "P4": p4,
    "P1xP3": p1xp3,
    "P2xP2": p2xp2,
    "F2xP2": f2xp2,
    "Bl_pt_P4": bl_pt_p4,
    "D3": d3,
    "B511": bundle_over_p1xp2_O11,
    "Y_tower": plane_blowup_tower_base,
}


def _data_dir():
    return resources.files("toricfano").joinpath("data")


@lru_cache(maxsize=None)
def _builtin_names() -> tuple[str, ...]:
    """The stems of the frozen data files; they ship with the package, so
    the directory is listed once per process, on first use."""
    return tuple(
        sorted(
            entry.name.removesuffix(".json")
            for entry in _data_dir().iterdir()
            if entry.name.endswith(".json")
        )
    )


def builtin_names() -> list[str]:
    """The stems of the frozen data files, as a new list."""
    return list(_builtin_names())


@lru_cache(maxsize=None)
def builtin(name: str) -> ToricVariety:
    """Load a builtin fan from its frozen data file."""
    if name not in _builtin_names():
        raise KeyError(f"unknown builtin fan {name!r}")
    return ToricVariety(fan_from_json(_data_dir().joinpath(f"{name}.json").read_text()), name=name)
