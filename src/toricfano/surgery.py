"""Fan surgeries: torus-equivariant blow-ups, divisorial contractions,
and flips of small extremal rays, plus the classification of extremal
contractions from wall relations.

Reading a wall relation (normalized to +1 on the two completing rays):
rays with negative coefficient span the cone whose orbit closure is the
locus of the contraction, rays with positive coefficient control the
fibers.  An extremal ray is of fiber type when no coefficient is
negative, divisorial when the negative support is a single ray, small
when it has two or more rays.  The relation alone types a divisorial
ray (Reid 1983): it is a smooth blow-down exactly when its walls carry
one relation u_E = u_1 + ... + u_c and every cone of the star of E
misses exactly one center ray, so the star re-fans over {1..c}; no
contraction is built to decide it.  Every divisorial ray carries its
center, the positive support of its relation (Reid: the relation fixes
the contraction), and ``contract`` re-fans the star over exactly that
center.  The flippable small pattern is a five-ray circuit with unit
coefficients split 3 against 2.  A flip takes a class only on a small
extremal ray: the walls of a class off the extremal rays can show the
same pattern, but exchanging their circuits gives a complete fan that
is not the flip of a contraction (on a blow-up of R3, one whose nef
cone has empty interior).

Flips and contractions come in two steps: the fan-level move
(``flipped_fan``, ``contracted_fan``) and the model build, so a walk
that already holds the target's model builds nothing.  A bistellar flip
replaces only the cones of its circuits (De Loera-Rambau-Santos,
*Triangulations*, ch. 4) and keeps the rays, so its model shares X's
record of the rays and reuses every wall X built on the cones the flip
kept (``variety``).  Contractions and blow-ups change the rays, so their
models share nothing with X.  Every surgery keeps the ray labels; a
blow-up's new ray has none, and a contraction drops its ray's label.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .cones import RationalCone
from .fan import Fan, ValidationError
from .lattice import dot, hermite_normal_form, primitive_vector
from .variety import ToricVariety, Wall

IntVec = tuple[int, ...]


class SurgeryError(ValueError):
    pass


def _require_4fold(X: ToricVariety) -> None:
    if X.dim != 4:
        raise SurgeryError("birational surgery is implemented for 4-folds")


# -- blow-up ----------------------------------------------------------


def blowup(X: ToricVariety, center: Sequence[int]) -> ToricVariety:
    """Star subdivision at the primitive sum of the center cone's rays.

    The center must be a cone of the fan of dimension 2..dim (invariant
    surface, curve, or point on a 4-fold), given by distinct rays.  The
    input may be singular, since blowing up its singular cones can
    resolve them; a result that fails validation raises, naming the
    blow-up.
    """
    fan = X.fan
    center = tuple(sorted(center))
    repeated = next((i for i, j in zip(center, center[1:]) if i == j), None)
    if repeated is not None:
        raise SurgeryError(f"center {list(center)} repeats ray {repeated}")
    if len(center) < 2 or len(center) > fan.dim:
        raise SurgeryError(
            f"center must have 2..{fan.dim} rays, got {len(center)}"
        )
    if not fan.has_cone(center):
        raise SurgeryError(f"center {list(center)} is not a cone of the fan")
    new_ray = primitive_vector(
        [sum(fan.rays[i][t] for i in center) for t in range(fan.dim)]
    )
    if new_ray in fan.rays:
        raise SurgeryError(f"exceptional ray {list(new_ray)} already in the fan")
    new_index = fan.n_rays
    cones = []
    for c in fan.max_cones:
        if set(center) <= set(c):
            for drop in center:
                cones.append(tuple(sorted(set(c) - {drop} | {new_index})))
        else:
            cones.append(c)
    labels = dict(enumerate(fan.labels or ()))  # the new ray has none
    new_fan = Fan.make(fan.dim, list(fan.rays) + [list(new_ray)], cones, labels)
    try:
        return ToricVariety(new_fan)
    except ValidationError as e:
        raise SurgeryError(f"the blow-up at center {list(center)} fails validation: {e}") from None


# -- contraction ------------------------------------------------------


def _image_cones(fan: Fan, ray_index: int, center: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The cones that replace the star of the ray when it is re-fanned
    over the center: each star cone must miss exactly one center ray,
    which takes the place of the removed ray."""
    out = set()
    for c in fan.max_cones:
        if ray_index not in c:
            continue
        missing = set(center) - set(c)
        if len(missing) != 1:
            raise SurgeryError(
                f"star cone {list(c)} is not part of a star subdivision over {list(center)}"
            )
        out.add(tuple(sorted(set(c) - {ray_index} | missing)))
    return out


def _refanned_star(fan: Fan, ray_index: int, center: tuple[int, ...]) -> Fan:
    new_cones = _image_cones(fan, ray_index, center)
    keep = [c for c in fan.max_cones if ray_index not in c]
    reindex = {old: old - (old > ray_index) for old in range(fan.n_rays)}
    rays = [list(r) for i, r in enumerate(fan.rays) if i != ray_index]
    cones = [[reindex[i] for i in c] for c in list(keep) + sorted(new_cones)]
    labels = {reindex[i]: lab for i, lab in enumerate(fan.labels or ()) if i != ray_index}
    return Fan.make(fan.dim, rays, cones, labels)


def contracted_fan(X: ToricVariety, ray_index: int, center: Sequence[int]) -> Fan:
    """The fan of ``contract``: the ray removed and its star re-fanned
    over the center."""
    fan = X.fan
    if not 0 <= ray_index < fan.n_rays:
        raise SurgeryError(f"no ray {ray_index}")
    return _refanned_star(fan, ray_index, tuple(sorted(center)))


def contracted_model(fan: Fan, ray_index: int, *, allow_singular: bool = False) -> ToricVariety:
    """The variety of ``contracted_fan(X, ray_index, ...)``, refused
    when singular unless ``allow_singular``."""
    try:
        Y = ToricVariety(fan, allow_singular=True)
    except ValidationError as e:
        raise SurgeryError(str(e)) from None
    if not Y.is_smooth and not allow_singular:
        raise SurgeryError(f"contracting ray {ray_index} leaves the smooth toric category")
    return Y


def contract(
    X: ToricVariety,
    ray_index: int,
    center: Sequence[int],
    *,
    allow_singular: bool = False,
) -> ToricVariety:
    """Inverse star subdivision: remove the ray, re-fan its star over the
    contraction center.

    The center is the positive support of the wall relation of the
    divisorial extremal ray being contracted, as ``extremal_rays`` gives
    it; a divisor carrying several such rays has one target per center.
    A singular target leaves the smooth toric category; it is
    refused unless ``allow_singular``, in which case the (still complete
    and compatible) fan is returned flagged.  Its two steps are
    ``contracted_fan`` and ``contracted_model``, so a walk that already
    holds the target's model skips the build.
    """
    fan = contracted_fan(X, ray_index, center)
    return contracted_model(fan, ray_index, allow_singular=allow_singular)


# -- flips ------------------------------------------------------------


@dataclass(frozen=True)
class FlipCircuit:
    support: tuple[int, ...]
    positive: tuple[int, ...]
    negative: tuple[int, ...]


def _is_flippable_pattern(relation: IntVec) -> bool:
    """Five unit coefficients split 3 against 2."""
    return sorted(c for c in relation if c) in ([-1, -1, 1, 1, 1], [-1, -1, -1, 1, 1])


def flip_circuits(X: ToricVariety, curve: Sequence[int]) -> list[FlipCircuit]:
    """Group the walls on a small extremal class into bistellar circuits,
    checking that the class is on a small extremal ray and the
    five-ray unit-coefficient pattern."""
    _require_4fold(X)
    coords = tuple(curve)
    ray = primitive_vector(coords) if any(coords) else None
    indices = X.walls_by_class.get(ray)
    if indices is None:
        raise SurgeryError(f"no wall curve on the ray of {list(coords)}")
    if not any(c == ray and d.kind == "small" for c, d in extremal_rays(X)):
        raise SurgeryError(f"class {list(coords)} is not on a small extremal ray")
    by_support: dict[tuple[int, ...], list[Wall]] = {}
    for i in indices:
        by_support.setdefault(X.walls[i].circuit_support, []).append(X.walls[i])
    circuits = []
    for support, ws in sorted(by_support.items()):
        rel = ws[0].relation
        if any(w.relation != rel for w in ws):
            raise SurgeryError(f"inconsistent relations on circuit {list(support)}")
        if not _is_flippable_pattern(rel):
            raise SurgeryError(
                f"circuit {list(support)} with relation {list(rel)} is not the "
                "flippable five-ray unit pattern"
            )
        pos, neg = ws[0].positive_rays, ws[0].negative_rays
        if len(ws) != (3 if len(pos) == 3 else 1):
            raise SurgeryError(
                f"circuit {list(support)} has {len(ws)} walls on the ray, "
                "inconsistent with its orientation"
            )
        circuits.append(FlipCircuit(support, pos, neg))
    for a, b in combinations(circuits, 2):
        if set(a.support) & set(b.support):
            raise SurgeryError("flip circuits are not disjoint")
    return circuits


def flipped_fan(X: ToricVariety, curve: Sequence[int]) -> tuple[Fan, list[FlipCircuit]]:
    """Bistellar exchange on every circuit of a small extremal class, on
    the fan alone: the cones of each circuit are replaced, every other
    maximal cone and every ray is kept."""
    circuits = flip_circuits(X, curve)
    cones = set(X.fan.max_cones)
    for circ in circuits:
        old = {
            tuple(sorted(set(circ.support) - {p})) for p in circ.positive
        }
        new = {
            tuple(sorted(set(circ.support) - {m})) for m in circ.negative
        }
        if not old <= cones:
            missing = sorted(old - cones)
            raise SurgeryError(
                f"fan does not contain the cones {missing} of circuit {list(circ.support)}"
            )
        cones = (cones - old) | new
    return Fan(X.dim, X.fan.rays, tuple(sorted(cones)), X.fan.labels), circuits


def flip(X: ToricVariety, curve: Sequence[int]) -> tuple[ToricVariety, list[FlipCircuit]]:
    """Bistellar exchange on every circuit of a small extremal class:
    ``flipped_fan``, then its model, which shares X's record of the rays
    and so every wall X built on a cone the flip kept."""
    fan, circuits = flipped_fan(X, curve)
    return ToricVariety(fan), circuits


# -- extremal rays and contraction types -------------------------------


@dataclass(frozen=True)
class ContractionDescriptor:
    kind: str  # fiber_type | divisorial | small
    type_label: Optional[str]  # set on every divisorial ray, else None
    exc_rays: tuple[int, ...]
    image_dim: int
    center: Optional[tuple[int, ...]] = None
    flippable: bool = False
    relation_sample: IntVec = ()


def ne_cone(X: ToricVariety) -> RationalCone:
    """Cone of effective curves, generated by the wall classes; built
    once per variety, and refused when its dual, the nef cone, has
    empty interior: the fan is then not projective."""
    X._require_smooth()
    if X._ne is None:
        ne = RationalCone.from_generators([w.curve_class for w in X.walls], X.rho)
        if ne.dual().dim < X.rho:
            raise SurgeryError("fan is not projective: nef cone has empty interior")
        X._ne = ne
    return X._ne


def divisor_link_fan(X: ToricVariety, ray_index: int) -> Fan:
    """The fan of the invariant divisor D_r: the star of the ray
    projected along it.  The row HNF of the primitive ray u gives a
    unimodular U with U u = e_1, so U's other rows map N/Zu onto
    Z^(dim-1)."""
    fan = X.fan
    _, U = hermite_normal_form([[x] for x in fan.rays[ray_index]])
    link_rays: list[IntVec] = []
    index_map: dict[int, int] = {}
    cones = []
    for c in fan.max_cones:
        if ray_index not in c:
            continue
        quotient_cone = []
        for i in c:
            if i == ray_index:
                continue
            if i not in index_map:
                index_map[i] = len(link_rays)
                link_rays.append(primitive_vector([dot(row, fan.rays[i]) for row in U[1:]]))
            quotient_cone.append(index_map[i])
        cones.append(sorted(quotient_cone))
    return Fan.make(fan.dim - 1, [list(r) for r in link_rays], cones)


def looks_like_quadric_cone(fan3: Fan) -> bool:
    """Shape test on the rays of a 3-dimensional fan: exactly five rays,
    four of which, say a, b, c, d, satisfy a + b = c + d, as the rays of
    (a simplicial subdivision of) the projective cone over a smooth
    quadric surface do.

    The cones are not read, so smooth fans pass too: on the smooth
    X = P_{P1}(O + O(1) + O(1)) x P1 the links of the divisors of rays 5
    and 6 both pass.  So the label ``(3,0)^Q`` says, on toric input,
    only that the link of the contracted divisor has the rays of a
    quadric cone.
    """
    if fan3.dim != 3 or fan3.n_rays != 5:
        return False
    for quad in combinations(range(5), 4):
        rays = [fan3.rays[i] for i in quad]
        for pairing in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
            a, b, c, d = (rays[k] for k in pairing)
            if all(a[t] + b[t] == c[t] + d[t] for t in range(3)):
                return True
    return False


def _analyze_walls_on_ray(X: ToricVariety, walls_on_ray: list[Wall]) -> ContractionDescriptor:
    rel_sample = walls_on_ray[0].relation
    negatives = [w.negative_rays for w in walls_on_ray]
    positives = [w.positive_rays for w in walls_on_ray]
    if all(len(n) == 0 for n in negatives):
        fiber_dim = min(len(p) for p in positives) - 1
        return ContractionDescriptor(
            kind="fiber_type",
            type_label=None,
            exc_rays=(),
            image_dim=X.dim - fiber_dim,
            relation_sample=rel_sample,
        )
    if all(len(n) == 1 for n in negatives):
        rs = {n[0] for n in negatives}
        if len(rs) != 1:
            raise SurgeryError(
                "divisorial extremal ray with inconsistent exceptional rays "
                f"{sorted(rs)}"
            )
        r = rs.pop()
        if any(w.relation != rel_sample for w in walls_on_ray):
            centers = sorted({w.positive_rays for w in walls_on_ray})
            raise SurgeryError(
                f"divisorial extremal ray of ray {r} with inconsistent centers "
                f"{[list(c) for c in centers]}"
            )
        center = walls_on_ray[0].positive_rays
        image_dim = X.dim - len(center)
        smooth = all(c in (-1, 0, 1) for c in rel_sample)
        if smooth:
            try:
                _image_cones(X.fan, r, center)
            except SurgeryError:
                smooth = False
        if smooth:
            # u_r = sum of the center, so det(image cone) = ±det(star cone) = ±1.
            label = f"(3,{image_dim})^sm"
        elif image_dim == 0:
            label = (
                "(3,0)^Q"
                if looks_like_quadric_cone(divisor_link_fan(X, r))
                else "(3,0)_other"
            )
        else:
            label = f"(3,{image_dim})"
        return ContractionDescriptor(
            kind="divisorial",
            type_label=label,
            exc_rays=(r,),
            image_dim=image_dim,
            center=center,
            relation_sample=rel_sample,
        )
    if all(len(n) >= 2 for n in negatives):
        exc = tuple(sorted({i for n in negatives for i in n}))
        return ContractionDescriptor(
            kind="small",
            type_label=None,
            exc_rays=exc,
            image_dim=0,
            flippable=all(_is_flippable_pattern(w.relation) for w in walls_on_ray),
            relation_sample=rel_sample,
        )
    raise SurgeryError(
        "extremal ray mixes divisorial and small wall patterns; "
        f"sample relation {list(rel_sample)}"
    )


def extremal_rays(X: ToricVariety) -> list[tuple[IntVec, ContractionDescriptor]]:
    """Extremal rays of the cone of curves with their contraction data,
    typed once per variety."""
    if X._extremal_rays is None:
        _require_4fold(X)
        ne = ne_cone(X)
        if ne.dim < X.rho:
            raise SurgeryError("cone of curves is not full-dimensional")
        out = []
        for g in ne.generators:
            indices = X.walls_by_class.get(g)
            if indices is None:
                raise SurgeryError(f"extremal class {list(g)} carries no wall")
            out.append((g, _analyze_walls_on_ray(X, [X.walls[i] for i in indices])))
        X._extremal_rays = tuple(out)
    return list(X._extremal_rays)
