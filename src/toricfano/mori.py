"""Global cone analysis: Nef/Mov/Eff and their curve-side duals, fixed
prime divisors and their types, divisor-directed MMP runs, the
Lefschetz defect, the 4-fold Picard-bound assertions, and the chamber
decomposition of the movable cone.

Divisor-directed MMP.  Steps are flips of negative small extremal rays
and negative divisorial contractions, until the transform of the
divisor is nef or a negative fiber-type ray appears, in at most
``max_steps`` steps.  One depth-first walk runs every choice sequence;
it tries the negative rays most negative first (ties by smallest wall
index), so its first branch is the reproducible default-policy trace.
The exhaustive mode keeps one trace per terminal outcome and is how
ambiguity of the terminal contraction type is detected on low Picard
numbers; typing a fixed divisor takes one walk.  Every walk started
from one variety, for any divisor and in either mode, shares one
registry of the models it reached, keyed by fan and kept on the start
variety (``_models``).  A step computes the target's fan first
(``surgery.flipped_fan``, ``surgery.contracted_fan``) and builds a model
only for a fan the registry does not hold; a flip or contraction onto a
fan that another branch or walk already reached continues on that
model, with its walls, cone of curves and extremal rays.  A flipped
model keeps the rays, so it reads every wall a model on those rays
already built from their shared record (``variety``).  Typing the
fixed divisors of R3 takes 21 steps onto 12 distinct fans and builds 12
models; walls are computed on 7, the start and the 6 flipped models a
walk goes on from, and not on the 6 contraction targets, where the walks
end.

Cone suite.  Built once per variety.  Its dualities are checked
against the inputs (wall classes against Nef, ray classes against the
dual of Eff), and Mov is one conversion from Eff's facet normals and
those of cone(classes != i) for the rays i that alone carry an extremal
ray of Eff.

Chambers.  Full-dimensional chambers of the movable cone are the nef
cones of the small modifications of X; enumeration walks the interior
facets by flips, and each discovered model is independently
reconstructed from a chamber-interior weight through the regular
triangulation it selects, which guards the surgery route with the
secondary-fan route.  The walk computes each flipped fan first and
builds a model only for a fan it has not reached, so R3's 9 chambers
build 8 models beyond the start.  Every chamber model is on the start's
rays, so all of them share one record of the rays, and a wall is built
once per walk however many chambers hold it (``variety``).
Every small modification keeps the rays, hence the divisor classes
(``ToricVariety.ray_classes``), so the Gale-dual membership test
inverts each complement basis once per walk (``_gale_inverses``) and a
chamber's check is sign tests of dot products.  Interiors are disjoint
because each chamber lies in the cone of weights that keep every
maximal cone of its fan (the secondary cone; Oda-Park, Tohoku Math. J.
1991): a generic weight in two chambers would select two distinct fans.
Coverage of the movable cone is checked at one point per chamber facet
inside Mov: the walk crossed that facet, and the chamber it reached
holds the point.  Each model builds its cone of curves once
(``surgery.ne_cone``), and its nef chamber is that cone's dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import mul
from typing import Optional, Sequence, Union

from .cones import RationalCone, dual_extreme_rays
from .fan import Fan
from .lattice import det_int, dot, dual_basis, primitive_vector, rational_rank
from .surgery import (
    ContractionDescriptor,
    SurgeryError,
    contracted_fan,
    contracted_model,
    extremal_rays,
    flipped_fan,
    ne_cone,
)
from .variety import ToricVariety

IntVec = tuple[int, ...]


class MoriError(ValueError):
    pass


class InternalCheckError(MoriError):
    """A cross-check that can only fail on an engine bug failed."""


# -- cone suite -------------------------------------------------------


@dataclass(frozen=True)
class ConeSuite:
    nef: RationalCone
    mov: RationalCone
    eff: RationalCone
    ne: RationalCone
    mov_curves: RationalCone

    def as_dict(self) -> dict:
        def cone_dict(c: RationalCone) -> dict:
            return {
                "generators": [list(g) for g in c.generators],
                "facet_normals": [list(n) for n in c.facet_normals],
            }

        return {
            "nef": cone_dict(self.nef),
            "mov": cone_dict(self.mov),
            "eff": cone_dict(self.eff),
            "ne": cone_dict(self.ne),
            "mov_curves": cone_dict(self.mov_curves),
        }


def _rays_by_class(X: ToricVariety) -> dict[IntVec, list[int]]:
    """The invariant prime divisors carrying each primitive class."""
    out: dict[IntVec, list[int]] = {}
    for i, c in enumerate(X.ray_classes):
        out.setdefault(primitive_vector(c), []).append(i)
    return out


def cone_suite(X: ToricVariety) -> ConeSuite:
    """All five cones, built once per variety, with the dualities
    checked against the wall and ray classes and the chain identities
    checked between the cones.

    A failed check names the fan and its witness: the wall or ray
    class and the generator it is negative on, or the generator of the
    smaller cone that lies outside the larger.

    Mov is the intersection over the rays i of cone(classes j != i).
    Dropping a class keeps all of Eff unless that class alone spans an
    extremal ray of Eff (Eff is pointed: X is projective), so only
    those rays add inequalities to Eff's, and Mov is one conversion.
    """
    if X._suite is not None:
        return X._suite
    ne = ne_cone(X)
    nef = ne.dual()
    walls = [w.curve_class for w in X.walls]
    bad = next(((c, g) for c in walls for g in nef.generators if dot(c, g) < 0), None)
    if bad is not None:
        raise InternalCheckError(
            f"duality failure: a wall class is negative on Nef on fan {X.fan.content_hash()}:"
            f" wall class {list(bad[0])} on Nef generator {list(bad[1])}"
        )
    classes = X.ray_classes
    eff = RationalCone.from_generators(classes, X.rho)
    mov_curves = eff.dual()
    bad = next(
        ((i, g) for i, c in enumerate(classes) for g in mov_curves.generators if dot(c, g) < 0), None
    )
    if bad is not None:
        raise InternalCheckError(
            f"duality failure: a ray class is negative on dual(Eff) on fan {X.fan.content_hash()}:"
            f" class {list(classes[bad[0]])} of ray {bad[0]} on dual(Eff) generator {list(bad[1])}"
        )
    rays_by_class = _rays_by_class(X)
    extra = []
    for g in eff.generators:
        carriers = rays_by_class.get(g, [])
        if len(carriers) == 1:
            others = [c for j, c in enumerate(classes) if j != carriers[0]]
            extra += dual_extreme_rays(others, X.rho)
    normals = list(eff.facet_normals) + extra
    mov = RationalCone.from_generators(normals, X.rho).dual() if extra else eff
    for small, big, inner, outer in ((nef, mov, "Nef", "Mov"), (mov, eff, "Mov", "Eff")):
        outside = next((g for g in small.generators if not big.contains(g)), None)
        if outside is not None:
            raise InternalCheckError(
                f"cone chain Nef <= Mov <= Eff violated on fan {X.fan.content_hash()}:"
                f" not {inner} <= {outer}: {inner} generator {list(outside)} is not in {outer}"
            )
    X._suite = ConeSuite(nef=nef, mov=mov, eff=eff, ne=ne, mov_curves=mov_curves)
    return X._suite


# -- MMP for a divisor -------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    move: str  # "flip" | "contraction"
    curve_class: IntVec
    descriptor: ContractionDescriptor
    fan_after: Fan
    circuit_count: int


@dataclass(frozen=True)
class BirationalTrace:
    start: Fan
    divisor: IntVec
    steps: tuple[TraceStep, ...]
    outcome: str  # "nef" | "contracted" | "fiber_type"
    final: Fan

    @property
    def terminal_descriptor(self) -> Optional[ContractionDescriptor]:
        return self.steps[-1].descriptor if self.steps else None

    @property
    def flip_count(self) -> int:
        return sum(1 for s in self.steps if s.move == "flip")


def _divisor_vector(X: ToricVariety, divisor: Union[int, Sequence]) -> tuple:
    X._require_smooth()
    if isinstance(divisor, int):
        vec = [0] * X.n_rays
        vec[divisor] = 1
        return tuple(vec)
    vec = tuple(divisor)
    if len(vec) != X.n_rays:
        raise MoriError("divisor coefficient vector has wrong length")
    return vec


def _negative_candidates(X: ToricVariety, vec) -> list[tuple]:
    """D-negative extremal rays sorted by the default policy: most
    negative pairing first, ties by smallest wall index."""
    coords = X.divisor_class(vec)
    out = []
    for c, desc in extremal_rays(X):
        pairing = dot(coords, c)
        if pairing < 0:
            out.append((pairing, X.walls_by_class[c][0], c, desc))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _models(X: ToricVariety) -> dict[Fan, ToricVariety]:
    """The models the MMP walks started from X have built, keyed by fan:
    kept on X, so every walk from X reuses each model with its walls,
    cone of curves and extremal rays.  X itself is left out (no
    walk returns to it), so the registry holds no cycle back to X."""
    if X._models is None:
        X._models = {}
    return X._models


def _apply_step(
    X: ToricVariety, vec, c: IntVec, desc: ContractionDescriptor, models: dict
) -> tuple[TraceStep, ToricVariety, tuple]:
    """Execute one MMP step; returns (step, next variety, next divisor).
    The target's fan is computed first; the next variety is the model in
    ``models`` with that fan, if there is one, and is built and added to
    ``models`` otherwise.  The ray is small or divisorial: ``_mmp_moves``
    ends a walk before a fiber-type ray."""
    if desc.kind == "small":
        if not desc.flippable:
            raise MoriError(
                f"negative small ray {list(c)} with non-flippable circuit"
                f" {list(desc.relation_sample)} on fan {X.fan.content_hash()}"
            )
        fan2, circuits = flipped_fan(X, c)
        X2 = models.get(fan2)
        if X2 is None:
            X2 = models[fan2] = ToricVariety(fan2)
        move, vec2, circuit_count = "flip", vec, len(circuits)
    else:
        r = desc.exc_rays[0]
        fan2 = contracted_fan(X, r, desc.center)
        X2 = models.get(fan2)
        if X2 is None:
            X2 = models[fan2] = contracted_model(fan2, r, allow_singular=True)
        if X2.is_smooth != desc.type_label.endswith("^sm"):
            target = "smooth" if X2.is_smooth else "singular"
            raise InternalCheckError(
                f"{desc.type_label} contraction of ray {r} has a {target} target"
                f" on fan {X.fan.content_hash()}"
            )
        vec2 = tuple(x for i, x in enumerate(vec) if i != r)
        move, circuit_count = "contraction", 0
    step = TraceStep(
        move=move, curve_class=c, descriptor=desc, fan_after=X2.fan, circuit_count=circuit_count
    )
    return step, X2, vec2


def _mmp_moves(
    X: ToricVariety, vec: tuple, contracted: bool
) -> tuple[Optional[str], list[tuple]]:
    """(outcome, []) when the MMP of ``vec`` ends on X (after a
    contraction step, X singular or the transform zero; transform nef;
    or a negative fiber-type ray), else (None, the negative rays in
    default-policy order)."""
    if contracted and (not X.is_smooth or not any(vec)):
        return "contracted", []
    candidates = _negative_candidates(X, vec)
    if not candidates:
        return "nef", []
    if any(t[3].kind == "fiber_type" for t in candidates):
        return "fiber_type", []
    return None, candidates


def _walk(
    start: ToricVariety, vec: tuple, X: ToricVariety, cvec: tuple, steps: tuple, max_steps: int
):
    """Yield every MMP trace of the divisor ``vec`` on ``start`` that
    continues ``steps`` (which reached X, where ``vec`` is ``cvec``),
    depth first over the negative rays in default-policy order, so the
    first trace is the default-policy run.  A branch takes at most
    ``max_steps`` steps."""
    outcome, candidates = _mmp_moves(X, cvec, bool(steps) and steps[-1].move == "contraction")
    if outcome is not None:
        yield BirationalTrace(start.fan, vec, steps, outcome, X.fan)
        return
    if len(steps) >= max_steps:
        raise MoriError(
            f"MMP of divisor {list(vec)} on fan {start.fan.content_hash()}"
            f" does not end within the step cap of {max_steps}"
        )
    for _, _, c, desc in candidates:
        step, nxt, nvec = _apply_step(X, cvec, c, desc, _models(start))
        yield from _walk(start, vec, nxt, nvec, steps + (step,), max_steps)


def mmp_for_divisor(
    X: ToricVariety, divisor: Union[int, Sequence], *, max_steps: int = 64
) -> BirationalTrace:
    """Run the divisor-directed MMP with the default tie-break policy:
    the first branch of the exhaustive walk."""
    vec = _divisor_vector(X, divisor)
    return next(_walk(X, vec, X, vec, (), max_steps))


def mmp_all_for_divisor(
    X: ToricVariety, divisor: Union[int, Sequence], *, max_steps: int = 64
) -> list[BirationalTrace]:
    """Exhaustive MMP enumeration over every negative-ray choice order,
    one trace per terminal outcome; the first is the default-policy run."""
    vec = _divisor_vector(X, divisor)
    seen = {}
    for tr in _walk(X, vec, X, vec, (), max_steps):
        desc = tr.terminal_descriptor
        key = (
            tr.outcome,
            desc.type_label if desc else None,
            tr.final.canonical_key(),
        )
        seen.setdefault(key, tr)
    return list(seen.values())


# -- fixed prime divisors ----------------------------------------------


@dataclass(frozen=True)
class FixedDivisorReport:
    """A fixed prime divisor D = D_r typed by its MMP: the default-policy
    trace ends contracting D, and its last step's wall curve is C_D
    (``mmp_trace.steps[-1].curve_class``)."""

    ray_index: int
    divisor_class: IntVec
    type_label: str
    outcomes: tuple[str, ...]
    mmp_trace: BirationalTrace
    pairing_D_CD: int
    degK_CD: int

    def as_dict(self) -> dict:
        return {
            "ray_index": self.ray_index,
            "class": [str(c) for c in self.divisor_class],
            "type_label": self.type_label,
            "outcomes": list(self.outcomes),
            "pairing_D_CD": self.pairing_D_CD,
            "degK_CD": self.degK_CD,
        }


def fixed_prime_divisors(X: ToricVariety) -> list[int]:
    """The rays, ascending, whose invariant prime divisor's class spans
    a one-dimensional face of the effective cone not contained in the
    movable cone."""
    suite = cone_suite(X)
    rays_by_class = _rays_by_class(X)
    rays = []
    for g in suite.eff.generators:
        if suite.mov.contains(g):
            continue
        matches = rays_by_class.get(g, [])
        if len(matches) != 1:
            raise InternalCheckError(
                f"effective face {list(g)} carried by {len(matches)} invariant divisors"
                f" on fan {X.fan.content_hash()}"
            )
        rays.append(matches[0])
    return sorted(rays)


def classify_fixed_divisor(
    X: ToricVariety, r: int, *, max_steps: int = 64
) -> FixedDivisorReport:
    """Type the fixed prime divisor of ray r by its contraction.

    One exhaustive MMP walk: its first trace, the default-policy run,
    supplies the distinguished curve C_D moving in the divisor (the wall
    curve of the terminal contraction, whose class is unchanged by the
    preceding flips); the whole walk decides uniqueness.  Differing
    outcomes are reported as ambiguous, and on a Fano 4-fold with
    rho >= 6, where the outcome is unique, they are an engine bug.
    """
    traces = mmp_all_for_divisor(X, r, max_steps=max_steps)
    default = traces[0]
    if default.outcome != "contracted" or not default.steps:
        raise MoriError(f"divisor of ray {r} is not fixed: MMP ended {default.outcome}")
    labels = sorted(
        {
            t.terminal_descriptor.type_label
            for t in traces
            if t.outcome == "contracted" and t.terminal_descriptor is not None
        }
    )
    if len(labels) == 1:
        label = labels[0]
    else:
        label = "ambiguous(" + ", ".join(labels) + ")"
    if X.dim == 4 and X.is_fano and X.rho >= 6 and len(labels) > 1:
        raise InternalCheckError(
            f"rho = {X.rho} >= 6 but the MMP outcome is not unique: {labels}"
            f" for the divisor of ray {r} on fan {X.fan.content_hash()}"
        )
    divisor = X.ray_classes[r]
    c_d = default.steps[-1].curve_class
    return FixedDivisorReport(
        ray_index=r,
        divisor_class=divisor,
        type_label=label,
        outcomes=tuple(labels),
        mmp_trace=default,
        pairing_D_CD=dot(divisor, c_d),
        degK_CD=dot(X.anticanonical_class, c_d),
    )


def classified_fixed_divisors(X: ToricVariety, **kw) -> list[FixedDivisorReport]:
    return [classify_fixed_divisor(X, r, **kw) for r in fixed_prime_divisors(X)]


# -- Lefschetz defect --------------------------------------------------


def _defect_witnesses(X: ToricVariety) -> tuple[int, list[int]]:
    """(delta, the rays attaining it), from the codimension of the span
    of the wall-curve classes inside each invariant prime divisor."""
    codims = [
        X.rho
        - rational_rank([list(w.curve_class) for w in X.walls if i in w.shared])
        for i in range(X.n_rays)
    ]
    delta = max(codims)
    return delta, [i for i, c in enumerate(codims) if c == delta]


def lefschetz_defect(X: ToricVariety) -> tuple[int, int]:
    """(delta, witness ray index).

    delta is the maximum over invariant prime divisors D of the
    codimension of the span of the wall-curve classes inside D; for
    toric varieties the maximum over invariant divisors computes the
    defect over all prime divisors.  The witness is the first ray
    attaining it.
    """
    delta, witnesses = _defect_witnesses(X)
    return delta, witnesses[0]


def lefschetz_witnesses(X: ToricVariety) -> list[int]:
    """Every ray whose divisor attains the Lefschetz defect."""
    return _defect_witnesses(X)[1]


# -- bound assertions --------------------------------------------------


def verify_bounds(X: ToricVariety) -> list[tuple[str, bool]]:
    """Consistency assertions for the Picard-number bounds of 4-folds, none
    in another dimension; a violation is an engine bug, never new mathematics."""
    if X.dim != 4:
        return []
    delta, _ = lefschetz_defect(X)
    rho = X.rho
    has_fiber = any(d.kind == "fiber_type" for _, d in extremal_rays(X))
    return [
        ("delta = 3 implies rho <= 6", delta != 3 or rho <= 6),
        ("delta = 2 implies rho <= 12", delta != 2 or rho <= 12),
        (
            "elementary fiber-type contraction implies rho <= 11",
            not has_fiber or rho <= 11,
        ),
    ]


# -- Mori chamber decomposition ----------------------------------------


@dataclass
class ChamberFan:
    mov: RationalCone
    chambers: list[RationalCone]
    fans: list[Fan]
    adjacency: list[tuple[int, int, IntVec]]
    excluded: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.chambers)

    def as_dict(self) -> dict:
        nodes = [f.content_hash() for f in self.fans]
        return {
            "chamber_count": self.count,
            "nodes": nodes,
            "edges": [
                {"from": nodes[i], "to": nodes[j], "flipped_class": list(c)}
                for i, j, c in self.adjacency
            ],
            "excluded": self.excluded,
        }


def _gale_inverses(X: ToricVariety) -> dict[IntVec, list[IntVec]]:
    """sigma -> rows for each dim-subset sigma of rays with nonzero
    determinant: the ``dual_basis`` of the classes of the rays outside
    sigma, so a weight's coordinates in that basis have the signs of its
    dot products with the rows.

    By Gale duality those rho classes form a basis of the class group
    exactly when the rays of sigma are independent.
    """
    classes = X.ray_classes
    out = {}
    for sigma in combinations(range(X.n_rays), X.dim):
        if det_int([list(X.fan.rays[i]) for i in sigma]) == 0:
            continue
        rows = dual_basis([classes[j] for j in range(X.n_rays) if j not in sigma])
        if rows is None:
            raise InternalCheckError(
                f"Gale duality failure: the classes outside the independent rays {list(sigma)}"
                f" are not a basis on fan {X.fan.content_hash()}"
            )
        out[sigma] = rows
    return out


def _triangulation_from_weight(
    inverses: dict[IntVec, list[IntVec]], w: Sequence[int]
) -> frozenset:
    """The regular triangulation selected by a weight in the movable
    cone: a maximal cone sigma survives exactly when the weight lies in
    the cone spanned by the classes of the complementary rays, that is
    when its coordinates in that basis (``_gale_inverses``) are all
    nonnegative."""
    return frozenset(
        sigma for sigma, rows in inverses.items() if all(sum(map(mul, r, w)) >= 0 for r in rows)
    )


def _facet_points(chamber: RationalCone) -> list[tuple[IntVec, IntVec]]:
    """(normal, point) per facet of a full-dimensional pointed cone, the
    point in the facet's relative interior: the sum of the generators
    tight on its normal, in the order of ``faces_of_dim(dim - 1)``."""
    facets = sorted(
        (tuple(g for g in chamber.generators if dot(n, g) == 0), n)
        for n in chamber.facet_normals
    )
    return [
        (n, tuple(sum(g[j] for g in gens) for j in range(chamber.ambient_dim)))
        for gens, n in facets
    ]


def mori_chambers(X: ToricVariety, *, max_chambers: int = 512) -> ChamberFan:
    """Chambers of the movable cone with their small modifications.

    Walks interior facets by flips; every discovered model is
    cross-checked by reconstructing its triangulation from a
    chamber-interior weight, and its chamber must lie in the cone of
    weights that keep each of its maximal cones.  Non-flippable
    interior walls are reported and excluded (they lead to models
    outside the simplicial category).
    """
    suite = cone_suite(X)
    inverses = _gale_inverses(X)
    position: dict[tuple, int] = {X.fan.canonical_key(): 0}
    fans: list[Fan] = [X.fan]
    chambers: list[RationalCone] = []  # in walk order, which is position order
    adjacency: list[tuple[int, int, IntVec]] = []
    edges: set[tuple[int, int]] = set()
    crossed: dict[tuple[int, IntVec], int] = {}  # (chamber, flipped class) -> chamber reached
    excluded: list[str] = []

    def chamber(i: int) -> str:
        return f"chamber {i} (fan {fans[i].content_hash()}) of fan {X.fan.content_hash()}"

    frontier = [X]
    while frontier:
        nxt = []
        for node in frontier:
            i = position[node.fan.canonical_key()]
            if node.fan.rays != X.fan.rays:
                raise InternalCheckError(f"small modification changed the rays: {chamber(i)}")
            nef = ne_cone(node).dual()
            chambers.append(nef)
            weight = nef.interior_point()
            reconstructed = _triangulation_from_weight(inverses, weight)
            if reconstructed != frozenset(node.fan.max_cones):
                diff = sorted(reconstructed ^ frozenset(node.fan.max_cones))
                raise InternalCheckError(
                    "weight-selected triangulation disagrees with the fan of its chamber:"
                    f" {chamber(i)}, weight {list(weight)}, cones {[list(c) for c in diff]}"
                )
            # Every weight of the chamber keeps every maximal cone of its
            # fan, so a weight inside two chambers would select two fans.
            rows = {r for sigma in node.fan.max_cones for r in inverses[sigma]}
            for g in nef.generators:
                if any(sum(map(mul, r, g)) < 0 for r in rows):
                    raise InternalCheckError(
                        f"chamber leaves the Gale cone of its fan: {chamber(i)}, generator {list(g)}"
                    )
            for c, desc in extremal_rays(node):
                if desc.kind != "small":
                    continue
                if not desc.flippable:
                    excluded.append(
                        f"non-flippable small ray {list(c)} on {node.fan.content_hash()}"
                    )
                    continue
                try:
                    fan2, _ = flipped_fan(node, c)
                except SurgeryError as e:
                    excluded.append(str(e))
                    continue
                fkey = fan2.canonical_key()
                if fkey not in position:
                    if len(fans) >= max_chambers:
                        raise MoriError(
                            f"chamber enumeration of fan {X.fan.content_hash()}"
                            f" exceeds the cap of {max_chambers} chambers"
                        )
                    position[fkey] = len(fans)
                    fans.append(fan2)
                    nxt.append(ToricVariety(fan2))
                j = position[fkey]
                crossed[(i, c)] = j
                if (j, i) not in edges:
                    edges.add((i, j))
                    adjacency.append((i, j, c))
        frontier = nxt
    for i, ch in enumerate(chambers):
        if not suite.mov.contains_cone(ch):
            raise InternalCheckError(f"chamber escapes the movable cone: {chamber(i)}")
    if not excluded:
        # Coverage: with disjoint interiors, the union is all of Mov iff
        # every facet inside Mov is a wall the walk crossed, into another
        # chamber that holds the facet's point.
        for i, ch in enumerate(chambers):
            for n, p in _facet_points(ch):
                if not suite.mov.contains_in_relative_interior(p):
                    continue
                j = crossed.get((i, n), i)
                if j == i or not chambers[j].contains(p):
                    raise InternalCheckError(
                        f"movable cone not covered: facet point {list(p)} of {chamber(i)}"
                        " lies in no chamber the walk reached across that facet"
                    )
    else:
        excluded.append("coverage of the movable cone not verified (walls excluded)")
    return ChamberFan(
        mov=suite.mov,
        chambers=chambers,
        fans=fans,
        adjacency=adjacency,
        excluded=excluded,
    )
