"""The smooth projective toric variety attached to a validated fan.

Numerical conventions.  Writing N for the number of rays and n for the
dimension, the group of invariant divisors is Z^N and the curve lattice
is the saturated relation lattice K = {v in Z^N : sum_i v_i u_i = 0},
of rank rho = N - n, with the canonical HNF-reduced basis.  A divisor
class is the pairing vector (k . a) for k running over that basis, so
divisor-class coordinates and curve-class coordinates pair by plain dot
product (the pairing matrix in these bases is the identity).  Both are
plain coordinate tuples; intersection numbers take each divisor as its
coefficient vector a over the rays.

Intersection numbers come from the torus-fixed points, one per maximal
cone sigma (the Bott residue formula: Edidin-Graham, "Localization in
equivariant intersection theory and the Bott residue formula", Amer. J.
Math. 1998; Brion, arXiv:math/9802063).  Each maximal cone carries its
dual basis: the rows g_i with g_i . u_j = delta_ij over its rays, from
validation's per-cone memo, so each distinct cone is eliminated once per
process and its rows, tuples, are shared by every model holding it.  For one integer xi
with every g_i . xi nonzero, the tangent weights at the fixed point are
w_i = g_i . xi, D_j restricts to w_j for j in sigma and to 0 otherwise,
so D_1 . ... . D_4 = sum_sigma prod_k l_k / e4(w) with
l_k = sum_{i in sigma} a^(k)_i w_i, and D_1 . D_2 . c2 =
sum_sigma l_1 l_2 e2(w) / e4(w), c(T_X) restricting to prod (1 + w_i).
On a smooth fan the g_i are integers, so the sum is taken over one
integer common denominator; a non-integral anticanonical result is an
engine bug, not a property of the input.

What the rays alone determine sits on one record per set of rays, found
by the rays in a weak map, so every live model on them shares it and it
is freed with the last: the relation lattice basis, its section, and
every wall built on them, keyed by (ridge, left, right, is_smooth), for
a wall is a function of the rays of its two cones and of the fan's
smoothness.  A flip, the next chamber of a walk or an equal fan read
again reuses every wall a model on the rays has built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence

from .cones import RationalCone
from .fan import Fan, ValidationError, ValidationReport, validated
from .lattice import dot, hermite_normal_form, integer_kernel, primitive_vector, transpose
from .ledger import LedgerState

if TYPE_CHECKING:
    from .mori import ConeSuite

IntVec = tuple[int, ...]
Coords = tuple


def _combination(coeffs: Sequence[int], vectors: Sequence[Sequence[int]]) -> IntVec:
    """sum_j coeffs[j] vectors[j]."""
    return tuple(sum(map(mul, coeffs, col)) for col in zip(*vectors))


def _as_coords(v: Sequence) -> Coords:
    """The entries as ints where integral, as Fractions otherwise."""
    out = []
    for x in v:
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator == 1:
                x = x.numerator
        out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Wall:
    """Codimension-one cone shared by two maximal cones.

    ``relation`` is the integer relation among all rays, normalized so
    the two completing rays carry coefficient +1 on a smooth fan; its
    entries are the pairings of the invariant divisors with the wall
    curve, and their sum is the anticanonical degree.
    """

    shared: tuple[int, ...]
    left: int
    right: int
    relation: IntVec
    curve_class: IntVec
    degK: int

    @property
    def circuit_support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.relation) if c != 0)

    @property
    def negative_rays(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.relation) if c < 0)

    @property
    def positive_rays(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.relation) if c > 0)


class _RayRecord:
    """What the rays alone determine, shared by every live model on them:
    the relation lattice basis, its section, and the walls computed so
    far, keyed by (ridge, left, right, is_smooth)."""

    def __init__(self, rays: tuple[IntVec, ...]):
        self.rays = rays
        self.walls: dict[tuple, Wall] = {}

    @cached_property
    def curve_basis(self) -> tuple[IntVec, ...]:
        """HNF-reduced basis of the relation lattice among the rays."""
        basis = integer_kernel([list(r) for r in self.rays])
        rho = len(self.rays) - len(self.rays[0])
        if len(basis) != rho:
            raise ValidationError(f"relation lattice has rank {len(basis)}, expected {rho}")
        return tuple(basis)

    @cached_property
    def section(self) -> list[IntVec]:
        """Columns: integer right inverse of the curve-basis matrix K.

        One row HNF U K^T = H: the class lattice is saturated exactly
        when the top rho x rho block of H is the identity, and then the
        first rho rows of U are columns s_a with K s_a = e_a.
        """
        rho = len(self.curve_basis)
        h, u = hermite_normal_form(transpose(self.curve_basis))
        if any(h[i][j] != (i == j) for i in range(rho) for j in range(rho)):
            raise ValidationError("class lattice is not saturated")
        return [tuple(u[a]) for a in range(rho)]


# The record of each set of rays that some live model holds, keyed on the rays.
_RECORDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class ToricVariety:
    """A validated fan plus its cached numerical invariants; what its rays
    alone determine is read from their shared record (module docstring)."""

    def __init__(self, fan: Fan, *, allow_singular: bool = False, name: Optional[str] = None):
        self.fan = fan
        self.name = name
        self.report: ValidationReport = validated(fan, allow_singular=allow_singular)
        self.is_smooth = all(
            c.passed for c in self.report.checks if c.name == "smoothness"
        )
        record = _RECORDS.get(fan.rays)
        if record is None:
            record = _RECORDS[fan.rays] = _RayRecord(fan.rays)
        self._record = record
        self._extremal_rays: Optional[tuple] = None  # kept by surgery.extremal_rays
        self._ne: Optional[RationalCone] = None  # kept by surgery.ne_cone
        self._suite: Optional[ConeSuite] = None  # kept by mori.cone_suite
        self._models: Optional[dict[Fan, ToricVariety]] = None  # kept by mori._models

    # -- class group -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.fan.dim

    @property
    def n_rays(self) -> int:
        return self.fan.n_rays

    @property
    def rho(self) -> int:
        return self.fan.n_rays - self.fan.dim

    @property
    def curve_basis(self) -> tuple[IntVec, ...]:
        """HNF-reduced basis of the relation lattice among the rays."""
        return self._record.curve_basis

    @property
    def _section(self) -> list[IntVec]:
        """Columns s_a with K s_a = e_a for the curve-basis matrix K."""
        return self._record.section

    def _require_smooth(self) -> None:
        if not self.is_smooth:
            raise ValidationError("operation requires a smooth fan")

    def divisor_class(self, coefficients: Sequence) -> Coords:
        """Class of sum_i a_i D_i for a coefficient vector over the rays."""
        self._require_smooth()
        if len(coefficients) != self.n_rays:
            raise ValueError("coefficient vector has wrong length")
        return _as_coords(dot(k, coefficients) for k in self.curve_basis)

    @cached_property
    def ray_classes(self) -> tuple[IntVec, ...]:
        """The class of each invariant prime divisor D_i: the i-th column
        of the curve basis, so the classes are the Gale dual of the rays."""
        self._require_smooth()
        return tuple(zip(*self.curve_basis))

    @cached_property
    def anticanonical_class(self) -> Coords:
        """Class of the sum of all invariant prime divisors."""
        return self.divisor_class([1] * self.n_rays)

    # -- walls ---------------------------------------------------------

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        """One wall per codimension-one cone shared by two maximal cones,
        read from validation's ridge map (``report.facets``).

        The relation is u_other - sum_k lambda_k u_k over the rays u_k of
        the cone opposite u_other, with lambda_k = g_k . u_other.  The
        primitive normal n_k is a positive multiple of g_k, so
        lambda_k = (n_k . u_other) / (n_k . u_k); the relation is scaled
        by the lcm of those denominators and made primitive.

        Only those dim + 1 rays can carry a nonzero coefficient, so the
        rest of the wall is computed on them alone: the check
        sum_j r_j u_j = 0, and on a smooth fan the curve class
        sum_j r_j s(j), where s(j) is ray j's row of the section columns
        s_a (the relation lattice is saturated, so an integer relation r
        is sum_a (r . s_a) k_a).

        Per maximal cone, ``report.dual_bases`` holds the primitive
        inward facet normals, one per ray; on a smooth fan they are the
        dual basis g_i.

        Each wall is read from the record of the rays, and computed and
        stored there only when no model on the rays has built it.
        """
        known = self._record.walls
        rays = self.fan.rays
        bases = self.report.dual_bases
        section_rows = list(zip(*self._section)) if self.is_smooth else None
        out = []
        for facet, cones in sorted(self.report.facets.items()):
            if len(cones) != 2:
                raise ValidationError(f"facet {facet} is not a wall")
            (c1, c2) = cones
            a = next(i for i in c1 if i not in facet)
            b = next(i for i in c2 if i not in facet)
            a, b = min(a, b), max(a, b)
            key = (facet, a, b, self.is_smooth)
            wall = known.get(key)
            if wall is not None:
                out.append(wall)
                continue
            basis_cone = c1 if a in c1 else c2
            other = b if a in basis_cone else a
            normals = bases[basis_cone]
            u = rays[other]
            scales = [sum(map(mul, n, rays[j])) for n, j in zip(normals, basis_cone)]
            denom = lcm(*scales)
            support = (other, *basis_cone)
            coeffs = [denom] + [-sum(map(mul, n, u)) * (denom // s) for n, s in zip(normals, scales)]
            g = gcd(*coeffs)
            coeffs = [x // g for x in coeffs]
            rel = [0] * self.n_rays
            for j, x in zip(support, coeffs):
                rel[j] = x
            if self.is_smooth and (rel[a] != 1 or rel[b] != 1):
                raise ValidationError("wall relation is not unimodular on a smooth fan")
            if any(_combination(coeffs, [rays[j] for j in support])):
                raise ValidationError(f"wall {facet} relation is not a relation among the rays")
            curve = (0,) * self.rho
            if self.is_smooth:
                curve = _combination(coeffs, [section_rows[j] for j in support])
            wall = known[key] = Wall(
                shared=facet, left=a, right=b, relation=tuple(rel), curve_class=curve, degK=sum(coeffs)
            )
            out.append(wall)
        return tuple(out)

    @cached_property
    def walls_by_class(self) -> dict[IntVec, tuple[int, ...]]:
        """Indices into ``walls``, ascending, keyed by the primitive curve
        class of the wall: the walls on each ray of the cone of curves.
        Requires a smooth fan."""
        self._require_smooth()
        out: dict[IntVec, list[int]] = {}
        for i, w in enumerate(self.walls):
            out.setdefault(primitive_vector(w.curve_class), []).append(i)
        return {c: tuple(ix) for c, ix in out.items()}

    @cached_property
    def is_fano(self) -> bool:
        """Toric Kleiman test: -K strictly positive on every wall curve."""
        return all(w.degK > 0 for w in self.walls)

    # -- intersection theory -------------------------------------------

    @cached_property
    def _fixed_points(self) -> tuple[int, tuple[tuple[tuple[int, ...], IntVec, int, int], ...]]:
        """(L, per maximal cone (rays, w, L / e4(w), L e2(w) / e4(w))).

        w_i = g_i . xi are the tangent weights at the cone's fixed point
        for xi = (1, B, B^2, ...), B = 2 max|g entries| + 1, so each w_i
        is a balanced base-B expansion of a nonzero g_i and never 0; L is
        the lcm of the e4(w).  Requires a smooth fan.
        """
        normals = self.report.dual_bases
        base = 2 * max(abs(x) for rows in normals.values() for g in rows for x in g) + 1
        xi = [base**t for t in range(self.dim)]
        weights = [(c, tuple(sum(map(mul, g, xi)) for g in rows)) for c, rows in normals.items()]
        top = lcm(*(prod(w) for _, w in weights))
        points = []
        for c, w in weights:
            scale = top // prod(w)
            e2 = (sum(w) ** 2 - sum(x * x for x in w)) // 2
            points.append((c, w, scale, scale * e2))
        return top, tuple(points)

    def _localize(self, divisors: Sequence[Sequence], c2: bool) -> Fraction:
        """Bott residue sum of the product of the divisors, given by their
        coefficient vectors over the rays (times c2 when asked):
        sum over fixed points of prod_k l_k (e2(w) if c2) / e4(w), with
        l_k = sum_{i in sigma} a^(k)_i w_i.  Rational coefficients are
        cleared first, so the sum is taken in integers.
        """
        vectors, denom = [], 1
        for d in divisors:
            if len(d) != self.n_rays:
                raise ValueError("coefficient vector has wrong length")
            vec = _as_coords(d)
            q = lcm(*(x.denominator for x in vec))
            vectors.append([x.numerator * (q // x.denominator) for x in vec])
            denom *= q
        top, points = self._fixed_points
        total = 0
        for cone, w, scale, c2_scale in points:
            term = c2_scale if c2 else scale
            for vec in vectors:
                term *= sum(vec[i] * x for i, x in zip(cone, w))
            total += term
        return Fraction(total, top * denom)

    def intersection_number(self, *divisors: Sequence) -> Fraction:
        """Exact top intersection number of dim-many divisors, each given
        by its coefficient vector over the rays."""
        self._require_smooth()
        if self.dim != 4:
            raise ValidationError("intersection numbers are implemented for 4-folds")
        if len(divisors) != self.dim:
            raise ValueError(f"need exactly {self.dim} divisors")
        return self._localize(divisors, c2=False)

    def c2_product(self, d1: Sequence, d2: Sequence) -> Fraction:
        """D1 . D2 . c2(X), with c2(X) = e2 of the tangent weights."""
        self._require_smooth()
        if self.dim != 4:
            raise ValidationError("c2 pairing is implemented for 4-folds")
        return self._localize((d1, d2), c2=True)

    def c2_pairing(self, d: Sequence) -> Fraction:
        """D^2 . c2(X)."""
        return self.c2_product(d, d)

    # -- the anticanonical ledger ---------------------------------------

    def ledger_state(self) -> LedgerState:
        """(chi(-K), (-K)^4, (-K)^2.c2, rho) computed from the fan."""
        mk = [1] * self.n_rays
        deg = self.intersection_number(mk, mk, mk, mk)
        c2 = self.c2_pairing(mk)
        if deg.denominator != 1 or c2.denominator != 1:
            from .mori import InternalCheckError  # mori imports this module

            raise InternalCheckError(
                f"(-K)^4 = {deg} and (-K)^2.c2 = {c2} are not both integers"
                f" on fan {self.fan.content_hash()}"
            )
        return LedgerState.from_geometry(degK4=int(deg), c2K2=int(c2), rho=self.rho)

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.name or "X"
        return f"ToricVariety({tag}: dim {self.dim}, rho {self.rho})"
