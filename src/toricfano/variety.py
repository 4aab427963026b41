"""The smooth projective toric variety attached to a validated fan.

Numerical conventions.  Writing N for the number of rays and n for the
dimension, the group of invariant divisors is Z^N and the curve lattice
is the saturated relation lattice K = {v in Z^N : sum_i v_i u_i = 0},
of rank rho = N - n, with the canonical HNF-reduced basis.  A divisor
class is the pairing vector (k . a) for k running over that basis, so
divisor-class coordinates and curve-class coordinates pair by plain dot
product (the pairing matrix in these bases is the identity).

Intersection numbers use iterated restriction: a divisor is rewritten,
via an exact linear-equivalence move, to have zero coefficient on the
rays of the current orbit closure, and then distributed over the
adjacent orbit closures; the recursion bottoms out in a point count on
maximal cones.  The second Chern class of a smooth complete toric
variety is the sum of the classes of the invariant surfaces, i.e. of
the orbit closures of the 2-dimensional cones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence, Union

from .fan import Fan, ValidationError, ValidationReport, validated
from .lattice import dot, integer_kernel, solve_integer, solve_rational, transpose
from .ledger import LedgerState

IntVec = tuple[int, ...]
Coords = tuple


def _as_coords(v: Sequence) -> Coords:
    out = []
    for x in v:
        f = Fraction(x)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


@dataclass(frozen=True)
class DivisorClass:
    """Element of N^1(X) in the canonical class-group basis."""

    coords: Coords
    prime_coefficients: Optional[Coords] = None

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        pc = None
        if self.prime_coefficients is not None and other.prime_coefficients is not None:
            pc = _as_coords(
                a + b for a, b in zip(self.prime_coefficients, other.prime_coefficients)
            )
        return DivisorClass(_as_coords(a + b for a, b in zip(self.coords, other.coords)), pc)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __rmul__(self, k) -> "DivisorClass":
        pc = None
        if self.prime_coefficients is not None:
            pc = _as_coords(k * a for a in self.prime_coefficients)
        return DivisorClass(_as_coords(k * a for a in self.coords), pc)

    def __neg__(self) -> "DivisorClass":
        return (-1) * self


@dataclass(frozen=True)
class CurveClass:
    """Element of N_1(X) in the basis dual to the class-group basis."""

    coords: Coords

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(_as_coords(a + b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, k) -> "CurveClass":
        return CurveClass(_as_coords(k * a for a in self.coords))

    def __neg__(self) -> "CurveClass":
        return (-1) * self


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
    curve_class: CurveClass
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


class ToricVariety:
    """A validated fan plus its cached numerical invariants."""

    def __init__(
        self,
        fan: Fan,
        *,
        allow_singular: bool = False,
        name: Optional[str] = None,
    ):
        self.fan = fan
        self.name = name
        self.report: ValidationReport = validated(fan, allow_singular=allow_singular)
        self.is_smooth = all(
            c.passed for c in self.report.checks if c.name == "smoothness"
        )
        self._ledger: Optional[LedgerState] = None

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

    @cached_property
    def curve_basis(self) -> tuple[IntVec, ...]:
        """HNF-reduced basis of the relation lattice among the rays."""
        basis = integer_kernel([list(r) for r in self.fan.rays])
        if len(basis) != self.rho:
            raise ValidationError(
                f"relation lattice has rank {len(basis)}, expected {self.rho}"
            )
        return tuple(basis)

    @cached_property
    def _section(self) -> list[IntVec]:
        """Columns: integer right inverse of the curve-basis matrix."""
        cols = []
        for a in range(self.rho):
            rhs = [1 if b == a else 0 for b in range(self.rho)]
            col = solve_integer([list(k) for k in self.curve_basis], rhs)
            if col is None:
                raise ValidationError("class lattice is not saturated")
            cols.append(col)
        return cols

    def class_group(self) -> tuple[int, tuple[IntVec, ...], list[list[int]]]:
        """(rho, divisor-class map, curve pairing matrix).

        The map sends a coefficient vector over the invariant prime
        divisors to its class; in these coordinates the intersection
        pairing with curve-class coordinates is the identity matrix.
        """
        self._require_smooth()
        rho = self.rho
        pairing = [[1 if i == j else 0 for j in range(rho)] for i in range(rho)]
        return rho, self.curve_basis, pairing

    def _require_smooth(self) -> None:
        if not self.is_smooth:
            raise ValidationError("operation requires a smooth fan")

    def divisor_class(self, coefficients: Sequence) -> DivisorClass:
        """Class of sum_i a_i D_i for a coefficient vector over the rays."""
        self._require_smooth()
        if len(coefficients) != self.n_rays:
            raise ValueError("coefficient vector has wrong length")
        coords = _as_coords(dot(k, coefficients) for k in self.curve_basis)
        return DivisorClass(coords, _as_coords(coefficients))

    def ray_divisor_class(self, i: int) -> DivisorClass:
        coeffs = [0] * self.n_rays
        coeffs[i] = 1
        return self.divisor_class(coeffs)

    @cached_property
    def anticanonical_class(self) -> DivisorClass:
        """Class of the sum of all invariant prime divisors."""
        return self.divisor_class([1] * self.n_rays)

    def lift(self, d: DivisorClass) -> Coords:
        """A coefficient vector over the rays representing the class."""
        if d.prime_coefficients is not None:
            return d.prime_coefficients
        vec = [0] * self.n_rays
        for a, col in zip(d.coords, self._section):
            for i in range(self.n_rays):
                vec[i] += a * col[i]
        return _as_coords(vec)

    def curve_class_from_relation(self, relation: Sequence[int]) -> CurveClass:
        sol = solve_rational(
            transpose([list(k) for k in self.curve_basis]), list(relation)
        )
        if sol is None or any(f.denominator != 1 for f in sol):
            raise ValueError("vector is not an integer relation among the rays")
        return CurveClass(tuple(int(f) for f in sol))

    @staticmethod
    def pair(d: DivisorClass, c: CurveClass):
        """Intersection pairing; the identity matrix in these bases."""
        return dot(d.coords, c.coords)

    # -- walls ---------------------------------------------------------

    @cached_property
    def walls(self) -> tuple[Wall, ...]:
        """One wall per codimension-one cone shared by two maximal cones."""
        out = []
        for facet, cones in sorted(self.fan.facets().items()):
            if len(cones) != 2:
                raise ValidationError(f"facet {facet} is not a wall")
            (c1, c2) = cones
            a = next(i for i in c1 if i not in facet)
            b = next(i for i in c2 if i not in facet)
            a, b = min(a, b), max(a, b)
            basis_cone = c1 if a in c1 else c2
            other = b if a in basis_cone else a
            lam = solve_rational(
                transpose([list(self.fan.rays[i]) for i in basis_cone]),
                list(self.fan.rays[other]),
            )
            assert lam is not None
            rel = [Fraction(0)] * self.n_rays
            rel[other] = Fraction(1)
            for idx, j in enumerate(basis_cone):
                rel[j] -= lam[idx]
            denom = 1
            for x in rel:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            rel_scaled = [int(x * denom) for x in rel]
            g = 0
            for x in rel_scaled:
                g = gcd(g, x)
            rel_int = tuple(x // g for x in rel_scaled)
            if self.is_smooth and (rel_int[a] != 1 or rel_int[b] != 1):
                raise ValidationError("wall relation is not unimodular on a smooth fan")
            deg = sum(rel_int)
            curve = (
                self.curve_class_from_relation(rel_int)
                if self.is_smooth
                else CurveClass(tuple([0] * self.rho))
            )
            out.append(
                Wall(
                    shared=tuple(facet),
                    left=a,
                    right=b,
                    relation=rel_int,
                    curve_class=curve,
                    degK=deg,
                )
            )
        return tuple(out)

    @cached_property
    def is_fano(self) -> bool:
        """Toric Kleiman test: -K strictly positive on every wall curve."""
        return all(w.degK > 0 for w in self.walls)

    # -- intersection theory -------------------------------------------

    @cached_property
    def _face_set(self) -> frozenset[tuple[int, ...]]:
        faces = set()
        for c in self.fan.max_cones:
            m = len(c)
            for mask in range(1 << m):
                faces.add(tuple(c[i] for i in range(m) if mask >> i & 1))
        return frozenset(faces)

    @cached_property
    def two_cones(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(f for f in self._face_set if len(f) == 2))

    def _restrict_off(self, coeffs: Coords, sigma: tuple[int, ...]) -> Coords:
        """Rewrite the divisor, by an exact linear-equivalence move, so its
        coefficients vanish on the rays of sigma."""
        if not sigma:
            return coeffs
        mat = [list(self.fan.rays[i]) for i in sigma]
        m = solve_rational(mat, [coeffs[i] for i in sigma])
        assert m is not None
        return tuple(
            coeffs[i] - dot(self.fan.rays[i], m) for i in range(self.n_rays)
        )

    def _product_on_cycle(
        self, start: tuple[int, ...], divisor_vectors: Sequence[Coords]
    ) -> Fraction:
        if len(start) + len(divisor_vectors) != self.dim:
            raise ValueError("degree mismatch: product does not reach dimension 0")
        terms: dict[tuple[int, ...], Fraction] = {tuple(start): Fraction(1)}
        for vec in divisor_vectors:
            nxt: dict[tuple[int, ...], Fraction] = {}
            for sigma, coef in terms.items():
                adj = self._restrict_off(vec, sigma)
                for i in range(self.n_rays):
                    if i in sigma or adj[i] == 0:
                        continue
                    tau = tuple(sorted(sigma + (i,)))
                    if tau not in self._face_set:
                        continue
                    nxt[tau] = nxt.get(tau, Fraction(0)) + coef * Fraction(adj[i])
            terms = {s: c for s, c in nxt.items() if c != 0}
        return sum(terms.values(), Fraction(0))

    def intersection_number(self, *divisors: Union[DivisorClass, Sequence]) -> Fraction:
        """Exact top intersection number of dim-many divisor classes."""
        self._require_smooth()
        if self.dim != 4:
            raise ValidationError("intersection numbers are implemented for 4-folds")
        if len(divisors) != self.dim:
            raise ValueError(f"need exactly {self.dim} divisor classes")
        vectors = []
        for d in divisors:
            if isinstance(d, DivisorClass):
                vectors.append(self.lift(d))
            else:
                vectors.append(_as_coords(d))
        return self._product_on_cycle((), vectors)

    def c2_product(
        self,
        d1: Union[DivisorClass, Sequence],
        d2: Union[DivisorClass, Sequence],
    ) -> Fraction:
        """D1 . D2 . c2(X), with c2 the sum of the invariant-surface classes."""
        self._require_smooth()
        if self.dim != 4:
            raise ValidationError("c2 pairing is implemented for 4-folds")
        vecs = [
            self.lift(d) if isinstance(d, DivisorClass) else _as_coords(d)
            for d in (d1, d2)
        ]
        total = Fraction(0)
        for sigma in self.two_cones:
            total += self._product_on_cycle(sigma, vecs)
        return total

    def c2_pairing(self, d: Union[DivisorClass, Sequence]) -> Fraction:
        """D^2 . c2(X)."""
        return self.c2_product(d, d)

    # -- the anticanonical ledger ---------------------------------------

    def ledger_state(self) -> LedgerState:
        """(chi(-K), (-K)^4, (-K)^2.c2, rho) computed from the fan, once
        per variety."""
        if self._ledger is None:
            mk = self.anticanonical_class
            deg = self.intersection_number(mk, mk, mk, mk)
            c2 = self.c2_pairing(mk)
            if deg.denominator != 1 or c2.denominator != 1:
                raise ValidationError("anticanonical intersection numbers not integral")
            self._ledger = LedgerState.from_geometry(
                degK4=int(deg), c2K2=int(c2), rho=self.rho, fano_flag=self.is_fano
            )
        return self._ledger

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.name or "X"
        return f"ToricVariety({tag}: dim {self.dim}, rho {self.rho})"
