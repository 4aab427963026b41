"""Exact convex polyhedral cones with dual descriptions.

A cone is stored with both its extreme-ray generators and its inward
facet normals, each scaled to primitive integer vectors and sorted, so
cone equality is plain tuple comparison.  The facet-normal list is
itself the canonical generator list of the dual cone, which makes
``dual`` an O(1) swap of the two descriptions.

Non-pointed cones are supported: the lineality space appears among the
generators as +/- pairs (canonically, the HNF basis of the lineality
lattice), and the pointed part is recorded by the extreme rays of the
cone intersected with the orthogonal complement of the lineality.

The V <-> H conversion is Motzkin-style double description, exact
over Z throughout.  The elimination that picks its starting
constraints also decides the rank, so the lineality space is computed
only when the constraints have rank below the ambient dimension; on
full-rank input the cone is pointed and the extreme rays are the
answer.  Each ray carries the set of constraints it is
tight on as an int bitmask, so a new halfspace costs one dot product
per ray.  Two rays are adjacent by the combinatorial test alone
(Fukuda-Prodon, "Double description method revisited", 1996): they
share at least dim - 2 tight constraints and no third ray is tight on
all of them.  It keeps no memo: a cone that is needed more than once
is kept by its owner (the cone of curves on its variety), and the
chamber walk's cross-checks read the normals of cones already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from .lattice import (
    _row_reduce,
    dot,
    dual_basis,
    integer_kernel,
    primitive_vector,
    rational_rank,
    transpose,
)

IntVec = tuple[int, ...]


def _unit_vectors(dim: int) -> list[IntVec]:
    return [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]


def _dedupe_primitive(vectors: Iterable[Sequence[int]]) -> list[IntVec]:
    out: list[IntVec] = []
    seen: set[IntVec] = set()
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        p = primitive_vector(v)
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def _pointed_extreme_rays(constraints: list[IntVec], dim: int) -> Optional[list[IntVec]]:
    """Extreme rays of {y : a.y >= 0 for a in constraints}, or None when
    the constraint matrix has rank below ``dim`` (the cone then has a
    lineality space).

    Classic double description: start from the simplicial subcone cut
    out by the first ``dim`` independent constraints, then slice in the
    remaining halfspaces, combining adjacent rays across each new
    hyperplane.  Each ray carries the constraints it is tight on as a
    bitmask (bit j for constraint j).  The elimination that picks the
    starting constraints also decides the rank.
    """
    if dim == 0:
        return []
    base = [col for _, col in _row_reduce(transpose(constraints), len(constraints))]
    if len(base) < dim:
        return None
    full = sum(1 << i for i in base)
    rays = list(zip(dual_basis([constraints[i] for i in base]), (full ^ (1 << i) for i in base)))
    for idx in range(len(constraints)):
        bit = 1 << idx
        if full & bit:
            continue
        a = constraints[idx]
        vals = [sum(map(mul, a, r)) for r, _ in rays]
        masks = [t for _, t in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        new_rays = [(r, t | bit if v == 0 else t) for (r, t), v in zip(rays, vals) if v >= 0]
        for p in pos:
            rp, tp = rays[p]
            for n in neg:
                rn, tn = rays[n]
                common = tp & tn
                # p and n are tight on ``common``; a third such ray
                # makes the pair non-adjacent.
                if common.bit_count() < dim - 2 or (
                    sum(map(common.__eq__, map(common.__and__, masks))) > 2
                ):
                    continue
                combo = [vals[p] * x - vals[n] * y for x, y in zip(rn, rp)]
                new_rays.append((primitive_vector(combo), common | bit))
        rays = new_rays
    return [r for r, _ in rays]


def dual_extreme_rays(vectors: Sequence[Sequence[int]], ambient_dim: int) -> list[IntVec]:
    """Canonical generators of {y : v.y >= 0 for all v in vectors}.

    Constraints of full rank ``ambient_dim`` cut out a pointed cone,
    whose extreme rays are the answer.  Otherwise the lineality part
    comes out as +/- pairs of the HNF kernel basis, and the pointed
    part as extreme rays of the cone with +/- each lineality vector
    appended as constraints: that cuts it down to the orthogonal
    complement of the lineality and brings the rank to full.  Sorted,
    primitive, deterministic: the answer depends only on the set of
    primitive constraint directions.
    """
    cons = sorted(_dedupe_primitive(vectors))
    rays = _pointed_extreme_rays(cons, ambient_dim)
    if rays is not None:
        return sorted(set(rays))
    lineality = integer_kernel(transpose(cons)) if cons else _unit_vectors(ambient_dim)
    both = [s for l in lineality for s in (tuple(l), tuple(-x for x in l))]
    return sorted(set(both + _pointed_extreme_rays(cons + both, ambient_dim)))


@dataclass(frozen=True)
class RationalCone:
    """Closed convex polyhedral cone with canonical dual descriptions."""

    ambient_dim: int
    generators: tuple[IntVec, ...]
    facet_normals: tuple[IntVec, ...]

    @staticmethod
    def from_generators(
        vectors: Sequence[Sequence], ambient_dim: Optional[int] = None
    ) -> "RationalCone":
        vecs = [primitive_vector(v) for v in vectors if any(x != 0 for x in v)]
        if ambient_dim is None:
            if not vecs:
                raise ValueError("ambient dimension required for the zero cone")
            ambient_dim = len(vecs[0])
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("mixed vector dimensions")
        normals = dual_extreme_rays(vecs, ambient_dim)
        gens = dual_extreme_rays(normals, ambient_dim)
        return RationalCone(ambient_dim, tuple(gens), tuple(normals))

    @staticmethod
    def zero(ambient_dim: int) -> "RationalCone":
        return RationalCone.from_generators([], ambient_dim)

    def dual(self) -> "RationalCone":
        return RationalCone(self.ambient_dim, self.facet_normals, self.generators)

    @cached_property
    def dim(self) -> int:
        return rational_rank([list(g) for g in self.generators])

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(sum(map(mul, n, v)) >= 0 for n in self.facet_normals)

    def contains_in_relative_interior(self, v: Sequence) -> bool:
        if not self.contains(v):
            return False
        for n in self.facet_normals:
            if dot(n, v) == 0 and any(dot(n, g) != 0 for g in self.generators):
                return False
        return True

    def contains_cone(self, other: "RationalCone") -> bool:
        return all(self.contains(g) for g in other.generators)

    def interior_point(self) -> IntVec:
        """A point in the relative interior (the sum of the generators)."""
        if not self.generators:
            return tuple([0] * self.ambient_dim)
        return tuple(sum(g[j] for g in self.generators) for j in range(self.ambient_dim))

    def all_faces(self) -> list["RationalCone"]:
        """Every face, found by closing under single-normal slices."""
        seen: dict[tuple[IntVec, ...], RationalCone] = {self.generators: self}
        frontier = [self]
        while frontier:
            nxt: list[RationalCone] = []
            for face in frontier:
                for n in self.facet_normals:
                    gens = tuple(
                        g for g in face.generators if dot(n, g) == 0
                    )
                    if gens in seen:
                        continue
                    sub = RationalCone.from_generators(gens, self.ambient_dim)
                    if sub.generators not in seen:
                        seen[sub.generators] = sub
                        nxt.append(sub)
                    seen[gens] = seen[sub.generators]
            frontier = nxt
        uniq = {c.generators: c for c in seen.values()}
        return list(uniq.values())

    def faces_of_dim(self, d: int) -> list["RationalCone"]:
        if d < 0 or d > self.dim:
            raise ValueError(f"no faces of dimension {d} in a {self.dim}-dim cone")
        faces = [f for f in self.all_faces() if f.dim == d]
        return sorted(faces, key=lambda c: c.generators)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RationalCone(dim {self.dim} in R^{self.ambient_dim}, "
            f"{len(self.generators)} gens, {len(self.facet_normals)} normals)"
        )
