"""Simplicial fans: the combinatorial skeleton of a toric variety.

A ``Fan`` is a list of primitive ray generators plus maximal cones given
as index sets.  Validation checks, in order: structural sanity,
primitivity of the rays, unimodularity of every maximal cone
(smoothness), face compatibility and completeness.  The last two are
the characterisation of a complete simplicial fan read on the sphere
(De Loera-Rambau-Santos, *Triangulations*, ch. 4): every ridge lies in
exactly two maximal cones whose opposite rays lie strictly on opposite
sides of it, and one generic point lies in exactly one maximal cone.
Smoothness and both geometric checks read one ``dual_basis`` per
maximal cone, taken from a memo keyed on the cone's rays, so a fan
that shares cones with one validated before (a flip, a blow-up, the
next chamber of a walk) eliminates only its new cones.

The JSON wire format is
``{"dim": n, "rays": [[int,...],...], "max_cones": [[indices],...]}``
with 0-based indices and an optional ``"labels"`` object mapping ray
indices to names.  Emission is canonical: cone index lists sorted,
cones sorted lexicographically, keys sorted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .lattice import det_int, dual_basis, vector_gcd

# The standard digest library maps OpenSSL's libcrypto on import
# (3.7 MB resident); the interpreter's builtin module gives the same
# SHA-256 for about 0.25 MB, as CPython's own random.py does.  The
# standard library is the last resort, for an interpreter without it.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

IntVec = tuple[int, ...]


class ValidationError(ValueError):
    """Raised when an operation requires a fan invariant that fails."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    # Per maximal cone, its ``dual_basis`` rows, and the fan's
    # ``facets()`` map; empty unless every check ran.  Shared by every
    # equal fan through ``validate``'s cache, and each cone's rows by
    # every report holding the cone, so read only.
    dual_bases: dict[tuple[int, ...], tuple[IntVec, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )
    facets: dict[tuple[int, ...], list[tuple[int, ...]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self) -> None:
        if not self.ok:
            msgs = "; ".join(f"{c.name}: {c.detail}" for c in self.failures())
            raise ValidationError(msgs)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class Fan:
    dim: int
    rays: tuple[IntVec, ...]
    max_cones: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[Optional[str], ...]] = field(default=None, compare=False)

    @staticmethod
    def make(
        dim: int,
        rays: Sequence[Sequence[int]],
        max_cones: Sequence[Sequence[int]],
        labels: Optional[dict[int, str]] = None,
    ) -> "Fan":
        rays_t = tuple(tuple(int(x) for x in r) for r in rays)
        cones_t = tuple(sorted(tuple(sorted(int(i) for i in c)) for c in max_cones))
        labels_t = None
        if labels:
            labels_t = tuple(labels.get(i) for i in range(len(rays_t)))
        return Fan(dim, rays_t, cones_t, labels_t)

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_label(self, i: int) -> str:
        if self.labels and self.labels[i]:
            return self.labels[i]
        return f"u{i}"

    def has_cone(self, indices: Sequence[int]) -> bool:
        want = set(indices)
        return any(want <= set(c) for c in self.max_cones)

    def facets(self) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Map facet index-set -> list of maximal cones containing it."""
        out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for c in self.max_cones:
            for k in range(len(c)):
                out.setdefault(c[:k] + c[k + 1 :], []).append(c)
        return out

    def canonical_key(self) -> tuple:
        return (self.dim, self.rays, self.max_cones)

    def content_hash(self) -> str:
        """The first 16 hex digits of the SHA-256 of ``fan_to_json(self)``.

        The canonical JSON includes the labels, so relabelling a ray
        changes the hash.  The digest comes from the interpreter's
        builtin SHA-256 module, so no process that names a model loads
        OpenSSL.
        """
        return sha256(fan_to_json(self).encode()).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Fan(dim={self.dim}, rays={self.n_rays}, max_cones={len(self.max_cones)})"


def fan_to_json(fan: Fan) -> str:
    obj: dict = {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [sorted(c) for c in sorted(fan.max_cones)],
    }
    if fan.labels and any(fan.labels):
        obj["labels"] = {
            str(i): lab for i, lab in enumerate(fan.labels) if lab is not None
        }
    return json.dumps(obj, sort_keys=True)


def fan_from_json(text: str) -> Fan:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ValidationError("fan JSON must be an object")
    for key in ("dim", "rays", "max_cones"):
        if key not in obj:
            raise ValidationError(f"missing required field {key!r}")
    dim = obj["dim"]
    rays = obj["rays"]
    cones = obj["max_cones"]

    def _is_int(x) -> bool:
        return isinstance(x, int) and not isinstance(x, bool)

    if not _is_int(dim) or dim < 1:
        raise ValidationError("field 'dim' must be a positive integer")
    if not isinstance(rays, list) or not rays:
        raise ValidationError("field 'rays' must be a nonempty list")
    for i, r in enumerate(rays):
        if not isinstance(r, list) or len(r) != dim or not all(_is_int(x) for x in r):
            raise ValidationError(f"ray {i} must be a list of {dim} integers")
    if not isinstance(cones, list) or not cones:
        raise ValidationError("field 'max_cones' must be a nonempty list")
    for k, c in enumerate(cones):
        if not isinstance(c, list) or not all(_is_int(i) for i in c):
            raise ValidationError(f"max cone {k} must be a list of ray indices")
        if any(i < 0 or i >= len(rays) for i in c):
            raise ValidationError(f"max cone {k} has a ray index out of range")
    labels = None
    if "labels" in obj and not isinstance(obj["labels"], dict):
        raise ValidationError("field 'labels' must be an object")
    if obj.get("labels"):
        labels = {}
        for key, val in obj["labels"].items():
            try:
                idx = int(key)
            except ValueError:
                raise ValidationError(f"label key {key!r} is not a ray index") from None
            if idx < 0 or idx >= len(rays):
                raise ValidationError(f"label key {key!r} out of range")
            if not isinstance(val, str):
                raise ValidationError(f"label {key!r} must be a string")
            labels[idx] = val
    return Fan.make(dim, rays, cones, labels)


def _structural_check(fan: Fan) -> Optional[str]:
    if fan.dim < 1:
        return "dimension must be positive"
    if not fan.rays:
        return "no rays"
    if any(len(r) != fan.dim for r in fan.rays):
        return "ray of wrong dimension"
    if any(all(x == 0 for x in r) for r in fan.rays):
        return "zero ray"
    if len(set(fan.rays)) != len(fan.rays):
        dup = next(r for r in fan.rays if fan.rays.count(r) > 1)
        return f"duplicate ray {list(dup)}"
    if not fan.max_cones:
        return "no maximal cones"
    for c in fan.max_cones:
        if len(c) != fan.dim:
            return f"cone {list(c)} is not {fan.dim}-dimensional (not simplicial full-dim)"
        if len(set(c)) != len(c):
            return f"cone {list(c)} has repeated rays"
        if any(i < 0 or i >= fan.n_rays for i in c):
            return f"cone {list(c)} has an out-of-range index"
    if len(set(fan.max_cones)) != len(fan.max_cones):
        return "duplicate maximal cone"
    used = {i for c in fan.max_cones for i in c}
    if used != set(range(fan.n_rays)):
        missing = sorted(set(range(fan.n_rays)) - used)
        return f"rays {missing} not used by any maximal cone"
    return None


def _same_side_pair(
    fan: Fan, ridge: tuple[int, ...], cones: list[tuple[int, ...]], normals: dict
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two of ``cones`` whose rays off ``ridge`` lie on the same side of
    it, or None.  The first cone's normal row for its ray off the ridge
    vanishes on the ridge, so one dot product places each other ray."""
    c1 = cones[0]
    k = next(k for k, i in enumerate(c1) if i not in ridge)
    n = normals[c1][k]
    for c2 in cones[1:]:
        if sum(map(mul, n, fan.rays[next(i for i in c2 if i not in ridge)])) > 0:
            return c1, c2
    # Every other cone is on the far side; with two of them, they share it.
    return (cones[1], cones[2]) if len(cones) > 2 else None


def _covering_cones(fan: Fan, normals: dict) -> tuple[list[int], list[tuple[int, ...]]]:
    """A point p inside the first maximal cone and off every facet
    hyperplane, and the maximal cones containing it.  p = sum_k N^k u_k
    over that cone's rays, with N > 1 + |n|_1 max|u_k|_inf >= 1 + |n . u_k|
    for every normal n, so each n . p is a base-N expansion with some
    nonzero digit."""
    base = [fan.rays[i] for i in fan.max_cones[0]]
    norm = max(sum(map(abs, n)) for rows in normals.values() for n in rows)
    big = 2 + norm * max(abs(x) for u in base for x in u)
    p = [sum(big**k * u[t] for k, u in enumerate(base)) for t in range(fan.dim)]
    return p, [c for c in fan.max_cones if all(sum(map(mul, n, p)) > 0 for n in normals[c])]


@lru_cache(maxsize=4096)
def _cone_normals(rays: tuple[IntVec, ...]) -> tuple[Optional[tuple[IntVec, ...]], bool]:
    """(``dual_basis`` rows, unimodular) of the cone on ``rays``, in their
    order; (None, False) for a degenerate cone.  The cone is unimodular
    exactly when each row pairs to 1 with its own ray.  Cached on the
    rays, up to 4096 cones; the rows are tuples, shared by every report
    holding the cone."""
    rows = dual_basis(rays)
    if rows is None:
        return None, False
    return tuple(rows), all(sum(map(mul, g, u)) == 1 for g, u in zip(rows, rays))


@lru_cache(maxsize=1024)
def validate(fan: Fan) -> ValidationReport:
    """Full validation: structure, primitivity, smoothness,
    face-compatibility, completeness.

    Face compatibility fails on a ridge of ``fan.facets()`` with two
    maximal cones on the same side of it, or on a generic point inside
    two maximal cones; completeness then fails on a ridge in one cone.
    With two cones on opposite sides of every ridge, the cones cover
    every generic point equally often, so one point covered once proves
    the fan complete and face-compatible (two disjoint complete fans
    cover it twice).

    Smoothness and both geometric checks read one ``dual_basis`` per
    maximal cone, its primitive inward facet normals: a cone is
    unimodular exactly when each normal pairs to 1 with its own ray,
    and a degenerate cone has no dual basis.  The determinant is taken
    only to word the first failing cone's ``|det| = d``.  The report
    keeps those bases in ``dual_bases`` and the ridge map in ``facets``
    (both left out of ``as_dict``), so a ``ToricVariety`` reads its cone
    normals, walls and fixed points from them instead of building them
    again.

    Two caches.  Each cone's rows and unimodularity come from
    ``_cone_normals``, keyed on the cone's rays, so the walks, whose
    every model shares most of its cones with the one it was built
    from, eliminate only the cones new to the process.  The report is
    cached on the fan, up to 1024 entries, passed or failed; the walks
    never build a model twice for one fan (``mori``), so its hits come
    from a fan read again, such as a request that reads back a fan an
    earlier surgery registered.
    """
    checks: list[CheckResult] = []

    structural = _structural_check(fan)
    checks.append(
        CheckResult("structure", structural is None, structural or "")
    )
    if structural is not None:
        return ValidationReport(tuple(checks))

    bad_prim = [
        i for i, r in enumerate(fan.rays) if vector_gcd(r) != 1
    ]
    checks.append(
        CheckResult(
            "primitivity",
            not bad_prim,
            "" if not bad_prim else f"ray {bad_prim[0]} = {list(fan.rays[bad_prim[0]])} is not primitive",
        )
    )

    entries = {c: _cone_normals(tuple(fan.rays[i] for i in c)) for c in fan.max_cones}
    normals = {c: rows for c, (rows, _) in entries.items()}
    singular = [c for c, (_, unimodular) in entries.items() if not unimodular]
    detail = ""
    if singular:
        c = singular[0]
        detail = f"cone {list(c)} has |det| = {abs(det_int([fan.rays[i] for i in c]))}"
    checks.append(CheckResult("smoothness", not singular, detail))
    if None in normals.values():
        checks.append(CheckResult("face_compatibility", False, "a maximal cone is degenerate"))
        return ValidationReport(tuple(checks))

    facet_map = fan.facets()
    bad = ""
    for ridge, cones in facet_map.items():
        pair = _same_side_pair(fan, ridge, cones, normals) if len(cones) > 1 else None
        if pair is not None:
            bad = f"cones {list(pair[0])} and {list(pair[1])} lie on the same side of ridge {list(ridge)}"
            if len(cones) > 2:
                bad = f"facet {list(ridge)} lies in {len(cones)} maximal cones; {bad}"
            break
    if not bad:
        p, cover = _covering_cones(fan, normals)
        if len(cover) > 1:
            bad = f"point {p} lies in {len(cover)} maximal cones: " + ", ".join(
                str(list(c)) for c in cover
            )
    checks.append(CheckResult("face_compatibility", not bad, bad))
    if bad:
        return ValidationReport(tuple(checks))

    # Every ridge now lies in one or two cones.
    open_ridge = next((f for f, cs in facet_map.items() if len(cs) == 1), None)
    checks.append(
        CheckResult(
            "completeness",
            open_ridge is None,
            "" if open_ridge is None else f"facet {list(open_ridge)} lies in 1 maximal cones",
        )
    )
    return ValidationReport(tuple(checks), normals, facet_map)


def validated(fan: Fan, *, allow_singular: bool = False) -> ValidationReport:
    """Validate and raise unless the fan passes (smoothness optionally waived)."""
    report = validate(fan)
    if report.ok:
        return report
    if allow_singular and all(
        c.passed for c in report.checks if c.name != "smoothness"
    ):
        return report
    report.raise_if_failed()
