"""Seeded input generator for the benchmark.

Reads the frozen builtin fans from ``src/toricfano/data`` as plain JSON
and never imports ``toricfano``, so the program under test only ever sees
the generated fan files.  Every generated fan is a relabelled copy of a
builtin: a random change of basis of Z^dim applied to the rays, followed
by a random permutation of the rays.  Both preserve every invariant the
benchmark checks (Picard number, Fano flag, ledger triple, Lefschetz
defect, cone sizes, fixed-divisor types, chamber graph), so each request
is a distinct fan with a known answer.

The change of basis is a signed permutation of the coordinates: it keeps
the size of every coordinate, so every copy of a fan costs the same exact
arithmetic.  Products of elementary matrices with entries up to 2 made
``fixed`` on R3 cost up to a quarter more on some copies than on others,
which would show as run-to-run spread rather than as a change in the code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path("src") / "toricfano" / "data"


def load_builtins(root: Path) -> dict[str, dict]:
    """Builtin fans by name, as parsed JSON objects."""
    data = Path(root) / DATA_DIR
    fans = {p.stem: json.loads(p.read_text()) for p in sorted(data.glob("*.json"))}
    if not fans:
        raise FileNotFoundError(f"no builtin fans under {data}")
    return fans


def signed_permutation(rng: random.Random, dim: int) -> list[list[int]]:
    """A random signed permutation matrix, an element of GL(dim, Z)."""
    m = [[rng.choice((-1, 1)) * int(i == j) for j in range(dim)] for i in range(dim)]
    rng.shuffle(m)
    return m


def fan_key(obj: dict) -> tuple:
    """Identity of a fan as the program sees it: ordered rays and cone sets."""
    return (
        tuple(tuple(r) for r in obj["rays"]),
        frozenset(frozenset(c) for c in obj["max_cones"]),
    )


def relabel(fan: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """A relabelled copy of ``fan`` and the permutation old ray -> new ray."""
    dim = fan["dim"]
    m = signed_permutation(rng, dim)
    n = len(fan["rays"])
    perm = list(range(n))
    rng.shuffle(perm)
    rays: list = [None] * n
    for i, r in enumerate(fan["rays"]):
        rays[perm[i]] = [sum(m[a][b] * r[b] for b in range(dim)) for a in range(dim)]
    cones = [sorted(perm[i] for i in c) for c in fan["max_cones"]]
    rng.shuffle(cones)
    return {"dim": dim, "rays": rays, "max_cones": cones}, perm


class Relabeller:
    """Draws relabelled copies that are pairwise distinct and never equal
    to their builtin, so no two requests of a run see the same fan."""

    def __init__(self, builtins: dict[str, dict], rng: random.Random):
        self.builtins = builtins
        self.rng = rng
        self.seen = {fan_key(f) for f in builtins.values()}

    def draw(self, name: str) -> tuple[dict, list[int]]:
        while True:
            obj, perm = relabel(self.builtins[name], self.rng)
            key = fan_key(obj)
            if key not in self.seen:
                self.seen.add(key)
                return obj, perm
