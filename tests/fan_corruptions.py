"""Hypothesis strategies for corrupted copies of the builtin fans.

Each strategy draws fan JSON objects (``{"dim", "rays", "max_cones"}``
dicts) so the same draws feed both ``fan.validate`` and the CLI.
"""

from hypothesis import strategies as st

from toricfano.library import builtin, builtin_names

BUILTIN_FANS = {name: builtin(name).fan for name in builtin_names()}

small_vectors = st.lists(st.integers(-2, 2), min_size=4, max_size=4)


def fan_object(fan) -> dict:
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


@st.composite
def _unimodular(draw):
    """The symmetric Pascal matrix (det 1, no unit column, so it moves
    every small ray) times a few shears and a signed permutation."""
    m = [[1, 1, 1, 1], [1, 2, 3, 4], [1, 3, 6, 10], [1, 4, 10, 20]]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(4)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    perm = draw(st.permutations(range(4)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4))
    return [[s * x for x in m[p]] for p, s in zip(perm, signs)]


@st.composite
def corrupted_fans(draw) -> dict:
    """A builtin fan with a negated or moved ray, a dropped or replaced
    cone, or a second builtin fan (in other coordinates) merged in."""
    obj = fan_object(BUILTIN_FANS[draw(st.sampled_from(sorted(BUILTIN_FANS)))])
    rays, cones = obj["rays"], obj["max_cones"]
    kind = draw(st.sampled_from(["negate", "move", "drop", "replace", "merge"]))
    if kind == "negate":
        i = draw(st.integers(0, len(rays) - 1))
        rays[i] = [-x for x in rays[i]]
    elif kind == "move":
        rays[draw(st.integers(0, len(rays) - 1))] = draw(small_vectors)
    elif kind == "drop":
        del cones[draw(st.integers(0, len(cones) - 1))]
    elif kind == "replace":
        k = draw(st.integers(0, len(cones) - 1))
        cones[k] = sorted(draw(st.sets(st.integers(0, len(rays) - 1), min_size=4, max_size=4)))
    else:
        other = BUILTIN_FANS[draw(st.sampled_from(sorted(BUILTIN_FANS)))]
        m = draw(_unimodular())
        off = len(rays)
        rays += [[sum(a * b for a, b in zip(row, r)) for row in m] for r in other.rays]
        cones += [[off + i for i in c] for c in other.max_cones]
    return obj
