"""Checklists of the four worked constructions, replayed end to end:
one line per claim, printed by ``toricfano replay`` and asserted by the
acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ledger import run_script
from .library import builtin, r3_tower_search
from .mori import (
    classified_fixed_divisors,
    classify_fixed_divisor,
    fixed_prime_divisors,
    mmp_all_for_divisor,
)
from .surgery import extremal_rays
from .variety import ToricVariety


@dataclass
class Checklist:
    items: list[tuple[str, bool]] = field(default_factory=list)

    def check(self, description: str, passed: bool) -> None:
        self.items.append((description, bool(passed)))

    @property
    def ok(self) -> bool:
        return all(p for _, p in self.items)


def _replay_ex61(cl: Checklist) -> None:
    script = "start P4\n" + "blowup point\n" * 8 + "flip dir=s2f s=36\n"
    steps = run_script(script)
    mid = steps[8].state
    final = steps[-1].state
    cl.check(
        "the ledger starts at P4 with (chi(-K), (-K)^4, (-K)^2.c2, rho) = (126, 625, 250, 1)",
        steps[0].state.as_tuple() == (126, 625, 250, 1),
    )
    cl.check("eight point blow-ups of P4 reach chi(-K) = h0(-K) = 6", mid.chi_minusK == 6)
    cl.check("(-K)^4 = -23 before the flips", mid.degK4 == -23)
    cl.check("(-K)^4 = 13 after flipping the 28+8 = 36 loci", final.degK4 == 13)
    cl.check("rho = 9 and chi unchanged by the flips",
             final.rho == 9 and final.chi_minusK == 6)


def _replay_ex52(cl: Checklist) -> None:
    X = builtin("D3")
    cl.check("blow-up of the negative section has rho = 3", X.rho == 3)
    cl.check("it is Fano", X.is_fano)
    exc = X.n_rays - 1
    cl.check("the exceptional divisor is a fixed prime divisor", exc in fixed_prime_divisors(X))
    traces = mmp_all_for_divisor(X, exc)
    by_label = {
        t.terminal_descriptor.type_label: t
        for t in traces
        if t.outcome == "contracted"
    }
    cl.check(
        "its MMPs end in exactly the types (3,2)^sm and (3,0)_other",
        set(by_label) == {"(3,2)^sm", "(3,0)_other"},
    )
    cl.check(
        "a direct smooth (3,2) contraction is one MMP for it",
        "(3,2)^sm" in by_label and by_label["(3,2)^sm"].flip_count == 0,
    )
    cl.check(
        "a flip followed by a (3,0) contraction is another",
        "(3,0)_other" in by_label and by_label["(3,0)_other"].flip_count == 1,
    )
    pairings = set()
    if "(3,0)_other" in by_label:
        flipped = ToricVariety(by_label["(3,0)_other"].steps[0].fan_after)
        pairings = {w.relation[exc] for w in flipped.walls if w.relation[exc] < 0}
    cl.check(
        "after the flip the transformed divisor's negative wall pairs to -2",
        pairings == {-2},
    )


def _replay_ex511(cl: Checklist) -> None:
    X = builtin("B511")
    cl.check("the P1-bundle over P1 x P2 has rho = 3", X.rho == 3)
    cl.check("it is Fano", X.is_fano)
    section = 0
    fixed = section in fixed_prime_divisors(X)
    cl.check("the section divisor is fixed", fixed)
    labels = {
        d.type_label
        for _, d in extremal_rays(X)
        if d.kind == "divisorial" and d.exc_rays == (section,)
    }
    cl.check(
        "it carries divisorial rays of types (3,1)^sm and (3,2)^sm",
        labels == {"(3,1)^sm", "(3,2)^sm"},
    )
    outcomes, label = set(), None
    if fixed:
        rep = classify_fixed_divisor(X, section)
        outcomes, label = set(rep.outcomes), rep.type_label
    cl.check(
        "its MMPs end in exactly those two types",
        outcomes == {"(3,1)^sm", "(3,2)^sm"},
    )
    cl.check(
        "its type is ambiguous between the two",
        label == "ambiguous((3,1)^sm, (3,2)^sm)",
    )


def _replay_ex62(cl: Checklist) -> None:
    tower = r3_tower_search()
    cl.check("a fixed-point pair with a three-flip Fano tower exists", True)
    cl.check("the tower uses exactly 3 flips", tower.flips == 3)
    X = tower.fano
    cl.check("the result is Fano with rho = 5", X.is_fano and X.rho == 5)
    reports = classified_fixed_divisors(X)
    cl.check("it has exactly 6 fixed prime divisors", len(reports) == 6)
    labels = [r.type_label for r in reports]
    cl.check(
        "exactly two of them are smooth point blow-downs",
        labels.count("(3,0)^sm") == 2,
    )
    point_exceptionals = {X.n_rays - 2, X.n_rays - 1}
    smooth_point_rays = {
        r.ray_index for r in reports if r.type_label == "(3,0)^sm"
    }
    cl.check(
        "those two are the exceptional divisors of the point blow-ups",
        smooth_point_rays == point_exceptionals,
    )
    cl.check(
        "the search reproduces the frozen builtin R3 fan",
        X.fan.canonical_key() == builtin("R3").fan.canonical_key(),
    )


REPLAYS = {
    "ex61_ledger": _replay_ex61,
    "ex52": _replay_ex52,
    "ex511": _replay_ex511,
    "ex62": _replay_ex62,
}
