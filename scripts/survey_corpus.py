"""Survey every builtin fan: Picard number, Fano flag, anticanonical
ledger, Lefschetz defect, fixed-divisor census, chamber count, and one
line of its divisorial extremal rays: the exceptional ray and label,
with E's relation coefficient in brackets on a contraction to a point.

Usage:  python3 scripts/survey_corpus.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from toricfano.library import builtin, builtin_names
from toricfano.mori import (
    classified_fixed_divisors,
    lefschetz_defect,
    mori_chambers,
)
from toricfano.surgery import extremal_rays


def divisorial_rays(X) -> str:
    out = []
    for _, d in extremal_rays(X):
        if d.kind == "divisorial":
            (e,) = d.exc_rays
            k = f"[{d.relation_sample[e]}]" if d.image_dim == 0 else ""
            out.append(f"{e}:{d.type_label}{k}")
    return ", ".join(out) or "none"


def main() -> None:
    header = (
        f"{'name':<10} {'rho':>3} {'fano':>5} {'chi(-K)':>8} {'(-K)^4':>7} "
        f"{'(-K)^2.c2':>10} {'delta':>5} {'fixed':>6} {'chambers':>8}"
    )
    print(header)
    print("-" * len(header))
    for name in builtin_names():
        X = builtin(name)
        s = X.ledger_state()
        delta, _ = lefschetz_defect(X)
        fixed = classified_fixed_divisors(X)
        types = ", ".join(
            f"{r.ray_index}:{r.type_label}" for r in fixed
        )
        chambers = mori_chambers(X).count
        print(
            f"{name:<10} {X.rho:>3} {str(X.is_fano):>5} {s.chi_minusK:>8} "
            f"{s.degK4:>7} {s.c2K2:>10} {delta:>5} {len(fixed):>6} {chambers:>8}"
        )
        if types:
            print(f"{'':<10}   fixed divisors: {types}")
        print(f"{'':<10}   divisorial rays: {divisorial_rays(X)}")


if __name__ == "__main__":
    main()
