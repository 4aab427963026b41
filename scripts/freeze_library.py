"""Regenerate the frozen fan data files shipped with the package.

Run from the repository root:  python3 scripts/freeze_library.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from toricfano.fan import fan_to_json
from toricfano.library import BUILTIN_BUILDERS, r3_tower_search

PROVENANCE = {
    "P4": "fan of projective 4-space: unit rays plus their negative sum",
    "P1xP3": "product fan P1 x P3",
    "P2xP2": "product fan P2 x P2",
    "F2xP2": "product fan of the second Hirzebruch surface with P2 (not Fano)",
    "Bl_pt_P4": "star subdivision of the cone on e1..e4 in the P4 fan",
    "D3": "blow-up of P(O+O(1)+O(2)) over P2 along the invariant section "
    "with normal bundle O(-1)+O(-2)",
    "B511": "P(O+O(1,1)) over P1 x P2; the pure fiber ray cuts the section "
    "with normal bundle O(-1,-1)",
    "Y_tower": "Bl_pt P4 blown up along the transform of an invariant plane "
    "through the point",
}


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "toricfano" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, builder in BUILTIN_BUILDERS.items():
        X = builder()
        obj = json.loads(fan_to_json(X.fan))
        obj["name"], obj["provenance"] = name, PROVENANCE[name]
        (out_dir / f"{name}.json").write_text(json.dumps(obj, sort_keys=True) + "\n")
        print(f"wrote {name}: {X.n_rays} rays, rho {X.rho}")

    tower = r3_tower_search()
    obj = json.loads(fan_to_json(tower.fano.fan))
    obj["name"] = "R3"
    obj["provenance"] = (
        "two-point blow-up of Y_tower at the fixed points "
        f"{list(tower.points[0])} and {list(tower.points[1])}, "
        "followed by three anticanonically positive flips"
    )
    (out_dir / "R3.json").write_text(json.dumps(obj, sort_keys=True) + "\n")
    print(f"wrote R3: {tower.fano.n_rays} rays, rho {tower.fano.rho}")


if __name__ == "__main__":
    main()
