"""The benchmark's workloads: one pass of requests per fresh worker.

A pass is a fixed sequence of request kinds; the seed only chooses the
relabelled fans and the parameters filled into them.  Each request is
``{"argv": [...], "check": {...}}``: ``argv`` goes to
``toricfano.cli.main`` and ``check`` tells ``oracle.check`` what a
correct answer is.  An ``argv`` entry may be ``{"flip_class_of": i}``,
which the worker fills in from the answer to request ``i``, the way a
client reads before it writes.  Files a pass needs are returned as
``{relative path: text}``; requests name them relative to the pass
directory, so a pass's answers do not depend on where it runs.
"""

from __future__ import annotations

import json
import random

from gen import Relabeller

WORKLOADS = ("chambers", "fixed_mmp", "front_door")

# Requests per fan.  Each pass has as many requests faster than its middle
# cluster (D3 chambers here; B511 and Y_tower fixed there) as slower ones,
# so the pooled median latency falls inside that cluster rather than on the
# edge between two, where it would jump from run to run.  Short requests
# vary most with machine noise, so the middle cluster gets several samples.
CHAMBERS_PASS = (
    ("R3", ("info", "cones", "chambers")),
    ("D3", ("cones", "chambers", "chambers", "chambers", "chambers")),
    ("Y_tower", ("cones", "chambers")),
)
FIXED_PASS = (
    ("R3", ("fixed",)),
    ("D3", ("info", "fixed", "fixed")),
    ("B511", ("info", "fixed")),
    ("Y_tower", ("info", "fixed")),
)
# rho <= 3 builtins; the front door cycles through them in this order.
SMALL_FANS = ("P4", "P1xP3", "P2xP2", "F2xP2", "Bl_pt_P4", "D3", "B511", "Y_tower")
FRONT_DOOR_ROUNDS = 20

MALFORMED = (
    "bad_json",
    "missing_field",
    "wrong_dim",
    "index_range",
    "incomplete",
    "non_primitive",
    "unknown_name",
    "bad_center",
    "big_center",
    "ledger_order",
    "null_top",  # this and the next are known defects, see oracle.KNOWN_DEFECTS
    "labels_list",
)


class Pass:
    """One pass being assembled: its files and its requests."""

    def __init__(self, relabeller: Relabeller):
        self.relabeller = relabeller
        self.files: dict[str, str] = {}
        self.requests: list[dict] = []

    def fan_file(self, name: str) -> tuple[str, dict, list[int]]:
        obj, perm = self.relabeller.draw(name)
        path = f"in/f{len(self.files)}.json"
        self.files[path] = json.dumps(obj)
        return path, obj, perm

    def text_file(self, text: str, suffix: str) -> str:
        path = f"in/t{len(self.files)}{suffix}"
        self.files[path] = text
        return path

    def add(self, argv: list, **check) -> int:
        self.requests.append({"argv": ["--json", "--registry", "reg", *argv], "check": check})
        return len(self.requests) - 1


def build_pass(workload: str, rng: random.Random, relabeller: Relabeller, oracle: dict) -> Pass:
    p = Pass(relabeller)
    if workload in ("chambers", "fixed_mmp"):
        for name, cmds in CHAMBERS_PASS if workload == "chambers" else FIXED_PASS:
            for cmd in cmds:
                p.add([cmd, p.fan_file(name)[0]], kind=cmd, fan=name)
    elif workload == "front_door":
        for r in range(FRONT_DOOR_ROUNDS):
            _front_door_round(p, r, rng, oracle)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return p


def _front_door_round(p: Pass, r: int, rng: random.Random, oracle: dict) -> None:
    """Reads every round; a write chain every fourth round and, two rounds
    later, a flip chain that reads before it writes."""

    def small(k: int) -> str:
        return SMALL_FANS[(5 * r + k) % len(SMALL_FANS)]

    for k, cmd in enumerate(("info", "validate", "cones", "delta", "validate")):
        name = small(k)
        p.add([cmd, p.fan_file(name)[0]], kind=cmd, fan=name)
    for _ in range(2):
        text, final, steps = _ledger_script(rng, oracle)
        p.add(["ledger", p.text_file(text, ".txt")], kind="ledger", final=final, steps=steps)
    for k in range(2):
        _malformed(p, MALFORMED[(2 * r + k) % len(MALFORMED)], small(5 + k), r)
    if r % 4 == 0:
        # Write, read back, undo, read back.
        name = small(7)
        path, obj, _ = p.fan_file(name)
        center = rng.choice(obj["max_cones"])
        up, down = f"b{r}", f"c{r}"
        blow = p.add(
            ["blowup", path, "--center", ",".join(map(str, center)), "--as", up],
            kind="blowup", fan=name, center=sorted(center),
        )
        p.add(["info", up], kind="info_blown_up", fan=name, ref=blow)
        contract = p.add(
            ["contract", up, "--ray", str(len(obj["rays"])), "--as", down],
            kind="contract", fan=name, ref=blow,
        )
        p.add(["info", down], kind="info_contracted", fan=name, ref=contract)
    if r % 4 == 2:
        # Flip the class an exhaustive MMP reports, then read the result back.
        path, _, perm = p.fan_file("D3")
        divisor = perm[oracle["mmp"]["D3"]["ray"]]  # D3's exceptional divisor
        mmp = p.add(["mmp", path, "--divisor", str(divisor), "--exhaustive"], kind="mmp", fan="D3")
        flip = p.add(["flip", path, {"flip_class_of": mmp}, "--as", f"f{r}"], kind="flip", fan="D3", ref=mmp)
        p.add(["info", f"f{r}"], kind="info_flipped", fan="D3", ref=flip)


def _ledger_script(rng: random.Random, oracle: dict) -> tuple[str, list[int], int]:
    """A move script, its final (chi, degK4, c2K2, rho) and its number of
    states.  Comments and blank lines are sprinkled in; they must not
    change the trajectory."""
    deltas = oracle["moves"]
    if rng.random() < 0.5:
        state = list(oracle["fans"]["P4"]["ledger"])
        k = rng.randint(0, 8)
        moves = ["start P4"] + ["blowup point"] * k
        applied = [deltas["point_blowup"]] * k
        if k == 8:
            moves.append("flip dir=s2f s=36")
            applied.append([36 * x for x in deltas["flip_s2f_per_component"]])
    else:
        state = list(oracle["fans"][rng.choice(SMALL_FANS)]["ledger"])
        chi, deg, c2, rho = state
        moves = [f"start custom chi={chi} degK4={deg} c2K2={c2} rho={rho}"]
        k = rng.randint(0, 2)
        moves += ["blowup point"] * k
        applied = [deltas["point_blowup"]] * k
        if rng.random() < 0.5:
            moves.append("blowup plane")
            applied.append(deltas["plane_blowup"])
    for d in applied:
        state = [a + b for a, b in zip(state, d)]
    lines = []
    for i, m in enumerate(moves):
        if rng.random() < 0.3:
            lines.append(rng.choice(["", "# comment", "   "]))
        lines.append(m + (f"  # move {i}" if rng.random() < 0.3 else ""))
    return "\n".join(lines) + "\n", state, len(moves)


def _malformed(p: Pass, kind: str, name: str, r: int) -> None:
    check = {"kind": "malformed", "malformed": kind}
    if kind == "unknown_name":
        p.add(["info", f"no_such_fan_{r}"], **check)
    elif kind == "ledger_order":
        p.add(["ledger", p.text_file("blowup point\nstart P4\n", ".txt")], **check)
    elif kind == "null_top":
        p.add(["validate", p.text_file("null", ".json")], **check)
    elif kind in ("bad_center", "big_center"):
        center = "0,one" if kind == "bad_center" else "0,1,2,3,4"
        p.add(["blowup", p.fan_file(name)[0], "--center", center, "--as", f"x{r}"], **check)
    else:
        obj, _ = p.relabeller.draw(name)
        cmd, bad = _corrupt(kind, obj)
        p.add([cmd, p.text_file(bad, ".json")], **check)


def _corrupt(kind: str, obj: dict) -> tuple[str, str]:
    """The command to send a corrupted copy of ``obj`` to, and the copy."""
    rays = [list(v) for v in obj["rays"]]
    cones = [list(c) for c in obj["max_cones"]]
    bad = {"dim": obj["dim"], "rays": rays, "max_cones": cones}
    if kind == "bad_json":
        text = json.dumps(bad)
        return "info", text[: len(text) // 2]
    if kind == "missing_field":
        del bad["max_cones"]
        return "validate", json.dumps(bad)
    if kind == "wrong_dim":
        rays[0].pop()
        return "info", json.dumps(bad)
    if kind == "index_range":
        cones[0][0] = len(rays)
        return "cones", json.dumps(bad)
    if kind == "incomplete":
        cones.pop(0)
        return "info", json.dumps(bad)
    if kind == "non_primitive":
        rays[0] = [2 * x for x in rays[0]]
        return "delta", json.dumps(bad)
    if kind == "labels_list":
        bad["labels"] = ["E"]
        return "info", json.dumps(bad)
    raise ValueError(f"unknown malformed kind {kind!r}")
