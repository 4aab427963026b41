"""Checks each answer of a pass against ``oracle.json``.

Every expected value is invariant under the relabellings the generator
applies, so one table per builtin fan covers every generated request.
Chained requests (write, then read back) are also checked against the
answers they follow: a read-back must see the fan the write reported.
"""

from __future__ import annotations

import json
from pathlib import Path

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

OK, KNOWN_DEFECT = "ok", "known_defect"

# Malformed inputs that end in a traceback instead of exit 2 in the
# program the benchmark was written against, with the exception each
# raises.  Either that traceback or a clean exit 2 is accepted; the
# traceback is tallied apart, so a fix shows as a drop in that tally.
KNOWN_DEFECTS = {"null_top": "TypeError", "labels_list": "AttributeError"}

CONE_NAMES = ("nef", "mov", "eff", "ne", "mov_curves")


def load() -> dict:
    return json.loads(ORACLE_PATH.read_text())


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _answer(result: dict) -> dict:
    _expect(result["exc"] is None, f"traceback: {result['exc']}")
    _expect(result["code"] == 0, f"exit {result['code']}: {(result['err'] or result['out']).strip()[:200]}")
    return json.loads(result["out"])


def _ledger(obj: dict) -> list[int]:
    return [obj["chi_minusK"], obj["degK4"], obj["c2K2"], obj["rho"]]


def _check_info(obj: dict, fan: dict) -> None:
    _expect(obj["smooth"] is True, "not smooth")
    _expect(obj["rays"] == fan["rays"] and obj["max_cones"] == fan["max_cones"], "fan size")
    _expect(obj["fano"] == fan["fano"], "Fano flag")
    _expect(_ledger(obj) == fan["ledger"], f"ledger {_ledger(obj)} != {fan['ledger']}")
    _expect(obj["lefschetz_defect"] == fan["delta"], "Lefschetz defect")


def _flip_trace(obj: dict) -> dict:
    """The exhaustive-MMP trace that starts with a flip."""
    for t in obj["traces"]:
        if t["steps"] and t["steps"][0]["move"] == "flip":
            return t
    raise Mismatch("no MMP trace starts with a flip")


def flip_argument(answer_text: str) -> str:
    """``--class=...`` for the first flip of an exhaustive-MMP answer."""
    step = _flip_trace(json.loads(answer_text))["steps"][0]
    return "--class=" + ",".join(str(x) for x in step["class"])


def _verify(check: dict, result: dict, results: list[dict], oracle: dict) -> str:
    kind = check["kind"]
    if kind == "malformed":
        known = KNOWN_DEFECTS.get(check["malformed"])
        if known and result["exc"] and result["exc"].split(":", 1)[0] == known:
            return KNOWN_DEFECT
        _expect(result["exc"] is None, f"traceback: {result['exc']}")
        _expect(result["code"] == 2, f"exit {result['code']} on malformed input")
        lines = [ln for ln in (result["out"] + result["err"]).splitlines() if ln.strip()]
        _expect(len(lines) == 1, f"{len(lines)} lines of message")
        return OK
    fan = oracle["fans"].get(check.get("fan"))
    obj = _answer(result)
    if kind in ("info", "info_contracted"):
        _check_info(obj, fan)
        if kind == "info_contracted":
            _expect(obj["hash"] == json.loads(results[check["ref"]]["out"])["output_hash"], "read-back hash")
    elif kind == "validate":
        _expect(obj["ok"] is True and all(c["passed"] for c in obj["checks"]), "validation failed")
        _expect(len(obj["checks"]) == 5, "number of checks")
    elif kind == "cones":
        for name in CONE_NAMES:
            sizes = [len(obj[name]["generators"]), len(obj[name]["facet_normals"])]
            _expect(sizes == fan["cones"][name], f"{name} sizes {sizes}")
    elif kind == "delta":
        _expect(obj["delta"] == fan["delta"], "Lefschetz defect")
        _expect(all(b["holds"] for b in obj["bounds"]) == fan["bounds_hold"], "bounds")
    elif kind == "chambers":
        want = fan["chambers"]
        _expect(obj["chamber_count"] == want["count"], f"{obj['chamber_count']} chambers")
        _expect(len(set(obj["nodes"])) == want["count"], "distinct chamber models")
        _expect(len(obj["edges"]) == want["edges"], f"{len(obj['edges'])} edges")
        _expect(len(obj["excluded"]) == want["excluded"], "excluded walls")
    elif kind == "fixed":
        labels = sorted(d["type_label"] for d in obj["fixed_divisors"])
        _expect(labels == fan["fixed_types"], f"fixed divisor types {labels}")
    elif kind == "ledger":
        states = obj["trajectory"]
        _expect(len(states) == check["steps"], f"{len(states)} states")
        _expect(_ledger(states[-1]) == check["final"], f"final state {_ledger(states[-1])}")
    elif kind == "blowup":
        _expect(obj["center"] == check["center"], "center")
        _expect(list(obj["ledger_before"]) == fan["ledger"], "ledger before")
        deltas = [obj["ledger_deltas"][k] for k in ("chi_minusK", "degK4", "c2K2", "rho")]
        _expect(deltas == oracle["moves"]["point_blowup"], f"point blow-up deltas {deltas}")
    elif kind == "info_blown_up":
        up = json.loads(results[check["ref"]]["out"])
        _expect(obj["hash"] == up["output_hash"], "read-back hash")
        _expect(_ledger(obj) == list(up["ledger_after"]), "read-back ledger")
    elif kind == "contract":
        up = json.loads(results[check["ref"]]["out"])
        _expect(obj["smooth_result"] is True, "contraction left the smooth category")
        _expect(obj["input_hash"] == up["output_hash"], "contracted the wrong fan")
        _expect(obj["output_hash"] == up["input_hash"], "contraction does not undo the blow-up")
        _expect(list(obj["ledger_after"]) == fan["ledger"], "ledger after")
    elif kind == "mmp":
        traces = sorted(
            [t["outcome"], t["steps"][-1]["type_label"], sum(s["move"] == "flip" for s in t["steps"])]
            for t in obj["traces"]
        )
        _expect(traces == oracle["mmp"][check["fan"]]["traces"], f"MMP traces {traces}")
    elif kind == "flip":
        first = _flip_trace(json.loads(results[check["ref"]]["out"]))["steps"][0]
        _expect(obj["output_hash"] == first["fan_after"], "flip result differs from the MMP's")
        d = obj["ledger_deltas"]
        _expect(d["chi_minusK"] == 0 and d["rho"] == 0, "flip changed chi(-K) or rho")
        _expect(abs(d["degK4"]) == len(obj["circuits"]), "(-K)^4 moved by other than the circuit count")
    elif kind == "info_flipped":
        flip = json.loads(results[check["ref"]]["out"])
        _expect(obj["hash"] == flip["output_hash"], "read-back hash")
        _expect(_ledger(obj) == list(flip["ledger_after"]), "read-back ledger")
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return OK


def check(check: dict, result: dict, results: list[dict], oracle: dict) -> str:
    """``OK``, ``KNOWN_DEFECT``, or a one-line reason the answer is wrong."""
    try:
        return _verify(check, result, results, oracle)
    except Mismatch as e:
        return f"{check['kind']}: {e}"
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return f"{check['kind']}: unreadable answer ({type(e).__name__}: {e})"
