"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TABLE = oracle.load()
BUILTINS = gen.load_builtins(ROOT)


def _pass(workload: str, seed: int) -> workloads.Pass:
    rng = random.Random(f"{workload}:{seed}")
    return workloads.build_pass(workload, rng, gen.Relabeller(BUILTINS, rng), TABLE)


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a, b, c = _pass(workload, 7), _pass(workload, 7), _pass(workload, 8)
    assert (a.files, a.requests) == (b.files, b.requests)
    assert a.files != c.files
    # The kinds of request, and their order, do not depend on the seed.
    assert [r["check"]["kind"] for r in a.requests] == [r["check"]["kind"] for r in c.requests]


def test_generated_fans_are_distinct_relabellings():
    p = _pass("front_door", 3)
    fans = [json.loads(t) for path, t in p.files.items() if path.startswith("in/f")]
    keys = {gen.fan_key(f) for f in fans}
    assert len(keys) == len(fans)
    assert not keys & {gen.fan_key(f) for f in BUILTINS.values()}


def test_benchmark_side_imports_no_toricfano():
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
        "import gen, oracle, run, workloads; "
        "print(any(m.split('.')[0] == 'toricfano' for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT)
    assert out.stdout.strip() == "False"


def _relabelled(name: str, seed: int):
    from toricfano.fan import fan_from_json
    from toricfano.variety import ToricVariety

    obj, _ = gen.Relabeller(BUILTINS, random.Random(seed)).draw(name)
    return ToricVariety(fan_from_json(json.dumps(obj)))


@pytest.mark.parametrize("name", sorted(BUILTINS))
@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_fan_keeps_builtin_invariants(name, seed):
    from toricfano.mori import cone_suite, lefschetz_defect

    X = _relabelled(name, seed)
    want = TABLE["fans"][name]
    assert X.report.ok
    assert X.rho == want["rho"] and X.is_fano == want["fano"]
    s = X.ledger_state()
    assert [s.chi_minusK, s.degK4, s.c2K2, s.rho] == want["ledger"]
    assert lefschetz_defect(X)[0] == want["delta"]
    suite = cone_suite(X)
    for cone in oracle.CONE_NAMES:
        c = getattr(suite, cone)
        assert [len(c.generators), len(c.facet_normals)] == want["cones"][cone]


@pytest.mark.parametrize("name", ["D3", "B511", "Y_tower", "Bl_pt_P4", "F2xP2"])
def test_relabelled_fan_keeps_fixed_divisors_and_chambers(name):
    from toricfano.mori import classified_fixed_divisors, mori_chambers

    X = _relabelled(name, 5)
    want = TABLE["fans"][name]
    assert sorted(r.type_label for r in classified_fixed_divisors(X)) == want["fixed_types"]
    ch = mori_chambers(X)
    got = {"count": ch.count, "edges": len(ch.adjacency), "excluded": len(ch.excluded)}
    assert got == want["chambers"]


# -- oracle ---------------------------------------------------------------


def test_oracle_matches_stated_values():
    fans = TABLE["fans"]
    r3 = fans["R3"]
    assert r3["chambers"] == {"count": 9, "edges": 13, "excluded": 0}
    assert len(r3["fixed_types"]) == 6 and r3["fixed_types"].count("(3,0)^sm") == 2
    assert r3["ledger"] == [66, 305, 170, 5] and r3["fano"]
    assert fans["P4"]["ledger"] == [126, 625, 250, 1]
    bl = fans["Bl_pt_P4"]
    assert (bl["rho"], bl["ledger"][:2], bl["delta"], bl["fano"]) == (2, [111, 544], 1, True)
    assert fans["D3"]["rho"] == 3 and fans["D3"]["fano"]
    assert fans["B511"]["fixed_types"] == ["ambiguous((3,1)^sm, (3,2)^sm)"]
    assert not fans["F2xP2"]["fano"]
    assert TABLE["moves"]["point_blowup"] == [-15, -81, -18, 1]
    assert sorted(map(tuple, TABLE["mmp"]["D3"]["traces"])) == [
        ("contracted", "(3,0)_other", 1),
        ("contracted", "(3,2)^sm", 0),
    ]
    # Eight point blow-ups of P4 then the 36-component flip: 625 -> -23 -> 13.
    state = fans["P4"]["ledger"]
    for _ in range(8):
        state = [a + b for a, b in zip(state, TABLE["moves"]["point_blowup"])]
    assert state[:2] == [6, -23]
    assert state[1] + 36 * TABLE["moves"]["flip_s2f_per_component"][1] == 13


def _result(obj=None, code=0, exc=None, out=None, err=""):
    return {"code": code, "exc": exc, "out": json.dumps(obj) if out is None else out, "err": err, "ns": 1}


R3_INFO = {
    "smooth": True, "rays": 9, "max_cones": 21, "fano": True, "chi_minusK": 66,
    "degK4": 305, "c2K2": 170, "rho": 5, "lefschetz_defect": 2,
}


def test_oracle_accepts_a_right_answer():
    assert oracle.check({"kind": "info", "fan": "R3"}, _result(R3_INFO), [], TABLE) == oracle.OK
    answer = {"chamber_count": 9, "nodes": [str(i) for i in range(9)], "edges": [{}] * 13, "excluded": []}
    assert oracle.check({"kind": "chambers", "fan": "R3"}, _result(answer), [], TABLE) == oracle.OK


@pytest.mark.parametrize(
    "check, result",
    [
        ({"kind": "info", "fan": "R3"}, _result({**R3_INFO, "chi_minusK": 67})),
        ({"kind": "info", "fan": "R3"}, _result({**R3_INFO, "fano": False})),
        ({"kind": "info", "fan": "R3"}, _result(R3_INFO, code=3)),
        ({"kind": "info", "fan": "R3"}, _result(out="not json")),
        (
            {"kind": "chambers", "fan": "R3"},
            _result({"chamber_count": 8, "nodes": list("abcdefgh"), "edges": [{}] * 13, "excluded": []}),
        ),
        (
            {"kind": "fixed", "fan": "R3"},
            _result({"fixed_divisors": [{"type_label": "(3,0)^sm"}] * 6}),
        ),
        ({"kind": "ledger", "final": [6, -23, 88, 9], "steps": 9}, _result({"trajectory": [R3_INFO] * 9})),
        ({"kind": "malformed", "malformed": "bad_json"}, _result(out="error: a\nerror: b", code=2)),
        ({"kind": "malformed", "malformed": "bad_json"}, _result(out="", code=1, err="error")),
        ({"kind": "malformed", "malformed": "bad_json"}, _result(out="", code=None, exc="TypeError: x")),
        ({"kind": "malformed", "malformed": "null_top"}, _result(out="", code=None, exc="KeyError: x")),
    ],
)
def test_oracle_rejects_a_wrong_answer(check, result):
    verdict = oracle.check(check, result, [], TABLE)
    assert verdict not in (oracle.OK, oracle.KNOWN_DEFECT)


def test_known_defect_is_tallied_apart():
    check = {"kind": "malformed", "malformed": "null_top"}
    traceback = _result(out="", code=None, exc="TypeError: argument of type 'NoneType' is not iterable")
    assert oracle.check(check, traceback, [], TABLE) == oracle.KNOWN_DEFECT
    fixed = _result(out="", code=2, err="error: top level must be an object\n")
    assert oracle.check(check, fixed, [], TABLE) == oracle.OK


# -- the worker and tracing -----------------------------------------------


def test_front_door_pass_is_correct_and_tracing_changes_no_output(tmp_path):
    p = _pass("front_door", 11)
    runner = run.Runner(ROOT, tmp_path / "work", deadline=time.monotonic() + run.HARD_LIMIT_S)
    argvs = [r["argv"] for r in p.requests]
    plain = runner.run(p.files, argvs)
    traced = runner.run(p.files, argvs, tmp_path / "spans.jsonl.gz")
    assert run._answers(plain) == run._answers(traced)
    failed, known, reasons = run._check_pass(p, plain, TABLE)
    assert failed == 0, reasons
    assert known == sum(
        r["check"].get("malformed") in oracle.KNOWN_DEFECTS for r in p.requests
    )
    layers = traced["layers"]
    assert layers["cli.requests"] == len(p.requests)
    assert layers["cli.tracebacks"] == known
    assert layers["surgery.blowup_calls"] > 0 and layers["ledger.script_calls"] > 0
    with __import__("gzip").open(tmp_path / "spans.jsonl.gz", "rt") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"name", "start_ns", "end_ns", "parent", "request"}


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chambers", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
