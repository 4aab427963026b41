import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import toricfano
from fan_corruptions import BUILTIN_FANS, corrupted_fans, fan_object
from toricfano.cli import main
from toricfano.fan import fan_to_json
from toricfano.library import bl_pt_p4, p4


@pytest.fixture()
def registry(tmp_path):
    return str(tmp_path / "fans")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_p4(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "info", "P4")
    assert code == 0
    assert "rho" in out and "126" in out and "625" in out


def test_info_json_round_trips(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "--json", "info", "Bl_pt_P4")
    assert code == 0
    obj = json.loads(out)
    assert json.dumps(obj, sort_keys=True) == out.strip()
    assert obj["rho"] == 2
    assert obj["chi_minusK"] == 111
    assert obj["degK4"] == 544
    assert obj["lefschetz_defect"] == 1
    assert obj["fano"] is True


def test_validate_good_and_bad(capsys, registry, tmp_path):
    good = tmp_path / "p4.json"
    good.write_text(fan_to_json(p4().fan))
    code, out, _ = run(capsys, "--registry", registry, "validate", str(good))
    assert code == 0
    assert "pass" in out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "--registry", registry, "validate", str(bad))
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and "invalid JSON" in err

    incomplete = tmp_path / "incomplete.json"
    obj = json.loads(fan_to_json(p4().fan))
    obj["max_cones"] = obj["max_cones"][1:]
    incomplete.write_text(json.dumps(obj))
    code, out, err = run(capsys, "--registry", registry, "validate", str(incomplete))
    assert code == 2
    assert "completeness" in out
    assert err.splitlines() == ["error: completeness: facet [0, 1, 2] lies in 1 maximal cones"]


@pytest.mark.parametrize("top", ["null", "[1, 2]", '"dim"', "4"])
def test_validate_rejects_non_object_top_level(capsys, registry, tmp_path, top):
    path = tmp_path / "top.json"
    path.write_text(top)
    code, out, err = run(capsys, "--registry", registry, "validate", str(path))
    assert code == 2
    assert len((out + err).strip().splitlines()) == 1
    assert "must be an object" in out + err


@pytest.mark.parametrize("labels", [["E"], "E", None, 5])
def test_validate_rejects_non_object_labels(capsys, registry, tmp_path, labels):
    obj = json.loads(fan_to_json(p4().fan))
    obj["labels"] = labels
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "--registry", registry, "validate", str(path))
    assert code == 2
    assert len((out + err).strip().splitlines()) == 1
    assert "'labels' must be an object" in out + err


@pytest.mark.parametrize("value", [None, 5, [1], {}])
def test_fan_file_label_must_be_a_string(capsys, registry, tmp_path, value):
    obj = json.loads(fan_to_json(p4().fan))
    obj["labels"] = {"0": value}
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "--registry", registry, "info", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: label '0' must be a string\n"


def test_blowup_then_info_from_registry(capsys, registry):
    code, out, _ = run(
        capsys, "--registry", registry, "blowup", "P4", "--center", "0,1,2,3", "--as", "B"
    )
    assert code == 0
    code, out, _ = run(capsys, "--registry", registry, "--json", "info", "B")
    assert code == 0
    assert json.loads(out)["chi_minusK"] == 111


def test_surgery_report_has_deltas(capsys, registry):
    code, out, _ = run(
        capsys, "--registry", registry, "--json",
        "blowup", "P4", "--center", "0,1,2,3",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ledger_deltas"] == {
        "chi_minusK": -15, "degK4": -81, "c2K2": -18, "rho": 1
    }
    assert obj["input_hash"] != obj["output_hash"]
    assert obj["output"] == "P4_blowup"


@pytest.mark.parametrize("absolute", [True, False])
def test_surgery_on_a_path_registers_under_the_file_name(capsys, tmp_path, monkeypatch, absolute):
    (tmp_path / "in").mkdir()
    path = tmp_path / "in" / "x.json"
    path.write_text(fan_to_json(p4().fan) + "\n")
    monkeypatch.chdir(tmp_path)
    name = str(path) if absolute else "in/x.json"
    code, out, err = run(
        capsys, "--registry", "reg", "--json", "blowup", name, "--center", "0,1,2,3"
    )
    assert code == 0, err
    obj = json.loads(out)
    assert obj["output"] == "x_blowup"
    assert obj["registered"] == str(Path("reg", "x_blowup.json"))
    assert sorted(p.name for p in (tmp_path / "in").iterdir()) == ["x.json"]
    code, out, _ = run(capsys, "--registry", "reg", "--json", "info", "x_blowup")
    assert code == 0
    assert json.loads(out)["hash"] == obj["output_hash"]


def test_mmp_table(capsys, registry):
    code, out, _ = run(
        capsys, "--registry", registry, "mmp", "Bl_pt_P4", "--divisor", "5"
    )
    assert code == 0
    assert "(3,0)^sm" in out
    assert "contracted" in out


def test_mmp_minusK_empty(capsys, registry):
    code, out, _ = run(
        capsys, "--registry", registry, "--json", "mmp", "Bl_pt_P4", "--divisor", "minusK"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["traces"][0]["outcome"] == "nef"
    assert obj["traces"][0]["steps"] == []


def test_mmp_exhaustive_flag_after_subcommand(capsys, registry):
    code, out, _ = run(
        capsys, "--registry", registry, "--json",
        "mmp", "D3", "--divisor", "6", "--exhaustive",
    )
    assert code == 0
    traces = json.loads(out)["traces"]
    labels = {t["steps"][-1]["type_label"] for t in traces}
    assert labels == {"(3,2)^sm", "(3,0)_other"}


def test_mmp_default_is_the_first_exhaustive_trace(capsys, registry):
    for divisor in ("6", "minusK"):
        args = ("--registry", registry, "--json", "mmp", "D3", "--divisor", divisor)
        code, out, _ = run(capsys, *args)
        assert code == 0
        code, out_all, _ = run(capsys, *args, "--exhaustive")
        assert code == 0
        assert json.loads(out)["traces"] == json.loads(out_all)["traces"][:1]


def test_fixed_step_cap_allows_exactly_max_steps(capsys, registry):
    # The MMPs of both fixed divisors of D3 take at most two steps.
    code, out, err = run(capsys, "--registry", registry, "fixed", "D3", "--max-steps", "2")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "--registry", registry, "fixed", "D3", "--max-steps", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.rstrip().endswith("within the step cap of 1")


@pytest.mark.parametrize("where", ["before", "after"])
def test_negative_max_steps_is_refused_at_parse_time(capsys, registry, where):
    cap = ["--max-steps", "-1"]
    argv = ["--registry", registry] + (cap if where == "before" else [])
    argv += ["mmp", "D3", "--divisor", "6"] + (cap if where == "after" else [])
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert e.value.code == 2 and out.out == ""
    assert out.err.splitlines()[-1].endswith("error: argument --max-steps: must be at least 0, got -1")


@pytest.mark.parametrize("where", ["before", "after"])
def test_non_integer_max_steps_is_refused_at_parse_time(capsys, registry, where):
    cap = ["--max-steps", "abc"]
    argv = ["--registry", registry] + (cap if where == "before" else [])
    argv += ["fixed", "D3"] + (cap if where == "after" else [])
    with pytest.raises(SystemExit) as e:
        main(argv)
    out = capsys.readouterr()
    assert e.value.code == 2 and out.out == ""
    assert out.err.splitlines()[-1].endswith("invalid int value: 'abc'")


def test_a_non_flippable_negative_ray_names_its_model(capsys, registry):
    # The MMP of ray 2 on R3 blown up along (2, 4, 6) meets the ray on a
    # model it reached, not on the input; the relation is over that
    # model's rays.
    code, out, err = run(
        capsys, "--registry", registry, "--json", "blowup", "R3", "--center", "2,4,6", "--as", "W"
    )
    assert code == 0, err
    assert json.loads(out)["output_hash"] == "30cfc8173ed38cb6"
    line = (
        "error: negative small ray [0, 0, -1, 0, 0, -1] with non-flippable circuit"
        " [0, 0, -1, 0, 0, 1, -1, 0, 0, 1] on fan 4972dca9772f53f4\n"
    )
    for argv in (["fixed", "W"], ["mmp", "W", "--divisor", "2", "--exhaustive"]):
        code, out, err = run(capsys, "--registry", registry, *argv)
        assert (code, out, err) == (2, "", line)


def test_fixed_on_a_non_fano_blowup_reports_the_ambiguous_divisor(capsys, registry):
    # R3 blown up along (7, 8) has rho = 6 and is not Fano; the MMPs of
    # ray 9 end in two contraction types, which is reported, not refused.
    code, out, err = run(
        capsys, "--registry", registry, "--json", "blowup", "R3", "--center", "7,8", "--as", "R3_78"
    )
    assert code == 0, err
    assert json.loads(out)["output_hash"] == "fb664a28d67d869f"
    code, out, err = run(capsys, "--registry", registry, "--json", "info", "R3_78")
    assert (code, json.loads(out)["rho"], json.loads(out)["fano"]) == (0, 6, False)
    code, out, err = run(capsys, "--registry", registry, "--json", "fixed", "R3_78")
    assert (code, err) == (0, "")
    labels = {r["ray_index"]: r["type_label"] for r in json.loads(out)["fixed_divisors"]}
    assert labels[9] == "ambiguous((3,1)^sm, (3,2)^sm)"


def test_python_dash_m_toricfano_runs_the_cli():
    src = str(Path(toricfano.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "toricfano", "--json", "info", "P4"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["hash"] == "c490d0128ba8b932"


def test_no_command_that_prints_a_hash_loads_openssl(registry):
    # hashlib maps OpenSSL's libcrypto, 3.7 MB resident, on import.
    src = str(Path(toricfano.__file__).resolve().parents[1])
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from toricfano import cli\n"
        "hashes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    hashes.append(out.getvalue())\n"
        "print(json.dumps([sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)), hashes]))\n"
    )
    commands = [
        ["--json", "info", "R3"],
        ["--json", "chambers", "R3"],
        ["--json", "mmp", "D3", "--divisor", "6", "--exhaustive"],
        ["--registry", registry, "--json", "blowup", "P4", "--center", "0,1,2,3", "--as", "Y"],
    ]
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    loaded, outputs = json.loads(done.stdout)
    assert loaded == []
    info, chambers, mmp, blowup = map(json.loads, outputs)
    assert info["hash"] == "f04e1170cac0916e" and info["hash"] in chambers["nodes"]
    assert mmp["traces"] and all(s["fan_after"] for t in mmp["traces"] for s in t["steps"])
    assert (blowup["input_hash"], blowup["output_hash"]) == ("c490d0128ba8b932", "87fbc32871276ade")


def test_fixed_table(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "fixed", "Bl_pt_P4")
    assert code == 0
    assert "(3,0)^sm" in out


def test_cones_json(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "--json", "cones", "Bl_pt_P4")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) >= {"nef", "mov", "eff", "ne", "mov_curves"}
    assert obj["nef"] == obj["mov"]


def test_delta_commands(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "delta", "P2xP2")
    assert code == 0
    assert "lefschetz defect: 0" in out


def test_chambers_d3(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "--json", "chambers", "D3")
    assert code == 0
    obj = json.loads(out)
    assert obj["chamber_count"] == 2
    assert len(obj["edges"]) == 1


def test_chambers_table_has_one_row_per_edge(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "--json", "chambers", "D3")
    edges = json.loads(out)["edges"]
    code, out, err = run(capsys, "--registry", registry, "chambers", "D3")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "chambers: 2"
    assert lines[1].split() == ["from", "to", "flipped", "class"]
    rows = lines[3:]
    assert len(rows) == len(edges) == 1
    for row, edge in zip(rows, edges):
        assert row.split(None, 2) == [edge["from"], edge["to"], str(edge["flipped_class"])]


def test_chambers_text_lists_the_excluded_walls(capsys, registry):
    code, _, err = run(capsys, "--registry", registry, "blowup", "R3", "--center", "0,2,4", "--as", "V")
    assert code == 0, err
    code, out, err = run(capsys, "--registry", registry, "--json", "chambers", "V")
    excluded = json.loads(out)["excluded"]
    code, out, err = run(capsys, "--registry", registry, "chambers", "V")
    assert code == 0 and err == ""
    lines = [line for line in out.splitlines() if line.startswith("excluded: ")]
    assert lines == [f"excluded: {e}" for e in excluded]
    assert len(lines) == 15
    assert lines[-1] == "excluded: coverage of the movable cone not verified (walls excluded)"


def test_cones_text_lists_each_cone(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "--json", "cones", "P4")
    obj = json.loads(out)
    code, out, err = run(capsys, "--registry", registry, "cones", "P4")
    assert code == 0 and err == ""
    expected = []
    for name in ("nef", "mov", "eff", "ne", "mov_curves"):
        expected += [
            f"{name}:",
            f"  generators    {obj[name]['generators']}",
            f"  facet normals {obj[name]['facet_normals']}",
        ]
    assert out.splitlines() == expected


@pytest.mark.parametrize(
    "command",
    ["validate", "info", "blowup", "contract", "flip", "mmp",
     "fixed", "chambers", "cones", "delta", "ledger", "replay"],
)
def test_every_subcommand_help_lists_the_global_flags(capsys, command):
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    out = capsys.readouterr()
    assert e.value.code == 0 and out.err == ""
    assert out.out.startswith(f"usage: toricfano {command} ")
    for flag in ("--json", "--registry REGISTRY", "--max-steps N", "--exhaustive"):
        assert flag in out.out


def test_ledger_script(capsys, registry, tmp_path):
    script = tmp_path / "moves.txt"
    script.write_text("start P4\n" + "blowup point\n" * 8 + "flip dir=s2f s=36\n")
    code, out, _ = run(capsys, "--registry", registry, "ledger", str(script))
    assert code == 0
    assert "-23" in out and "13" in out

    code, out, _ = run(capsys, "--registry", registry, "--json", "ledger", str(script))
    traj = json.loads(out)["trajectory"]
    assert traj[-1]["degK4"] == 13
    assert traj[-1]["rho"] == 9


def test_ledger_bad_script(capsys, registry, tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text("blowup point\n")
    code, _, err = run(capsys, "--registry", registry, "ledger", str(script))
    assert code == 2
    assert "start" in err


def test_ledger_on_a_directory_is_input_error(capsys, registry, tmp_path):
    code, out, err = run(capsys, "--registry", registry, "ledger", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {tmp_path}: ") and "Is a directory" in err


def test_ledger_on_non_utf8_script_is_input_error(capsys, registry, tmp_path):
    script = tmp_path / "latin1.txt"
    script.write_bytes("start P4\n# caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "--registry", registry, "ledger", str(script))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {script}: ") and "can't decode" in err


def test_registry_that_is_a_file_is_input_error(capsys, tmp_path):
    registry = tmp_path / "taken"
    registry.write_text("not a directory\n")
    code, out, err = run(
        capsys, "--registry", str(registry), "blowup", "P4", "--center", "0,1,2,3", "--as", "B"
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot register 'B' in {registry}: ") and "File exists" in err


@pytest.mark.parametrize("name", ["a/b", "..", "a/", "/abs", "", "."])
def test_as_name_must_be_one_path_component(capsys, registry, name):
    code, out, err = run(
        capsys, "--registry", registry, "blowup", "P4", "--center", "0,1,2,3", "--as", name
    )
    assert code == 2 and out == ""
    assert err == f"error: --as {name!r} is not a single path component\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "P4", "--center", "0,1,2,3"],
        ["contract", "Bl_pt_P4", "--ray", "5"],
        ["flip", "D3", "--class", "0,-1,0"],
    ],
)
def test_a_refused_name_runs_no_surgery(capsys, registry, monkeypatch, argv):
    from toricfano import cli

    def surgery(*args, **kwargs):
        raise AssertionError("surgery ran before --as was checked")

    for move in ("blowup", "contract", "flip", "extremal_rays"):
        monkeypatch.setattr(cli, move, surgery)
    code, out, err = run(capsys, "--registry", registry, *argv, "--as", "a/b")
    assert code == 2 and out == ""
    assert err == "error: --as 'a/b' is not a single path component\n"
    assert not Path(registry).exists() or not any(Path(registry).iterdir())



@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "P4", "--center", "0,1,2,3"],
        ["contract", "Bl_pt_P4", "--ray", "5"],
        ["flip", "D3", "--class", "0,-1,0"],
    ],
)
def test_an_as_name_ending_in_json_is_refused_before_surgery(
    capsys, registry, monkeypatch, argv
):
    # Registered as x.json.json, it could not be read back: any name
    # ending in .json resolves as a file path.
    from toricfano import cli

    def surgery(*args, **kwargs):
        raise AssertionError("surgery ran before --as was checked")

    for move in ("blowup", "contract", "flip", "extremal_rays"):
        monkeypatch.setattr(cli, move, surgery)
    code, out, err = run(capsys, "--registry", registry, *argv, "--as", "x.json")
    assert code == 2 and out == ""
    assert err == "error: --as 'x.json' must not end in .json: it reads back as a path\n"
    assert not Path(registry).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "P4", "--center", "0,1,2,3"],
        ["contract", "Bl_pt_P4", "--ray", "5"],
        ["flip", "D3", "--class", "0,-1,0"],
    ],
)
def test_as_a_builtin_name_is_refused_before_surgery(capsys, registry, monkeypatch, argv):
    # Registered as P4.json, the result would never be read back:
    # ``info P4`` reads the builtin.
    from toricfano import cli

    def surgery(*args, **kwargs):
        raise AssertionError("surgery ran before --as was checked")

    for move in ("blowup", "contract", "flip", "extremal_rays"):
        monkeypatch.setattr(cli, move, surgery)
    code, out, err = run(capsys, "--registry", registry, *argv, "--as", "P4")
    assert code == 2 and out == ""
    assert err == "error: --as 'P4' is a builtin's name: it reads back as the builtin\n"
    assert not Path(registry).exists()


def test_a_builtin_name_reads_the_builtin_over_the_registry(capsys, registry):
    # A P4.json left in the registry does not shadow the builtin.
    Path(registry).mkdir()
    (Path(registry) / "P4.json").write_text(fan_to_json(bl_pt_p4().fan) + "\n")
    code, out, _ = run(capsys, "--registry", registry, "--json", "info", "P4")
    assert code == 0
    obj = json.loads(out)
    assert (obj["hash"], obj["chi_minusK"]) == ("c490d0128ba8b932", 126)


def test_a_registered_name_reads_over_a_directory_of_that_name(capsys, registry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "B").mkdir()
    code, out, err = run(
        capsys, "--registry", registry, "--json", "blowup", "P4", "--center", "0,1,2,3", "--as", "B"
    )
    assert code == 0, err
    blown_up = json.loads(out)["output_hash"]
    code, out, err = run(capsys, "--registry", registry, "--json", "info", "B")
    assert code == 0, err
    assert json.loads(out)["hash"] == blown_up


def test_a_bare_name_loads_a_file_in_the_working_directory(capsys, registry, tmp_path, monkeypatch):
    # Neither a builtin nor registered, the name is read as a path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "myfan").write_text(fan_to_json(p4().fan) + "\n")
    code, out, err = run(capsys, "--registry", registry, "--json", "info", "myfan")
    assert code == 0, err
    obj = json.loads(out)
    assert (obj["name"], obj["hash"]) == ("myfan", "c490d0128ba8b932")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["blowup", "P4", "--center", "a,b"],
         "--center must be a comma-separated list of integers"),
        (["mmp", "D3", "--divisor", "1,2"], "divisor vector must have 7 entries"),
        (["mmp", "D3", "--divisor", "x"],
         "divisor must be a ray index, a coefficient vector, or 'minusK'"),
        (["mmp", "D3", "--divisor", "99"], "ray index 99 out of range"),
        (["flip", "D3", "--class", "1,0"], "--class must have rho = 3 coordinates"),
        (["ledger", "nofile.txt"], "no such file: nofile.txt"),
    ],
)
def test_argument_errors_are_one_line_input_errors(
    capsys, registry, tmp_path, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "--registry", registry, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_mmp_of_a_divisor_vector_can_end_fiber_type(capsys, registry):
    # -D_0 on P4 is negative on its only extremal ray, the contraction to
    # a point.
    code, out, err = run(
        capsys, "--registry", registry, "--json", "mmp", "P4", "--divisor=-1,0,0,0,0"
    )
    assert code == 0 and err == ""
    (trace,) = json.loads(out)["traces"]
    assert trace["outcome"] == "fiber_type" and trace["steps"] == []


def test_mmp_of_the_zero_divisor_is_nef(capsys, registry):
    # "contracted" ends a walk only after a contraction step.
    code, out, err = run(
        capsys, "--registry", registry, "--json", "mmp", "D3", "--divisor", "0,0,0,0,0,0,0"
    )
    assert code == 0 and err == ""
    (trace,) = json.loads(out)["traces"]
    assert trace["outcome"] == "nef" and trace["steps"] == []

def test_blowup_center_that_repeats_a_ray_is_input_error(capsys, registry):
    # 0,0,1 would star-subdivide at 2u0 + u1 into repeated cones.
    code, out, err = run(capsys, "--registry", registry, "blowup", "P4", "--center", "0,0,1")
    assert code == 2 and out == ""
    assert err == "error: center [0, 0, 1] repeats ray 0\n"
    assert not Path(registry, "P4_blowup.json").exists()


@pytest.mark.parametrize(
    "rays",
    [
        [[1, 0], [0, 1], [-1, -1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    ],
)
def test_blowup_of_a_fan_without_a_ledger_registers_nothing(capsys, registry, tmp_path, rays):
    # Projective space of dimension 2 or 3: the blow-up exists, but the
    # anticanonical ledger needs a 4-fold, so the command fails before
    # registering.
    dim = len(rays[0])
    cones = [[i for i in range(dim + 1) if i != j] for j in range(dim + 1)]
    path = tmp_path / "pn.json"
    path.write_text(json.dumps({"dim": dim, "rays": rays, "max_cones": cones}))
    center = ",".join(str(i) for i in range(dim))
    code, out, err = run(capsys, "--registry", registry, "blowup", str(path), "--center", center)
    assert code == 2 and out == ""
    assert err == "error: the anticanonical ledger is implemented for 4-folds\n"
    assert not Path(registry).exists() or not any(Path(registry).iterdir())


LOW_DIMENSIONAL_FANS = {
    "P1": (1, [[1], [-1]], [[0], [1]]),
    "P2": (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
    "P3": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    "Bl_pt_P3": (
        3,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
        [[0, 1, 4], [0, 2, 4], [1, 2, 4], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    ),
    "F1": (2, [[1, 0], [0, 1], [-1, 1], [0, -1]], [[0, 1], [1, 2], [2, 3], [0, 3]]),
}
NO_LEDGER = "the anticanonical ledger is implemented for 4-folds"


@pytest.mark.parametrize("name", sorted(LOW_DIMENSIONAL_FANS))
@pytest.mark.parametrize(
    "command", ["validate", "cones", "fixed", "info", "blowup", "chambers", "delta", "mmp", "contract", "flip"]
)
def test_every_fan_command_on_a_fan_below_dimension_4_ends_in_one_line(capsys, registry, tmp_path, name, command):
    # Every layer but the 4-fold ledger runs in any dimension: the
    # commands that read the fan exit 0, and info and blowup refuse at
    # the ledger.  contract and flip refuse their arguments in one line:
    # these fans have no divisorial ray on ray 0 and no small ray.
    dim, rays, cones = LOW_DIMENSIONAL_FANS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"dim": dim, "rays": rays, "max_cones": cones}))
    rho = len(rays) - dim
    extra = {
        "blowup": ["--center", "0,1"],
        "mmp": ["--divisor", "0"],
        "contract": ["--ray", "0"],
        "flip": ["--class", ",".join(["1"] * rho)],
    }.get(command, [])
    code, _, err = run(capsys, "--registry", registry, command, str(path), *extra)
    curve = [1] * rho
    expected = {
        "info": NO_LEDGER,
        "blowup": "a 1-dimensional fan has no blow-up center" if dim == 1 else NO_LEDGER,
        "contract": "ray 0 carries no divisorial extremal ray",
        # On F1 the class (1, 1) is off every wall; elsewhere it is a
        # wall class on no small extremal ray.
        "flip": f"no wall curve on the ray of {curve}"
        if name == "F1"
        else f"class {curve} is not on a small extremal ray",
    }.get(command)
    assert (code, err) == ((0, "") if expected is None else (2, f"error: {expected}\n"))
    assert not Path(registry).exists() or not any(Path(registry).iterdir())


def test_register_into_a_missing_subdirectory_is_input_error(tmp_path):
    from toricfano.cli import CliError, Session

    session = Session(registry=tmp_path / "fans")
    with pytest.raises(CliError, match="cannot register 'a/b' in .*No such file or directory"):
        session.register("a/b", p4())


def test_flip_and_involution_via_cli(capsys, registry):
    code, out, _ = run(
        capsys, "--registry", registry, "--json",
        "flip", "D3", "--class", "0,-1,0", "--as", "flipped",
    )
    assert code == 0
    first = json.loads(out)
    assert first["ledger_deltas"]["degK4"] == -1
    code, out, _ = run(
        capsys, "--registry", registry, "--json",
        "flip", "flipped", "--class", "0,1,0", "--as", "back",
    )
    assert code == 0
    second = json.loads(out)
    assert second["output_hash"] == first["input_hash"]


def test_unknown_name_is_input_error(capsys, registry):
    code, _, err = run(capsys, "--registry", registry, "info", "zzz")
    assert code == 2
    assert "unknown fan" in err


def test_contract_singular_flag(capsys, registry):
    run(capsys, "--registry", registry, "flip", "D3", "--class", "0,-1,0", "--as", "f")
    code, _, err = run(capsys, "--registry", registry, "contract", "f", "--ray", "6")
    assert code == 2
    assert "smooth toric category" in err
    code, out, _ = run(
        capsys, "--registry", registry, "--json",
        "contract", "f", "--ray", "6", "--allow-singular",
    )
    assert code == 0
    assert json.loads(out)["smooth_result"] is False


@pytest.mark.parametrize("ray", ["99", "-1"])
def test_contract_ray_out_of_range(capsys, registry, ray):
    code, out, err = run(capsys, "--registry", registry, "contract", "R3", "--ray", ray)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: ray index {ray} out of range"]


def test_contract_ray_without_divisorial_extremal_ray(capsys, registry):
    code, out, err = run(capsys, "--registry", registry, "contract", "R3", "--ray", "7")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: ray 7 carries no divisorial extremal ray"]


def test_flip_class_zero_and_non_primitive(capsys, registry):
    code, out, err = run(capsys, "--registry", registry, "flip", "D3", "--class", "0,0,0")
    assert code == 2
    assert out == ""
    assert err == "error: no wall curve on the ray of [0, 0, 0]\n"
    hashes = []
    for cls, name in (("0,-1,0", "unit"), ("0,-2,0", "double")):
        code, out, _ = run(
            capsys, "--registry", registry, "--json",
            "flip", "D3", "--class", cls, "--as", name,
        )
        assert code == 0
        hashes.append(json.loads(out)["output_hash"])
    assert hashes[0] == hashes[1]


def test_flip_refuses_a_wall_class_off_the_small_extremal_rays(capsys, registry):
    # Z1 carries walls on (1, 0, 1, 1, 0, 0) with the flippable pattern,
    # but the class is not extremal: exchanging its circuit gave a fan
    # that is not projective.
    for argv in (
        ["blowup", "R3", "--center", "0,2,4,6", "--as", "Z"],
        ["flip", "Z", "--class=-1,0,-1,0,0,-1", "--as", "Z1"],
    ):
        code, _, err = run(capsys, "--registry", registry, *argv)
        assert code == 0, err
    code, out, err = run(
        capsys, "--registry", registry, "flip", "Z1", "--class", "1,0,1,1,0,0", "--as", "Z2"
    )
    assert code == 2 and out == ""
    assert err == "error: class [1, 0, 1, 1, 0, 0] is not on a small extremal ray\n"
    assert not (Path(registry) / "Z2.json").exists()


def test_replay_ex61(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "replay", "ex61_ledger")
    assert code == 0
    assert out.count("pass  ") == 5
    assert "all checks passed" in out

    code, out, _ = run(capsys, "--registry", registry, "--json", "replay", "ex61_ledger")
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["checks"]) == 5


def test_registry_names_unique(capsys, registry):
    run(capsys, "--registry", registry, "blowup", "P4", "--center", "0,1,2,3", "--as", "N")
    # Re-registering the identical fan under the same name is idempotent.
    code, _, _ = run(
        capsys, "--registry", registry, "blowup", "P4", "--center", "0,1,2,3", "--as", "N"
    )
    assert code == 0
    # A different fan under a taken name is refused.
    code, _, err = run(
        capsys, "--registry", registry, "blowup", "P4", "--center", "0,1,2", "--as", "N"
    )
    assert code == 2
    assert "already taken" in err


def test_json_outputs_round_trip_canonically(capsys, registry):
    for argv in (
        ["cones", "Bl_pt_P4"],
        ["chambers", "D3"],
        ["delta", "P2xP2"],
        ["fixed", "Bl_pt_P4"],
        ["info", "D3"],
        ["mmp", "Bl_pt_P4", "--divisor", "5"],
        ["blowup", "P2xP2", "--center", "0,1,3,4"],
    ):
        code, out, _ = run(capsys, "--registry", registry, "--json", *argv)
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_internal_invariant_exit_code(capsys, registry, monkeypatch):
    import toricfano.cli as cli
    from toricfano.mori import InternalCheckError

    def boom(X):
        raise InternalCheckError("synthetic cross-check failure")

    monkeypatch.setattr(cli, "lefschetz_defect", boom)
    code, _, err = run(capsys, "--registry", registry, "delta", "P4")
    assert code == 3
    assert "internal invariant violation" in err


def test_fixed_table_r3(capsys, registry):
    code, out, _ = run(capsys, "--registry", registry, "--json", "fixed", "R3")
    assert code == 0
    rows = json.loads(out)["fixed_divisors"]
    assert len(rows) == 6
    assert sum(1 for r in rows if r["type_label"] == "(3,0)^sm") == 2


def test_singular_registered_fan_loads_back_flagged(capsys, registry):
    run(capsys, "--registry", registry, "flip", "D3", "--class", "0,-1,0", "--as", "g")
    code, _, _ = run(
        capsys, "--registry", registry,
        "contract", "g", "--ray", "6", "--allow-singular", "--as", "sing",
    )
    assert code == 0
    code, out, _ = run(capsys, "--registry", registry, "--json", "info", "sing")
    assert code == 0
    obj = json.loads(out)
    assert obj["smooth"] is False
    assert obj["fano"] is None
    assert "chi_minusK" not in obj


@pytest.mark.parametrize(
    "argv",
    [
        ["mmp", "sing", "--divisor", "0"],
        ["delta", "sing"],
        ["contract", "sing", "--ray", "0"],
        ["flip", "sing", "--class", "1,0"],
        ["cones", "sing"],
        ["fixed", "sing"],
        ["chambers", "sing"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_flagged_singular_fan_is_refused_alike(capsys, registry, argv):
    run(capsys, "--registry", registry, "flip", "D3", "--class", "0,-1,0", "--as", "g")
    code, _, err = run(
        capsys, "--registry", registry,
        "contract", "g", "--ray", "6", "--allow-singular", "--as", "sing",
    )
    assert code == 0, err
    code, out, err = run(capsys, "--registry", registry, *argv)
    assert code == 2 and out == ""
    assert err == "error: operation requires a smooth fan\n"


def test_a_blowup_of_a_flagged_singular_fan_resolves_it_or_names_the_result(capsys, registry):
    # Blowing up the |det| = 2 cone of S gives back the flip it was
    # contracted from; a blow-up elsewhere keeps that cone, and the
    # refusal names the blow-up, not the input.
    run(capsys, "--registry", registry, "flip", "D3", "--class", "0,-1,0", "--as", "g")
    run(capsys, "--registry", registry, "contract", "g", "--ray", "6", "--allow-singular", "--as", "sing")
    code, out, err = run(capsys, "--registry", registry, "--json", "blowup", "sing", "--center", "0,3,4,5")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["input_hash"] == "63998c7626e7748f" and obj["output_hash"] == "ca8b5f4f6b59c620"
    code, out, err = run(capsys, "--registry", registry, "blowup", "sing", "--center", "0,2")
    assert code == 2 and out == ""
    assert err == (
        "error: the blow-up at center [0, 2] fails validation: "
        "smoothness: cone [0, 3, 4, 5] has |det| = 2\n"
    )


def test_analyses_deterministic_across_runs(capsys, registry):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--registry", registry, "--json", "chambers", "D3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "--registry", registry, "--json",
            "mmp", "D3", "--divisor", "6", "--exhaustive",
        )
        outs.append(out)
    assert outs[0] == outs[1]


def test_replay_failure_exit_code(capsys, registry, monkeypatch):
    import toricfano.cli as cli

    def failing(checklist):
        checklist.check("synthetic check that fails", False)

    monkeypatch.setitem(cli.REPLAYS, "ex52", failing)
    code, out, _ = run(capsys, "--registry", registry, "replay", "ex52")
    assert code == 1
    assert "FAIL" in out and "SOME CHECKS FAILED" in out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def malformed_fan_objects(draw):
    """Builtin fan JSON with a field missing, mistyped or out of range."""
    obj = fan_object(BUILTIN_FANS[draw(st.sampled_from(sorted(BUILTIN_FANS)))])
    rays, cones = obj["rays"], obj["max_cones"]
    kind = draw(st.sampled_from(["drop", "retype", "dim", "ray", "entry", "index", "labels"]))
    if kind == "drop":
        del obj[draw(st.sampled_from(["dim", "rays", "max_cones"]))]
    elif kind == "retype":
        obj[draw(st.sampled_from(["dim", "rays", "max_cones"]))] = draw(json_values)
    elif kind == "dim":
        obj["dim"] = draw(st.integers(-2, 8))
    elif kind == "ray":
        i = draw(st.integers(0, len(rays) - 1))
        rays[i] = rays[i][:-1] if draw(st.booleans()) else rays[i] + [0]
    elif kind == "entry":
        target = draw(st.sampled_from([rays, cones]))
        row = target[draw(st.integers(0, len(target) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(json_values)
    elif kind == "index":
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        cone[draw(st.integers(0, len(cone) - 1))] = draw(st.integers(-3, len(rays) + 3))
    else:
        obj["labels"] = draw(json_values | st.dictionaries(st.text(max_size=3), json_values, max_size=3))
    return obj


fan_texts = (
    st.one_of(malformed_fan_objects(), corrupted_fans(), json_values).map(json.dumps).map(str.encode)
    | st.binary(max_size=40)
)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fan_texts, st.sampled_from(["validate", "info"]), st.booleans())
def test_front_door_fuzz_ends_in_a_documented_exit(tmp_path_factory, data, command, as_json):
    path = tmp_path_factory.mktemp("fuzz") / "fan.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    argv = ["--registry", str(path.parent / "reg")] + (["--json"] if as_json else []) + [command, str(path)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].strip(), err.getvalue()
        assert "Traceback" not in err.getvalue()


def test_cones_after_fixed_reuses_the_cone_suite(monkeypatch, capsys, registry):
    from toricfano import cli, cones, mori
    from toricfano.library import builtin

    builtin.cache_clear()  # a fresh builtin D3, with no cones built yet
    dd = {"fixed": 0, "cones": 0}
    phase = []
    real_dd = cones.dual_extreme_rays

    def counting_dd(vectors, ambient_dim):
        dd[phase[-1]] += 1
        return real_dd(vectors, ambient_dim)

    real_cmd_cones = cli.cmd_cones

    def cmd_cones(session, args):
        phase.append("cones")
        return real_cmd_cones(session, args)

    monkeypatch.setattr(cones, "dual_extreme_rays", counting_dd)
    monkeypatch.setattr(mori, "dual_extreme_rays", counting_dd)
    monkeypatch.setattr(cli, "cmd_cones", cmd_cones)
    phase.append("fixed")
    assert run(capsys, "--registry", registry, "--json", "fixed", "D3")[0] == 0
    assert run(capsys, "--registry", registry, "--json", "cones", "D3")[0] == 0
    assert dd["fixed"] > 0 and dd["cones"] == 0
