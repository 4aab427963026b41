"""Byte-identity guard for the canonical ``--json`` output.

``tests/data/cli_golden.json`` holds the stdout of ``--json`` ``info``,
``cones``, ``delta``, ``fixed`` and ``chambers`` on every builtin fan,
of ``--json mmp --divisor r``, default and ``--exhaustive``, and of
``--json contract --ray r``, for every ray r of every builtin fan.
Each output is prefixed by its exit code.  ``contract`` registers its
result, so it runs with a relative ``--registry`` in a fresh working
directory and its ``registered`` path does not depend on where.
Any change to those bytes must be deliberate: regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change why the output moved.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from toricfano.cli import main
from toricfano.library import builtin, builtin_names
from toricfano.surgery import extremal_rays

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("info", "cones", "delta", "fixed", "chambers")


def render(args: list[str], registry: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--registry", registry, "--json", *args])
    return f"exit {code}\n{out.getvalue()}"


def render_in_fresh_cwd(args: list[str]) -> str:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return render(args, "fans")
        finally:
            os.chdir(cwd)


def _cases() -> list[tuple[str, str]]:
    return [(c, n) for n in sorted(builtin_names()) for c in COMMANDS]


def _mmp_cases() -> list[str]:
    return [
        f"mmp {n} --divisor {r}{flag}"
        for n in sorted(builtin_names())
        for r in range(builtin(n).n_rays)
        for flag in ("", " --exhaustive")
    ]


def _contract_cases() -> list[str]:
    return [
        f"contract {n} --ray {r}"
        for n in sorted(builtin_names())
        for r in range(builtin(n).n_rays)
    ]


def _flip_cases() -> list[str]:
    return [
        f"flip {n} --class {','.join(map(str, c))}"
        for n in sorted(builtin_names())
        for c, d in extremal_rays(builtin(n))
        if d.kind == "small" and d.flippable
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_builtin(golden):
    assert sorted(golden) == sorted(
        [f"{c} {n}" for c, n in _cases()] + _mmp_cases() + _contract_cases() + _flip_cases()
    )


@pytest.mark.parametrize("command,name", _cases())
def test_json_output_is_byte_identical(golden, tmp_path, command, name):
    assert render([command, name], str(tmp_path / "fans")) == golden[f"{command} {name}"]


@pytest.mark.parametrize("case", _mmp_cases())
def test_mmp_json_output_is_byte_identical(golden, tmp_path, case):
    assert render(case.split(), str(tmp_path / "fans")) == golden[case]


@pytest.mark.parametrize("case", _contract_cases())
def test_contract_json_output_is_byte_identical(golden, case):
    assert render_in_fresh_cwd(case.split()) == golden[case]


@pytest.mark.parametrize("case", _flip_cases())
def test_flip_json_output_is_byte_identical(golden, case):
    assert render_in_fresh_cwd(case.split()) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {f"{c} {n}": render([c, n], tmp) for c, n in _cases()}
        record.update((case, render(case.split(), tmp)) for case in _mmp_cases())
    record.update(
        (case, render_in_fresh_cwd(case.split())) for case in _contract_cases() + _flip_cases()
    )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} outputs to {GOLDEN}", file=sys.stderr)
