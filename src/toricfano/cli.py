"""Command-line front door.

Fans are addressed by builtin name (``toricfano info P4``), by path to a
fan JSON file, or by a name previously registered in the registry
directory (surgeries write their results there).  All numeric output is
exact integers and fractions; ``--json`` switches every command to
canonical machine-readable JSON (sorted keys, deterministic ordering).

Exit codes: 0 success, 1 replay assertion failure, 2 input error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .fan import Fan, ValidationError, fan_from_json, fan_to_json, validate
from .ledger import LedgerError, run_script
from .library import builtin, builtin_names
from .mori import (
    InternalCheckError,
    MoriError,
    classified_fixed_divisors,
    cone_suite,
    lefschetz_defect,
    mmp_all_for_divisor,
    mmp_for_divisor,
    mori_chambers,
    verify_bounds,
)
from .replays import REPLAYS, Checklist
from .surgery import SurgeryError, blowup, contract, extremal_rays, flip
from .variety import ToricVariety

EXIT_OK = 0
EXIT_REPLAY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT_ERROR):
        super().__init__(message)
        self.code = code


# -- session / registry -------------------------------------------------


@dataclass
class Session:
    """Named fan registry backed by a directory."""

    registry: Path

    def resolve(self, name: str) -> ToricVariety:
        """A name ending in ``.json`` or holding a path separator is a
        path; any other name is a builtin, else a registered name, else
        an existing path."""
        path = Path(name)
        if name.endswith(".json") or path.name != name:
            return self._load_path(path)
        if name in builtin_names():
            return builtin(name)
        reg_path = self.registry / f"{name}.json"
        if reg_path.exists():
            return self._load_path(reg_path)
        if path.exists():
            return self._load_path(path)
        raise CliError(
            f"unknown fan {name!r}: not a builtin "
            f"({', '.join(builtin_names())}), not a file, "
            f"not in registry {self.registry}"
        )

    def _load_path(self, path: Path) -> ToricVariety:
        # Singular contraction targets are registrable; carry them
        # flagged rather than refusing to load them back.
        try:
            return ToricVariety(_read_fan(path), allow_singular=True, name=path.stem)
        except ValidationError as e:
            raise CliError(f"{path}: {e}") from None

    def register(self, name: str, X: ToricVariety) -> Path:
        out = self.registry / f"{name}.json"
        payload = fan_to_json(X.fan) + "\n"
        try:
            self.registry.mkdir(parents=True, exist_ok=True)
            if out.exists() and out.read_text() != payload:
                raise CliError(
                    f"registry name {name!r} already taken by a different fan; "
                    "pick another with --as"
                )
            out.write_text(payload)
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(f"cannot register {name!r} in {self.registry}: {e}") from None
        return out


# -- formatting ---------------------------------------------------------


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


def _parse_int_csv(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"{what} must be a comma-separated list of integers") from None


def _read_text(path: Path) -> str:
    if not path.exists():
        raise CliError(f"no such file: {path}")
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"{path}: {e}") from None


def _read_fan(path: Path) -> Fan:
    text = _read_text(path)
    try:
        return fan_from_json(text)
    except ValidationError as e:
        raise CliError(f"{path}: {e}") from None


# -- commands -----------------------------------------------------------


def cmd_validate(session: Session, args) -> int:
    report = validate(_read_fan(Path(args.path)))
    if args.json:
        _emit_json(report.as_dict())
    else:
        for c in report.checks:
            mark = "pass" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            print(f"{c.name:<20} {mark}{detail}")
    report.raise_if_failed()
    return EXIT_OK


def cmd_info(session: Session, args) -> int:
    X = session.resolve(args.name)
    info = {
        "name": X.name or args.name,
        "dim": X.dim,
        "rays": X.n_rays,
        "max_cones": len(X.fan.max_cones),
        "rho": X.rho,
        "smooth": X.is_smooth,
        "fano": X.is_fano if X.is_smooth else None,
        "hash": X.fan.content_hash(),
    }
    if X.is_smooth:
        ledger = X.ledger_state()
        delta, witness = lefschetz_defect(X)
        info.update(
            chi_minusK=ledger.chi_minusK,
            degK4=ledger.degK4,
            c2K2=ledger.c2K2,
            lefschetz_defect=delta,
            delta_witness_ray=witness,
        )
    if args.json:
        _emit_json(info)
    else:
        for k, v in info.items():
            print(f"{k:<18} {v}")
    return EXIT_OK


def _result_name(args, move: str) -> str:
    """The registry name of a surgery result, checked before any surgery
    runs.  A fan given by path is named by its file name, so the result
    lands in the registry rather than next to the input.  A name ending
    in ``.json`` is refused, and so is a builtin's name: ``Session.resolve``
    would read either back as something else."""
    name = args.as_name
    if name is not None:
        if Path(name).name != name or name in ("", ".."):
            raise CliError(f"--as {name!r} is not a single path component")
        if name.endswith(".json"):
            raise CliError(f"--as {name!r} must not end in .json: it reads back as a path")
        if name in builtin_names():
            raise CliError(f"--as {name!r} is a builtin's name: it reads back as the builtin")
    return name or f"{Path(args.name).name.removesuffix('.json')}_{move}"


def _surgery_report(
    session: Session, args, X: ToricVariety, Y: ToricVariety, move: str, new_name: str, data: dict
) -> int:
    # The ledgers come first: a fan they refuse is not registered.
    lb = X.ledger_state() if X.is_smooth else None
    la = Y.ledger_state() if Y.is_smooth else None
    out_path = session.register(new_name, Y)
    report = {
        "move": move,
        "input": args.name,
        "input_hash": X.fan.content_hash(),
        "output": new_name,
        "output_hash": Y.fan.content_hash(),
        "registered": str(out_path),
        **data,
    }
    if lb and la:
        report["ledger_before"] = lb.as_tuple()
        report["ledger_after"] = la.as_tuple()
        report["ledger_deltas"] = {
            "chi_minusK": la.chi_minusK - lb.chi_minusK,
            "degK4": la.degK4 - lb.degK4,
            "c2K2": la.c2K2 - lb.c2K2,
            "rho": la.rho - lb.rho,
        }
    if args.json:
        _emit_json(report)
    else:
        for k, v in report.items():
            print(f"{k:<14} {v}")
    return EXIT_OK


def cmd_blowup(session: Session, args) -> int:
    new_name = _result_name(args, "blowup")
    X = session.resolve(args.name)
    center = _parse_int_csv(args.center, "--center")
    Y = blowup(X, center)
    return _surgery_report(session, args, X, Y, "blowup", new_name, {"center": list(center)})


def cmd_contract(session: Session, args) -> int:
    new_name = _result_name(args, "contract")
    X = session.resolve(args.name)
    if not 0 <= args.ray < X.n_rays:
        raise CliError(f"ray index {args.ray} out of range")
    centers = [
        d.center for _, d in extremal_rays(X)
        if d.kind == "divisorial" and d.exc_rays == (args.ray,)
    ]
    if not centers:
        raise CliError(f"ray {args.ray} carries no divisorial extremal ray")
    center = min(centers, key=lambda c: (len(c), c))
    Y = contract(X, args.ray, center, allow_singular=args.allow_singular)
    data = {"ray": args.ray, "smooth_result": Y.is_smooth}
    return _surgery_report(session, args, X, Y, "contract", new_name, data)


def cmd_flip(session: Session, args) -> int:
    new_name = _result_name(args, "flip")
    X = session.resolve(args.name)
    cls = _parse_int_csv(args.curve_class, "--class")
    if len(cls) != X.rho:
        raise CliError(f"--class must have rho = {X.rho} coordinates")
    Y, circuits = flip(X, cls)
    data = {
        "class": list(cls),
        "circuits": [list(c.support) for c in circuits],
    }
    return _surgery_report(session, args, X, Y, "flip", new_name, data)


def _parse_divisor(X: ToricVariety, text: str):
    if text == "minusK":
        return [1] * X.n_rays
    if "," in text:
        vec = _parse_int_csv(text, "--divisor")
        if len(vec) != X.n_rays:
            raise CliError(f"divisor vector must have {X.n_rays} entries")
        return vec
    try:
        ray = int(text)
    except ValueError:
        raise CliError("divisor must be a ray index, a coefficient vector, or 'minusK'") from None
    if not 0 <= ray < X.n_rays:
        raise CliError(f"ray index {ray} out of range")
    return ray


def cmd_mmp(session: Session, args) -> int:
    X = session.resolve(args.name)
    divisor = _parse_divisor(X, args.divisor)
    if args.exhaustive:
        traces = mmp_all_for_divisor(X, divisor, max_steps=args.max_steps)
    else:
        traces = [mmp_for_divisor(X, divisor, max_steps=args.max_steps)]
    payload = []
    for t in traces:
        payload.append(
            {
                "outcome": t.outcome,
                "steps": [
                    {
                        "move": s.move,
                        "class": list(s.curve_class),
                        "kind": s.descriptor.kind,
                        "type_label": s.descriptor.type_label,
                        "circuits": s.circuit_count,
                        "fan_after": s.fan_after.content_hash(),
                    }
                    for s in t.steps
                ],
                "final_hash": t.final.content_hash(),
            }
        )
    if args.json:
        _emit_json({"traces": payload})
    else:
        for i, t in enumerate(payload):
            print(f"trace {i}: outcome {t['outcome']}, final {t['final_hash']}")
            rows = [
                [j, s["move"], s["kind"], s["type_label"] or "-", s["class"], s["circuits"]]
                for j, s in enumerate(t["steps"])
            ]
            print(_table(["step", "move", "kind", "type", "class", "circuits"], rows))
    return EXIT_OK


def cmd_fixed(session: Session, args) -> int:
    X = session.resolve(args.name)
    reports = classified_fixed_divisors(X, max_steps=args.max_steps)
    if args.json:
        _emit_json({"fixed_divisors": [r.as_dict() for r in reports]})
    else:
        rows = [
            [
                r.ray_index,
                X.fan.ray_label(r.ray_index),
                r.type_label,
                r.pairing_D_CD,
                r.degK_CD,
            ]
            for r in reports
        ]
        print(_table(["ray", "label", "type", "D.C_D", "-K.C_D"], rows))
    return EXIT_OK


def cmd_chambers(session: Session, args) -> int:
    X = session.resolve(args.name)
    ch = mori_chambers(X)
    if args.json:
        _emit_json(ch.as_dict())
    else:
        print(f"chambers: {ch.count}")
        nodes = [f.content_hash() for f in ch.fans]
        rows = [[nodes[i], nodes[j], list(cls)] for i, j, cls in ch.adjacency]
        print(_table(["from", "to", "flipped class"], rows))
        for line in ch.excluded:
            print(f"excluded: {line}")
    return EXIT_OK


def cmd_cones(session: Session, args) -> int:
    X = session.resolve(args.name)
    suite = cone_suite(X)
    obj = suite.as_dict()
    obj["basis_note"] = (
        "divisor classes pair with curve classes by dot product; "
        "coordinates over the HNF-reduced relation basis of the rays"
    )
    if args.json:
        _emit_json(obj)
    else:
        for cone_name in ("nef", "mov", "eff", "ne", "mov_curves"):
            data = obj[cone_name]
            print(f"{cone_name}:")
            print(f"  generators    {data['generators']}")
            print(f"  facet normals {data['facet_normals']}")
    return EXIT_OK


def cmd_delta(session: Session, args) -> int:
    X = session.resolve(args.name)
    delta, witness = lefschetz_defect(X)
    bounds = verify_bounds(X)
    if args.json:
        _emit_json(
            {
                "delta": delta,
                "witness_ray": witness,
                "bounds": [{"claim": c, "holds": h} for c, h in bounds],
            }
        )
    else:
        print(f"lefschetz defect: {delta} (witness ray {witness})")
        for claim, holds in bounds:
            print(f"{'pass' if holds else 'FAIL'}  {claim}")
    if not all(h for _, h in bounds):
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_ledger(session: Session, args) -> int:
    steps = run_script(_read_text(Path(args.script)))
    if args.json:
        _emit_json(
            {
                "trajectory": [
                    {
                        "line": s.lineno,
                        "move": s.text,
                        "chi_minusK": s.state.chi_minusK,
                        "degK4": s.state.degK4,
                        "c2K2": s.state.c2K2,
                        "rho": s.state.rho,
                    }
                    for s in steps
                ]
            }
        )
    else:
        rows = [
            [s.text, s.state.chi_minusK, s.state.degK4, s.state.c2K2, s.state.rho]
            for s in steps
        ]
        print(_table(["move", "chi(-K)", "(-K)^4", "(-K)^2.c2", "rho"], rows))
    return EXIT_OK


# -- replays ------------------------------------------------------------


def cmd_replay(session: Session, args) -> int:
    cl = Checklist()
    REPLAYS[args.example](cl)
    if args.json:
        _emit_json(
            {
                "ok": cl.ok,
                "checks": [{"check": d, "passed": p} for d, p in cl.items],
            }
        )
    else:
        for d, p in cl.items:
            print(f"{'pass' if p else 'FAIL'}  {d}")
        print(f"{'all checks passed' if cl.ok else 'SOME CHECKS FAILED'}")
    return EXIT_OK if cl.ok else EXIT_REPLAY_FAILURE


# -- entry point --------------------------------------------------------


def _step_cap(text: str) -> int:
    """An MMP step cap: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _flags() -> argparse.ArgumentParser:
    """The global flags, declared once and shared as a parent by the
    top-level parser and every subcommand, so each is accepted before or
    after the subcommand.  Every copy defaults to SUPPRESS: a flag left
    out after the subcommand then leaves the value given before it, and
    one given after it wins.  Their defaults live in the namespace
    ``main`` parses into; set on a parser (``set_defaults`` writes them
    onto the shared actions), the subcommand's copy would clobber a
    value given before the subcommand."""
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--json", action="store_true", help="machine-readable output")
    flags.add_argument("--registry", help="directory for registered fans (default: ./fans)")
    flags.add_argument("--max-steps", type=_step_cap, metavar="N",
                       help="an MMP takes at most N steps (default 64)")
    flags.add_argument("--exhaustive", action="store_true",
                       help="enumerate all MMP choice sequences")
    return flags


def _arg(*names: str, **kwargs):
    return names, kwargs


_NAME = _arg("name")
_AS = _arg("--as", dest="as_name")

# Each subcommand: its name, handler, help and its own arguments.
_COMMANDS = (
    ("validate", cmd_validate, "validate a fan JSON file", [_arg("path")]),
    ("info", cmd_info, "summary: rho, Fano flag, ledger, delta", [_NAME]),
    ("blowup", cmd_blowup, "blow up an invariant center", [
        _NAME, _arg("--center", required=True, help="ray indices, e.g. 0,1,2,3"), _AS,
    ]),
    ("contract", cmd_contract,
     "contract the divisorial extremal ray on a ray, smallest center first", [
        _NAME,
        _arg("--ray", type=int, required=True,
             help="index of the ray whose divisor is contracted"),
        _arg("--allow-singular", action="store_true"),
        _AS,
    ]),
    ("flip", cmd_flip, "flip a small extremal curve class", [
        _NAME,
        _arg("--class", dest="curve_class", required=True,
             help="curve class coordinates, e.g. 1,-1,0;"
             " a negative first entry needs '=', as in --class=-1,0,0"),
        _AS,
    ]),
    ("mmp", cmd_mmp, "run a divisor-directed MMP", [
        _NAME,
        _arg("--divisor", required=True,
             help="ray index, coefficient vector, or 'minusK';"
             " a negative first entry needs '=', as in --divisor=-1,0,..."),
    ]),
    ("fixed", cmd_fixed, "fixed prime divisors with types", [_NAME]),
    ("chambers", cmd_chambers, "chamber decomposition of the movable cone", [_NAME]),
    ("cones", cmd_cones, "Nef/Mov/Eff and curve-side duals", [_NAME]),
    ("delta", cmd_delta, "Lefschetz defect and bound assertions", [_NAME]),
    ("ledger", cmd_ledger, "run an invariant move script", [_arg("script")]),
    ("replay", cmd_replay, "replay a worked example end to end",
     [_arg("example", choices=sorted(REPLAYS))]),
)


def build_parser() -> argparse.ArgumentParser:
    flags = _flags()
    parser = argparse.ArgumentParser(
        prog="toricfano",
        description="Exact birational geometry of smooth toric Fano 4-folds.",
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text, parents=[flags])
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    defaults = argparse.Namespace(json=False, registry="fans", max_steps=64, exhaustive=False)
    args = build_parser().parse_args(argv, defaults)
    session = Session(registry=Path(args.registry))
    try:
        return args.func(session, args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except InternalCheckError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValidationError, SurgeryError, MoriError, LedgerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
