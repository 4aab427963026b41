"""Outside-in tracing of toricfano's layers.

``install`` replaces the public entry points of each layer with timing
wrappers, in every module namespace that binds the wrapped name, so
calls between modules are caught without changing a line of the
program.  Each call becomes a span (name, start, end, parent, request
id) kept in memory; self time is a span's duration minus the time its
direct child spans cover.  ``layer_metrics`` folds the spans and the
counters gathered alongside them into the per-layer figures the
benchmark reports.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LATTICE = ("solve_rational", "rational_rank", "integer_kernel", "det_int", "solve_integer")

SURGERY = ("blowup", "contract", "flip", "extremal_rays", "ne_cone", "flip_circuits")

MORI = (
    "cone_suite",
    "mmp_for_divisor",
    "mmp_all_for_divisor",
    "fixed_prime_divisors",
    "classify_fixed_divisor",
    "classified_fixed_divisors",
    "lefschetz_defect",
    "lefschetz_witnesses",
    "verify_bounds",
    "mori_chambers",
    "_apply_step",  # private, but one call is one MMP step
)


class Tracer:
    """In-memory span recorder with per-span self time."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[list[int]] = []  # [span index, child ns]
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1
        self._dd_seen: set = set()

    def wrap(self, name: str, fn, observe=None):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)
            stack.append(frame)
            self.open[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.open[name] -= 1
                stack.pop()
                d = t1 - t0
                spans[frame[0]] = (name, t0, t1, parent, self.request)
                self.self_ns[name] += d - frame[1]
                self.incl_ns[name] += d
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += d
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, req in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": t0, "end_ns": t1, "parent": parent, "request": req}
                    )
                    + "\n"
                )


# -- observers: counters measured where the work happens ----------------


def _observe_dd(tr: Tracer, args, kwargs, result) -> None:
    vectors = args[0] if args else kwargs["vectors"]
    dim = args[1] if len(args) > 1 else kwargs["ambient_dim"]
    key = (dim, tuple(tuple(v) for v in vectors))
    tr.counts["dd_rows_in"] += len(key[1])
    tr.counts["dd_rays_out"] += len(result)
    if key in tr._dd_seen:
        tr.counts["dd_repeats"] += 1
    else:
        tr._dd_seen.add(key)
    if tr.open["mori.mori_chambers"]:
        tr.counts["dd_calls_in_chambers"] += 1
    if tr.open["fan.validate"]:
        tr.counts["dd_calls_in_validate"] += 1


def _observe_faces(tr: Tracer, args, kwargs, result) -> None:
    if not tr.open["cones.faces"]:
        tr.counts["faces_calls"] += 1


def _observe_mmp_one(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["mmp_traces"] += 1


def _observe_mmp_all(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["mmp_traces"] += len(result)


def _observe_chambers(tr: Tracer, args, kwargs, result) -> None:
    tr.counts["chambers_visited"] += result.count


def install(tracer: Tracer):
    """Wrap the layer entry points of the imported toricfano package.

    Returns the original ``fan.validate`` so its ``cache_info`` stays
    reachable."""
    import toricfano
    from toricfano import cli, cones, fan, lattice, ledger, library, mori, surgery, variety

    modules = (toricfano, cli, cones, fan, lattice, ledger, library, mori, surgery, variety)

    def patch(home, func_name: str, observe=None) -> None:
        orig = getattr(home, func_name)
        span = f"{home.__name__.rsplit('.', 1)[-1]}.{func_name}"
        wrapped = tracer.wrap(span, orig, observe)
        for m in modules:
            if m.__dict__.get(func_name) is orig:
                setattr(m, func_name, wrapped)

    def patch_method(cls, attr: str, span: str, observe=None) -> None:
        setattr(cls, attr, tracer.wrap(span, cls.__dict__[attr], observe))

    for name in LATTICE:
        patch(lattice, name)
    patch(cones, "dual_extreme_rays", _observe_dd)
    for attr in ("all_faces", "faces_of_dim"):
        patch_method(cones.RationalCone, attr, "cones.faces", _observe_faces)
    patch(fan, "fan_from_json")
    original_validate = fan.validate
    patch(fan, "validate")
    patch_method(variety.ToricVariety, "__init__", "variety.construct")
    walls = variety.ToricVariety.__dict__["walls"]
    walls.func = tracer.wrap("variety.walls", walls.func)
    patch_method(variety.ToricVariety, "ledger_state", "variety.ledger_state")
    patch_method(variety.ToricVariety, "intersection_number", "variety.intersection")
    patch_method(variety.ToricVariety, "c2_product", "variety.intersection")
    for name in SURGERY:
        patch(surgery, name)
    observers = {
        "mmp_for_divisor": _observe_mmp_one,
        "mmp_all_for_divisor": _observe_mmp_all,
        "mori_chambers": _observe_chambers,
    }
    for name in MORI:
        patch(mori, name, observers.get(name))
    patch(ledger, "run_script")
    from_geometry = ledger.LedgerState.__dict__["from_geometry"].__func__
    ledger.LedgerState.from_geometry = staticmethod(
        tracer.wrap("ledger.from_geometry", from_geometry)
    )
    patch(library, "builtin")
    patch(cli, "main")
    return original_validate


def layer_metrics(tr: Tracer, run_ns: int, validate_cache: tuple[int, int], exit_counts: dict) -> dict:
    """Per-layer figures of one traced pass that took ``run_ns``.

    ``validate_cache`` is the (hits, misses) delta of ``fan.validate``'s
    cache over the pass; ``exit_counts`` tallies the request outcomes."""
    s = lambda ns: ns / 1e9  # noqa: E731
    by_layer_self: dict[str, int] = defaultdict(int)
    for name, ns in tr.self_ns.items():
        by_layer_self[name.split(".", 1)[0]] += ns  # span names are "<module>.<function>"
    lattice_calls = sum(tr.calls[f"lattice.{n}"] for n in LATTICE)
    dd_calls = tr.calls["cones.dual_extreme_rays"]
    hits, misses = validate_cache
    mmp_runs = tr.calls["mori.mmp_for_divisor"] + tr.calls["mori.mmp_all_for_divisor"]
    chambers = tr.counts["chambers_visited"]
    return {
        "lattice.calls": lattice_calls,
        "lattice.self_s": s(by_layer_self["lattice"]),
        "cones.dd_calls": dd_calls,
        "cones.dd_self_s": s(tr.self_ns["cones.dual_extreme_rays"]),
        "cones.dd_incl_s": s(tr.incl_ns["cones.dual_extreme_rays"]),
        "cones.dd_share": tr.incl_ns["cones.dual_extreme_rays"] / run_ns,
        "cones.dd_rows_in": tr.counts["dd_rows_in"],
        "cones.dd_rays_out": tr.counts["dd_rays_out"],
        "cones.dd_repeat_ratio": tr.counts["dd_repeats"] / dd_calls if dd_calls else 0.0,
        "cones.faces_calls": tr.counts["faces_calls"],
        "fan.validate_calls": tr.calls["fan.validate"],
        "fan.validate_self_s": s(tr.self_ns["fan.validate"]),
        "fan.validate_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fan.validate_dd_calls": tr.counts["dd_calls_in_validate"],
        "fan.parse_self_s": s(tr.self_ns["fan.fan_from_json"]),
        "variety.constructions": tr.calls["variety.construct"],
        "variety.walls_self_s": s(tr.self_ns["variety.walls"]),
        "variety.ledger_calls": tr.calls["variety.ledger_state"],
        "variety.ledger_self_s": s(tr.self_ns["variety.ledger_state"]),
        "variety.intersection_calls": tr.calls["variety.intersection"],
        "variety.intersection_self_s": s(tr.self_ns["variety.intersection"]),
        "surgery.flip_calls": tr.calls["surgery.flip"],
        "surgery.contract_calls": tr.calls["surgery.contract"],
        "surgery.blowup_calls": tr.calls["surgery.blowup"],
        "surgery.extremal_rays_calls": tr.calls["surgery.extremal_rays"],
        "surgery.extremal_rays_self_s": s(tr.self_ns["surgery.extremal_rays"]),
        "surgery.self_s": s(by_layer_self["surgery"]),
        "mori.mmp_runs": mmp_runs,
        "mori.mmp_steps_per_distinct_trace": (
            tr.calls["mori._apply_step"] / tr.counts["mmp_traces"] if tr.counts["mmp_traces"] else 0.0
        ),
        "mori.chambers_visited": chambers,
        "mori.dd_calls_per_chamber": tr.counts["dd_calls_in_chambers"] / chambers if chambers else 0.0,
        "mori.self_s": s(by_layer_self["mori"]),
        "ledger.script_calls": tr.calls["ledger.run_script"],
        "ledger.self_s": s(by_layer_self["ledger"]),
        "cli.requests": tr.calls["cli.main"],
        "cli.self_s": s(by_layer_self["cli"]),
        "cli.exit_0": exit_counts.get("0", 0),
        "cli.exit_2": exit_counts.get("2", 0),
        "cli.exit_other": sum(v for k, v in exit_counts.items() if k not in ("0", "2", "traceback")),
        "cli.tracebacks": exit_counts.get("traceback", 0),
        "library.load_s": s(tr.incl_ns["library.builtin"]),
    }
