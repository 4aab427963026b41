"""One pass of a benchmark workload, in a fresh interpreter.

Usage (started by run.py, with the pass directory as working directory
and the checkout's ``src`` on PYTHONPATH)::

    python3 worker.py <checkout> <spec.json> <result.json> [<spans.jsonl.gz>]

Set-up is the import of toricfano, the load of its builtin fan library
and the read of the request list; the worker then prints ``ready`` and
sends every request through ``toricfano.cli.main`` in order, each with
its own captured stdout and stderr.  With a spans path it installs the
layer wrappers first and also reports per-layer figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

from oracle import flip_argument


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve()
    spec_path, result_path = Path(argv[1]), Path(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None

    import toricfano
    from toricfano import cli, fan, library

    if not Path(toricfano.__file__).resolve().is_relative_to(root / "src"):
        print(f"toricfano imported from {toricfano.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    validate = fan.validate
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        validate = spans.install(tracer)
    for name in library.builtin_names():
        library.builtin(name)
    requests = json.loads(spec_path.read_text())["requests"]
    print("ready", flush=True)

    cache0 = validate.cache_info()
    results = []
    start = time.perf_counter_ns()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        out, err = io.StringIO(), io.StringIO()
        exc = None
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = [_fill(a, results) for a in request]
                code = cli.main(args)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a traceback is an outcome the benchmark counts
                code, exc = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter_ns()
        results.append(
            {"code": code, "exc": exc, "out": out.getvalue(), "err": err.getvalue(), "ns": t1 - t0}
        )
    run_ns = time.perf_counter_ns() - start
    report = {"run_ns": run_ns, "results": results}
    if tracer is not None:
        cache1 = validate.cache_info()
        outcomes = Counter("traceback" if r["exc"] else str(r["code"]) for r in results)
        report["layers"] = spans.layer_metrics(
            tracer, run_ns, (cache1.hits - cache0.hits, cache1.misses - cache0.misses), outcomes
        )
        tracer.write(spans_path)
    result_path.write_text(json.dumps(report))
    return 0


def _fill(arg, results: list[dict]) -> str:
    """A literal argument, or one read from an earlier answer."""
    if isinstance(arg, str):
        return arg
    return flip_argument(results[arg["flip_class_of"]]["out"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
