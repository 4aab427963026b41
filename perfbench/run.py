"""toricfano benchmark: runs one workload and prints its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chambers --seed 1 --seconds 30 --trace 0

Closed loop, one client: each pass of a workload is a fixed sequence of
requests sent one after another through ``toricfano.cli.main`` in a
fresh interpreter (worker.py), so no cache outlives a pass and the
operation order never varies.  Passes repeat, each on newly drawn
relabelled fans, while half a pass still fits in ``--seconds``.  Before
them, a few workers only set up, so set-up time is a median of several
samples.
Every answer is checked against oracle.json.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each pass runs twice on the same
inputs, untraced and then traced, the two sets of answers must be
identical, and the JSON object holds the per-layer metrics and the
tracing overhead.  Spans of traced passes are written, gzip-compressed,
under ``.bench_out/``.  Lines before the JSON object are a readable
summary.  The exit code is 2, with no JSON, when the checkout holds no
toricfano sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


class Runner:
    """Runs worker processes for one benchmark invocation."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        pythonpath = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.count = 0

    def pass_dir(self, files: dict[str, str]) -> Path:
        d = self.work / f"p{self.count}"
        self.count += 1
        for rel, text in files.items():
            path = d / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        d.mkdir(parents=True, exist_ok=True)
        return d

    def run(self, files: dict[str, str], argvs: list, spans: Path | None = None) -> dict:
        """One worker: its set-up time, its answers and its resource use."""
        d = self.pass_dir(files)
        (d / "spec.json").write_text(json.dumps({"requests": argvs}))
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.root), "spec.json", "result.json"]
        if spans is not None:
            cmd.append(str(spans))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=d, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            line = self._read_line(proc)
            setup_s = time.perf_counter() - t0
            status, usage = self._wait(proc)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
            proc.stdout.close()
        if line != b"ready\n" or status != 0:
            raise BenchError(f"worker failed (exit {status}) in {d}")
        report = json.loads((d / "result.json").read_text())
        report.update(
            setup_s=setup_s,
            run_s=report["run_ns"] / 1e9,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
        )
        return report

    def _readable(self, proc) -> bool:
        remaining = self.deadline - time.monotonic()
        return bool(select.select([proc.stdout], [], [], max(remaining, 0))[0])

    def _read_line(self, proc) -> bytes:
        if not self._readable(proc):
            raise BenchError("worker set-up exceeded the time limit")
        return proc.stdout.readline()

    def _wait(self, proc):
        """Block, without polling, until the worker closes its stdout by
        exiting; then reap it with its resource use."""
        while True:
            if not self._readable(proc):
                raise BenchError("worker exceeded the time limit")
            if not proc.stdout.read1(65536):
                break
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage


def _check_pass(p: workloads.Pass, report: dict, table: dict) -> tuple[int, int, list[str]]:
    """(failed, known-defect tracebacks, failure reasons) of one pass."""
    results = report["results"]
    if len(results) != len(p.requests):
        raise BenchError("worker answered a different number of requests")
    failed, known, reasons = 0, 0, []
    for i, (req, res) in enumerate(zip(p.requests, results)):
        verdict = oracle.check(req["check"], res, results, table)
        if verdict == oracle.KNOWN_DEFECT:
            known += 1
        elif verdict != oracle.OK:
            failed += 1
            reasons.append(f"request {i} {req['argv'][3:]}: {verdict}")
    return failed, known, reasons


def _answers(report: dict) -> list:
    return [(r["code"], r["exc"], r["out"], r["err"]) for r in report["results"]]


def measure(args, root: Path, runner: Runner, table: dict) -> tuple[dict, dict]:
    builtins = gen.load_builtins(root)
    rng = random.Random(f"{args.workload}:{args.seed}")
    relabeller = gen.Relabeller(builtins, rng)
    setups = [runner.run({}, [])["setup_s"] for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    tally = {"attempted": 0, "failed": 0, "known_defects": 0, "reasons": [], "mismatched": 0}
    out_dir = root / ".bench_out"
    start = time.perf_counter()
    # Start another pass only if half of one as long as the longest so far
    # still fits: runs then end, on average, near the measuring time.
    longest = 0.0
    while not plain or time.perf_counter() - start + longest / 2 <= args.seconds:
        began = time.perf_counter()
        p = workloads.build_pass(args.workload, rng, relabeller, table)
        argvs = [r["argv"] for r in p.requests]
        runs = [runner.run(p.files, argvs)]
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}-pass{len(plain)}.jsonl.gz"
            runs.append(runner.run(p.files, argvs, spans))
            tally["mismatched"] += sum(a != b for a, b in zip(_answers(runs[0]), _answers(runs[1])))
            traced.append(runs[1])
        plain.append(runs[0])
        for report in runs:
            failed, known, reasons = _check_pass(p, report, table)
            tally["attempted"] += len(p.requests)
            tally["failed"] += failed
            tally["known_defects"] += known
            tally["reasons"] += reasons
        longest = max(longest, time.perf_counter() - began)
    setups += [r["setup_s"] for r in plain]
    latencies = [res["ns"] / 1e6 for r in plain for res in r["results"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p95_ms": statistics.quantiles(latencies, n=20, method="inclusive")[18],
        "throughput_rps": len(latencies) / sum(r["run_s"] for r in plain),
    }
    if args.trace:
        layers = {
            k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]
        }
        layers["tracing_overhead_s"] = statistics.median(r["run_s"] for r in traced) - metrics["run_s"]
        metrics = layers
    tally.update(
        passes=len(plain), samples=len(latencies), setups=len(setups),
        pass_s=[round(r["run_s"], 3) for r in plain],
    )
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="toricfano benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "toricfano" / "__init__.py").is_file():
        print(f"perfbench: no toricfano sources under {root / 'src'}", file=sys.stderr)
        return 2
    table = oracle.load()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(root, work, time.monotonic() + HARD_LIMIT_S)
    try:
        metrics, tally = measure(args, root, runner, table)
    except (BenchError, FileNotFoundError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    for reason in tally["reasons"][:20]:
        print(f"FAILED {reason}")
    attempted = tally["attempted"]
    print(
        f"{args.workload} seed {args.seed}: {tally['passes']} passes, {attempted} requests checked, "
        f"{tally['failed']} failed (failed_ratio {tally['failed'] / attempted:.4f}), "
        f"{tally['known_defects']} known-defect tracebacks "
        f"(known_defect_ratio {tally['known_defects'] / attempted:.4f}), "
        f"{tally['samples']} latency samples, {tally['setups']} set-ups, pass times {tally['pass_s']} s"
    )
    if args.trace:
        print(f"answers that differ between traced and untraced passes: {tally['mismatched']}")
    for name, unit in units.items():
        print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally["failed"] == 0 and tally["mismatched"] == 0,
                "attempted": attempted,
                "failed": tally["failed"] + tally["mismatched"],
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
