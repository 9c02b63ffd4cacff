"""Benchmark for the qleontief CLI: time to a verified verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload check-battery --seed 1 --trace 0
    python3 perfbench/run.py                  # every workload, one process each
    python3 perfbench/run.py --trace 1        # per-layer table from a traced run

One process runs one workload with one closed-loop caller: it builds the
seeded inputs as JSON files, then calls ``qleontief.cli.main(argv)``
in-process, one call after another, and checks every report against an
answer derived without the library (``gen.py``).  A speed probe
(``probe.py``) runs before each call, and each call time is scaled by the
median of the probes around it, so that the machine's own speed swings
cancel out (README.md, "Machine-speed scaling").  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any call failed or the library cannot be
imported.  See README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

SETUP_SPAWNS = 15
MIN_PASSES = 4  # 4 passes of 25 calls leave 10 samples beyond the 90th percentile
PROBE_WINDOW = 3


def load_spec() -> dict:
    """BENCHMARK.json: the workloads' reasons, the metrics and their units,
    and the default loop length (``run_seconds``)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")


def scaled(times: List[float], probes: List[float]) -> List[float]:
    """Wall times rescaled to the reference probe speed.  Probe i runs just
    before call i; each call is divided by the median of the probes taken
    within PROBE_WINDOW calls of it on either side, so probes from before
    and after the call both count."""
    k = PROBE_WINDOW
    return [t * probe.REF_PROBE_S / statistics.median(probes[max(0, i - k):i + k + 1])
            for i, t in enumerate(times)]


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import the package from this checkout's src/ or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "qleontief", "__init__.py")):
        die(f"no package source at {SRC}")
    sys.path.insert(0, SRC)
    import qleontief
    import qleontief.cli

    if not os.path.abspath(qleontief.__file__).startswith(SRC + os.sep):
        die(f"imported qleontief from {qleontief.__file__}, not {SRC}")
    return qleontief


# A fresh interpreter times its own import of qleontief.cli, then runs the
# speed probe on the core it ran on.
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import qleontief.cli
dt = time.perf_counter() - t0
import probe
print(dt, min(probe.speed_probe(), probe.speed_probe()))
"""


def measure_setup() -> Tuple[List[float], List[float]]:
    """Import times of qleontief.cli in fresh interpreters, as measured inside
    each child (interpreter start-up and shutdown excluded), and each
    child's probe time.  The first spawn compiles bytecode and is dropped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    imports, probes = [], []
    for i in range(SETUP_SPAWNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            die(f"importing qleontief.cli failed:\n{proc.stderr}")
        if i:
            dt, probe_s = map(float, proc.stdout.split())
            imports.append(dt)
            probes.append(probe_s)
    return imports, probes


def invoke(cli, call: gen.Call) -> Tuple[float, int, str, Optional[str]]:
    """One timed CLI call: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            dt = time.perf_counter() - t0
            return dt, -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), None


class Loop:
    """Closed loop over a battery of calls, verifying each result."""

    def __init__(self, cli, calls: List[gen.Call]):
        self.cli = cli
        self.calls = calls
        self.times: List[float] = []
        self.probes: List[float] = []
        self.scaled: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []

    def run(self, call: gen.Call) -> str:
        self.probes.append(probe.speed_probe())
        dt, code, out, error = invoke(self.cli, call)
        self.attempted += 1
        self.times.append(dt)
        try:
            problem = error or gen.verify(call, code, out)
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            problem = f"report lacks an expected field: {exc!r}"
        if problem:
            self.failures.append(f"{call.kind} {' '.join(call.argv)}: {problem}")
        return out

    def passes(self, seconds: float) -> List[float]:
        """Whole passes over the battery until ``seconds`` of loop time have
        passed, so every pass contributes the same input mix; at least
        MIN_PASSES, so ten or more samples lie beyond the 90th percentile.
        Returns each pass's calls per second of scaled call time."""
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            for call in self.calls:
                self.run(call)
            passes += 1
        self.scaled = scaled(self.times, self.probes)
        n = len(self.calls)
        return [n / sum(self.scaled[i:i + n]) for i in range(0, len(self.scaled), n)]


def warm_up(cli, calls: List[gen.Call]) -> None:
    """One call of each kind, untimed, so lazy imports and caches settle."""
    seen = set()
    for call in calls:
        if call.kind not in seen:
            seen.add(call.kind)
            invoke(cli, call)


def quantile(values: List[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def input_mix(calls: List[gen.Call]) -> Dict[str, dict]:
    """Calls per pass by kind, with how many calls have each size N."""
    mix: Dict[str, dict] = {}
    for c in calls:
        m = mix.setdefault(c.kind, {"calls": 0, "sizes": {}})
        m["calls"] += 1
        m["sizes"][c.size] = m["sizes"].get(c.size, 0) + 1
    return mix


def source_id() -> Dict[str, Optional[str]]:
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(SRC, "qleontief")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_untraced(cli, calls, seconds) -> Tuple[Loop, Dict[str, float], dict]:
    warm_up(cli, calls)
    loop = Loop(cli, calls)
    rates = loop.passes(seconds)
    t, raw = loop.scaled, loop.times
    p90 = quantile(t, 0.90)
    metrics = {
        "verdict_p50_s": statistics.median(t),
        "verdict_p90_s": p90,
        "verdicts_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"passes": len(rates), "calls": len(t), "p50_samples": len(t), "p90_samples": len(t),
               "beyond_p90": sum(1 for x in t if x > p90), "timed_loop_s": sum(raw),
               "probe_median_s": statistics.median(loop.probes),
               "raw_wall": {"p50_s": statistics.median(raw), "p90_s": quantile(raw, 0.90),
                            "verdicts_per_s": len(raw) / sum(raw)}}
    return loop, metrics, samples


def run_traced(q, cli, calls, spans_path) -> Tuple[Loop, Dict[str, float], dict]:
    """One untraced pass, then one traced pass over the same battery."""
    warm_up(cli, calls)
    loop = Loop(cli, calls)
    reports = [loop.run(c) for c in calls]
    base_s = sum(loop.times)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_reports = []
        for i, c in enumerate(calls):
            tracer.request = i
            traced_reports.append(loop.run(c))
    finally:
        tracer.uninstall()
    traced_s = sum(loop.times[len(calls):])
    differ = sum(1 for a, b in zip(reports, traced_reports) if a != b)
    if differ:
        loop.failures.append(f"{differ} traced reports differ from the untraced ones")
    layers = spans.layer_metrics(tracer, len(calls))
    layers.update(spans.scaling_exponents(q))
    base_vps, traced_vps = len(calls) / base_s, len(calls) / traced_s
    layers["trace.untraced_verdicts_per_s"] = base_vps
    layers["trace.traced_verdicts_per_s"] = traced_vps
    layers["trace.overhead_ratio"] = traced_vps / base_vps
    tracer.write(spans_path)
    samples = {"calls_per_pass": len(calls), "spans": len(tracer.spans),
               "reports_identical": differ == 0, "spans_file": os.path.relpath(spans_path, ROOT)}
    return loop, layers, samples


def run_one(args, spec: dict) -> int:
    q = load_library()
    cli = sys.modules["qleontief.cli"]
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = os.path.join(WORK, tag)
    try:
        calls = gen.build(args.workload, args.seed, inputs, quick=args.quick)
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
            loop, metrics, samples = run_traced(q, cli, calls, spans_path)
        else:
            imports, probes = measure_setup()
            loop, metrics, samples = run_untraced(cli, calls, 0 if args.quick else args.seconds)
            metrics["setup_s"] = statistics.median(
                dt * probe.REF_PROBE_S / p for dt, p in zip(imports, probes))
            samples["setup_import_s"] = imports
            samples["setup_probe_s"] = probes
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    failed = len(loop.failures)
    record = {
        **source_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": None if args.trace or args.quick else args.seconds,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "input_mix": input_mix(calls),
        "samples": samples,
        "failed_share": failed / loop.attempted,
        "wait_time": "none: no layer queues or retries, so every span is busy time",
        "failures": loop.failures[:20],
    }
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"record-{args.workload}-{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    print_table(record, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


def print_table(record: dict, metrics: Dict[str, dict]) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"python {record['python']} nproc {record['nproc']} "
          f"commit {record['commit'] or '-'} src {record['src_sha256'][:12]}")
    print(f"  why: {record['why']}")
    for kind, m in record["input_mix"].items():
        sizes = ", ".join(f"{n} ({count})" if count > 1 else str(n)
                          for n, count in m["sizes"].items())
        print(f"  input {kind}: {m['calls']} per pass, size {sizes}")
    print(f"  samples: {json.dumps(record['samples'])}")
    print(f"  {'failed_share':40s} {record['failed_share']:.6g} share")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(f"  wait time: {record['wait_time']}")
    for line in record["failures"]:
        print(f"  FAILED {line}")


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    results = {}
    status = 0
    for name in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = None
        if proc.returncode != 0 or not results[name] or not results[name]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="length of the timed loop (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smallest inputs and only the minimum passes, for the self-test")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
