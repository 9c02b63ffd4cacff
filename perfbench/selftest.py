"""Quick self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

For every workload, in both modes, it runs ``run.py --quick``.
It asserts that the run exits 0, that the result line carries exactly the
metrics BENCHMARK.json names for that mode, each with its unit, and that no
call failed (``failed_share`` is 0).  It also checks that a copy of the
benchmark without the package source exits non-zero and prints no result.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for mode in (0, 1):
            proc = run([sys.executable, RUN, "--workload", workload, "--seed", "3",
                        "--trace", str(mode), "--quick"])
            label = f"{workload} --trace {mode}"
            check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
            check(result["correct"] is True and result["failed"] == 0, f"{label}: failed calls")
            check(result["attempted"] >= 1, f"{label}: no calls")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[mode], f"{label}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(wanted[mode]) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted[mode]))}")
            record = os.path.join(ROOT, ".perfbench_work", f"record-{workload}-{mode}.json")
            with open(record, encoding="utf-8") as fh:
                check(json.load(fh)["failed_share"] == 0, f"{label}: failed_share is not 0")
            print(f"ok {label}: {result['attempted']} calls")

    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run([sys.executable, os.path.join(bare, os.path.basename(HERE), "run.py"),
                    "--workload", "corpus-sweep", "--seed", "1", "--trace", "0",
                    "--quick"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "benchmark without package source exited 0")
    check('"metrics"' not in proc.stdout, "benchmark without package source printed a result")
    print("ok no package source: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
