#!/usr/bin/env python3
"""Tests of the benchmark harness itself, on the smoke fields (F_3), in about
a minute.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks, for every workload: untraced and traced runs with two seeds are
correct and print exactly the metrics BENCHMARK.json names, with its units;
every end-to-end value is positive; every per-layer count repeats exactly
between the two seeds.  Then, in a scratch copy of the checkout: without
the sources the benchmark exits non-zero and prints no result, and with a
corrupted reference digest it reports correct = false.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_work" / "selftest"
EXACT_UNITS = ("count", "bytes")


def run(root, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def check_result(workload, trace, seed, rc, result, err):
    where = f"{workload} trace={trace} seed={seed}"
    assert rc == 0 and result, f"{where}: exit {rc}\n{err}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec], where
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        if not trace:
            assert got["value"] > 0, f"{where}: {m['name']} is not positive"


def main():
    workloads = [w["name"] for w in BENCH["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            results = []
            for seed in (1, 2):
                rc, result, err = run(ROOT, workload, seed, trace)
                check_result(workload, trace, seed, rc, result, err)
                results.append(result["metrics"])
            if trace:
                for m in BENCH["per_layer"]:
                    if m["unit"] in EXACT_UNITS or m["name"] == "hecke.zero_ratio":
                        a, b = (r[m["name"]]["value"] for r in results)
                        assert a == b, f"{workload}: {m['name']} differs between seeds: {a} != {b}"
            print(f"ok  {workload} trace={trace}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(HERE, SCRATCH / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, result, _ = run(SCRATCH, workloads[0], 1, 0)
        assert rc != 0 and result is None, "ran without the program's sources"
        print("ok  no sources: exit", rc)

        shutil.copytree(ROOT / "src", SCRATCH / "src", ignore=shutil.ignore_patterns("__pycache__"))
        ref_path = SCRATCH / "perfbench" / "reference.json"
        ref = json.loads(ref_path.read_text())
        ref["smoke"]["table-a2-warm"]["table"] = "0" * 64
        ref_path.write_text(json.dumps(ref))
        rc, result, _ = run(SCRATCH, "table-a2-warm", 1, 0)
        assert rc != 0 and result and not result["correct"] and result["failed"] == 1, result
        print("ok  corrupted digest: correct = false, exit", rc)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
