#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
- with --trace 0 and --trace 1, the last stdout line has exactly the result
  keys, every metric BENCHMARK.json names for that mode appears there and in
  the table above it with its unit, and a correct run reports no failure;
- with --inject-fault, every op's damaged output is caught, so error_rate
  reads 1 and the run is not correct.
It also checks that the benchmark fails, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TIMEOUT_S = 120


def _run(root: Path, *flags: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1", *flags]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(run: subprocess.CompletedProcess, what: str) -> tuple[dict, str]:
    if run.returncode != 0:
        raise AssertionError(f"{what}: exit code {run.returncode}\n{run.stderr[-2000:]}")
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys are {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        raise AssertionError(f"{what}: attempted/failed are not counts: {result}")
    return result, "\n".join(lines[:-1])


def _check_metrics(result: dict, table: str, expected: list[dict], what: str) -> None:
    names = [m["name"] for m in expected]
    if sorted(result["metrics"]) != sorted(names):
        raise AssertionError(f"{what}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    rows = {line.split()[0]: line.split() for line in table.splitlines() if line.startswith("  ")}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        value = printed["value"]
        if printed["unit"] != metric["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{what}: {metric['name']} printed as {printed}")
        row = rows.get(metric["name"])
        if row is None or row[-1] != metric["unit"]:
            raise AssertionError(f"{what}: table row for {metric['name']} is {row}")
    if "error_rate" not in rows:
        raise AssertionError(f"{what}: no error_rate row")


def main() -> int:
    checks = 0
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            what = f"{workload} trace {trace}"
            result, table = _result(_run(ROOT, "--workload", workload, "--size", "tiny", "--trace", str(trace)), what)
            _check_metrics(result, table, expected, what)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError(f"{what}: a correct run reported failures: {table}")
            checks += 1
        what = f"{workload} with an injected fault"
        result, table = _result(_run(ROOT, "--workload", workload, "--size", "tiny", "--inject-fault"), what)
        rate = float(next(line.split()[1] for line in table.splitlines() if line.split()[:1] == ["error_rate"]))
        if result["correct"] or result["failed"] != result["attempted"] or rate != 1.0:
            raise AssertionError(f"{what}: wrong outputs were not all counted: {table}")
        checks += 1

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        run = _run(bare, "--workload", SPEC["workloads"][0]["name"])
        if run.returncode == 0 or run.stdout.strip():
            raise AssertionError(f"bare directory: exit code {run.returncode}, stdout {run.stdout!r}")
        checks += 1
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"selftest: {checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
