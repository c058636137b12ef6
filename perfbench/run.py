#!/usr/bin/env python3
"""dtekit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload band-linear --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; dtekit is imported from ``src/`` there.
The workload runs in its own worker process with BLAS pinned to one thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it repeat the metrics with their units, the machine block,
and ``error_rate`` (failed over attempted ops). ``--workload all`` runs every
workload in turn and prints one such block per workload.

Scratch inputs live in ``.perfbench/`` at the checkout root and are removed
at the end; the spans of a traced run are kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from machine import BLAS_ENV  # noqa: E402

WATCHDOG_S = 170


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_worker(args, workload: str, workdir: Path) -> dict:
    """Run the worker to completion and return its result."""
    result_path = workdir / "result.json"
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src")}
    trace_out = ROOT / ".perfbench" / "traces" / f"{workload}-seed{args.seed}-{args.size}.json"
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir), "--result", str(result_path),
        "--trace-out", str(trace_out),
    ]
    if args.inject_fault:
        command.append("--inject-fault")
    # the worker's output goes to stderr, so stdout ends with the result line;
    # its own session lets one signal stop it and any child it forked
    worker = subprocess.Popen(command, env=env, stdout=sys.stderr, cwd=ROOT, start_new_session=True)
    try:
        code = worker.wait(timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload}: worker exceeded {WATCHDOG_S} s and was killed") from None
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    if code != 0:
        raise RuntimeError(f"{workload}: worker exited with code {code}")
    return json.loads(result_path.read_text())


def _end_to_end(raw: dict, spec: list[dict]) -> dict:
    values = {
        "op_s": statistics.median(op["wall_s"] for op in raw["ops"]),
        "cpu_s": statistics.median(op["cpu_s"] for op in raw["ops"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup_s"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _seconds(values: list[float]) -> str:
    return " ".join(f"{v:.4f}" for v in values) + " s"


def _report(raw: dict, metrics: dict) -> None:
    m = raw["machine"]
    walls = [op["wall_s"] for op in raw["ops"]]
    error_rate = raw["failed"] / raw["attempted"]
    print(f"workload {raw['workload']} seed {raw['seed']} trace {raw['trace']} size {raw['size']}"
          " (closed loop, one client)")
    print(f"machine nproc={m['nproc']} usable={m['cpus_usable']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas_name']} {m['blas_version']} "
          f"threads={m['blas_threads']} env={m['blas_env']}")
    print(f"ops {len(walls)} in {raw['measured_s']:.2f} s; op wall min {min(walls):.4f} "
          f"max {max(walls):.4f} s; setup = import {raw['import_s']:.4f} + median of "
          f"{len(raw['prepare_s'])} (inputs + first op); inputs {_seconds(raw['prepare_s'])}, "
          f"first op {_seconds(raw['warmup_s'])}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':<40} {error_rate:>16.6g} ratio ({raw['failed']} of {raw['attempted']} ops)")
    for problem in raw["problems"]:
        print(f"  problem: {problem}")
    line = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one dtekit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the harness self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt every output before it is checked, for the self-test")
    args = parser.parse_args(argv)
    # turn a termination request into an exit, so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dtekit" / "__init__.py").is_file():
        print(f"error: no dtekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in (*known, "all"):
        parser.error(f"--workload must be one of {known} or all")
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    names = known if args.workload == "all" else [args.workload]
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        try:
            raw = _run_worker(args, name, workdir)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics = raw["per_layer"] if args.trace else _end_to_end(raw, spec["end_to_end"])
        _report(raw, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
