"""One workload in its own process: set up, warm up, run timed ops, check every output.

run.py starts this file with BLAS pinned to one thread and dtekit's sources on
PYTHONPATH; it writes its raw result as JSON to ``--result``. The loop is
closed with one client: an op starts when the previous one has returned.

With ``--trace 1`` every second op runs with the tracer installed, so the
same process gives the traced and the untraced op time, and their ratio is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_OPS = {0: 3, 1: 4}


def _check(workload, result, reference):
    """Content problems of one output, and its canonical bytes."""
    problems = workload.validate(result)
    canonical = workload.canonical(result)
    if reference is not None and canonical != reference:
        differing = sorted(key for key in reference if canonical.get(key) != reference[key])
        problems.append(f"output differs bitwise from the first op in {differing}")
    return problems, canonical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject-fault", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    import dtekit
    import machine
    import workloads
    from tracer import Tracer

    import_s = time.perf_counter() - started
    src = ROOT / "src"
    if not Path(dtekit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: dtekit was imported from {dtekit.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.size)
    attempted = failed = 0
    problems_seen: list[str] = []

    def run_op(tracer, index):
        if tracer is not None:
            tracer.begin_op(index)
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            result, error = workload.op(), None
        except Exception:
            result, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.end_op()
        return result, error, wall, cpu

    def judge(result, error, reference):
        nonlocal attempted, failed
        attempted += 1
        if error is not None:
            problems, canonical = [error.strip().splitlines()[-1]], reference
            print(error, file=sys.stderr)
        else:
            if args.inject_fault:
                result = workload.corrupt(result)
            try:
                problems, canonical = _check(workload, result, reference)
            except Exception:
                # an output the checks cannot even read is a wrong output
                problems, canonical = [traceback.format_exc().strip().splitlines()[-1]], reference
        if problems:
            failed += 1
            problems_seen.extend(problems)
        return canonical

    # set up several times: fresh inputs, then the first op on them, which is
    # checked like any other; the first set-up's output is the reference
    prepare_s, warmup_s, reference = [], [], None
    for repeat in range(SETUP_REPEATS):
        directory = args.workdir / f"setup-{repeat}"
        directory.mkdir(parents=True)
        t0 = time.perf_counter()
        workload.prepare(args.seed, directory)
        prepare_s.append(time.perf_counter() - t0)
        result, error, wall, _ = run_op(None, -1 - repeat)
        if error is not None:
            print(error, file=sys.stderr)
            return 1
        warmup_s.append(wall)
        canonical = judge(result, None, reference)
        if reference is None:
            reference = canonical
    setup_s = import_s + statistics.median(p + w for p, w in zip(prepare_s, warmup_s))

    tracer = Tracer() if args.trace else None
    ops = []
    t_start = time.perf_counter()
    while len(ops) < MIN_OPS[args.trace] or (
        # start another op only if it is expected to end within --seconds
        time.perf_counter() - t_start + statistics.median(op["wall_s"] for op in ops) <= args.seconds
    ):
        traced = tracer is not None and len(ops) % 2 == 1
        result, error, wall, cpu = run_op(tracer if traced else None, len(ops))
        judge(result, error, reference)
        ops.append({"wall_s": wall, "cpu_s": cpu, "traced": traced})
    measured_s = time.perf_counter() - t_start

    trace = None
    if tracer is not None:
        traced_s = statistics.median(op["wall_s"] for op in ops if op["traced"])
        plain_s = statistics.median(op["wall_s"] for op in ops if not op["traced"])
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        trace = tracer.summary(listed, 100.0 * (traced_s / plain_s - 1.0))
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed, "size": args.size})

    args.result.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "machine": machine.machine_block(),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "warmup_s": warmup_s,
        "setup_s": setup_s,
        "measured_s": measured_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": list(dict.fromkeys(problems_seen))[:5],
        "per_layer": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
