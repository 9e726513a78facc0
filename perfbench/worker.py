"""One workload process: set up, report ready, then run the timed loop.

Started by ``run.py`` with the checkout root as working directory.  After
importing the package from ``./src``, generating the inputs and running one
warm-up operation it prints ``READY`` and waits for one line on stdin:
``stop`` ends it there (a set-up-only repetition), ``run`` starts the
measurement, whose result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import clock

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def run_rounds(workload, seconds):
    """Whole rounds of the workload's operations until ``seconds`` have passed.

    Operation times are scaled to the nominal machine speed (``clock``):
    ``done`` holds those of completed operations, ``busy`` their sum with
    those of failed ones.
    """
    timer = clock.ScaledTimer()
    outcome = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for item in workload.items:
            timer.key = len(outcome)
            outcome.append(workload.timed(item, timer))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            timer.close()
            times = [timer.totals.get(k, 0.0) for k in range(len(outcome))]
            return dict(
                done=[t for t, fail in zip(times, outcome) if not fail],
                busy=sum(times),
                failed=sum(outcome),
                attempted=len(outcome),
                rounds=rounds,
                reference=timer.samples,
            )


def end_to_end(stats):
    return {
        "ops_per_s": {"value": len(stats["done"]) / stats["busy"], "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(stats["done"]) * 1e3, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def src_lines():
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def traced_run(workload, seconds, make):
    """The workload traced for ``seconds``, then one traced round of each
    other workload that is home to some layer metric."""
    import numpy as np

    import layers
    import spans

    others = [make(home) for home in layers.HOMES if home != workload.name]
    for other in others:
        other.timed(other.items[0])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        stats = run_rounds(workload, seconds)
        segments = {workload.name: (tracer.take(), stats)}
        for other in others:
            other_stats = run_rounds(other, 0.0)
            segments[other.name] = (tracer.take(), other_stats)
    finally:
        uninstall()
    metrics = layers.metrics(
        {home: (recorded, s["rounds"], clock.NOMINAL_S / statistics.median(s["reference"]))
         for home, (recorded, s) in segments.items()},
        tracer.names,
    )
    metrics["src.lines"] = {"value": src_lines(), "unit": "lines"}
    metrics["machine.ref_ms"] = {
        "value": statistics.median(stats["reference"]) * 1e3, "unit": "ms"}
    arrays = {"names": np.array(tracer.names)}
    for home, (recorded, _) in segments.items():
        for key, value in recorded.items():
            arrays["%s.%s" % (home, key)] = np.asarray(value)
    np.savez(os.path.join(OUT, "trace-%s.npz" % workload.name), **arrays)
    return stats, metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import curvednbody

    if not os.path.abspath(curvednbody.__file__).startswith(SRC + os.sep):
        sys.stderr.write("curvednbody imported from outside %s\n" % SRC)
        return 2
    import workloads
    from reference import CheckFailed

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="work-", dir=OUT)

    def make(name):
        return workloads.WORKLOADS[name](args.seed, scratch)

    correct, stats, metrics = True, None, {}
    try:
        workload = make(args.workload)
        workload.timed(workload.items[0])
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        if args.trace:
            stats, metrics = traced_run(workload, args.seconds, make)
        else:
            stats = run_rounds(workload, args.seconds)
            metrics = end_to_end(stats)
    except CheckFailed as exc:
        sys.stderr.write("check failed: %s\n" % exc)
        correct = False
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": stats["attempted"] if stats else 0,
        "failed": stats["failed"] if stats else 0,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
