"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``worker.py``) with BLAS pinned to one thread.  Set-up, from the start of
that interpreter until its first timed operation is ready, is repeated
``SETUPS`` times in fresh interpreters and reported as the median; the last
one goes on to the timed loop.  Times are scaled to a fixed machine speed
(``clock.py``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 1 if a correctness check failed and 2 if the run could not be
made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("atlas", "flow", "cli")
SETUPS = 5
# Every run must end well inside three minutes, set-ups included.
DEADLINE_S = 170.0
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(Exception):
    pass


class NotReady(RunFailed):
    """The worker ended its set-up without reporting ready; ``line`` is what
    it printed instead (its result line when a check failed in set-up)."""

    def __init__(self, line, code):
        super().__init__("worker did not get ready (exit code %s)" % code)
        self.line = line


def start_worker(args, env):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)


def finish(proc, command, deadline):
    """Send ``command`` to a ready worker and return its remaining stdout."""
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate(command + "\n")
    finally:
        timer.cancel()
    return out, proc.returncode


def setup(args, env, deadline):
    """Start a worker and wait until it reports ready; return it and the time
    taken, scaled to the nominal machine speed by reference loops run just
    before the start and just after the ready line."""
    before = clock.reference_loop_s()
    t0 = time.perf_counter()
    proc = start_worker(args, env)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, "stop", deadline)
        raise NotReady(line, proc.returncode)
    after = clock.reference_loop_s()
    return proc, elapsed * clock.NOMINAL_S / (0.5 * (before + after))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "curvednbody", "__init__.py")):
        sys.stderr.write("no src/curvednbody here: run from the root of a checkout\n")
        return 2
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    count = 1 if args.trace else SETUPS
    try:
        for k in range(count):
            proc, elapsed = setup(args, env, deadline)
            setups.append(elapsed)
            if k < count - 1:
                finish(proc, "stop", deadline)
        out, code = finish(proc, "run", deadline)
        lines = out.strip().splitlines()
        if not lines:
            raise RunFailed("worker ended without a result (exit code %s)" % code)
        result = json.loads(lines[-1])
    except NotReady as exc:
        try:
            result = json.loads(exc.line)
        except ValueError:
            sys.stderr.write("run failed: %s\n" % exc)
            return 2
        print(json.dumps(result))
        return 1
    except (RunFailed, ValueError) as exc:
        sys.stderr.write("run failed: %s\n" % exc)
        return 2
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
