"""lpcsm benchmark entry point.

    python3 perfbench/run.py --workload train-copy-t64 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the benchmark imports lpcsm from
its `src/`. Each workload runs in a child process (worker.py) with BLAS
pinned to one thread. With `--trace 0` the last line of standard output is
the end-to-end result; `setup_s` is the median over several fresh
processes of the time from process start to the end of set-up. Times are
normalised to a reference machine speed (see speed.py). With
`--trace 1` it is the per-layer result of a traced run. Earlier lines carry
informational fields: versions, sample counts, output hashes.
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
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({k: "1" for k in PINNED})  # before numpy loads, in speed

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the main one included
DEADLINE_S = 170.0  # the whole run, set-up samples included


class WorkerError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start worker.py; return (seconds until it printed READY, normalised
    by the mean slowdown measured just before the start and just after
    READY, and its stdout lines). The worker is killed at `deadline`, a
    perf_counter time."""
    slow_before = speed.slowdown()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready_s = None
        lines = []
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - t0
                slow = (slow_before + speed.slowdown()) / 2
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s / slow, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lpcsm" / "__init__.py").is_file():
        print(f"no lpcsm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready_s, _ = run_worker(common + ["--seconds", "0", "--setup-only"],
                                        deadline)
                setup.append(ready_s)
        ready_s, lines = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline)
    except WorkerError as e:
        print(str(e), file=sys.stderr)
        return 1
    setup.append(ready_s)

    results = [ln for ln in lines if ln.startswith("RESULT ")]
    if not results:
        print("worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(results[-1][len("RESULT "):])
    info = result.pop("info")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_samples_s"] = setup
    for ln in lines:
        if not ln.startswith("RESULT "):
            print(ln)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
