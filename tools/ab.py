"""In-process A/B timing of two source trees on the perfbench workloads.

    python tools/ab.py PARENT CHANGE [WORKLOAD ...]

PARENT and CHANGE are source checkouts, each holding `src/lpcsm`. Both
packages are copied into a temporary directory under two names and
imported into this one process, with BLAS pinned to one thread; lpcsm
imports itself only relatively, so the copies work. The workloads, their
configs, step counts and prompt lengths, and the train-step clock are
perfbench's own (`perfbench/worker.py`); by default all workloads run.

Per workload, after one untimed op of each tree, each of ROUNDS rounds
runs one op of each tree, A first in even rounds and B first in odd ones
(ABBA). A train op is one `train()` call of the workload's steps from the
config's seed, timed per step as perfbench times it, and its time is the
median step; a decode op is one greedy `generate` of the workload's new
tokens after the prompt of the task's first batch, with each
`runtime.step_decode` call timed as perfbench's `StepClock` times it, and
its time is the median of the last max_new calls, one per generated
token, so the prefill is left out. Each workload
prints one row: each side's median op time in ms, A's spread (the
distance between the quartiles of its per-round times, in percent of
its median), the median of the rounds' B/A ratios, the number of rounds
B was faster in, and whether every op of both trees gave the same output
(the losses of every step, or the generated tokens). A gain is clear of
the noise when 1 - B/A, in percent, exceeds A's spread.

Separate processes of one tree differ by a few percent from each other;
two trees timed in one process, in alternation, share that drift.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({k: "1" for k in PINNED})  # before numpy loads

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from worker import WORKLOADS, RowClock  # noqa: E402

ROUNDS = 16
HEADER = ("workload             unit      A ms  A IQR%      B ms     B/A   B won"
          "  identical")


class Side:
    """One tree's package, set up for one workload."""

    def __init__(self, pkg: str, workload: str):
        self.w = WORKLOADS[workload]
        self.train = importlib.import_module(f"{pkg}.train")
        self.runtime = importlib.import_module(f"{pkg}.runtime")
        config_mod = importlib.import_module(f"{pkg}.config")
        self.run = config_mod.load_run_config(
            str(PERFBENCH / "configs" / self.w.config))
        if self.w.kind == "decode":
            data = importlib.import_module(f"{pkg}.data")
            model = importlib.import_module(f"{pkg}.model")
            inputs, _ = data.make_batch(self.run.task, 1, index=0)
            self.prompt = [int(t) for t in inputs[0, :self.w.prompt_len]]
            self.params = model.init_params(self.run.model, seed=1)

    def op(self) -> tuple[float, object]:
        """Run one op; return its ms per step or per token and its output."""
        if self.w.kind == "train":
            clock = RowClock()
            self.train.train(self.run, steps=self.w.steps, metrics_out=clock)
            return 1e3 * statistics.median(clock.step_seconds()), clock.losses()
        seconds, original = [], self.runtime.step_decode

        def timed(*args, **kwargs):  # generate() looks the name up per token
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            seconds.append(time.perf_counter() - t0)
            return out

        self.runtime.step_decode = timed
        try:
            out = self.runtime.generate(self.prompt, self.w.max_new,
                                        self.params, self.run.model)
        finally:
            self.runtime.step_decode = original
        return 1e3 * statistics.median(seconds[-self.w.max_new:]), out


def compare(a: Side, b: Side,
            rounds: int) -> tuple[float, float, float, float, int, bool]:
    """(A's median ms, A's IQR in % of it, B's median ms, median B/A,
    rounds B won, identical)."""
    _, ref = a.op()
    identical = b.op()[1] == ref
    ms = {a: [], b: []}
    for r in range(rounds):
        for side in ((a, b) if r % 2 == 0 else (b, a)):
            t, out = side.op()
            ms[side].append(t)
            identical = identical and out == ref
    ratios = [y / x for x, y in zip(ms[a], ms[b])]
    won = sum(y < x for x, y in zip(ms[a], ms[b]))
    median_a = statistics.median(ms[a])
    q1, _, q3 = statistics.quantiles(ms[a], n=4)
    return (median_a, 100 * (q3 - q1) / median_a, statistics.median(ms[b]),
            statistics.median(ratios), won, identical)


def main(argv=None) -> int:
    names = sorted(WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"default: all of {', '.join(names)}")
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown:
        ap.error(f"unknown workloads: {sorted(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for tree, pkg in ((args.parent, "lpcsm_a"), (args.change, "lpcsm_b")):
            src = tree / "src" / "lpcsm"
            if not (src / "__init__.py").is_file():
                ap.error(f"{tree} holds no src/lpcsm")
            shutil.copytree(src, Path(tmp) / pkg,
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        print(HEADER)
        for name in args.workloads or names:
            a, b = Side("lpcsm_a", name), Side("lpcsm_b", name)
            ms_a, iqr_a, ms_b, ratio, won, same = compare(a, b, ROUNDS)
            unit = "ms/step" if a.w.kind == "train" else "ms/token"
            print(f"{name:<20} {unit:<8} {ms_a:>8.3f}  {iqr_a:>6.1f}  "
                  f"{ms_b:>8.3f}  {ratio:>6.3f}  {won:>3}/{ROUNDS:<3} "
                  f"{'yes' if same else 'no'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
