"""One benchmark workload in one process.

Sets up, prints READY, runs ops for the given number of seconds, checks
every op's output, and prints one `RESULT {...}` line. run.py starts this
with BLAS pinned to one thread and times its set-up from outside.

    python3 perfbench/worker.py --workload decode-t256 --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lpcsm  # noqa: E402

if not Path(lpcsm.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"lpcsm was imported from {lpcsm.__file__}, not from {SRC}")

from lpcsm import runtime  # noqa: E402
from lpcsm.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from lpcsm.config import load_run_config  # noqa: E402
from lpcsm.data import make_batch  # noqa: E402
from lpcsm.model import init_params, model_forward  # noqa: E402
from lpcsm.numerics import NumericsError, Tensor, no_grad  # noqa: E402
from lpcsm.objective import lm_loss  # noqa: E402
from lpcsm.train import TrainingDivergedError, sequence_loss, train  # noqa: E402

import speed  # noqa: E402
import stats  # noqa: E402
from spans import Tracer, self_times, tape_nodes  # noqa: E402


@dataclass(frozen=True)
class Workload:
    config: str          # YAML file under perfbench/configs
    kind: str            # "train" or "decode"
    steps: int = 0       # optimizer steps per train() call
    prompt_len: int = 0
    max_new: int = 0


# Why each workload exists is written down in perfbench/README.md.
WORKLOADS = {
    "train-copy-t64": Workload("train-copy-t64.yaml", "train", steps=12),
    "train-recall-t256": Workload("train-recall-t256.yaml", "train", steps=10),
    "decode-t256": Workload("decode-t256.yaml", "decode",
                            prompt_len=128, max_new=128),
}

# A run stops after this many times --seconds of wall time, however slow
# the machine is.
WALL_CAP = 1.5
# Decode reports the LM loss of its model on the prompts of this many ops.
DECODE_LOSS_OPS = 4
LOSS_FIELDS = slice(1, 7)  # lm..total in lpcsm.train.METRICS_HEADER


class RowClock:
    """A `metrics_out` for train() that timestamps each CSV line.

    The first line is the header, written just before step 0; the time from
    one line to the next is one optimizer step, make_batch included. After
    each line it runs the calibration loop, and the next step starts when
    that ends, so each step is timed without it and normalised by the mean
    slowdown measured on either side.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.ends: list[float] = []
        self.starts: list[float] = []
        self.slow: list[float] = []
        self.lines: list[str] = []
        self.tracer = tracer

    def write(self, line: str) -> None:
        self.ends.append(time.perf_counter())
        self.lines.append(line)
        if self.tracer is not None:
            self.tracer.step += 1
        self.slow.append(speed.slowdown())
        self.starts.append(time.perf_counter())

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.starts, self.ends[1:]))

    def step_seconds(self) -> list[float]:
        return [b - a for a, b in self.intervals()]

    def slowdowns(self) -> list[float]:
        return [(a + b) / 2 for a, b in zip(self.slow, self.slow[1:])]

    def losses(self) -> list[list[str]]:
        """Per step, the loss fields exactly as train() wrote them."""
        return [line.strip().split(",")[LOSS_FIELDS] for line in self.lines[1:]]


class StepClock:
    """Wraps runtime.step_decode to time each call; generate() looks the
    name up in its module on every token, so the wrapper sees each one."""

    def __init__(self):
        self.calls: list[tuple[float, float]] = []
        self._original = runtime.step_decode

    def __enter__(self):
        original = self._original

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            self.calls.append((t0, time.perf_counter()))
            return out

        runtime.step_decode = timed
        return self

    def __exit__(self, *exc):
        runtime.step_decode = self._original
        return False


def checkpoint_round_trip(params, cfg, path: Path, tracer: Tracer | None):
    """Save and reload `params`; returns (bit-exact, reloaded params)."""
    with _maybe_span(tracer, "checkpoint.save"):
        save_checkpoint(params, cfg, str(path))
    with _maybe_span(tracer, "checkpoint.load"):
        loaded, loaded_cfg = load_checkpoint(str(path))
    if tracer is not None:
        tracer.count("checkpoint.bytes", path.stat().st_size)
        tracer.count("checkpoint.round_trips")
    exact = (loaded_cfg == cfg and loaded.names() == params.names() and all(
        loaded.is_trainable(n) == params.is_trainable(n)
        and loaded[n].shape == t.shape
        and loaded[n].data.tobytes() == t.data.tobytes()
        for n, t in params.items()
    ))
    return exact, loaded


def _maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Bench:
    """Set-up state and op loop of one workload run."""

    def __init__(self, name: str, seed: int, trace: bool,
                 workload: Workload | None = None, run_cfg=None):
        self.name = name
        self.seed = seed
        self.w = workload or WORKLOADS[name]
        self.tracer = Tracer() if trace else None
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.ckpt_path = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}.ckpt"
        self.attempted = 0
        self.failed = 0
        self.info: dict = {}
        # Timing samples: train steps or generated tokens, in seconds.
        self.raw_s: list[float] = []        # untraced, wall time
        self.norm_s: list[float] = []       # untraced, normalised
        self.traced_norm_s: list[float] = []
        self.slowdowns: list[float] = []
        # Timed intervals of traced ops: train steps or generate() calls.
        self.intervals: list[tuple[float, float]] = []
        if run_cfg is None:
            with _maybe_span(self.tracer, "config.load"):
                run_cfg = load_run_config(str(HERE / "configs" / self.w.config))
        run_cfg = replace(run_cfg, task=replace(run_cfg.task, seed=seed))
        self.run_cfg = run_cfg
        self.cfg = run_cfg.model
        if self.w.kind == "train":
            self._setup_train()
        else:
            self._setup_decode()

    # -- set-up ------------------------------------------------------------

    def _setup_train(self) -> None:
        self.ref_losses = None
        train(self.run_cfg, steps=1, seed=self.seed)  # warm-up

    def _setup_decode(self) -> None:
        params = init_params(self.cfg, seed=self.seed)
        exact, self.params = checkpoint_round_trip(params, self.cfg,
                                                   self.ckpt_path, self.tracer)
        self._gate(exact)
        self.prefill_s: list[float] = []   # per prompt token, normalised
        self.gen_tokens = 0
        self.gen_seconds = 0.0             # normalised generate() time
        self.prompt_losses: list[float] = []
        self.outputs = hashlib.sha256()
        runtime.generate([2, 3, 4, 5], 4, self.params, self.cfg)  # warm-up

    def _gate(self, ok: bool, ops: int = 1, bad: int | None = None) -> None:
        self.attempted += ops
        self.failed += (0 if ok else ops) if bad is None else bad

    # -- ops ---------------------------------------------------------------

    def run(self, seconds: float) -> None:
        """Ops for about `seconds` at reference speed, so that a run does
        the same number of ops however fast the machine is at the moment,
        but for at most WALL_CAP times `seconds` of wall time. The next op
        starts only if at least half of it fits. Traced runs alternate
        untraced and traced ops and run at least one of each."""
        op_fn = self._train_op if self.w.kind == "train" else self._decode_op
        start = time.perf_counter()
        op, last, norm = 0, 0.0, 0.0
        while (op == 0 or (self.tracer is not None and op < 2)
               or (norm + last / 2 < seconds
                   and time.perf_counter() - start < WALL_CAP * seconds)):
            t0 = time.perf_counter()
            slow = op_fn(op, self.tracer is not None and op % 2 == 1)
            last = (time.perf_counter() - t0) / slow
            norm += last
            op += 1
        self.info.update(ops=op, measured_s=time.perf_counter() - start,
                         measured_reference_s=norm)

    def _traced(self, traced: bool, op: int):
        if not traced:
            return contextlib.nullcontext([])
        self.tracer.op = op
        return self.tracer.installed(self._hooks())

    def _train_op(self, op: int, traced: bool) -> float:
        """One train() call; returns its mean slowdown."""
        w, run_cfg = self.w, self.run_cfg
        clock = RowClock(self.tracer if traced else None)
        try:
            with self._traced(traced, op) as missing:
                result = train(run_cfg, steps=w.steps, seed=self.seed,
                               metrics_out=clock)
        except (TrainingDivergedError, NumericsError):
            result = None
        if traced:
            self.tracer.op = -1
            self.info["unpatched"] = missing
        steps = clock.step_seconds()
        slow = clock.slowdowns()
        losses = clock.losses()
        finite = [all(math.isfinite(float(v)) for v in row) for row in losses]
        if self.ref_losses is None:
            self.ref_losses = losses
            self.info["loss_sha256"] = hashlib.sha256(
                json.dumps(losses).encode()).hexdigest()
            tail = [float(row[0]) for row in losses[w.steps // 2:]]
            self.info["lm_loss"] = sum(tail) / len(tail) if tail else math.nan
        same = [i < len(self.ref_losses) and row == self.ref_losses[i]
                for i, row in enumerate(losses)]
        good = sum(f and s for f, s in zip(finite, same))
        self._gate(result is not None, ops=w.steps, bad=w.steps - good)
        norm = [t / f for t, f in zip(steps, slow)]
        if traced:
            self.traced_norm_s.extend(norm)
            self.intervals.extend(clock.intervals())
        else:
            self.raw_s.extend(steps)
            self.norm_s.extend(norm)
        self.slowdowns.extend(slow)
        if result is not None:
            exact, _ = checkpoint_round_trip(result.params, self.cfg,
                                             self.ckpt_path, self.tracer)
            self._gate(exact)
        return sum(slow) / len(slow) if slow else speed.slowdown()

    def _decode_op(self, op: int, traced: bool) -> float:
        """One generation; returns its mean slowdown."""
        w, cfg = self.w, self.cfg
        slow_before = speed.slowdown()
        with self._traced(traced, op) as missing:
            if traced:
                self.tracer.step = op
                with self.tracer.span("data.make_batch"):
                    inputs, _ = make_batch(self.run_cfg.task, 1, index=op)
            else:
                inputs, _ = make_batch(self.run_cfg.task, 1, index=op)
            prompt = [int(t) for t in inputs[0, :w.prompt_len]]
            with StepClock() as clock:
                t0 = time.perf_counter()
                out = runtime.generate(prompt, w.max_new, self.params, cfg)
                t1 = time.perf_counter()
        f = (slow_before + speed.slowdown()) / 2
        self.slowdowns.append(f)
        if traced:
            self.tracer.op = -1
            self.info["unpatched"] = missing
            self.intervals.append((t0, t1))
        calls = clock.calls
        decode = [b - a for a, b in calls[len(calls) - w.max_new:]]
        if traced:
            self.traced_norm_s.extend(t / f for t in decode)
        else:
            self.raw_s.extend(decode)
            self.norm_s.extend(t / f for t in decode)
            prefill_end = calls[len(calls) - w.max_new - 1][1]
            self.prefill_s.append((prefill_end - t0) / len(prompt) / f)
            self.gen_tokens += len(out)
            self.gen_seconds += (t1 - t0) / f
        self._gate(self._decode_matches(prompt, out, op))
        return f

    def _decode_matches(self, prompt: list[int], out: list[int], op: int) -> bool:
        """Greedy decode equals the argmax of a teacher-forced pass."""
        p, n = len(prompt), self.w.max_new
        if len(out) != p + n or out[:p] != prompt:
            return False
        with no_grad():
            logits, _ = model_forward(out[:-1], self.params, self.cfg)
            if op < DECODE_LOSS_OPS:
                ce = lm_loss(Tensor(logits.lm.data[:p - 1]), np.array(prompt[1:]))
                self.prompt_losses.append(ce.item())
                self.outputs.update(json.dumps(out).encode())
        greedy = np.argmax(logits.lm.data[p - 1:], axis=-1)
        return bool(np.array_equal(greedy, np.array(out[p:])))

    # -- per-layer counters --------------------------------------------------

    def _hooks(self) -> dict:
        t = self.tracer

        def mask_bits(args, result):  # causal_mask_bits -> (hard, soft, ratio)
            t.count("controller.kept", float(result[0].data.sum()))
            t.count("controller.positions", result[0].data.size)

        def mask_step(args, result):  # decode: the current token's bit
            t.count("controller.kept", float(result.hard.data[-1]))
            t.count("controller.positions")

        def rows_seq(args, result):  # local/latent attention over [T, d]
            t.count("attention.rows", args[0].shape[0])

        def rows_step(args, result):  # query row plus the re-projected window
            t.count("attention.rows", 1 + len(args[1].history))

        return {
            "causal_mask_bits": mask_bits, "hard_mask": mask_step,
            "local_attention": rows_seq, "latent_attention": rows_seq,
            "_attend_step": rows_step,
        }

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        samples = self.norm_s
        if self.w.kind == "train":
            tokens = self.run_cfg.train.batch_size * self.run_cfg.task.seq_len
            tokens_per_s = tokens * len(samples) / sum(samples)
            lm = self.info["lm_loss"]
        else:
            tokens_per_s = self.gen_tokens / self.gen_seconds
            lm = sum(self.prompt_losses) / len(self.prompt_losses)
            self.info["prefill_ms_per_token_p50"] = 1e3 * statistics.median(self.prefill_s)
            self.info["output_sha256"] = self.outputs.hexdigest()
        p, tail = stats.tail(samples)
        self.info.update(samples=len(samples), tail_percentile=p,
                         raw_op_ms_p50=1e3 * statistics.median(self.raw_s),
                         slowdown_mean=sum(self.slowdowns) / len(self.slowdowns))
        return {
            "op_ms_p50": (1e3 * statistics.median(samples), "ms"),
            "op_ms_tail": (1e3 * tail, "ms"),
            "tokens_per_s": (tokens_per_s, "tok/s"),
            "lm_loss_nats": (lm, "nats"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def per_layer(self, tape_per_token: float) -> dict:
        t = self.tracer
        spans = t.spans
        own = self_times(spans)
        incl: dict[str, float] = {}
        excl: dict[str, float] = {}
        calls: dict[str, int] = {}
        setup: dict[str, list[float]] = {}
        for s, o in zip(spans, own):
            if s.name.startswith(("checkpoint.", "config.")):
                setup.setdefault(s.name, []).append(s.end - s.start)
                continue
            if s.op < 0:
                continue
            incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
            excl[s.name] = excl.get(s.name, 0.0) + o
            calls[s.name] = calls.get(s.name, 0) + 1

        covered = sum(
            o for s, o in zip(spans, own)
            if s.op >= 0 and any(a <= s.start and s.end <= b for a, b in self.intervals))
        total = sum(b - a for a, b in self.intervals)

        untraced, traced = self.norm_s, self.traced_norm_s
        if self.w.kind == "train":
            units = len(traced)  # time and counts per optimizer step
            tokens = units * self.run_cfg.train.batch_size * self.run_cfg.task.seq_len
            per_op = units
            prefill = 0.0
        else:
            units = calls.get("runtime.step_decode", 0)  # per processed token
            tokens = units
            per_op = len(self.intervals)  # counts per generated sequence
            prefill = self.info["prefill_ms_per_token_p50"]

        def ms(*names, inclusive=False):
            src = incl if inclusive else excl
            return 1e3 * sum(src.get(n, 0.0) for n in names) / units

        def mean_ms(name):
            v = setup.get(name, [])
            return 1e3 * sum(v) / len(v) if v else 0.0

        positions = t.counts.get("controller.positions", 0.0)
        round_trips = t.counts.get("checkpoint.round_trips", 0.0)
        m = {
            "numerics.backward_ms": (ms("numerics.backward"), "ms"),
            "numerics.tape_nodes_per_token": (tape_per_token, "count"),
            "model.forward_ms": (ms("model.forward", "runtime.step_decode",
                                    inclusive=True), "ms"),
            "model.block_self_ms": (ms("model.block", "runtime.step_decode"), "ms"),
            "model.heads_ms": (ms("model.forward", "model.embed"), "ms"),
            "controller.ms": (ms("controller"), "ms"),
            "controller.mask_density": (
                t.counts.get("controller.kept", 0.0) / positions if positions else 0.0,
                "ratio"),
            "memory.fast_update_ms": (ms("memory.fast_update"), "ms"),
            "memory.read_ms": (ms("memory.read"), "ms"),
            "memory.slow_write_ms": (ms("memory.slow_write"), "ms"),
            "memory.slow_writes": (calls.get("memory.slow_write", 0) / per_op, "count"),
            "ont.transport_ms": (ms("ont.transport"), "ms"),
            "ont.calls": (calls.get("ont.transport", 0) / per_op, "count"),
            "attention.ms": (ms("attention"), "ms"),
            "attention.rows_projected_per_token": (
                t.counts.get("attention.rows", 0.0) / tokens, "count"),
            "correction.ms": (ms("correction.predict", "correction.refine"), "ms"),
            "correction.refine_steps": (calls.get("correction.refine", 0) / per_op,
                                        "count"),
            "mhc.route_ms": (ms("mhc.route"), "ms"),
            "mhc.sinkhorn_ms": (ms("mhc.sinkhorn"), "ms"),
            "mhc.sinkhorn_calls_per_token": (
                calls.get("mhc.sinkhorn", 0) / tokens, "count"),
            "objective.loss_ms": (ms("objective.loss"), "ms"),
            "objective.sgd_step_ms": (ms("objective.sgd_step"), "ms"),
            "data.make_batch_ms": (ms("data.make_batch"), "ms"),
            "runtime.prefill_ms_per_token": (prefill, "ms"),
            "checkpoint.load_ms": (mean_ms("checkpoint.load"), "ms"),
            "checkpoint.save_ms": (mean_ms("checkpoint.save"), "ms"),
            "checkpoint.bytes": (
                t.counts.get("checkpoint.bytes", 0.0) / round_trips
                if round_trips else 0.0, "count"),
            "config.load_ms": (mean_ms("config.load"), "ms"),
            "trace.overhead_pct": (100.0 * (statistics.median(traced)
                                            / statistics.median(untraced) - 1.0), "%"),
            "trace.coverage_pct": (100.0 * covered / total, "%"),
            "speed.slowdown": (sum(self.slowdowns) / len(self.slowdowns), "ratio"),
        }
        return m

    def tape_nodes_per_token(self) -> float:
        if self.w.kind != "train":
            return 0.0
        inputs, targets = make_batch(self.run_cfg.task, 1, index=0)
        params = init_params(self.cfg, seed=self.seed)
        breakdown, _ = sequence_loss(inputs[0], targets[0], params, self.cfg,
                                     self.run_cfg.loss)
        return tape_nodes(breakdown.total) / inputs.shape[1]

    def close(self) -> None:
        self.ckpt_path.unlink(missing_ok=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload: Workload | None = None, run_cfg=None,
                 ready=None) -> dict:
    """Set up, call `ready()`, measure; returns the result object."""
    bench = Bench(name, seed, trace, workload, run_cfg)
    try:
        if ready is not None:
            ready()
        tape = bench.tape_nodes_per_token() if trace else 0.0
        bench.run(seconds)
        e2e = bench.end_to_end()
        metrics = bench.per_layer(tape) if trace else e2e
        if trace:
            bench.tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.jsonl")
    finally:
        bench.close()
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {**bench.info, **environment()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after set-up (a set-up time sample)")
    args = ap.parse_args(argv)

    def ready():
        print("READY", flush=True)

    if args.setup_only:
        Bench(args.workload, args.seed, False).close()
        ready()
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), ready=ready)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
