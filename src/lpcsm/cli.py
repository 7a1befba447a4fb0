"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from .numerics import NumericsError
from .config import ConfigError, RunConfig, check_task_fits, load_run_config
from .model import parse_fields
from .checkpoint import CheckpointError, save_checkpoint, load_checkpoint
from .train import (
    train, evaluate, ablate, probe_delayed_identifier, ProbeSpec,
    TrainingDivergedError,
)
from .objective import LossWeights
from .data import SyntheticTask
from .runtime import generate
from .ont import verify_properties

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_run(args) -> RunConfig:
    """The run config, with --steps and --seed replacing its [train] values."""
    run = load_run_config(args.config)
    given = {k: v for k, v in (("steps", args.steps), ("seed", args.seed))
             if v is not None}
    return replace(run, train=replace(run.train, **given))


def _cmd_train(args) -> int:
    run = _load_run(args)
    with open(args.metrics, "w") if args.metrics else nullcontext() as out:
        result = train(run, metrics_out=out)
    if args.out:
        save_checkpoint(result.params, run.model, args.out)
    print(f"final lm {result.final_lm:.4f} ratio {result.final_ratio:.3f}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    params, cfg = load_checkpoint(args.ckpt)
    task = parse_fields(SyntheticTask, args.task)
    check_task_fits(task, cfg)
    out = evaluate(params, cfg, task, LossWeights())
    for k, v in out.items():
        print(f"{k}: {v:.6f}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    params, cfg = load_checkpoint(args.ckpt)
    try:
        prompt = [int(t) for t in args.prompt.split(",")]
    except ValueError as e:
        raise ConfigError(f"bad prompt: {e}") from e
    tokens = generate(prompt, args.max_new, params, cfg,
                      eos_token=args.eos,
                      stop_threshold=args.stop_threshold)
    print(",".join(str(t) for t in tokens))
    return EXIT_OK


def _parse_probe_spec(spec: str) -> ProbeSpec:
    """Inline `k=v,...` pairs, or the path of a file holding them."""
    if "=" not in spec:
        try:
            with open(spec) as f:
                spec = f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"bad probe spec: {e}") from e
    return parse_fields(ProbeSpec, spec)


def _cmd_probe(args) -> int:
    params, cfg = load_checkpoint(args.ckpt)
    spec = _parse_probe_spec(args.probe_spec) if args.probe_spec else ProbeSpec()
    result = probe_delayed_identifier(params, cfg, spec)
    print(f"key cross-entropy: {result.key_cross_entropy:.6f}")
    print(f"prompt length: {result.prompt_length}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    rows = ablate(_load_run(args))
    print(f"{'variant':<24}{'final LM':>10}{'delta %':>9}{'tok/s':>9}{'ratio':>7}")
    for r in rows:
        print(f"{r.variant:<24}{r.final_lm:>10.4f}{r.delta_pct:>9.2f}"
              f"{r.tokens_per_second:>9.0f}{r.final_ratio:>7.3f}")
    return EXIT_OK


def _cmd_verify_ont(args) -> int:
    checks, elapsed = verify_properties(trials=args.trials)
    ok = True
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name:<20} max_err={c.max_error:.3e} tol={c.tol:.0e}")
        ok = ok and c.passed
    print(f"{len(checks)} properties, {args.trials} trials, {elapsed:.2f}s")
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lpcsm")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default=None, help="checkpoint path")
    t.add_argument("--metrics", default=None, help="CSV metrics path")
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--task", required=True,
                   help="kind=...,vocab_size=...,seq_len=...,key_len=...[,distractor_len=..][,seed=..]")
    e.set_defaults(fn=_cmd_eval)

    g = sub.add_parser("generate", help="greedy decode from a prompt")
    g.add_argument("--ckpt", required=True)
    g.add_argument("--prompt", required=True, help="comma-separated token ids")
    g.add_argument("--max-new", type=int, required=True)
    g.add_argument("--eos", type=int, default=None)
    g.add_argument("--stop-threshold", type=float, default=None)
    g.set_defaults(fn=_cmd_generate)

    pr = sub.add_parser("probe", help="delayed-identifier probe")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--probe-spec", default=None)
    pr.set_defaults(fn=_cmd_probe)

    a = sub.add_parser("ablate", help="full model vs single-toggle ablations")
    a.add_argument("--config", required=True)
    a.add_argument("--steps", type=int, default=None)
    a.add_argument("--seed", type=int, default=None)
    a.set_defaults(fn=_cmd_ablate)

    v = sub.add_parser("verify-ont", help="run the transport property suite")
    v.add_argument("--trials", type=int, default=1000)
    v.set_defaults(fn=_cmd_verify_ont)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A non-finite value raises at the model's boundaries, so numpy's
        # warning would only come before the same failure.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergedError, NumericsError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
