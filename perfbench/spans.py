"""In-memory spans around the public functions of each lpcsm layer.

A traced run replaces a function's name in the module that calls it with a
wrapper that records a span, because each lpcsm module binds its imports as
local names (`from .memory import fast_update`). Patching the defining
module would miss every caller that imported the name earlier.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a top-level span
    op: int      # benchmark op (train() call or generation); -1 in setup
    step: int    # optimizer step or generated sequence id within the run


# (module, attribute, span name). A dotted attribute patches a method on a
# class. Train reaches the block through lpcsm.model; decode through
# lpcsm.runtime, whose attention has no public entry point and is timed
# through runtime._attend_step.
TARGETS = [
    ("lpcsm.train", "make_batch", "data.make_batch"),
    ("lpcsm.train", "model_forward", "model.forward"),
    ("lpcsm.train", "lm_loss", "objective.loss"),
    ("lpcsm.train", "aux_losses", "objective.loss"),
    ("lpcsm.train", "total_loss", "objective.loss"),
    ("lpcsm.train", "forward_backward", "numerics.backward"),
    ("lpcsm.objective", "SgdState.step", "objective.sgd_step"),
    ("lpcsm.model", "block_forward", "model.block"),
    ("lpcsm.model", "local_attention", "attention"),
    ("lpcsm.model", "latent_attention", "attention"),
    ("lpcsm.model", "fast_update", "memory.fast_update"),
    ("lpcsm.model", "memory_read", "memory.read"),
    ("lpcsm.model", "slow_write", "memory.slow_write"),
    ("lpcsm.model", "predict_init", "correction.predict"),
    ("lpcsm.model", "refine_step", "correction.refine"),
    ("lpcsm.model", "causal_mask_bits", "controller"),
    ("lpcsm.model", "mhc_route", "mhc.route"),
    ("lpcsm.memory", "ont_transport", "ont.transport"),
    ("lpcsm.mhc", "sinkhorn_normalize", "mhc.sinkhorn"),
    ("lpcsm.runtime", "step_decode", "runtime.step_decode"),
    ("lpcsm.runtime", "embed", "model.embed"),
    ("lpcsm.runtime", "_attend_step", "attention"),
    ("lpcsm.runtime", "fast_update", "memory.fast_update"),
    ("lpcsm.runtime", "memory_read", "memory.read"),
    ("lpcsm.runtime", "slow_write", "memory.slow_write"),
    ("lpcsm.runtime", "predict_init", "correction.predict"),
    ("lpcsm.runtime", "refine_step", "correction.refine"),
    ("lpcsm.runtime", "event_scores", "controller"),
    ("lpcsm.runtime", "hard_mask", "controller"),
    ("lpcsm.runtime", "mhc_route", "mhc.route"),
]


class Tracer:
    """Records spans and a few counters; nothing is written until `dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self.step = 0
        self._open: list[int] = []

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op, self.step))
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            s = self.spans[idx]
            s.start, s.end = start, end

    def wrap(self, name: str, fn, on_result=None):
        """`fn` with a span around every call; `on_result(args, result)`
        runs after the span closes, so counting is not charged to it."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, hooks: dict | None = None):
        """Patch every TARGETS entry that exists; restore them on exit.

        `hooks` maps an attribute name to an `on_result` callback. Yields
        the list of targets that were missing, so a renamed function shows
        up as an unpatched target rather than as an error.
        """
        hooks = hooks or {}
        saved, missing = [], []
        try:
            for module_name, attr, name in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if not hasattr(owner, leaf):
                    missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(owner, leaf)
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self.wrap(name, original, hooks.get(attr)))
            yield missing
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self, path) -> None:
        """Write one JSON object per span, with its self time."""
        with open(path, "w") as f:
            for i, (s, own) in enumerate(zip(self.spans, self_times(self.spans))):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "step": s.step, "start": s.start, "end": s.end,
                    "self": own,
                }) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def tape_nodes(root) -> int:
    """Number of distinct tape nodes reachable from `root` through `_prev`."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._prev:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
