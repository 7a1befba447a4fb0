"""The benchmark's trace targets are called, not only present:
perfbench/spans.py times each mechanism by patching its name in
lpcsm.model or lpcsm.mhc, and the loss by patching lm_loss, aux_losses
and total_loss in lpcsm.train, so a name that stays imported but is no
longer called would drop out of the benchmark unseen."""

import importlib.util
import sys
from pathlib import Path

import pytest

from lpcsm.data import SyntheticTask, make_batch
from lpcsm.model import ModelConfig, init_params
from lpcsm.objective import LossWeights
from lpcsm.runtime import generate
from lpcsm.train import sequence_loss

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def tiny_cfg(**overrides):
    """Slow memory, predictive coding and mHC on; chunks of 3 tokens."""
    return ModelConfig(vocab_size=11, width=8, layers=1, heads=2, window=3,
                       chunk_size=3, max_seq_len=32, **overrides)


def loss_run(cfg):
    tokens, targets = make_batch(SyntheticTask("copy", 11, 12, 3), 2)
    sequence_loss(tokens, targets, init_params(cfg, seed=1), cfg,
                  LossWeights())


RUNS = {
    "sequence_loss": lambda: loss_run(tiny_cfg()),
    "latent sequence_loss": lambda: loss_run(tiny_cfg(latent_dim=4)),
    "generate": lambda: generate([2, 3, 4, 5], 3,
                                 init_params(tiny_cfg(), seed=1), tiny_cfg()),
}


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # The dataclasses in spans.py look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("run", sorted(RUNS))
def test_model_and_mhc_targets_record_spans(spans, run):
    expected = {name for module, _, name in spans.TARGETS
                if module in ("lpcsm.model", "lpcsm.mhc")}
    tracer = spans.Tracer()
    with tracer.installed():
        RUNS[run]()
    assert expected - {s.name for s in tracer.spans} == set()


LOSS_TARGETS = ("lm_loss", "aux_losses", "total_loss")


@pytest.mark.parametrize("run", ["latent sequence_loss", "sequence_loss"])
def test_loss_targets_are_called(spans, run):
    # All three share one span name, so each records its own calls.
    assert {("lpcsm.train", name, "objective.loss")
            for name in LOSS_TARGETS} <= set(spans.TARGETS)
    called = []
    hooks = {name: lambda args, result, name=name: called.append(name)
             for name in LOSS_TARGETS}
    with spans.Tracer().installed(hooks):
        RUNS[run]()
    assert sorted(called) == sorted(LOSS_TARGETS)
