"""Each loss term is one tape node: `lm_loss`, the four auxiliary terms of
`aux_losses` and `total_loss` give the value and the gradient bytes of the
Tensor-op chains in `reference_objective`, alone and after the model, on
[T, V] logits, a [B, T, V] batch and one-row spans, with predictive
correction off, the stop head off and a zero loss weight. A changed op or
accumulation order moves the last bits of some gradient, so these compare
bytes, not closeness."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import lpcsm.train as train
from lpcsm.model import LayerAux, ModelConfig, init_params
from lpcsm.numerics import Tensor, forward_backward
from lpcsm.objective import (LossWeights, aux_losses, lm_loss,
                             binary_cross_entropy_logits, total_loss)
from lpcsm.train import sequence_loss

import reference_objective as reference

NODES = SimpleNamespace(lm_loss=lm_loss, aux_losses=aux_losses,
                        total_loss=total_loss)
V, D = 7, 5
# (leading axes, T): a span, a batch of spans and one-row spans.
SHAPES = {"span": ((), 6), "batch": ((3,), 6), "row": ((), 1),
          "batch row": ((1,), 1)}
CFG = ModelConfig(vocab_size=V, width=D, layers=1, heads=1)
# case: (config, weights, whether the slow memory is on).
CASES = {
    "as-is": (CFG, LossWeights(), True),
    "predictive_coding=false": (replace(CFG, predictive_coding=False),
                                LossWeights(), True),
    "stop_head=false": (replace(CFG, stop_head=False), LossWeights(), True),
    "slow_memory=false": (replace(CFG, slow_memory=False), LossWeights(),
                          False),
    "lambda_mem=0": (CFG, LossWeights(lambda_mem=0.0), True),
    "every weight 0": (CFG, LossWeights(0.0, 0.0, 0.0, 0.0), True),
}


def loss_inputs(lead, t_len, layers, slow_on, seed=2):
    """Leaves for the logits, the stop scores and each layer's aux, with
    the targets; a layer without slow memory leaves a constant state."""
    rng = np.random.default_rng(seed)

    def leaf(*shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

    aux = [LayerAux(error_norms=None, error_sq=leaf(*lead, t_len),
                    effective_ratio=0.5, sparse_ratio_st=leaf(*lead),
                    fast_final=leaf(*lead, D),
                    slow_final=(leaf(*lead, D) if slow_on
                                else Tensor(np.zeros(lead + (D,)))),
                    write_count=0)
           for _ in range(layers)]
    targets = rng.integers(0, V, lead + (t_len,))
    return leaf(*lead, t_len, V, scale=3.0), leaf(*lead, t_len), aux, targets


def outcome(impl, case, shape, layers):
    """The bytes of each term's value, then of each leaf's gradient after
    a backward from 1.7 times the total. Each gradient starts from a
    random one, as if earlier nodes had added theirs, so that the order
    of a node's own shares shows in the sum."""
    cfg, weights, slow_on = CASES[case]
    logits, stop, aux, targets = loss_inputs(*SHAPES[shape], layers, slow_on)
    leaves = [logits, stop] + [t for a in aux for t in (
        a.error_sq, a.sparse_ratio_st, a.fast_final, a.slow_final)
        if t.requires_grad]
    rng = np.random.default_rng(9)
    for t in leaves:
        t.grad = rng.standard_normal(t.shape)
    lm = impl.lm_loss(logits, targets)
    parts = impl.aux_losses(aux, stop, (targets == 0) * 1.0, cfg)
    out = impl.total_loss(lm, parts, weights)
    (out.total * 1.7).backward()
    values = [getattr(out, k).data.tobytes()
              for k in ("lm", "pred", "sparse", "mem", "stop", "total")]
    return values + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("case", sorted(CASES))
def test_loss_nodes_match_op_chains(case, shape, layers):
    got = outcome(NODES, case, shape, layers)
    assert got == outcome(reference, case, shape, layers)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_stop_node_matches_op_chain(shape):
    lead, t_len = SHAPES[shape]
    results = []
    for bce in (binary_cross_entropy_logits,
                reference.binary_cross_entropy_logits):
        rng = np.random.default_rng(4)
        scores = Tensor(rng.standard_normal(lead + (t_len,)) * 30.0,
                        requires_grad=True)
        scores.grad = rng.standard_normal(scores.shape)
        loss = bce(scores, rng.integers(0, 2, scores.shape))
        (loss * 0.3).backward()
        results.append((loss.data.tobytes(), scores.grad.tobytes()))
    assert results[0] == results[1]


MODEL_CASES = {
    "as-is": ({}, {}),
    "predictive_coding=false": ({"predictive_coding": False}, {}),
    "stop_head=false": ({"stop_head": False}, {}),
    "lambda_pred=0": ({}, {"lambda_pred": 0.0}),
}


def model_grads(overrides, weights, tokens):
    cfg = ModelConfig(vocab_size=11, width=8, layers=2, heads=2, window=3,
                      chunk_size=3, max_seq_len=16, **overrides)
    params = init_params(cfg, seed=3)
    loss, _ = sequence_loss(tokens, np.roll(tokens, -1, axis=-1), params, cfg,
                            LossWeights(**weights))
    grads = forward_backward(loss.total, params)
    return [loss.total.data.tobytes()] + [
        (name, g.data.tobytes()) for name, g in grads.items()]


@pytest.mark.parametrize("tokens", [(2, 10), (10,), (1,)])
@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_model_gradients_match_op_chains(case, tokens, monkeypatch):
    ids = np.random.default_rng(4).integers(0, 11, tokens)
    got = model_grads(*MODEL_CASES[case], ids)
    for name in vars(NODES):
        monkeypatch.setattr(train, name, getattr(reference, name))
    assert got == model_grads(*MODEL_CASES[case], ids)
