"""Each mechanism call is one tape node: attention, the fast update, the
memory read and the correction steps, and the glue between them (the
embedding, the mismatch norm, the masked estimate, the fuse with its
residual add and the mHC route), give the value and the gradient bytes of
the Tensor-op chains in `reference_mechanisms`, alone and inside the
model, on a [T, d] span, a [B, T, d] batch and a one-row span. A changed
op or accumulation order moves the last bits of some gradient, so these
compare bytes, not closeness."""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

import lpcsm.model as model
import lpcsm.numerics as numerics
from lpcsm.attention import latent_attention, local_attention
from lpcsm.correction import (masked_estimate, mismatch_sq, predict_init,
                              refine_step)
from lpcsm.memory import fast_update, memory_read
from lpcsm.mhc import mhc_route
from lpcsm.model import ModelConfig, embed, fuse, init_params
from lpcsm.numerics import Tensor, concat, forward_backward
from lpcsm.objective import LossWeights
from lpcsm.train import sequence_loss

import reference_mechanisms as reference

NODES = SimpleNamespace(local_attention=local_attention,
                        latent_attention=latent_attention,
                        fast_update=fast_update, memory_read=memory_read,
                        predict_init=predict_init, refine_step=refine_step,
                        mismatch_sq=mismatch_sq,
                        masked_estimate=masked_estimate, fuse=fuse,
                        mhc_route=mhc_route, embed=embed)
D, PAST = 8, 4
P = "layers.0."


def config(latent_dim=None):
    return ModelConfig(vocab_size=5, width=D, layers=1, heads=2, window=3,
                       chunk_size=4, max_seq_len=16, latent_dim=latent_dim)


def store(latent_dim=None, seed=0):
    """One layer's parameters, every entry drawn at random (the init's
    zero biases would leave some gradient paths untested)."""
    params = init_params(config(latent_dim), seed)
    rng = np.random.default_rng(seed + 1)
    for _, t in params.items():
        t.data[...] = rng.standard_normal(t.shape) * 0.5
    return params


def leaves(lead, t_len, seed=5):
    rng = np.random.default_rng(seed)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x = {"n": leaf(*lead, t_len, D), "history": leaf(*lead, PAST, D),
         "prev": leaf(*lead, D), "fast": leaf(*lead, t_len, D),
         "slow_rows": leaf(*lead, t_len, D), "slow_state": leaf(*lead, D),
         "a": leaf(*lead, t_len, D), "r": leaf(*lead, t_len, D),
         "mask": leaf(*lead, t_len), "gain": leaf()}
    # The rows a span attends to: the history, then the span.
    x["rows"] = concat([x["history"], x["n"]], axis=-2)
    return x


def token_ids(x):
    """Ids for the span's positions, of 5, so most ids repeat: the
    embedding's gradient adds up the rows of each."""
    return np.random.default_rng(8).integers(0, 5, x["n"].shape[:-1])


def correction(m, x, p):
    """The block's correction: an estimate, then two refinements."""
    est = m.predict_init(x["a"], x["r"], p, P + "pred.")
    for _ in range(2):
        est = m.refine_step(x["a"], x["r"], x["n"], est, p, P + "refine.")
    return est


# name: (latent_dim, call of an implementation m on leaves x and store p).
# The attention calls without a history read n as both the queries' rows
# and the keys' rows, as a sequence's first span does, so that n's two
# gradients add up inside one node.
CALLS = {
    "local_attention": (None, lambda m, x, p: m.local_attention(
        x["n"], x["rows"], 3, 2, p, P + "attn.")),
    "local_attention, no history": (None, lambda m, x, p: m.local_attention(
        x["n"], x["n"], 3, 2, p, P + "attn.")),
    "latent_attention": (3, lambda m, x, p: m.latent_attention(
        x["n"], x["rows"], 3, 2, p, P + "attn.")),
    "latent_attention, no history": (3, lambda m, x, p: m.latent_attention(
        x["n"], x["n"], 3, 2, p, P + "attn.")),
    "fast_update": (None, lambda m, x, p: m.fast_update(
        x["n"], x["prev"], p, P + "mem.")),
    "memory_read, slow rows": (None, lambda m, x, p: m.memory_read(
        x["n"], x["fast"], x["slow_rows"], p, P + "mem.")),
    "memory_read, slow state": (None, lambda m, x, p: m.memory_read(
        x["n"], x["fast"], x["slow_state"], p, P + "mem.")),
    "correction": (None, correction),
    "mismatch_sq": (None, lambda m, x, p: m.mismatch_sq(x["n"], x["a"])),
    "masked_estimate": (None, lambda m, x, p: m.masked_estimate(
        x["mask"], x["a"])),
    "fuse": (None, lambda m, x, p: m.fuse(
        x["n"], (x["a"], x["r"], x["fast"]), p[P + "fuse.w"],
        p[P + "fuse.b"])),
    # Without predictive correction the fuse's last part is a constant.
    "fuse, constant part": (None, lambda m, x, p: m.fuse(
        x["n"], (x["a"], x["r"], Tensor(np.zeros(x["a"].shape))),
        p[P + "fuse.w"], p[P + "fuse.b"])),
    "mhc_route": (None, lambda m, x, p: m.mhc_route(
        x["n"], x["a"], x["gain"])),
    "embed": (None, lambda m, x, p: m.embed(token_ids(x), p, config(), 2)),
}
# (leading axes, T): a span, a batch of spans and one decode row.
SHAPES = {"span": ((), 7), "batch": ((3,), 7), "row": ((), 1)}


def outcome(name, impl, shape):
    """The value's bytes, then each leaf's and each parameter's gradient
    bytes, after a random linear loss. Each gradient starts from a random
    one, as if earlier nodes had added theirs, so that the order of the
    node's own shares shows in the sum."""
    latent_dim, call = CALLS[name]
    params, x = store(latent_dim), leaves(*shape)
    rng = np.random.default_rng(9)
    inputs = [t for t in [*x.values(), *(t for _, t in params.items())]
              if t._backward is None]  # leaves only
    for t in inputs:
        t.grad = rng.standard_normal(t.shape)
    out = call(impl, x, params)
    (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
    return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_node_matches_op_chain(name, shape):
    got = outcome(name, NODES, SHAPES[shape])
    expect = outcome(name, reference, SHAPES[shape])
    assert got == expect


@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_node_per_call(name, monkeypatch):
    latent_dim, call = CALLS[name]
    params, x = store(latent_dim), leaves(*SHAPES["span"])
    nodes = []
    original = numerics._op
    for module in (sys.modules[f.__module__] for f in vars(NODES).values()):
        monkeypatch.setattr(module, "_op",
                            lambda *a: nodes.append(1) or original(*a))
    call(NODES, x, params)
    assert len(nodes) == (3 if name == "correction" else 1)


MODEL_CASES = {
    "as-is": {},
    "latent_dim=3": {"latent_dim": 3},
    "slow_memory=false": {"slow_memory": False},
    "mhc=false,predictive_coding=false": {"mhc": False,
                                          "predictive_coding": False},
}


def model_grads(overrides):
    cfg = ModelConfig(vocab_size=11, width=D, layers=2, heads=2, window=3,
                      chunk_size=3, max_seq_len=16, **overrides)
    params = init_params(cfg, seed=3)
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, 11, (2, 10))
    loss, _ = sequence_loss(tokens, np.roll(tokens, -1, axis=1), params, cfg,
                            LossWeights())
    grads = forward_backward(loss.total, params)
    return [loss.total.data.tobytes()] + [
        (name, g.data.tobytes()) for name, g in grads.items()]


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_model_gradients_match_op_chains(case, monkeypatch):
    # The tape runs each mechanism's ops as one run, so one node per call
    # keeps every gradient sum in its order.
    got = model_grads(MODEL_CASES[case])
    for name in vars(NODES):
        monkeypatch.setattr(model, name, getattr(reference, name))
    assert got == model_grads(MODEL_CASES[case])
