"""Incremental decoding: cache lifecycle, teacher-forcing parity, and
greedy generation."""

from dataclasses import fields

import numpy as np
import pytest

from lpcsm import model, runtime
from lpcsm.numerics import ConfigError, NumericsError, Tensor
from lpcsm.model import ModelConfig, init_params, model_forward
from lpcsm.runtime import init_cache, step_decode, generate


def tiny_cfg(**overrides):
    base = dict(vocab_size=11, width=8, layers=2, window=3, heads=2,
                chunk_size=3, s_ref=2, max_seq_len=24, ratio_init=0.23)
    base.update(overrides)
    return ModelConfig(**base)


def random_cfg(rng):
    """A tiny config with every mechanism toggle, window, chunk size and
    latent_dim drawn at random."""
    return tiny_cfg(
        window=int(rng.integers(1, 6)), chunk_size=int(rng.integers(1, 7)),
        max_seq_len=40,
        latent_dim=int(rng.integers(2, 6)) if rng.random() < 0.3 else None,
        **{k: bool(rng.random() < 0.7) for k in (
            "slow_memory", "predictive_coding", "ont", "stop_head", "mhc")})


def random_params(cfg, rng, seed):
    params = init_params(cfg, seed=seed)
    if cfg.mhc:
        # Move the routing weights off the identity initialization.
        for l in range(cfg.layers):
            params[f"layers.{l}.mhc.logits"].data = \
                rng.uniform(-1, 1, (cfg.mhc_streams, cfg.mhc_streams))
    return params


def assert_caches_match(a, b, tol=1e-12):
    """Equal positions, counts, controller prefix positions and history
    shapes, and every float field within `tol`, the memory's included."""
    assert a.position == b.position
    for la, lb in zip(a.layers, b.layers, strict=True):
        for f, x, y in cache_fields(la, lb):
            if f.name == "chunk_count":
                assert x == y, f.name
            elif f.name == "prefix":  # (values, index, moments)
                assert x[1] == y[1], f.name
                for u, v in (x[0], y[0]), (x[2], y[2]):
                    assert np.max(np.abs(np.subtract(u, v)),
                                  initial=0.0) <= tol, f.name
            elif x is None or y is None:
                assert x is None and y is None, f.name
            else:
                x = np.asarray(getattr(x, "data", x))
                y = np.asarray(getattr(y, "data", y))
                assert x.shape == y.shape, f.name
                assert np.max(np.abs(x - y), initial=0.0) <= tol, f.name


def cache_fields(*caches):
    """(field, one value per cache) for each field of a LayerCache, with
    its MemoryState's fields in place of `memory`."""
    for f in fields(caches[0]):
        if f.name == "memory":
            yield from cache_fields(*(c.memory for c in caches))
        else:
            yield (f, *(getattr(c, f.name) for c in caches))


def decode_all(tokens, params, cfg):
    cache = init_cache(cfg)
    rows = []
    for tok in tokens:
        logits, cache = step_decode(int(tok), cache, params, cfg)
        rows.append(logits.lm.data)
    return np.stack(rows), cache


class TestCache:
    def test_fresh_cache(self):
        cfg = tiny_cfg()
        cache = init_cache(cfg)
        assert cache.position == 0
        assert len(cache.layers) == cfg.layers
        for lc in cache.layers:
            assert lc.memory.chunk_count == 0
            assert lc.history is None
            assert np.array_equal(lc.memory.fast.data, np.zeros(cfg.width))

    def test_two_fresh_caches_identical(self):
        cfg = tiny_cfg()
        a, b = init_cache(cfg), init_cache(cfg)
        assert a.position == b.position
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.memory.slow.data, lb.memory.slow.data)

    def test_first_token_matches_forward(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=0)
        logits, cache = step_decode(4, init_cache(cfg), params, cfg)
        full, _ = model_forward([4], params, cfg)
        assert np.max(np.abs(logits.lm.data - full.lm.data[0])) < 1e-9
        assert cache.position == 1

    def test_cache_holds_no_tape(self):
        # Decode runs with the tape off even though the parameters require
        # grad, so nothing the cache carries links back to earlier tokens.
        # The same holds for a cache filled by one span.
        cfg = tiny_cfg()
        params = init_params(cfg, seed=2)
        prompt = [2, 3, 4, 5, 6, 7, 8]
        cache = init_cache(cfg)
        for tok in prompt:
            _, cache = step_decode(tok, cache, params, cfg)
        _, span = step_decode(prompt, init_cache(cfg), params, cfg)
        for c in (cache, span):
            held = [x for lc in c.layers for _, x in cache_fields(lc)]
            tensors = [t for t in held if isinstance(t, Tensor)]
            assert len(tensors) == 5 * cfg.layers
            for t in tensors:
                assert t._prev == () and t._backward is None
                assert not t.requires_grad

    def test_position_advances_and_bounds(self):
        cfg = tiny_cfg(max_seq_len=3, layers=1)
        params = init_params(cfg, seed=1)
        cache = init_cache(cfg)
        for _ in range(3):
            _, cache = step_decode(2, cache, params, cfg)
        with pytest.raises(NumericsError):
            step_decode(2, cache, params, cfg)

    def test_window_eviction(self):
        cfg = tiny_cfg(layers=1)
        params = init_params(cfg, seed=2)
        cache = init_cache(cfg)
        for t in range(6):
            _, cache = step_decode(2 + (t % 5), cache, params, cfg)
        assert cache.layers[0].history.shape == (cfg.window, cfg.width)
        assert len(cache.layers[0].prefix[0]) == 6  # the controller's norms


class TestParity:
    def test_teacher_forcing_parity(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, cfg.vocab_size, size=10)
        inc, _ = decode_all(tokens, params, cfg)
        full, _ = model_forward(tokens, params, cfg)
        assert np.max(np.abs(inc - full.lm.data)) < 1e-9

    def test_parity_with_partial_chunks(self):
        cfg = tiny_cfg(chunk_size=4)
        params = init_params(cfg, seed=5)
        tokens = [2, 3, 4, 5, 6, 7, 8]  # 7 tokens: one write plus a partial
        inc, cache = decode_all(tokens, params, cfg)
        full, aux = model_forward(tokens, params, cfg)
        assert np.max(np.abs(inc - full.lm.data)) < 1e-9
        assert cache.layers[0].memory.chunk_count == 7 % 4

    def test_write_boundaries(self):
        cfg = tiny_cfg(layers=1, chunk_size=4)
        params = init_params(cfg, seed=6)
        cache = init_cache(cfg)
        writes = []
        for t in range(8):
            _, aux = model_forward([2], params, cfg, caches=cache.layers,
                                   position=t)
            writes.append(sum(a.write_count for a in aux))
        assert np.cumsum(writes).tolist() == [0, 0, 0, 1, 1, 1, 1, 2]

    def test_stop_logit_parity(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=7)
        tokens = [2, 3, 4, 5, 6]
        cache = init_cache(cfg)
        stops = []
        for tok in tokens:
            logits, cache = step_decode(tok, cache, params, cfg)
            stops.append(logits.stop.item())
        full, _ = model_forward(tokens, params, cfg)
        assert np.max(np.abs(np.array(stops) - full.stop.data)) < 1e-9


class TestSpanPrefill:
    @pytest.mark.parametrize("case", range(12))
    def test_span_matches_per_token_loop(self, case):
        # One call on the whole prompt leaves the cache and last-row logits
        # that a call per token leaves; prompts of up to 29 tokens cross
        # the window and chunk boundaries.
        rng = np.random.default_rng(100 + case)
        cfg = random_cfg(rng)
        params = random_params(cfg, rng, seed=case)
        prompt = rng.integers(0, cfg.vocab_size,
                              size=int(rng.integers(1, 30))).tolist()
        cache = init_cache(cfg)
        for tok in prompt:
            logits, cache = step_decode(tok, cache, params, cfg)
        span, span_cache = step_decode(prompt, init_cache(cfg), params, cfg)
        assert span_cache.position == len(prompt)
        assert span.lm.shape == (cfg.vocab_size,)
        assert np.max(np.abs(span.lm.data - logits.lm.data)) <= 1e-12
        if cfg.stop_head:
            assert span.stop.shape == ()
            assert abs(span.stop.item() - logits.stop.item()) <= 1e-12
        else:
            assert span.stop is None
        assert_caches_match(span_cache, cache)

    def test_bare_int_is_a_one_token_span(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=3)
        a, ca = step_decode(4, init_cache(cfg), params, cfg)
        b, cb = step_decode([4], init_cache(cfg), params, cfg)
        assert np.array_equal(a.lm.data, b.lm.data)
        assert a.stop.item() == b.stop.item()
        assert_caches_match(ca, cb, tol=0.0)

    def test_empty_span_rejected_without_advancing(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=3)
        _, cache = step_decode([2, 3], init_cache(cfg), params, cfg)
        with pytest.raises(NumericsError):
            step_decode([], cache, params, cfg)
        assert cache.position == 2

    def test_generate_matches_per_token_reference(self):
        def per_token(prompt, max_new, params, cfg):
            cache = init_cache(cfg)
            for tok in prompt:
                logits, cache = step_decode(tok, cache, params, cfg)
            out = list(prompt)
            for _ in range(max_new):
                out.append(int(np.argmax(logits.lm.data)))
                logits, cache = step_decode(out[-1], cache, params, cfg)
            return out

        rng = np.random.default_rng(7)
        for case in range(24):
            cfg = random_cfg(rng)
            params = random_params(cfg, rng, seed=case)
            prompt = rng.integers(0, cfg.vocab_size,
                                  size=int(rng.integers(1, 20))).tolist()
            max_new = int(rng.integers(1, 12))
            assert generate(prompt, max_new, params, cfg) \
                == per_token(prompt, max_new, params, cfg), case

    def test_generate_calls_step_decode_once_per_new_token(self, monkeypatch):
        # One call for the prompt, then one per new token: timing code
        # takes the last max_new calls as decode steps and the one before
        # them as the end of prefill.
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        calls = []
        step = runtime.step_decode
        monkeypatch.setattr(runtime, "step_decode",
                            lambda tokens, *a: calls.append(tokens)
                            or step(tokens, *a))
        out = generate([2, 3, 4, 5, 6], 7, params, cfg)
        assert len(out) == 5 + 7
        # The prompt goes in as the int array its one check made.
        assert [list(calls[0])] + calls[1:] == [[2, 3, 4, 5, 6]] + out[5:]

    def test_prompt_list_is_checked_once(self, monkeypatch):
        # generate checks the prompt list and hands step_decode the checked
        # array, whose own check looks at its dtype and range, not at each
        # entry: token_ids sees the list once.
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        prompt = [2, 3, 4, 5, 6]
        seen = []
        check = model.token_ids

        def counting(tokens, *a):
            seen.append(type(tokens))
            return check(tokens, *a)
        monkeypatch.setattr(model, "token_ids", counting)
        monkeypatch.setattr(runtime, "token_ids", counting)
        generate(prompt, 3, params, cfg)
        # The prompt, then the prefill's array and one id list per token.
        assert seen == [list, np.ndarray] + [list] * 3


class TestGenerate:
    def test_max_new_zero_returns_prompt(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=8)
        assert generate([2, 3], 0, params, cfg) == [2, 3]

    def test_negative_max_new_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=8)
        with pytest.raises(NumericsError):
            generate([2, 3], -1, params, cfg)

    def test_empty_prompt_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=9)
        with pytest.raises(NumericsError):
            generate([], 4, params, cfg)

    def test_determinism(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=10)
        a = generate([2, 3, 4], 6, params, cfg)
        b = generate([2, 3, 4], 6, params, cfg)
        assert a == b

    def test_eos_halts(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=11)
        out = generate([2, 3], 8, params, cfg, eos_token=None)
        full = len(out)
        # With every token declared EOS, generation stops after one.
        out2 = generate([2, 3], 8, params, cfg, eos_token=out[2])
        assert len(out2) == 3
        assert full == 2 + 8

    def test_stop_threshold_zero_halts_immediately(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=12)
        out = generate([2, 3], 8, params, cfg, stop_threshold=0.0)
        # One token is appended, then the stop head fires.
        assert len(out) == 3

    def test_stop_threshold_without_stop_head_rejected(self):
        cfg = tiny_cfg(stop_head=False)
        params = init_params(cfg, seed=12)
        with pytest.raises(NumericsError, match="stop head"):
            generate([2, 3], 8, params, cfg, stop_threshold=0.0)

    @pytest.mark.parametrize("args, kwargs", [
        (([2, 3], 4), dict(eos_token=11)),
        (([2, 3], 4), dict(stop_threshold=float("nan"))),
        (([2, 3], 23), {}),
        (([2, 10**20], 2), {}),
    ], ids=["eos outside vocab", "nan stop threshold", "past max_seq_len",
            "token beyond int64"])
    def test_bad_argument_rejected_before_decoding(self, monkeypatch, args,
                                                   kwargs):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=12)
        calls = []
        step = runtime.step_decode
        monkeypatch.setattr(runtime, "step_decode",
                            lambda *a: calls.append(1) or step(*a))
        with pytest.raises(ConfigError):
            generate(*args, params, cfg, **kwargs)
        assert calls == []

    def test_non_integer_prompt_rejected(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=12)
        for prompt in ([2.5, 3], ["3"], [True, 3]):
            with pytest.raises(ConfigError, match="integers"):
                generate(prompt, 2, params, cfg)

    def test_returns_python_ints(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=12)
        for prompt in ([2, 3], np.array([2, 3]), [np.int32(2), np.uint8(3)]):
            out = generate(prompt, 2, params, cfg)
            assert [type(t) for t in out] == [int] * 4
            assert out == generate([2, 3], 2, params, cfg)

    def test_prefix_stability(self):
        # Greedy continuation never rewrites earlier tokens.
        cfg = tiny_cfg()
        params = init_params(cfg, seed=13)
        short = generate([2, 3, 4], 3, params, cfg)
        long = generate([2, 3, 4], 6, params, cfg)
        assert long[:len(short)] == short


class TestFiniteChecks:
    @staticmethod
    def checks_per_token(monkeypatch, cfg, tokens=6):
        """np.isfinite calls per decoded token after the first, which
        also computes each layer's route gain."""
        params = init_params(cfg, seed=14)
        cache = init_cache(cfg)
        _, cache = step_decode(2, cache, params, cfg)
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite",
                            lambda *a, **k: calls.append(1) or isfinite(*a, **k))
        for t in range(tokens):
            step_decode(3 + t % 5, cache, params, cfg)
        monkeypatch.undo()
        return len(calls) / tokens

    def test_checks_scale_with_layers_not_tape_nodes(self, monkeypatch):
        # Each refinement step adds tape nodes to every layer but no
        # finiteness check; each layer adds a fixed few (a layer builds
        # over 100 tape nodes per token).
        per = {(layers, s_ref): self.checks_per_token(
                   monkeypatch, tiny_cfg(layers=layers, s_ref=s_ref))
               for layers in (1, 3) for s_ref in (0, 6)}
        assert per[1, 0] == per[1, 6] and per[3, 0] == per[3, 6]
        assert per[3, 0] <= 10 * 3 + 2
        assert per[3, 0] - per[1, 0] <= 10 * 2
