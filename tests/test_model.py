"""Block and stack composition: degenerate configurations, boundary
writes, a straight-line re-implementation oracle, causality, and
determinism."""

import hashlib
import itertools
import sys

import numpy as np
import pytest

from lpcsm import numerics
from lpcsm.controller import welford_step
from lpcsm.data import SyntheticTask, make_batch
from lpcsm.numerics import (
    Tensor, NumericsError, ConfigError, ParameterStore, rmsnorm,
)
from lpcsm.objective import LossWeights
from lpcsm.runtime import init_cache, step_decode
from lpcsm.train import sequence_loss
from lpcsm.model import (
    MAX_PARAMS, ModelConfig, init_params, model_forward, block_forward, embed,
    ablation_variants, causal_mask_bits, controller_params, LayerCache,
)


def logistic(x):
    """Reference logistic function, independent of the code under test."""
    return 1.0 / (1.0 + np.exp(-x))


def tiny_cfg(**overrides):
    base = dict(vocab_size=11, width=8, layers=1, window=3, heads=2,
                chunk_size=3, s_ref=2, max_seq_len=16, ratio_init=0.23)
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(NumericsError):
            tiny_cfg(width=9)  # not divisible by heads
        with pytest.raises(NumericsError):
            tiny_cfg(vocab_size=1)
        with pytest.raises(NumericsError):
            tiny_cfg(alpha_n=-0.1)

    def test_canonical_round_trip(self):
        cfg = tiny_cfg(alpha_n=0.25, latent_dim=4, mhc=False)
        assert ModelConfig.from_canonical(cfg.to_canonical()) == cfg

    def test_canonical_rejects_unknown_key(self):
        with pytest.raises(NumericsError):
            ModelConfig.from_canonical("vocab_size=4\nwidth=4\nlayers=1\nbogus=1")

    def test_ablation_variants(self):
        cfg = tiny_cfg()
        variants = ablation_variants(cfg)
        assert set(variants) == {
            "w/o slow memory", "w/o predictive coding", "w/o ONT",
            "w/o stop head", "w/o mHC",
        }
        assert not variants["w/o mHC"].mhc
        assert variants["w/o mHC"].slow_memory


class TestInitParams:
    def test_toggles_control_parameter_sets(self):
        full = set(init_params(tiny_cfg()).names())
        no_slow = set(init_params(tiny_cfg(slow_memory=False)).names())
        no_pred = set(init_params(tiny_cfg(predictive_coding=False)).names())
        no_mhc = set(init_params(tiny_cfg(mhc=False)).names())
        no_stop = set(init_params(tiny_cfg(stop_head=False)).names())
        assert full - no_slow == {"layers.0.mem.w_g", "layers.0.mem.b_g",
                                  "layers.0.mem.w_c", "layers.0.mem.b_c"}
        assert all(".pred." in n or ".refine." in n for n in full - no_pred)
        assert all(".mhc." in n for n in full - no_mhc)
        assert full - no_stop == {"stop_head.w", "stop_head.b"}

    @pytest.mark.parametrize("latent_dim", [None, 3])
    def test_param_count_matches_init_params(self, latent_dim):
        # param_count scales one block of the table; init_params builds all.
        toggles = ("slow_memory", "predictive_coding", "ont", "stop_head", "mhc")
        for combo in itertools.product([True, False], repeat=len(toggles)):
            cfg = tiny_cfg(layers=2, latent_dim=latent_dim,
                           **dict(zip(toggles, combo)))
            sizes = sum(t.size for _, t in init_params(cfg).items())
            assert cfg.param_count() == sizes, combo

    def test_readme_model_initial_bytes(self):
        # Pinned names and float64 bytes: a table edit that moves any
        # initial value shows here. The digest was last moved when the
        # constant, draw-free `layers.{i}.ctrl.bias` entries left the
        # table: it is the earlier table's digest with those entries
        # skipped, so no other name or value moved.
        cfg = ModelConfig(vocab_size=32, width=32, layers=2, heads=4, window=8,
                          chunk_size=16, max_seq_len=64)
        digest = hashlib.sha256()
        for name, t in init_params(cfg, seed=0).items():
            digest.update(name.encode())
            digest.update(t.data.astype("<f8").tobytes())
        assert digest.hexdigest() == ("663efeb5b863f42984bd8e41b628d3fb"
                                      "822c6f60bdd072a35c825ed720a92509")

    def test_param_bound(self):
        # Position rows up to the bound are taken, one more is refused.
        d = 1024
        rows = (MAX_PARAMS - tiny_cfg(width=d).param_count()) // d
        tiny_cfg(width=d, max_seq_len=16 + rows)
        with pytest.raises(ConfigError, match="parameters"):
            tiny_cfg(width=d, max_seq_len=17 + rows)

    def test_seed_determinism(self):
        a = init_params(tiny_cfg(), seed=5)
        b = init_params(tiny_cfg(), seed=5)
        for (n1, t1), (n2, t2) in zip(a.items(), b.items()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    @pytest.mark.parametrize("missing", ["layers.0.attn.w_qkv",
                                         "layers.0.mem.w_d", "lm_head.w"])
    def test_missing_parameter_is_named(self, missing):
        # A store without one entry is refused by the lookup that needs
        # it, whichever mechanism reads it.
        cfg = tiny_cfg()
        params = ParameterStore()
        for name, t in init_params(cfg).items():
            if name != missing:
                params.add(name, t.data)
        with pytest.raises(NumericsError, match=missing):
            model_forward([1, 2, 3], params, cfg)


class TestEmbed:
    def test_range_validation(self):
        params = init_params(tiny_cfg())
        with pytest.raises(NumericsError):
            embed([0, 11], params, tiny_cfg())
        with pytest.raises(NumericsError):
            embed([-1], params, tiny_cfg())
        with pytest.raises(NumericsError):
            embed([0] * 17, params, tiny_cfg())

    @pytest.mark.parametrize("tokens", [
        [2.9, 3], [2.0], ["3"], [True], [2, True], [np.True_, 2],
        np.array([2.0, 3.0]), np.array([True, False]), [2, 10**20],
    ], ids=["float", "integral float", "str", "bool", "bool among ints",
            "numpy bool among ints", "float array", "bool array",
            "beyond int64"])
    def test_non_integer_ids_rejected(self, tokens):
        # asarray(dtype=int64) would truncate 2.9 to 2 and parse "3".
        params = init_params(tiny_cfg())
        with pytest.raises(ConfigError, match="integers"):
            embed(tokens, params, tiny_cfg())
        with pytest.raises(ConfigError, match="integers"):
            model_forward(tokens, params, tiny_cfg())

    @pytest.mark.parametrize("tokens", [
        [np.int64(2), 3], np.array([2, 3], dtype=np.int32),
        np.array([2, 3], dtype=np.uint8),
    ], ids=["numpy scalar", "int32 array", "uint8 array"])
    def test_numpy_integer_ids_accepted(self, tokens):
        cfg = tiny_cfg()
        params = init_params(cfg)
        assert np.array_equal(embed(tokens, params, cfg).data,
                              embed([2, 3], params, cfg).data)

    def test_position_offset(self):
        cfg = tiny_cfg()
        params = init_params(cfg)
        a = embed([3], params, cfg, position_offset=2).data
        expect = params["embed.tok"].data[3] + params["embed.pos"].data[2]
        assert np.array_equal(a[0], expect)


class TestDegenerateBlock:
    def test_attention_only_block(self):
        # All mechanisms off: the fused path still mixes a and r, but the
        # corrected slice is exactly zero and the residual is plain.
        cfg = tiny_cfg(slow_memory=False, predictive_coding=False,
                       mhc=False, stop_head=False)
        params = init_params(cfg, seed=1)
        tokens = [2, 3, 4, 5]
        logits, aux = model_forward(tokens, params, cfg)
        assert logits.stop is None
        assert aux[0].write_count == 0
        assert np.array_equal(aux[0].error_norms.data, np.zeros(4))
        # The corrected pathway is zero, so zeroing the correction block of
        # the fuse matrix cannot change anything.
        d = cfg.width
        params["layers.0.fuse.w"].data[2 * d:] = 0.0
        logits2, _ = model_forward(tokens, params, cfg)
        assert np.array_equal(logits.lm.data, logits2.lm.data)

    def test_zero_layers_head_on_embedding(self):
        cfg = tiny_cfg(layers=0)
        params = init_params(cfg, seed=2)
        tokens = [1, 2, 3]
        logits, aux = model_forward(tokens, params, cfg)
        assert aux == []
        h = embed(tokens, params, cfg)
        n = rmsnorm(h, params["final_norm.gain"], cfg.rmsnorm_eps)
        expect = n.data @ params["lm_head.w"].data + params["lm_head.b"].data
        assert np.array_equal(logits.lm.data, expect)


class TestFiniteBoundaries:
    @pytest.mark.parametrize("layer", [0, 1])
    def test_nan_weight_names_its_layer(self, layer):
        cfg = tiny_cfg(layers=2)
        params = init_params(cfg, seed=3)
        params[f"layers.{layer}.ffn.w1"].data[0, 0] = np.nan
        with pytest.raises(NumericsError, match=rf"^layer {layer}: "):
            model_forward([2, 3, 4], params, cfg)

    def test_nan_head_weight(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=3)
        params["lm_head.w"].data[0, 0] = np.nan
        with pytest.raises(NumericsError, match="LM logits"):
            model_forward([2, 3, 4], params, cfg)
        params = init_params(cfg, seed=3)
        params["stop_head.b"].data[...] = np.nan
        with pytest.raises(NumericsError, match="stop logits"):
            model_forward([2, 3, 4], params, cfg)


class TestBoundaryWrites:
    def test_write_counts(self):
        cfg = tiny_cfg(chunk_size=3)
        params = init_params(cfg, seed=3)
        for t_len, expect in ((2, 0), (3, 1), (8, 2), (9, 3)):
            _, aux = model_forward([2] * t_len, params, cfg)
            assert aux[0].write_count == expect

    def test_single_boundary_at_final_token(self):
        cfg = tiny_cfg(chunk_size=4)
        params = init_params(cfg, seed=4)
        _, aux = model_forward([2, 3, 4, 5], params, cfg)
        assert aux[0].write_count == 1
        assert np.any(aux[0].slow_final.data != 0.0)


class TestClampRatioOnce:
    def test_one_call_per_layer(self, monkeypatch):
        # causal_mask_bits hands its clamped ratio to the straight-through
        # ratio, so each layer clamps once per span.
        import lpcsm.controller

        calls = []
        original = lpcsm.controller.clamp_ratio

        def counted(cp):
            calls.append(cp)
            return original(cp)

        monkeypatch.setattr(lpcsm.controller, "clamp_ratio", counted)
        cfg = tiny_cfg(layers=2)
        model_forward([2, 3, 4, 5], init_params(cfg, seed=14), cfg)
        assert len(calls) == cfg.layers


class TestSpanSplits:
    @pytest.mark.parametrize("splits", [(1,), (2, 5), (3, 4, 9), (7,), (10,)])
    def test_split_spans_match_one_span(self, splits):
        # Partial chunks carried in the cache across a split write the
        # same slow state, at the same boundaries, as one span, and the
        # controller carries the same sorted prefix and moments.
        cfg = tiny_cfg(chunk_size=3)
        params = init_params(cfg, seed=12)
        h = np.random.default_rng(13).standard_normal((11, cfg.width))
        whole = LayerCache.fresh(cfg)
        out, aux = block_forward(Tensor(h), 0, params, cfg, cache=whole)
        parts = LayerCache.fresh(cfg)
        pieces = [
            block_forward(Tensor(h[lo:hi]), 0, params, cfg, cache=parts)
            for lo, hi in zip((0,) + splits, splits + (11,))
        ]
        assert np.max(np.abs(np.concatenate([o.data for o, _ in pieces])
                             - out.data)) < 1e-12
        assert sum(a.write_count for _, a in pieces) == aux.write_count == 3
        memory, w_memory = parts.memory, whole.memory
        assert np.max(np.abs(memory.slow.data - w_memory.slow.data)) < 1e-12
        assert memory.chunk_count == w_memory.chunk_count == 2
        assert np.max(np.abs(memory.chunk_sum.data
                             - w_memory.chunk_sum.data)) < 1e-12
        assert np.max(np.abs(memory.fast.data - w_memory.fast.data)) < 1e-12
        assert np.array_equal(parts.history.data, whole.history.data)
        # The controller's carried prefix: the same positions in the same
        # order, and norms that differ from one span's only in the last
        # bits.
        (values, index, moments), (w_values, w_index, w_moments) = (
            parts.prefix, whole.prefix)
        assert index == w_index and sorted(index) == list(range(11))
        assert values == sorted(values)
        assert np.max(np.abs(np.subtract(values, w_values))) < 1e-12
        assert np.max(np.abs(np.subtract(moments, w_moments))) < 1e-12
        # The carried moments are the scan of the carried norms in
        # position order, bit for bit.
        for c in (parts, whole):
            values, index, moments = c.prefix
            state = 0.0, 0.0, 0.0
            for n, x in enumerate(np.array(values)[np.argsort(index)], 1):
                state = welford_step(*state, float(x), n)
            assert moments == list(state)


class TestStraightLineOracle:
    def test_full_block_reevaluation(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, cfg.width))
        out, _ = block_forward(Tensor(h), 0, params, cfg)

        oracle = straight_line_block(h, params, cfg)
        assert np.max(np.abs(out.data - oracle)) < 1e-10

    def test_causality(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=7)
        base = model_forward([2, 3, 4, 5, 6], params, cfg)[0].lm.data
        pert = model_forward([2, 3, 4, 9, 6], params, cfg)[0].lm.data
        assert np.array_equal(base[:3], pert[:3])

    def test_determinism(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=8)
        a = model_forward([2, 3, 4], params, cfg)[0].lm.data
        b = model_forward([2, 3, 4], params, cfg)[0].lm.data
        assert np.array_equal(a, b)

    def test_no_dead_toggles(self):
        # Every mechanism toggle changes the output somewhere.
        tokens = [2, 3, 4, 5, 6, 7]
        base_cfg = tiny_cfg(chunk_size=2)
        params_cache = {}

        def logits_for(cfg):
            params = init_params(cfg, seed=9)
            return model_forward(tokens, params, cfg)[0].lm.data

        base = logits_for(base_cfg)
        for name, variant in ablation_variants(base_cfg).items():
            if name == "w/o stop head":
                continue  # stop head does not feed the lm logits
            if name == "w/o mHC":
                # At init pre = 1 and post = 1/S, so the routed gain
                # postᵀ·M·pre is 1 for every doubly-stochastic M: the
                # toggle only matters once the mix weights move off init.
                params = init_params(base_cfg, seed=9)
                rng = np.random.default_rng(0)
                params["layers.0.mhc.logits"].data = rng.uniform(-1, 1, (4, 4))
                params["layers.0.mhc.pre"].data = rng.uniform(0, 2, 4)
                params["layers.0.mhc.post"].data = rng.uniform(0, 0.5, 4)
                moved = model_forward(tokens, params, base_cfg)[0].lm.data
                assert np.max(np.abs(moved - base)) > 0.0, name
                continue
            assert np.max(np.abs(logits_for(variant) - base)) > 0.0, name


def straight_line_block(h, params, cfg):
    """Independent numpy-only transcription of the block equations."""
    d = cfg.width
    t_len = h.shape[0]
    p = "layers.0."

    def P(name):
        return params[p + name].data

    def rms(x, gain):
        return x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + cfg.rmsnorm_eps) * gain

    n = rms(h, P("norm1.gain"))

    # attention
    qkv = n @ P("attn.w_qkv") + P("attn.b_qkv")
    q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
    hd = d // cfg.heads
    a = np.zeros((t_len, d))
    for head in range(cfg.heads):
        sl = slice(head * hd, (head + 1) * hd)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(hd)
        for t in range(t_len):
            w = np.full(t_len, -np.inf)
            lo = max(0, t - cfg.window + 1)
            w[lo:t + 1] = scores[t, lo:t + 1]
            e = np.exp(w - w[lo:t + 1].max())
            e[:lo] = 0.0
            a[t, sl] = (e / e.sum()) @ v[:, sl]
    a = a @ P("attn.w_o") + P("attn.b_o")

    # memory loop
    fast = np.zeros(d)
    slow = np.zeros(d)
    acc = np.zeros(d)
    count = 0
    r = np.zeros((t_len, d))
    for t in range(t_len):
        nt = n[t]
        dg = logistic(nt @ P("mem.w_d") + P("mem.b_d"))
        u = np.tanh(nt @ P("mem.w_u") + P("mem.b_u"))
        fast = dg * fast + (1 - dg) * u
        qf = logistic(nt @ P("mem.w_qf") + P("mem.b_qf"))
        qs = logistic(nt @ P("mem.w_qs") + P("mem.b_qs"))
        r[t] = np.concatenate([qf * fast, qs * slow]) @ P("mem.w_r") + P("mem.b_r")
        acc = acc + fast
        count += 1
        if count == cfg.chunk_size:
            c = acc / count
            mnorm = np.linalg.norm(slow)
            if mnorm < 1e-30:
                c_star = c * (1 + cfg.alpha_n)
            else:
                proj = (c @ slow) / (slow @ slow) * slow
                c_star = c + cfg.alpha_n * (c - proj)
            g = logistic(nt @ P("mem.w_g") + P("mem.b_g"))
            uw = np.tanh(c_star @ P("mem.w_c") + P("mem.b_c"))
            slow = g * slow + (1 - g) * uw
            acc = np.zeros(d)
            count = 0

    # correction
    est = np.tanh(np.concatenate([a, r], axis=1) @ P("pred.w1") + P("pred.b1")) \
        @ P("pred.w2") + P("pred.b2")
    for _ in range(cfg.s_ref):
        err = n - est
        est = est + np.tanh(np.concatenate([a, r, err], axis=1) @ P("refine.w1")
                            + P("refine.b1")) @ P("refine.w2") + P("refine.b2")
    err_norms = np.linalg.norm(n - est, axis=1)

    # causal controller
    ratio = logistic(P("ctrl.ratio_raw")) * (cfg.ratio_max - cfg.ratio_min) + cfg.ratio_min
    bits = np.zeros(t_len)
    for t in range(t_len):
        e = err_norms[:t + 1]
        var = ((e - e.mean()) ** 2).mean()
        if var == 0.0:
            z = (e - e.mean()) / 1e-6
        else:
            z = (e - e.mean()) / (np.sqrt(var) + 1e-6)
        scores = z * P("ctrl.scale") / cfg.temperature
        kk = int(np.ceil(float(ratio) * (t + 1)))
        order = np.argsort(-scores, kind="stable")
        hard = np.zeros(t + 1)
        hard[order[:kk]] = 1.0
        bits[t] = hard[t]

    corrected = bits[:, None] * est
    fused = np.concatenate([a, r, corrected], axis=1) @ P("fuse.w") + P("fuse.b")
    resid = h + fused
    n2 = rms(resid, P("norm2.gain"))
    update = np.tanh(n2 @ P("ffn.w1") + P("ffn.b1")) @ P("ffn.w2") + P("ffn.b2")

    # mhc routing
    s = cfg.mhc_streams
    m = np.exp(P("mhc.logits"))
    passes = 0
    while True:
        m = m / m.sum(axis=1, keepdims=True)
        m = m / m.sum(axis=0, keepdims=True)
        passes += 1
        resid_err = max(np.abs(m.sum(0) - 1).max(), np.abs(m.sum(1) - 1).max())
        if passes >= cfg.sinkhorn_iters and resid_err <= 1e-7:
            break
    flat = resid.reshape(1, -1)
    lifted = np.stack([P("mhc.pre")[i] * flat[0] for i in range(s)])
    collapsed = (P("mhc.post").reshape(1, s) @ (m @ lifted)).reshape(t_len, d)
    return collapsed + update


class TestCausalMaskBits:
    def test_matches_per_prefix_hard_mask(self):
        from reference_controller import event_scores, hard_mask

        cfg = tiny_cfg()
        params = init_params(cfg, seed=10)
        cp = controller_params(params, cfg, "layers.0.")
        rng = np.random.default_rng(11)
        errs = Tensor(np.abs(rng.standard_normal(7)))
        hard_bits, _, ratio = causal_mask_bits(errs, cp)
        for t in range(7):
            scores = event_scores(errs[0:t + 1], cp)
            em = hard_mask(scores, float(ratio.data))
            assert hard_bits.data[t] == em.hard.data[t]


class TestBatchAxis:
    """A [B, T] batch runs as one forward: each row is its own sequence."""

    @staticmethod
    def batch(cfg, b, t_len=11, seed=20):
        tokens = np.random.default_rng(seed).integers(0, cfg.vocab_size,
                                                      size=(b, t_len + 1))
        return tokens[:, :-1], tokens[:, 1:]

    @pytest.mark.parametrize("overrides", [{}, {"latent_dim": 3, "layers": 2},
                                           {"slow_memory": False, "mhc": False,
                                            "predictive_coding": False}])
    def test_forward_matches_rows(self, overrides):
        cfg = tiny_cfg(**overrides)
        params = init_params(cfg, seed=21)
        tokens, _ = self.batch(cfg, 3)
        logits, aux = model_forward(tokens, params, cfg)
        assert logits.lm.shape == (3, 11, cfg.vocab_size)
        for b in range(3):
            row, row_aux = model_forward(tokens[b], params, cfg)
            assert np.max(np.abs(logits.lm.data[b] - row.lm.data)) < 1e-12
            if cfg.stop_head:
                assert np.max(np.abs(logits.stop.data[b] - row.stop.data)) < 1e-12
            for a, r in zip(aux, row_aux):
                assert a.write_count == r.write_count
                assert a.effective_ratio[b] == r.effective_ratio
                assert a.sparse_ratio_st.data[b] == r.sparse_ratio_st.data
                for name in ("error_norms", "fast_final", "slow_final"):
                    gap = getattr(a, name).data[b] - getattr(r, name).data
                    assert np.max(np.abs(gap)) < 1e-12, name

    def test_one_row_batch_is_bit_identical(self):
        cfg = tiny_cfg(layers=2)
        params = init_params(cfg, seed=22)
        tokens, _ = self.batch(cfg, 1, t_len=13)
        logits, aux = model_forward(tokens, params, cfg)
        row, row_aux = model_forward(tokens[0], params, cfg)
        assert np.array_equal(logits.lm.data[0], row.lm.data)
        assert np.array_equal(logits.stop.data[0], row.stop.data)
        for a, r in zip(aux, row_aux):
            assert np.array_equal(a.error_norms.data[0], r.error_norms.data)
            assert np.array_equal(a.slow_final.data[0], r.slow_final.data)

    def test_gradients_are_mean_of_rows(self):
        cfg = tiny_cfg(layers=2)
        params = init_params(cfg, seed=23)
        tokens, targets = self.batch(cfg, 3)
        batch, _ = sequence_loss(tokens, targets, params, cfg, LossWeights())
        grads = numerics.forward_backward(batch.total, params)
        rows = []
        for b in range(3):
            row, _ = sequence_loss(tokens[b], targets[b], params, cfg,
                                   LossWeights())
            rows.append((row.values(), numerics.forward_backward(row.total, params)))
        for key, value in batch.values().items():
            assert abs(value - np.mean([v[key] for v, _ in rows])) < 1e-12, key
        assert set(grads) == set(rows[0][1])
        for name, g in grads.items():
            mean = np.mean([r[name].data for _, r in rows], axis=0)
            assert np.max(np.abs(g.data - mean)) < 1e-12, name

    def test_cache_keeps_batch_axis_after_chunk_end(self):
        # A span that closes a chunk leaves each cache array with the
        # batch axis, and the next span continues every row.
        cfg = tiny_cfg(chunk_size=4)
        params = init_params(cfg, seed=25)
        h = np.random.default_rng(26).standard_normal((3, 12, cfg.width))
        whole, _ = block_forward(Tensor(h), 0, params, cfg)
        cache = LayerCache.fresh(cfg, (3,))
        first, _ = block_forward(Tensor(h[:, :4]), 0, params, cfg, cache=cache)
        assert cache.history.shape[0] == 3
        for name in ("fast", "slow", "chunk_sum"):
            assert getattr(cache.memory, name).shape[0] == 3, name
        rest, _ = block_forward(Tensor(h[:, 4:]), 0, params, cfg, cache=cache)
        gap = np.concatenate([first.data, rest.data], axis=1) - whole.data
        assert np.max(np.abs(gap)) < 1e-12

    def test_grad_check(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=24)
        tokens, targets = self.batch(cfg, 2, t_len=6)

        def loss(p):
            b, _ = sequence_loss(tokens, targets, p, cfg, LossWeights(),
                                 soft_mask=True)
            return b.total

        report = numerics.grad_check(loss, params, sample=2, seed=2)
        assert report.passed, report.max_rel_error


class TestTapeBudget:
    """Tape nodes built by the README model, counted as `_op` calls.

    Cost per node, not arithmetic, bounds this model; a primitive that is
    unrolled into many small nodes again pushes these counts over budget.
    """

    @staticmethod
    def count_ops(monkeypatch):
        calls = [0]
        original = numerics._op

        def counting(*args):
            calls[0] += 1
            return original(*args)

        # Modules that import `_op` by name hold their own reference.
        for name, module in list(sys.modules.items()):
            if name.startswith("lpcsm") and getattr(module, "_op", None) is original:
                monkeypatch.setattr(module, "_op", counting)
        return calls

    @staticmethod
    def readme_cfg(max_seq_len):
        return ModelConfig(vocab_size=32, width=32, layers=2, heads=4, window=8,
                           chunk_size=16, max_seq_len=max_seq_len)

    def test_train_sequence(self, monkeypatch):
        cfg = self.readme_cfg(64)
        inputs, targets = make_batch(SyntheticTask("copy", 32, 64, 2, seed=1), 1)
        params = init_params(cfg, seed=1)
        calls = self.count_ops(monkeypatch)
        sequence_loss(inputs[0], targets[0], params, cfg, LossWeights())
        assert 0 < calls[0] <= 220

    def test_long_train_sequence(self, monkeypatch):
        # Four times the tokens and chunk boundaries of the T=64 sequence,
        # within the same budget: no node count grows with T.
        cfg = self.readme_cfg(256)
        task = SyntheticTask("key-recall", 32, 256, 4, distractor_len=240, seed=1)
        inputs, targets = make_batch(task, 1)
        params = init_params(cfg, seed=1)
        calls = self.count_ops(monkeypatch)
        sequence_loss(inputs[0], targets[0], params, cfg, LossWeights())
        assert 0 < calls[0] <= 220

    def test_batch_train_step(self, monkeypatch):
        # A B=4 batch costs about the nodes of one sequence, not four times.
        cfg = self.readme_cfg(64)
        inputs, targets = make_batch(SyntheticTask("copy", 32, 64, 2, seed=1), 4)
        params = init_params(cfg, seed=1)
        calls = self.count_ops(monkeypatch)
        sequence_loss(inputs, targets, params, cfg, LossWeights())
        assert 0 < calls[0] <= 260

    def decode_ops(self, monkeypatch, prompt_len):
        """`_op` calls of the token decoded after a `prompt_len` prompt,
        and whether that token closes a chunk."""
        cfg = self.readme_cfg(256)
        task = SyntheticTask("key-recall", 32, 128, 4, distractor_len=119, seed=1)
        prompt = make_batch(task, 1)[0][0][:prompt_len]
        params = init_params(cfg, seed=1)
        logits, cache = step_decode(prompt, init_cache(cfg), params, cfg)
        closes = cache.layers[0].memory.chunk_count == cfg.chunk_size - 1
        calls = self.count_ops(monkeypatch)
        step_decode(int(np.argmax(logits.lm.data)), cache, params, cfg)
        return calls[0], closes

    def test_decode_token(self, monkeypatch):
        calls, closes = self.decode_ops(monkeypatch, 128)
        assert not closes and 0 < calls <= 160

    def test_decode_chunk_closing_token(self, monkeypatch):
        calls, closes = self.decode_ops(monkeypatch, 127)
        assert closes and 0 < calls <= 160
