"""Sparse event controller: bounded ratio, score normalization, the hard
top-k mask with tie-break, and the straight-through contract."""

import tracemalloc

import numpy as np
import pytest

from lpcsm.numerics import (
    Tensor, NumericsError, ParameterStore, forward_backward, grad_check,
    no_grad,
)
from lpcsm.controller import (
    ControllerParams, ratio_raw_init, clamp_ratio, welford_step, empty_prefix,
)
from reference_controller import event_scores, hard_mask


def make_cp(scale=1.0, temperature=1.0, ratio_raw=0.0,
            ratio_min=0.05, ratio_max=0.95):
    return ControllerParams(
        scale=Tensor(scale), temperature=temperature,
        ratio_raw=Tensor(ratio_raw), ratio_min=ratio_min, ratio_max=ratio_max,
    )


def carried(past, cp):
    """The controller's carried prefix after `past`, a [N] or [B, N] array
    of norms, run as a first span on a fresh prefix, as decode does."""
    from lpcsm.model import causal_mask_bits

    past = np.asarray(past, dtype=np.float64)
    prefix = empty_prefix(past.shape[:-1])
    if past.shape[-1]:
        with no_grad():
            causal_mask_bits(Tensor(past), cp, prefix)
    return prefix


def welford_moments(row):
    """welford_step's state [total, mean, m2] after the norms of a row."""
    state = 0.0, 0.0, 0.0
    for n, x in enumerate(row.tolist(), 1):
        state = welford_step(*state, x, n)
    return list(state)


class TestClampRatio:
    def test_sigmoid_midpoint(self):
        cp = make_cp(ratio_raw=0.0, ratio_min=0.1, ratio_max=0.5)
        assert abs(clamp_ratio(cp).item() - 0.3) < 1e-12

    def test_saturation_high(self):
        cp = make_cp(ratio_raw=50.0, ratio_min=0.1, ratio_max=0.5)
        assert abs(clamp_ratio(cp).item() - 0.5) < 1e-12

    def test_saturation_low(self):
        cp = make_cp(ratio_raw=-50.0, ratio_min=0.1, ratio_max=0.5)
        assert abs(clamp_ratio(cp).item() - 0.1) < 1e-12

    @pytest.mark.parametrize("raw", [-50.0, -1.0, 0.0, 0.7, 50.0])
    def test_one_node_equals_its_chain_bit_for_bit(self, raw):
        results = []
        for fused in (True, False):
            cp = make_cp(ratio_min=0.1, ratio_max=0.5)
            cp.ratio_raw = Tensor(raw, requires_grad=True)
            if fused:
                ratio = clamp_ratio(cp)
                assert ratio._prev == (cp.ratio_raw,)
            else:
                ratio = (cp.ratio_raw.sigmoid() * (cp.ratio_max - cp.ratio_min)
                         + cp.ratio_min)
            (ratio * 1.7).backward()
            results.append((ratio.data, cp.ratio_raw.grad))
        for got, expect in zip(*results):
            assert got.shape == expect.shape == ()
            assert got.tobytes() == expect.tobytes()

    def test_init_inverse(self):
        raw = ratio_raw_init(0.25, 0.05, 0.95)
        cp = make_cp(ratio_raw=raw)
        assert abs(clamp_ratio(cp).item() - 0.25) < 1e-12


class TestEventScores:
    def test_hand_normalization(self):
        cp = make_cp()
        s = event_scores(Tensor(np.array([0.0, 2.0])), cp).data
        # Population std of (0, 2) is 1, so z = (-1, 1) up to the eps floor.
        assert np.max(np.abs(s - np.array([-1.0, 1.0]))) < 1e-5

    def test_temperature_halves(self):
        e = Tensor(np.array([0.0, 1.0, 3.0]))
        s1 = event_scores(e, make_cp(temperature=1.0)).data
        s2 = event_scores(e, make_cp(temperature=2.0)).data
        assert np.max(np.abs(s2 - 0.5 * s1)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(NumericsError):
            event_scores(Tensor(np.zeros((2, 2))), make_cp())

    def test_single_element_finite(self):
        s = event_scores(Tensor(np.array([1.3])), make_cp()).data
        assert np.all(np.isfinite(s))


class TestWelfordStep:
    def test_first_norm_exact(self):
        for x in (0.1, 1.0 / 3.0, 2.0, 1e-3, 0.0, 7.25):
            assert welford_step(0.0, 0.0, 0.0, x, 1) == (x, x, 0.0)

    def test_moments_of_a_row(self):
        row = np.abs(np.random.default_rng(44).standard_normal(300))
        total, mean, m2 = carried(row, make_cp())[2]
        assert [total, mean, m2] == welford_moments(row)
        assert abs(total - row.sum()) < 1e-12
        assert abs(mean - row.mean()) < 1e-14
        assert abs(m2 / row.size - row.var()) < 1e-14

    def test_m2_never_negative(self):
        # An ulp-level state whose next mean rounds past x: mean below 1.0,
        # (total + 1.0) / 3 above it, so (x - mean) * (x - new) < 0. No
        # such state has been seen from a real row; m2 is clamped anyway,
        # so a flat row cannot turn into a negative variance.
        total, mean = 2.0000000000000004, 0.9999999999999999
        assert (1.0 - mean) * (1.0 - (total + 1.0) / 3) < 0.0
        assert welford_step(total, mean, 0.0, 1.0, 3)[2] == 0.0


class TestHardMask:
    def test_full_density(self):
        m = hard_mask(Tensor(np.array([3.0, -1.0, 0.5])), ratio=1.0)
        assert np.array_equal(m.hard.data, np.ones(3))

    def test_top_two(self):
        m = hard_mask(Tensor(np.array([3.0, 1.0, 2.0, 0.0])), ratio=0.5)
        assert np.array_equal(m.hard.data, np.array([1.0, 0, 1, 0]))
        assert m.effective_ratio == 0.5

    def test_tie_break_lower_index(self):
        m = hard_mask(Tensor(np.full(4, 1.0)), ratio=0.5)
        assert np.array_equal(m.hard.data, np.array([1.0, 1, 0, 0]))

    def test_cardinality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            t_len = int(rng.integers(1, 33))
            ratio = float(rng.uniform(0.01, 1.0))
            scores = Tensor(rng.standard_normal(t_len))
            m = hard_mask(scores, ratio)
            assert int(m.hard.data.sum()) == int(np.ceil(ratio * t_len))

    def test_monotonic_in_ratio(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(16)
        prev = np.zeros(16)
        for ratio in (0.1, 0.3, 0.6, 1.0):
            cur = hard_mask(Tensor(scores), ratio).hard.data
            assert np.all(cur >= prev)  # selected sets are nested
            prev = cur

    def test_invalid_ratio(self):
        with pytest.raises(NumericsError):
            hard_mask(Tensor(np.ones(4)), ratio=0.0)
        with pytest.raises(NumericsError):
            hard_mask(Tensor(np.ones(4)), ratio=1.5)

    def test_straight_through_contract(self):
        # Hard values in the forward pass, soft sigmoid path backward.
        scores = Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
        m = hard_mask(scores, ratio=0.5)
        assert set(np.unique(m.hard.data)) <= {0.0, 1.0}
        m.hard.sum().backward()
        assert np.any(scores.grad != 0.0)

    def test_soft_path_matches_fd(self):
        # The soft surrogate (away from threshold crossings) is smooth.
        params = ParameterStore()
        params.add("scores", np.array([2.0, -1.0, 0.5, 1.1]))

        def loss(p):
            m = hard_mask(p["scores"], ratio=0.5)
            return (m.soft * Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum()

        assert grad_check(loss, params).passed


class TestFrozenRatio:
    def test_fixed_mode_not_trainable(self):
        from lpcsm.model import ModelConfig, init_params

        cfg = ModelConfig(vocab_size=8, width=8, layers=1, heads=2,
                          max_seq_len=16, adaptive_ratio=False)
        params = init_params(cfg)
        assert not params.is_trainable("layers.0.ctrl.ratio_raw")

    def test_adaptive_mode_trainable(self):
        from lpcsm.model import ModelConfig, init_params

        cfg = ModelConfig(vocab_size=8, width=8, layers=1, heads=2,
                          max_seq_len=16, adaptive_ratio=True)
        assert init_params(cfg).is_trainable("layers.0.ctrl.ratio_raw")


def per_prefix_bits(errs, cp, ratio):
    """Reference: position t's hard and soft bit from hard_mask over the
    event scores of its own prefix errs[:t+1]."""
    hard, soft = [], []
    for t in range(len(errs)):
        em = hard_mask(event_scores(Tensor(errs[:t + 1]), cp), ratio)
        hard.append(em.hard.data[t])
        soft.append(em.soft.data[t])
    return np.array(hard), np.array(soft)


class TestCausalMaskBitsOracle:
    """causal_mask_bits against the per-prefix event_scores + hard_mask
    definition: same hard bits, and the same soft bits to the last bit."""

    def _check(self, errs, cp, splits=()):
        from lpcsm.model import causal_mask_bits

        errs = np.asarray(errs, dtype=np.float64)
        hard, soft, ratio = causal_mask_bits(Tensor(errs), cp)
        ref_hard, ref_soft = per_prefix_bits(errs, cp, float(ratio.data))
        assert np.array_equal(hard.data, ref_hard)
        assert np.array_equal(soft.data, ref_soft)
        for p in splits:
            h, s, _ = causal_mask_bits(Tensor(errs[p:]), cp,
                                       carried(errs[:p], cp))
            assert np.array_equal(h.data, ref_hard[p:]), p
            assert np.array_equal(s.data, ref_soft[p:]), p

    def test_exact_ties(self):
        rng = np.random.default_rng(30)
        for ratio_raw in (-2.0, 0.0, 1.5):
            errs = rng.choice([0.25, 0.5, 1.0], size=40)
            self._check(errs, make_cp(ratio_raw=ratio_raw), splits=(1, 13, 39))

    def test_constant_prefix(self):
        # var == 0 rows take the eps-floored branch: a constant start, an
        # all-zero sequence (no predictive coding) and a constant tail.
        self._check(np.r_[np.full(9, 0.7), [0.2, 1.3, 0.7]], make_cp(),
                    splits=(3, 9))
        self._check(np.zeros(12), make_cp(), splits=(5,))
        self._check(np.r_[[0.4, 2.0], np.full(10, 1.0)], make_cp(ratio_raw=1.0))

    @pytest.mark.parametrize("length", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 2.0, 1e-3])
    def test_constant_rows(self, value, length):
        # The running mean of a constant row can land an ulp off the
        # value, so its variance is 0 or a few ulps squared by length:
        # either branch, the scan and event_scores take the same one.
        errs = np.full(length, value)
        for cp in (make_cp(), make_cp(scale=-0.8, ratio_raw=1.0)):
            splits = sorted({1, length // 2} - {0, length})
            self._check(errs, cp, splits=splits)
        if length <= 3:  # three 0.1s: mean 0.10000000000000002, var 0
            assert carried(errs, make_cp())[2][2] == 0.0

    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_rows_ulps_apart(self, ulps):
        rng = np.random.default_rng(46 + ulps)
        for value in (0.1, 1.0 / 3.0, 2.0, 1e-3):
            for length in (2, 3, 17, 64):
                steps = rng.integers(0, ulps + 1, size=length)
                errs = value + steps * np.spacing(value)
                cp = make_cp(scale=rng.uniform(-2, 2),
                             ratio_raw=rng.uniform(-2, 2))
                self._check(errs, cp, splits=(1, length // 2))

    @pytest.mark.parametrize("scale", [-1.3, 0.0])
    def test_nonpositive_scale(self, scale):
        rng = np.random.default_rng(31)
        errs = np.abs(rng.standard_normal(50))
        errs[10:14] = errs[3]
        self._check(errs, make_cp(scale=scale), splits=(7, 30))

    @pytest.mark.parametrize("scale", [1.0, -0.7])
    @pytest.mark.parametrize("tiny", [(1e-17, 2e-17, 3e-17),
                                      (3e-17, 1e-17, 2e-17)])
    def test_rounding_merges_distinct_norms(self, tiny, scale):
        # Norms of 1e-17 beside O(1) ones give the same v - m, so distinct
        # norms share one score and the threshold is taken from a run of
        # unequal norms in position order; out of value order, the second
        # case tells position order from the prefix's value order.
        self._check([1.0, *tiny, 0.5], make_cp(scale=scale, ratio_raw=0.3),
                    splits=(2,))

    def test_near_ties(self):
        # Errors a few ulps apart, under affine maps whose rounding can
        # merge or keep them apart depending on the exact prefix mean.
        rng = np.random.default_rng(32)
        for trial in range(30):
            base = rng.uniform(0.5, 2.0)
            ulps = rng.integers(0, 5, size=int(rng.integers(2, 60)))
            errs = base + ulps * np.spacing(base)
            cp = make_cp(scale=rng.uniform(-3, 3),
                         temperature=rng.uniform(0.3, 2.0),
                         ratio_raw=rng.uniform(-3, 3))
            self._check(errs, cp, splits=(1, len(errs) // 2))

    def test_random_lengths(self):
        rng = np.random.default_rng(33)
        for t_len in (1, 2, 7, 64, 129, 256):
            errs = np.abs(rng.standard_normal(t_len)) * rng.uniform(0.1, 5.0)
            cp = make_cp(scale=rng.uniform(-2, 2),
                         ratio_raw=rng.uniform(-3, 3))
            splits = sorted({1, t_len // 3, t_len - 1} - {0})
            self._check(errs, cp, splits=splits)

    def test_batch_rows(self):
        # Each row of a [B, T] batch is its own sequence, with ties, a flat
        # row and a falling score map among them; split spans carry the
        # prefix of a [B, N] past, B sorted rows.
        from lpcsm.model import causal_mask_bits

        rng = np.random.default_rng(42)
        errs = np.abs(rng.standard_normal((3, 40)))
        errs[1, 5:12] = errs[1, 2]
        errs[2] = 0.6
        for cp in (make_cp(scale=1.4, ratio_raw=0.7),
                   make_cp(scale=-0.9, ratio_raw=-1.2)):
            hard, soft, ratio = causal_mask_bits(Tensor(errs), cp)
            refs = [per_prefix_bits(row, cp, float(ratio.data)) for row in errs]
            assert np.array_equal(hard.data, [h for h, _ in refs])
            assert np.array_equal(soft.data, [s for _, s in refs])
            for p in (1, 17, 39):
                h, s, _ = causal_mask_bits(Tensor(errs[:, p:]), cp,
                                           carried(errs[:, :p], cp))
                assert np.array_equal(h.data, [h[p:] for h, _ in refs]), p
                assert np.array_equal(s.data, [s[p:] for _, s in refs]), p

    def test_batch_backward_matches_rows(self):
        from lpcsm.model import causal_mask_bits

        rng = np.random.default_rng(43)
        errs = np.abs(rng.standard_normal((3, 25)))
        errs[0, :4] = 0.5  # flat rows first
        past = np.abs(rng.standard_normal((3, 6)))
        g = rng.standard_normal((3, 25))

        def grads(e_data, past_rows, weights):
            e = Tensor(e_data, requires_grad=True)
            cp = make_cp(scale=0.7, temperature=0.8, ratio_raw=0.3)
            cp.scale.requires_grad = True
            _, soft, _ = causal_mask_bits(e, cp, carried(past_rows, cp))
            (soft * Tensor(weights)).sum().backward()
            return e.grad, cp.scale.grad

        e_batch, scale_batch = grads(errs, past, g)
        rows = [grads(errs[b], past[b], g[b]) for b in range(3)]
        assert np.max(np.abs(e_batch - [e for e, _ in rows])) < 1e-12
        assert abs(scale_batch - sum(s for _, s in rows)) < 1e-12

    def test_soft_path_gradients(self):
        from lpcsm.model import causal_mask_bits

        rng = np.random.default_rng(34)
        params = ParameterStore()
        past = list(np.abs(rng.standard_normal(3)) + 0.1)  # detached norms
        params.add("errs", np.abs(rng.standard_normal(6)) + 0.1)
        params.add("scale", 0.8)
        weights = Tensor(rng.standard_normal(6))

        def loss(p):
            cp = ControllerParams(scale=p["scale"], temperature=1.3,
                                  ratio_raw=Tensor(0.0),
                                  ratio_min=0.05, ratio_max=0.95)
            _, soft, _ = causal_mask_bits(p["errs"], cp, carried(past, cp))
            return (soft * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error


def tape_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


class TestPrefixEventNode:
    """The hand-written backward of the controller node, and its cost."""

    @pytest.mark.parametrize("past", [0, 5])
    @pytest.mark.parametrize("scale", [0.8, -1.1])
    def test_grad_check_with_flat_rows(self, past, scale):
        # The span opens with two constant norms after a constant past, so
        # its first rows take the var == 0 branch. The constants are not
        # perturbed: a perturbed flat row would leave that branch.
        from lpcsm.model import causal_mask_bits
        from lpcsm.numerics import concat

        rng = np.random.default_rng(35 + past)
        params = ParameterStore()
        params.add("errs", 0.3 + 0.37 * rng.permutation(9))  # well apart
        params.add("scale", scale)
        weights = Tensor(rng.standard_normal(11))

        def run(p):
            cp = ControllerParams(scale=p["scale"], temperature=1.7,
                                  ratio_raw=Tensor(0.4),
                                  ratio_min=0.05, ratio_max=0.95)
            span = concat([Tensor(np.full(2, 0.7)), p["errs"]])
            return causal_mask_bits(span, cp, carried([0.7] * past, cp))

        hard, _, _ = run(params)
        report = grad_check(lambda p: (run(p)[1] * weights).sum(), params)
        assert report.passed, report.max_rel_error
        for name in ("errs", "scale"):  # no threshold crossed under eps
            params[name].data += 1e-5
            assert np.array_equal(run(params)[0].data, hard.data)
            params[name].data -= 1e-5

    @pytest.mark.parametrize("past", [0, 5, "above"])
    @pytest.mark.parametrize("scale", [1.2, -0.7])
    def test_backward_matches_per_prefix_tape(self, past, scale):
        # Against the tape of per-prefix event_scores + hard_mask, which
        # also covers the flat (var == 0) rows a finite difference cannot.
        # "above" carries 16 norms that score above every span norm (larger
        # norms for scale > 0, smaller for scale < 0), so each threshold
        # lies before the span, where it is a constant.
        from lpcsm.model import causal_mask_bits
        from lpcsm.numerics import concat

        rng = np.random.default_rng(41 + (past if past != "above" else 6))
        errs = np.r_[np.full(7, 0.7), np.abs(rng.standard_normal(13))]
        if past == "above":
            past = 16
            outside = (errs.max() + rng.uniform(0.1, 1.0, past) if scale > 0
                       else errs.min() * rng.uniform(0.1, 0.9, past))
            errs = np.r_[outside, errs]
            cp = make_cp(scale=scale, temperature=0.6, ratio_raw=-0.5)
            ref_hard, _ = per_prefix_bits(errs, cp, float(clamp_ratio(cp).data))
            assert not ref_hard[past:].any()
        g = Tensor(rng.standard_normal(errs.size - past))
        grads = []
        for node in (True, False):
            e = Tensor(errs[past:], requires_grad=True)
            cp = make_cp(scale=scale, temperature=0.6, ratio_raw=-0.5)
            cp.scale.requires_grad = True
            if node:
                _, soft, _ = causal_mask_bits(e, cp, carried(errs[:past], cp))
            else:
                ratio = float(clamp_ratio(cp).data)
                full = concat([Tensor(errs[:past]), e])
                soft = concat([
                    hard_mask(event_scores(full[0:t + 1], cp), ratio).soft[t:t + 1]
                    for t in range(past, errs.size)])
            (soft * g).sum().backward()
            grads.append((e.grad, cp.scale.grad))
        (e_node, scale_node), (e_ref, scale_ref) = grads
        assert np.max(np.abs(e_node - e_ref)) < 1e-9 * np.max(np.abs(e_ref))
        assert abs(scale_node - scale_ref) < 1e-9 * max(1.0, abs(scale_ref))

    @pytest.mark.parametrize("splits", [(1,), (2, 5), (3, 4, 9), (10,)])
    def test_carried_prefix_matches_one_span(self, splits):
        # Spans that carry the sorted prefix give the bits of one span and
        # leave it as one span leaves it; tied norms keep position order.
        from lpcsm.model import causal_mask_bits

        errs = np.random.default_rng(40).choice([0.2, 0.5, 0.9, 1.4], size=12)
        cp = make_cp(scale=-0.6)
        whole = empty_prefix()
        hard, soft, _ = causal_mask_bits(Tensor(errs), cp, whole)
        parts = empty_prefix()
        pieces = [causal_mask_bits(Tensor(errs[lo:hi]), cp, parts)
                  for lo, hi in zip((0,) + splits, splits + (12,))]
        assert np.array_equal(np.concatenate([h.data for h, _, _ in pieces]),
                              hard.data)
        assert np.array_equal(np.concatenate([s.data for _, s, _ in pieces]),
                              soft.data)
        assert parts == whole
        order = np.argsort(errs, kind="stable")
        assert whole[:2] == (errs[order].tolist(), order.tolist())

    @pytest.mark.parametrize("sizes",
                             [(1, 2, 5, 40), (40, 5, 2, 1), (1,) * 48])
    def test_carried_moments_match_one_span(self, sizes):
        # Spans of a 48-norm row, one sequence or a batch of three, that
        # carry the prefix leave the moments one span leaves, bit for bit,
        # and give its hard and soft bits.
        from lpcsm.model import causal_mask_bits

        rng = np.random.default_rng(47)
        errs = np.abs(rng.standard_normal((3, 48)))
        errs[1, 10:30] = 0.1  # a flat stretch
        cp = make_cp(scale=1.1, ratio_raw=-0.4)
        ends = np.cumsum((0,) + sizes)
        for rows in (errs[0], errs):
            whole = empty_prefix(rows.shape[:-1])
            hard, soft, _ = causal_mask_bits(Tensor(rows), cp, whole)
            parts = empty_prefix(rows.shape[:-1])
            pieces = [causal_mask_bits(Tensor(rows[..., lo:hi]), cp, parts)
                      for lo, hi in zip(ends[:-1], ends[1:])]
            assert parts[2] == whole[2] == (
                welford_moments(rows) if rows.ndim == 1
                else [welford_moments(r) for r in rows])
            assert parts == whole
            assert np.array_equal(
                np.concatenate([h.data for h, _, _ in pieces], axis=-1),
                hard.data)
            assert np.array_equal(
                np.concatenate([s.data for _, s, _ in pieces], axis=-1),
                soft.data)

    def test_tape_and_memory_flat_in_length(self):
        from lpcsm.model import causal_mask_bits

        cp = make_cp(scale=0.9)
        cp.scale.requires_grad = True
        counts = []
        for t_len in (64, 1024):
            e = Tensor(np.abs(np.random.default_rng(36).standard_normal(t_len)),
                       requires_grad=True)
            counts.append(tape_nodes(causal_mask_bits(e, cp)[0]))
        assert counts[0] == counts[1]

        # The [T, N] prefix-score form peaked at 638 MB for T=2048.
        e = Tensor(np.abs(np.random.default_rng(37).standard_normal(2048)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            hard, _, _ = causal_mask_bits(e, cp)
            (hard * e).sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6, peak

    def test_scale_gradient_reaches_every_layer(self):
        from lpcsm.model import ModelConfig, init_params
        from lpcsm.objective import LossWeights
        from lpcsm.train import sequence_loss

        cfg = ModelConfig(vocab_size=11, width=8, layers=2, heads=2,
                          max_seq_len=16)
        params = init_params(cfg, seed=38)
        tokens = np.random.default_rng(39).integers(0, 11, size=13)
        b, _ = sequence_loss(tokens[:-1], tokens[1:], params, cfg, LossWeights())
        grads = forward_backward(b.total, params)
        for layer in range(cfg.layers):
            assert np.any(grads[f"layers.{layer}.ctrl.scale"].data != 0.0)
