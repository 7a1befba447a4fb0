"""Novelty-transport geometry: projection, transport and its VJP, the
affine oracle, the variational write objective, and the randomized
property suite."""

import numpy as np
import pytest

from lpcsm.numerics import NumericsError
from lpcsm.ont import (
    ont_proj, ont_novelty, ont_oracle_min, ont_write_objective,
    transport_array, transport_vjp, verify_properties, ZERO_NORM_FLOOR,
)


def vec(*vals):
    return np.array(vals, dtype=np.float64)


class TestProjection:
    def test_orthogonal(self):
        assert np.array_equal(ont_proj(vec(1, 0), vec(0, 1)), [0, 0])

    def test_aligned(self):
        assert np.array_equal(ont_proj(vec(2, 0), vec(1, 0)), [2, 0])

    def test_general(self):
        assert np.max(np.abs(ont_proj(vec(1, 1), vec(1, 0)) - [1, 0])) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(NumericsError):
            ont_proj(vec(1, 0), vec(1, 0, 0))


class TestNovelty:
    def test_general(self):
        assert np.max(np.abs(ont_novelty(vec(1, 1), vec(1, 0)) - [0, 1])) < 1e-15

    def test_aligned_zero_novelty(self):
        assert np.array_equal(ont_novelty(vec(2, 0), vec(1, 0)), [0, 0])

    def test_zero_reference(self):
        assert np.array_equal(ont_novelty(vec(3, -2), vec(0, 0)), [3, -2])

    def test_decompose_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c, m = rng.standard_normal(5), rng.standard_normal(5)
            aligned = ont_proj(c, m)
            novelty = ont_novelty(c, m)
            assert np.max(np.abs(aligned + novelty - c)) < 1e-12


class TestTransport:
    def test_orthogonal_scales(self):
        t = transport_array(0.5, vec(1, 0), vec(0, 1))
        assert np.max(np.abs(t - [1.5, 0])) < 1e-15

    def test_aligned_unchanged(self):
        t = transport_array(3.0, vec(2, 0), vec(1, 0))
        assert np.array_equal(t, [2, 0])

    def test_general(self):
        t = transport_array(1.0, vec(1, 1), vec(1, 0))
        assert np.max(np.abs(t - [1, 2])) < 1e-15

    def test_zero_reference_exact(self):
        c = vec(0.3, -1.7, 2.0)
        t = transport_array(2.0, c, vec(0, 0, 0))
        assert np.array_equal(t, c * 3.0)


class TestTarget:
    """A zero reference makes the whole summary novelty, so the transport
    is the unconstrained target (1 + alpha) c."""

    def test_identity_at_zero(self):
        assert np.array_equal(transport_array(0.0, vec(5, 7), vec(0, 0)), [5, 7])

    def test_doubling(self):
        assert np.array_equal(transport_array(1.0, vec(1, 1), vec(0, 0)), [2, 2])

    def test_annihilation(self):
        assert np.array_equal(transport_array(-1.0, vec(3, 3), vec(0, 0)), [0, 0])


class TestOracle:
    def test_affine_projection(self):
        x = ont_oracle_min(1.0, vec(1, 1), vec(1, 0))
        assert np.max(np.abs(x - [1, 2])) < 1e-15

    def test_zero_reference_is_target(self):
        x = ont_oracle_min(2.0, vec(1, 0), vec(0, 0))
        assert np.array_equal(x, [3, 0])

    def test_alpha_zero_is_c(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c, m = rng.standard_normal(4), rng.standard_normal(4)
            x = ont_oracle_min(0.0, c, m)
            assert np.max(np.abs(x - c)) < 1e-12

    def test_matches_transport(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 16))
            alpha = float(rng.uniform(-2, 4))
            c, m = rng.standard_normal(dim), rng.standard_normal(dim)
            oracle = ont_oracle_min(alpha, c, m)
            direct = transport_array(alpha, c, m)
            assert np.max(np.abs(oracle - direct)) < 1e-10


class TestWriteObjective:
    def test_x_equals_c(self):
        assert ont_write_objective(1.5, vec(1, 2), vec(3, 1), vec(1, 2)) == 0.0

    def test_at_transport(self):
        j = ont_write_objective(1.0, vec(1, 1), vec(1, 0), vec(1, 2))
        assert abs(j - (-0.5)) < 1e-15

    def test_alpha_zero_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c, m, x = (rng.standard_normal(3) for _ in range(3))
            assert ont_write_objective(0.0, c, m, x) >= 0.0

    def test_completion_identity(self):
        # J(x) - J(T) = 0.5 * ||x - T||^2 for arbitrary x.
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(1, 12))
            alpha = float(rng.uniform(-2, 4))
            c, m, x = (rng.standard_normal(dim) for _ in range(3))
            t = transport_array(alpha, c, m)
            jx = ont_write_objective(alpha, c, m, x)
            jt = ont_write_objective(alpha, c, m, t)
            gap = 0.5 * float(((x - t) ** 2).sum())
            assert abs((jx - jt) - gap) < 1e-9 * max(1.0, abs(jx - jt), gap)


def central_vjp(alpha, c, m, g, h=1e-6):
    """(dL/dc, dL/dm) of L = sum(g * transport_array(alpha, c, m)) by
    central differences."""
    def grad(x, f):
        out = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[i] = h
            out[i] = ((g * (f(x + step) - f(x - step))).sum()) / (2 * h)
        return out
    return (grad(c, lambda x: transport_array(alpha, x, m)),
            grad(m, lambda x: transport_array(alpha, c, x)))


class TestPropertySuite:
    def test_all_properties_pass(self):
        checks, elapsed = verify_properties(trials=300, seed=11)
        assert len(checks) == 7
        for c in checks:
            assert c.passed, f"{c.name}: {c.max_error} > {c.tol}"
        assert elapsed < 5.0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(NumericsError):
            verify_properties(trials=trials)

    def test_gradient_through_transport(self):
        rng = np.random.default_rng(5)
        for shape, alpha in (((1,), 0.7), ((4,), 0.7), ((9,), -1.3),
                             ((3, 5), 0.7)):  # the last is a batch of rows
            c, m, g = (rng.standard_normal(shape) for _ in range(3))
            g_c, g_m = transport_vjp(alpha, c, m, g)
            num_c, num_m = central_vjp(alpha, c, m, g)
            assert np.max(np.abs(g_c - num_c)) < 1e-7
            assert np.max(np.abs(g_m - num_m)) < 1e-7

    def test_gradient_zero_reference(self):
        # Below the zero floor the transport is (1 + alpha) c: c gets the
        # scaled gradient and the reference none.
        rng = np.random.default_rng(6)
        c, g = rng.standard_normal(4), rng.standard_normal(4)
        g_c, g_m = transport_vjp(0.7, c, np.zeros(4), g)
        num_c, _ = central_vjp(0.7, c, np.zeros(4), g)
        assert np.max(np.abs(g_c - num_c)) < 1e-7
        assert np.array_equal(g_m, np.zeros(4))

    def test_batch_equals_rows(self):
        # One row of m is zero, so the batch mixes both branches.
        rng = np.random.default_rng(8)
        c, m, g = (rng.standard_normal((4, 6)) for _ in range(3))
        m[2] = 0.0
        x = transport_array(0.4, c, m)
        g_c, g_m = transport_vjp(0.4, c, m, g)
        for i in range(4):
            assert np.array_equal(x[i], transport_array(0.4, c[i], m[i]))
            row_c, row_m = transport_vjp(0.4, c[i], m[i], g[i])
            assert np.array_equal(g_c[i], row_c)
            assert np.array_equal(g_m[i], row_m)

    def test_batch_without_zero_row_matches_where_form(self):
        # With no row below the floor the transport and its VJP skip
        # np.where; the floats are those of the np.where form.
        rng = np.random.default_rng(9)
        c, m, g = (rng.standard_normal((5, 7)) for _ in range(3))
        alpha = 0.7
        mm = (m * m).sum(axis=-1, keepdims=True)
        zero = np.sqrt(mm) < ZERO_NORM_FLOOR
        assert not zero.any()
        ratio = (c * m).sum(axis=-1, keepdims=True) / np.where(zero, 1.0, mm)
        p = np.where(zero, 0.0, m * ratio)
        x = np.where(zero, c * (1.0 + alpha), c + (c - p) * alpha)
        assert transport_array(alpha, c, m).tobytes() == x.tobytes()

        def dot(a, b):
            return (a[..., None, :] @ b[..., :, None])[..., 0]
        mm = np.where(zero, 1.0, dot(m, m))
        s, gm_ratio = dot(c, m) / mm, dot(g, m) / mm
        g_c = np.where(zero, g * (1.0 + alpha),
                       (1.0 + alpha) * g - (alpha * gm_ratio) * m)
        g_m = np.where(zero, 0.0,
                       -alpha * (s * g + gm_ratio * (c - (2.0 * s) * m)))
        got_c, got_m = transport_vjp(alpha, c, m, g)
        assert got_c.tobytes() == g_c.tobytes()
        assert got_m.tobytes() == g_m.tobytes()
