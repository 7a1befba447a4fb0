"""Novelty-transport geometry: projection, transport, the affine oracle,
the variational write objective, and the randomized property suite."""

import numpy as np
import pytest

from lpcsm.numerics import Tensor, NumericsError
from lpcsm.ont import (
    ont_proj, ont_novelty, ont_transport, ont_target,
    ont_oracle_min, ont_write_objective, verify_properties,
)


def vec(*vals):
    return Tensor(np.array(vals, dtype=np.float64))


class TestProjection:
    def test_orthogonal(self):
        assert np.array_equal(ont_proj(vec(1, 0), vec(0, 1)).data, [0, 0])

    def test_aligned(self):
        assert np.array_equal(ont_proj(vec(2, 0), vec(1, 0)).data, [2, 0])

    def test_general(self):
        assert np.max(np.abs(ont_proj(vec(1, 1), vec(1, 0)).data - [1, 0])) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(NumericsError):
            ont_proj(vec(1, 0), vec(1, 0, 0))


class TestNovelty:
    def test_general(self):
        assert np.max(np.abs(ont_novelty(vec(1, 1), vec(1, 0)).data - [0, 1])) < 1e-15

    def test_aligned_zero_novelty(self):
        assert np.array_equal(ont_novelty(vec(2, 0), vec(1, 0)).data, [0, 0])

    def test_zero_reference(self):
        assert np.array_equal(ont_novelty(vec(3, -2), vec(0, 0)).data, [3, -2])

    def test_decompose_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c, m = rng.standard_normal(5), rng.standard_normal(5)
            aligned = ont_proj(Tensor(c), Tensor(m)).data
            novelty = ont_novelty(Tensor(c), Tensor(m)).data
            assert np.max(np.abs(aligned + novelty - c)) < 1e-12


class TestTransport:
    def test_orthogonal_scales(self):
        t = ont_transport(0.5, vec(1, 0), vec(0, 1))
        assert np.max(np.abs(t.data - [1.5, 0])) < 1e-15

    def test_aligned_unchanged(self):
        t = ont_transport(3.0, vec(2, 0), vec(1, 0))
        assert np.array_equal(t.data, [2, 0])

    def test_general(self):
        t = ont_transport(1.0, vec(1, 1), vec(1, 0))
        assert np.max(np.abs(t.data - [1, 2])) < 1e-15

    def test_zero_reference_exact(self):
        c = vec(0.3, -1.7, 2.0)
        t = ont_transport(2.0, c, vec(0, 0, 0))
        assert np.array_equal(t.data, c.data * 3.0)


class TestTarget:
    def test_identity_at_zero(self):
        assert np.array_equal(ont_target(0.0, vec(5, 7)).data, [5, 7])

    def test_doubling(self):
        assert np.array_equal(ont_target(1.0, vec(1, 1)).data, [2, 2])

    def test_annihilation(self):
        assert np.array_equal(ont_target(-1.0, vec(3, 3)).data, [0, 0])


class TestOracle:
    def test_affine_projection(self):
        x = ont_oracle_min(1.0, vec(1, 1), vec(1, 0))
        assert np.max(np.abs(x.data - [1, 2])) < 1e-15

    def test_zero_reference_is_target(self):
        x = ont_oracle_min(2.0, vec(1, 0), vec(0, 0))
        assert np.array_equal(x.data, [3, 0])

    def test_alpha_zero_is_c(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c, m = rng.standard_normal(4), rng.standard_normal(4)
            x = ont_oracle_min(0.0, Tensor(c), Tensor(m))
            assert np.max(np.abs(x.data - c)) < 1e-12

    def test_matches_transport(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            dim = int(rng.integers(1, 16))
            alpha = float(rng.uniform(-2, 4))
            c, m = rng.standard_normal(dim), rng.standard_normal(dim)
            oracle = ont_oracle_min(alpha, Tensor(c), Tensor(m)).data
            direct = ont_transport(alpha, Tensor(c), Tensor(m)).data
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
            assert ont_write_objective(0.0, Tensor(c), Tensor(m), Tensor(x)) >= 0.0

    def test_completion_identity(self):
        # J(x) - J(T) = 0.5 * ||x - T||^2 for arbitrary x.
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(1, 12))
            alpha = float(rng.uniform(-2, 4))
            c, m, x = (rng.standard_normal(dim) for _ in range(3))
            t = ont_transport(alpha, Tensor(c), Tensor(m)).data
            jx = ont_write_objective(alpha, Tensor(c), Tensor(m), Tensor(x))
            jt = ont_write_objective(alpha, Tensor(c), Tensor(m), Tensor(t))
            gap = 0.5 * float(((x - t) ** 2).sum())
            assert abs((jx - jt) - gap) < 1e-9 * max(1.0, abs(jx - jt), gap)


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
        from lpcsm.numerics import ParameterStore, grad_check

        params = ParameterStore()
        rng = np.random.default_rng(5)
        params.add("c", rng.standard_normal(4))
        params.add("m", rng.standard_normal(4))

        def loss(p):
            t = ont_transport(0.7, p["c"], p["m"])
            return (t * t).sum()

        assert grad_check(loss, params).passed

    def test_gradient_zero_reference(self):
        # Below the zero floor the transport is (1 + alpha) c: c gets the
        # scaled gradient and the reference none.
        from lpcsm.numerics import ParameterStore, grad_check

        params = ParameterStore()
        params.add("c", np.random.default_rng(6).standard_normal(4))
        m = Tensor(np.zeros(4), requires_grad=True)

        def loss(p):
            t = ont_transport(0.7, p["c"], m)
            return (t * t).sum()

        assert grad_check(loss, params).passed
        assert np.array_equal(m.grad, np.zeros(4))

    def test_one_node(self):
        c = Tensor(np.ones(3), requires_grad=True)
        m = Tensor(np.arange(3.0), requires_grad=True)
        assert ont_transport(0.5, c, m)._prev == (c, m)
