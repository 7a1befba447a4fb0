"""Orthogonal novelty transport for slow-memory writes.

Decomposes a chunk summary into the component aligned with the current
slow state and the orthogonal novelty remainder, amplifies only the
novelty, and certifies the result against a closed-form affine-projection
oracle plus the variational write objective.

Every function works on numpy rows: c and m are [d] vectors or [..., d]
batches of them, one reference per row. The transport is defined once,
as `transport_array` and its VJP `transport_vjp`; the slow-write scan of
`memory.slow_write` calls that pair once per chunk over its [B, d] rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError, ConfigError

# Below this norm the reference state is treated as zero; the exact-zero
# dichotomy is an exact-arithmetic statement and 1/||m||^2 would overflow
# on denormals.
ZERO_NORM_FLOOR = 1e-30


def _check_lengths(c: np.ndarray, m: np.ndarray) -> None:
    if c.shape != m.shape or c.ndim == 0:
        raise NumericsError(f"vector length mismatch: {c.shape} vs {m.shape}")


def _row_sum(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=-1, keepdims=True)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> per row, [..., 1], as a batched matmul: the same floats as
    the 1-D `a @ b` of each row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _split(c: np.ndarray, m: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(zero, p): per row, whether m lies below the zero floor, [..., 1],
    or None when no row does, and the component p of c aligned with m, 0
    on those rows. The norm is np.linalg.norm(m, axis=-1)'s, without its
    dispatch."""
    _check_lengths(c, m)
    mm = _row_sum(m * m)
    zero = np.sqrt(mm) < ZERO_NORM_FLOOR
    if not zero.any():  # np.where would select every row's own value
        return None, m * (_row_sum(c * m) / mm)
    # Zero rows divide by 1 in place of <m, m>; np.where drops them.
    ratio = _row_sum(c * m) / np.where(zero, 1.0, mm)
    return zero, np.where(zero, 0.0, m * ratio)


def ont_proj(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Component of c aligned with m; the zero vector when m = 0."""
    return _split(c, m)[1]


def ont_novelty(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Component of c orthogonal to m."""
    return c - ont_proj(c, m)


def transport_array(alpha: float, c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """c + alpha * novelty of c against m; keeps <x, m> = <c, m>. With a
    zero reference the whole summary is novelty, so the transport is
    exactly the unconstrained amplification (1 + alpha) c."""
    zero, p = _split(c, m)
    x = c + (c - p) * alpha
    return x if zero is None else np.where(zero, c * (1.0 + alpha), x)


def transport_vjp(alpha: float, c: np.ndarray, m: np.ndarray,
                  g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shares (g_c, g_m) of g = dL/dx for x = transport_array(alpha, c, m).

    With s = <c,m>/<m,m>, x = (1+alpha) c - alpha s m, so
    g_c = (1+alpha) g - alpha (<g,m>/<m,m>) m and
    g_m = -alpha (s g + (<g,m>/<m,m>) (c - 2 s m)); below the zero floor
    x = (1+alpha) c does not depend on m."""
    mm = _row_dot(m, m)
    zero = np.sqrt(mm) < ZERO_NORM_FLOOR
    some_zero = zero.any()  # else np.where would select every row's own value
    if some_zero:
        mm = np.where(zero, 1.0, mm)
    s = _row_dot(c, m) / mm
    gm_ratio = _row_dot(g, m) / mm
    g_c = (1.0 + alpha) * g - (alpha * gm_ratio) * m
    g_m = -alpha * (s * g + gm_ratio * (c - (2.0 * s) * m))
    if some_zero:
        g_c = np.where(zero, g * (1.0 + alpha), g_c)
        g_m = np.where(zero, 0.0, g_m)
    return g_c, g_m


def ont_oracle_min(alpha: float, c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Projection of the target (1 + alpha) c onto the feasible set
    {x : <x,m> = <c,m>}.

    Independent of the transport path: computed directly as
    Y + ((<c,m> - <Y,m>) / ||m||^2) * m, with Y itself when m = 0.
    """
    _check_lengths(c, m)
    y = c * (1.0 + alpha)
    mm = _row_sum(m * m)
    zero = np.sqrt(mm) < ZERO_NORM_FLOOR
    gap = _row_sum(c * m) - _row_sum(y * m)
    mm = np.where(zero, 1.0, mm)
    return np.where(zero, y, y + m * (gap / mm))


def ont_write_objective(alpha: float, c: np.ndarray, m: np.ndarray,
                        x: np.ndarray) -> float:
    """Write cost: proximity to c minus alpha times motion along the
    novelty, summed over rows."""
    _check_lengths(c, x)
    diff = x - c
    return (0.5 * float((diff * diff).sum())
            - alpha * float((diff * ont_novelty(c, m)).sum()))


# -- standalone property suite ---------------------------------------------


@dataclass
class PropertyCheck:
    name: str
    max_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol


def verify_properties(trials: int = 1000, seed: int = 0) -> tuple[list[PropertyCheck], float]:
    """Randomized check of the formal properties of `transport_array`,
    the transport the slow write runs.

    Draws random (alpha, c, m) in dims 1..64 with alpha in [-2, 4]
    including 0, and m = 0 cases mixed in. Returns the per-property
    worst errors and the wall-clock runtime.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    errs = {
        "feasibility": 0.0,
        "decomposition": 0.0,
        "aligned_gap": 0.0,
        "pythagorean": 0.0,
        "oracle_equivalence": 0.0,
        "variational": 0.0,
        "zero_reference": 0.0,
    }
    t0 = time.perf_counter()
    for trial in range(trials):
        dim = int(rng.integers(1, 65))
        if trial % 10 == 0:
            alpha = 0.0
        else:
            alpha = float(rng.uniform(-2.0, 4.0))
        c = rng.standard_normal(dim)
        m = np.zeros(dim) if trial % 7 == 0 else rng.standard_normal(dim)

        t = transport_array(alpha, c, m)
        p = ont_proj(c, m)
        n = ont_novelty(c, m)
        y = c * (1.0 + alpha)

        scale = max(1.0, float(np.linalg.norm(c) * np.linalg.norm(m)))
        errs["feasibility"] = max(
            errs["feasibility"], abs(float(t @ m) - float(c @ m)) / scale
        )
        errs["decomposition"] = max(
            errs["decomposition"], float(np.max(np.abs(p + n - c), initial=0.0))
        )
        errs["aligned_gap"] = max(
            errs["aligned_gap"], float(np.max(np.abs((t - y) + alpha * p), initial=0.0))
        )

        # Random feasible point: transport plus a perturbation orthogonal to m.
        pert = rng.standard_normal(dim)
        if np.linalg.norm(m) >= ZERO_NORM_FLOOR:
            pert = pert - (pert @ m) / (m @ m) * m
        x = t + pert
        lhs = float(((x - y) ** 2).sum())
        rhs = float(((x - t) ** 2).sum()) + float(((t - y) ** 2).sum())
        errs["pythagorean"] = max(
            errs["pythagorean"], abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        )

        oracle = ont_oracle_min(alpha, c, m)
        errs["oracle_equivalence"] = max(
            errs["oracle_equivalence"], float(np.max(np.abs(oracle - t), initial=0.0))
        )

        # Variational identity holds for arbitrary x, feasible or not.
        x_any = x if trial % 2 == 0 else c + rng.standard_normal(dim)
        jx = ont_write_objective(alpha, c, m, x_any)
        jt = ont_write_objective(alpha, c, m, t)
        half_sq = 0.5 * float(((x_any - t) ** 2).sum())
        errs["variational"] = max(
            errs["variational"],
            abs((jx - jt) - half_sq) / max(1.0, abs(jx - jt), half_sq),
        )

        if np.linalg.norm(m) < ZERO_NORM_FLOOR:
            errs["zero_reference"] = max(
                errs["zero_reference"],
                float(np.max(np.abs(t - (1.0 + alpha) * c), initial=0.0)),
            )
    elapsed = time.perf_counter() - t0

    tols = {
        "feasibility": 1e-10,
        "decomposition": 1e-12,
        "aligned_gap": 1e-12,
        "pythagorean": 1e-9,
        "oracle_equivalence": 1e-10,
        "variational": 1e-9,
        "zero_reference": 0.0,
    }
    checks = [PropertyCheck(k, errs[k], tols[k]) for k in errs]
    return checks, elapsed
