"""Dense float64 tensors with reverse-mode automatic differentiation.

Every tape node downstream (each mechanism call, each loss term) is built
by `_op` from array code and a hand-written backward. The model composes
only Tensor's `+`, indexing and `sqrt`; its `*` and `sum` are kept for the
reference chains that the one-node forms are tested against. `grad_check`
compares the gradient of any composed scalar with central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericsError(Exception):
    """Shape mismatch, non-finite value, or invalid primitive use."""


class ConfigError(NumericsError):
    """An input the model cannot take: a config value, token, prompt or spec."""


# A single flag gates tape construction; decode and finite-difference
# evaluations run with the tape off.
_GRAD_ENABLED = True

_F64 = np.dtype(np.float64)


class no_grad:
    """Context manager that disables tape construction."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def check_finite(arr: np.ndarray, what: str = "value") -> None:
    """Raise NumericsError naming `what` unless every entry is finite.

    Called where a value enters or leaves the model: the Tensor
    constructor, each block's output, the heads, the gradients, the
    optimizer update and checkpoint load. Tape nodes are not checked."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite {what}")


def sigmoid(x):
    """The logistic function 1 / (1 + exp(-x)) of an array or a float, as
    float64. It is computed as 0.5 * tanh(x / 2) + 0.5, which has no exp
    to overflow: it saturates to exactly 0.0 below about -37 and to 1.0
    above about 37."""
    return np.tanh(x * 0.5) * 0.5 + 0.5


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape.

    A size-1 leading axis that another sum over axis 0 follows is taken
    as g[0], not summed: the floats are the same, since numpy's sums start
    from +0.0, and so the next sum turns each -0.0 into +0.0 as the
    skipped one would have."""
    while g.ndim > len(shape):
        g = g[0] if len(g) == 1 and g.ndim > len(shape) + 1 else g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """Immutable-by-convention dense array node on an autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        check_finite(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._prev = ()
        self._backward = None

    # -- metadata -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise NumericsError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph --------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root, accumulating leaf grads.

        The sweep frees the tape as it goes: once an interior node's
        backward has run, its grad, inputs and closure are dropped, so
        peak memory stays near one tape. A later sweep that reaches a
        released node raises NumericsError."""
        if self.data.size != 1:
            raise NumericsError("backward() requires a scalar root")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._prev:
                if p not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf keeps its grad
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._prev, node._backward = None, (), _released

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other)
        def bw(g):
            _accum(a, g)
            _accum(b, g)
        return _op(a.data + b.data, (a, b), bw)

    def __mul__(self, other):
        a, b = self, _wrap(other)
        def bw(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)
        return _op(a.data * b.data, (a, b), bw)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(g, a.data.shape))
        return _op(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)

    # -- elementwise --------------------------------------------------------

    def sqrt(self):
        a = self
        y = np.sqrt(a.data)
        return _op(y, (a,), lambda g: _accum(a, g * 0.5 / y))

    # -- structure ----------------------------------------------------------

    def __getitem__(self, key):
        a = self
        def bw(g):
            full = np.zeros_like(a.data)
            # An integer-array key may repeat an index, whose shares add
            # up; a basic key selects each entry at most once.
            if any(isinstance(k, (list, np.ndarray))
                   for k in (key if isinstance(key, tuple) else (key,))):
                np.add.at(full, key, g)
            else:
                full[key] = g
            _accum(a, full)
        return _op(a.data[key], (a,), bw)


def _released(g) -> None:
    raise NumericsError("backward through a released graph")


def _wrap(x) -> Tensor:
    """An operand as a Tensor; constants are copied but not checked."""
    return x if isinstance(x, Tensor) else _op(np.array(x, dtype=np.float64), (), None)


def _op(data, inputs: tuple, backward) -> Tensor:
    """The tape node of an op's freshly computed result, built without the
    constructor's copy and check: finiteness is checked at the model's
    boundaries. While the tape is on and an input requires grad, the node
    records `inputs` and `backward(g)`, which accumulates g's share into
    each input; otherwise it records nothing."""
    out = Tensor.__new__(Tensor)
    # Most results are float64 arrays already, and this check costs less
    # than np.asarray on one.
    out.data = (data if type(data) is np.ndarray and data.dtype is _F64
                else np.asarray(data, dtype=np.float64))
    out.grad = None
    if _GRAD_ENABLED:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad, out._prev, out._backward = True, inputs, backward
                return out
    out.requires_grad, out._prev, out._backward = False, (), None
    return out


def _accum(t: Tensor, g) -> None:
    """Add g's share to t.grad. The sum is rebound, never written in
    place, because one g may be handed to both operands of an op."""
    if not t.requires_grad:
        return
    if not (type(g) is np.ndarray and g.dtype is _F64 and g.shape == t.data.shape):
        g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


# -- free functions ---------------------------------------------------------


def concat(tensors, axis=0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    def bw(g):
        splits = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            _accum(t, piece)
    return _op(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), bw)


def gated_scan(decay: np.ndarray, write: np.ndarray,
               init: np.ndarray) -> np.ndarray:
    """States of f_t = decay_t * f_(t-1) + write_t from f_(-1) = init.

    A [T, d] decay and write give the rows f_0..f_(T-1) from a [d] init,
    and a [B, T, d] pair those of each sequence from a [B, d] init; a [d]
    pair gives the one-step state. The recurrence runs in numpy over
    [B, d] rows of contiguous time-major copies; `gated_scan_vjp` is its
    backward.
    """
    shape = decay.shape
    if (not 1 <= len(shape) <= 3 or write.shape != shape
            or init.shape != shape[:-2] + shape[-1:]):
        raise NumericsError(
            f"gated_scan shape mismatch: {decay.shape}, {write.shape}, "
            f"{init.shape}")
    if len(shape) == 1 or shape[-2] == 1:  # one step
        return decay * init.reshape(shape) + write
    dec, wr = _time_major(decay), _time_major(write)
    rows = np.empty_like(dec)
    f = init
    for d_t, w_t, row in zip(dec, wr, rows):
        f = np.multiply(d_t, f, out=row)
        f += w_t
    return _batch_major(rows, shape)


def gated_scan_vjp(g: np.ndarray, decay: np.ndarray, rows: np.ndarray,
                   init: np.ndarray) -> tuple:
    """The gradients of decay, write and init for gradient g of the rows
    that `gated_scan(decay, write, init)` returned: its adjoint, run in
    reverse time."""
    shape = decay.shape
    dec, rows, g = _time_major(decay), _time_major(rows), _time_major(g)
    g_wr = np.empty_like(dec)  # dL/df_t, from step t and later ones
    carry = np.zeros(dec.shape[1:])  # dL/df_t from later steps
    for g_t, d_t, g_f in zip(g[::-1], dec[::-1], g_wr[::-1]):
        np.add(carry, g_t, out=g_f)
        np.multiply(g_f, d_t, out=carry)
    g_dec = g_wr * np.concatenate([init[None], rows[:-1]])
    return _batch_major(g_dec, shape), _batch_major(g_wr, shape), carry


def _time_major(x: np.ndarray) -> np.ndarray:
    """[T, d] or [B, T, d] (a [d] row is one step) as contiguous
    [T, d] or [T, B, d]: step t is row t."""
    if x.ndim == 1:
        return x[None]
    return x if x.ndim == 2 else np.ascontiguousarray(x.swapaxes(0, 1))


def _batch_major(x: np.ndarray, shape: tuple) -> np.ndarray:
    """`_time_major`'s inverse, for an input of `shape`."""
    return x.swapaxes(0, 1) if len(shape) == 3 else x.reshape(shape)


def straight_through(hard_values: np.ndarray, soft: Tensor) -> Tensor:
    """Forward the hard values, route the backward pass through `soft`,
    which has their shape or is one scalar for all of them."""
    hard = np.asarray(hard_values, dtype=np.float64)
    if soft.shape != hard.shape and soft.ndim != 0:
        raise NumericsError("straight-through shape mismatch")
    return _op(hard, (soft,), lambda g: _accum(soft, g))


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray,
           act: str | None = None) -> np.ndarray:
    """x @ w + b, then `act` ("tanh" or "sigmoid") if given: the arrays
    of `linear`'s forward."""
    try:
        y = x @ w
        y += b
    except ValueError as e:
        raise NumericsError(
            f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}") from e
    if act == "tanh":
        return np.tanh(y)
    if act == "sigmoid":
        return sigmoid(y)
    if act is not None:
        raise NumericsError(f"unknown activation {act!r}")
    return y


def affine_vjp(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor,
               y: np.ndarray, act: str | None = None) -> np.ndarray:
    """`linear`'s backward for output y = affine(x, w.data, b.data, act)
    and its gradient g: it adds w's and b's shares to their gradients and
    returns x's. `act` goes first, as Tensor.tanh and Tensor.sigmoid take
    it; a 1-D w is taken as [d, 1], and its gradient from the rows as one
    [N, d] matrix. x's gradient keeps g's leading axes, one row as [1, k],
    since BLAS picks a kernel, and so its rounding, by shape."""
    if act == "tanh":
        g = g * (1.0 - y * y)
    elif act == "sigmoid":
        g = g * y * (1.0 - y)
    w2 = w.data.reshape(len(w.data), -1)
    g2 = g.reshape((x.shape[:-1] or (1,)) + w2.shape[1:])
    rows = x.reshape(-1, len(w2))
    _accum(w, (rows.T @ g2.reshape(len(rows), -1)).reshape(w.shape))
    _accum(b, g)
    return (g2 @ w2.T).reshape(x.shape)


def linear(x: Tensor, w: Tensor, b: Tensor, act: str | None = None) -> Tensor:
    """x @ w + b, then `act` ("tanh" or "sigmoid") if given, as one tape
    node. x is one row, a [T, d] span or a [B, T, d] batch of spans; a 1-D
    w with a scalar b maps each row to a scalar."""
    data = affine(x.data, w.data, b.data, act)
    return _op(data, (x, w, b),
               lambda g: _accum(x, affine_vjp(g, x.data, w, b, data, act)))


def rmsnorm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y_i = gain_i * x_i / sqrt(mean_j(x_j^2) + eps) over the last axis,
    as one tape node."""
    if x.shape[-1] == 0:
        raise NumericsError("rmsnorm on zero-length last axis")
    if gain.shape != (x.shape[-1],):
        raise NumericsError("rmsnorm gain length mismatch")
    n = x.shape[-1]
    # add.reduce / n is .mean()'s arithmetic without its dispatch; one row
    # takes the same IEEE operations on a Python float.
    if x.data.size == n:
        rms = math.sqrt(float(np.add.reduce(x.data * x.data, axis=None)) / n
                        + eps)
    else:
        rms = np.sqrt(np.add.reduce(x.data * x.data, axis=-1, keepdims=True)
                      / n + eps)
    xhat = x.data / rms
    def bw(g):
        gx = g * gain.data
        dot = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
        _accum(x, (gx - xhat * dot) / rms)
        _accum(gain, g * xhat)
    return _op(xhat * gain.data, (x, gain), bw)


# -- parameters -------------------------------------------------------------


class ParameterStore:
    """Ordered name -> Tensor map with per-entry trainable flags."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise NumericsError(f"duplicate parameter name {name!r}")
        t = Tensor(value, requires_grad=trainable)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._entries[name]
        except KeyError:
            raise NumericsError(f"missing parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def names(self):
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def is_trainable(self, name: str) -> bool:
        return self._entries[name].requires_grad

    def trainable_items(self):
        return [(n, t) for n, t in self._entries.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> None:
    """Ask the C allocator to keep freed memory for reuse in this process.

    Each training step builds a tape and Tensor.backward frees it as it
    goes. With glibc's defaults the freed top of the heap then goes back
    to the OS and large arrays come from fresh mmaps, so the next step
    faults those pages in again (about 1900 page faults per step on the
    README model). A C library without mallopt is left as it is."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def forward_backward(root: Tensor, params: ParameterStore) -> dict[str, Tensor]:
    """Gradients of a scalar root w.r.t. every trainable parameter reached.

    Frozen and unreachable parameters are omitted, not zero-filled. The
    gradients are views, in store order, of one flat array made fresh by
    each call, so a later backward or optimizer step leaves them as they
    are. The array is checked for finiteness as a whole.
    """
    params.zero_grad()
    root.backward()
    reached = [(name, t.grad) for name, t in params.trainable_items()
               if t.grad is not None]
    flat = (np.concatenate([g for _, g in reached], axis=None) if reached
            else np.empty(0))
    grads, start = {}, 0
    for name, g in reached:
        grads[name] = _op(flat[start:start + g.size].reshape(g.shape), (), None)
        start += g.size
    if not np.isfinite(flat).all():
        for name, g in grads.items():
            check_finite(g.data, f"gradient of {name!r}")
    return grads


@dataclass
class GradReport:
    """Outcome of one finite-difference comparison."""

    max_rel_error: dict[str, float] = field(default_factory=dict)
    passed: bool = True
    eps: float = 1e-5
    tol: float = 1e-4

    @property
    def worst(self) -> float:
        return max(self.max_rel_error.values(), default=0.0)


def grad_check(
    loss_fn,
    params: ParameterStore,
    eps: float = 1e-5,
    tol: float = 1e-4,
    sample: int | None = None,
    seed: int = 0,
) -> GradReport:
    """Compare reverse-mode gradients against central differences.

    `sample` limits the check to that many components per parameter
    (all components when None). Relative error uses a
    max(1, |analytic|, |numeric|) denominator.
    """
    if not (0.0 < eps <= 1e-2):
        raise NumericsError("eps must lie in (0, 1e-2]")
    with no_grad():
        v1 = loss_fn(params).item()
        v2 = loss_fn(params).item()
    if v1 != v2:
        raise NumericsError("loss_fn is not deterministic")

    grads = forward_backward(loss_fn(params), params)
    rng = np.random.default_rng(seed)
    report = GradReport(eps=eps, tol=tol)
    for name, p in params.trainable_items():
        analytic = grads[name].data if name in grads else np.zeros_like(p.data)
        n = p.data.size
        if sample is None or sample >= n:
            idxs = range(n)
        else:
            idxs = rng.choice(n, size=sample, replace=False)
        worst = 0.0
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in idxs:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                fp = loss_fn(params).item()
                flat[i] = orig - eps
                fm = loss_fn(params).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, abs(aflat[i] - numeric) / denom)
        report.max_rel_error[name] = worst
        if worst > tol:
            report.passed = False
    return report
