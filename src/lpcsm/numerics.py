"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (attention, memory, routing, the training objective)
is built from the primitive set defined here, so gradients of any composed
scalar can be checked against central finite differences by `grad_check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit


class NumericsError(Exception):
    """Shape mismatch, non-finite value, or invalid primitive use."""


# A single flag gates tape construction; decode and finite-difference
# evaluations run with the tape off.
_GRAD_ENABLED = True


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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
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
        """Reverse-mode sweep from a scalar root, accumulating leaf grads."""
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
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _wrap(other)
        out = _op(a.data + b.data, (a, b))
        if out._prev:
            def bw(g):
                _accum(a, g)
                _accum(b, g)
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        a = self
        out = _op(-a.data, (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, -g)
        return out

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        a, b = self, _wrap(other)
        out = _op(a.data * b.data, (a, b))
        if out._prev:
            def bw(g):
                _accum(a, g * b.data)
                _accum(b, g * a.data)
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _wrap(other)
        out = _op(a.data / b.data, (a, b))
        if out._prev:
            def bw(g):
                _accum(a, g / b.data)
                _accum(b, -g * a.data / (b.data * b.data))
            out._backward = bw
        return out

    def __rtruediv__(self, other):
        return _wrap(other) / self

    def __matmul__(self, other):
        a, b = self, _wrap(other)
        try:
            data = a.data @ b.data
        except ValueError as e:
            raise NumericsError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from e
        out = _op(data, (a, b))
        if out._prev:
            def bw(g):
                ad, bd = a.data, b.data
                a2 = ad if ad.ndim > 1 else ad[None, :]
                b2 = bd if bd.ndim > 1 else bd[:, None]
                g2 = g
                if ad.ndim == 1 and bd.ndim == 1:
                    g2 = g.reshape(1, 1)
                elif ad.ndim == 1:
                    g2 = g[..., None, :]
                elif bd.ndim == 1:
                    g2 = g[..., :, None]
                ga = g2 @ np.swapaxes(b2, -1, -2)
                gb = np.swapaxes(a2, -1, -2) @ g2
                _accum(a, _unbroadcast(ga, a2.shape).reshape(ad.shape))
                _accum(b, _unbroadcast(gb, b2.shape).reshape(bd.shape))
            out._backward = bw
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        out = _op(a.data.sum(axis=axis, keepdims=keepdims), (a,))
        if out._prev:
            def bw(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                _accum(a, np.broadcast_to(g, a.data.shape))
            out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        a = self
        out = _op(a.data.mean(axis=axis, keepdims=keepdims), (a,))
        if out._prev:
            n = a.data.size if axis is None else a.data.shape[axis]
            def bw(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                _accum(a, np.broadcast_to(g, a.data.shape) / n)
            out._backward = bw
        return out

    # -- elementwise nonlinearities ----------------------------------------

    def tanh(self):
        a = self
        y = np.tanh(a.data)
        out = _op(y, (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g * (1.0 - y * y))
        return out

    def sigmoid(self):
        a = self
        y = expit(a.data)
        out = _op(y, (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g * y * (1.0 - y))
        return out

    def softplus(self):
        """log(1 + exp(x)), without overflow for large x."""
        a = self
        out = _op(np.logaddexp(0.0, a.data), (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g * expit(a.data))
        return out

    def exp(self):
        a = self
        y = np.exp(a.data)
        out = _op(y, (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g * y)
        return out

    def log(self):
        a = self
        out = _op(np.log(a.data), (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g / a.data)
        return out

    def sqrt(self):
        a = self
        y = np.sqrt(a.data)
        out = _op(y, (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g * 0.5 / y)
        return out

    def softmax(self):
        """Softmax over the last axis; subtracts the row max before exp."""
        a = self
        shifted = a.data - a.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)
        out = _op(y, (a,))
        if out._prev:
            def bw(g):
                _accum(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))
            out._backward = bw
        return out

    # -- structure ----------------------------------------------------------

    def reshape(self, shape):
        a = self
        out = _op(a.data.reshape(shape), (a,))
        if out._prev:
            out._backward = lambda g: _accum(a, g.reshape(a.data.shape))
        return out

    def transpose(self, axes=None):
        a = self
        out = _op(np.transpose(a.data, axes), (a,))
        if out._prev:
            inv = None if axes is None else np.argsort(axes)
            out._backward = lambda g: _accum(a, np.transpose(g, inv))
        return out

    def __getitem__(self, key):
        a = self
        out = _op(a.data[key], (a,))
        if out._prev:
            def bw(g):
                full = np.zeros_like(a.data)
                full[key] = g
                _accum(a, full)
            out._backward = bw
        return out


def _node(data) -> Tensor:
    """A Tensor around `data` without the constructor's copy and check."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    out._prev = ()
    out._backward = None
    return out


def _wrap(x) -> Tensor:
    """An operand as a Tensor; constants are copied but not checked."""
    return x if isinstance(x, Tensor) else _node(np.array(x, dtype=np.float64))


def _op(data: np.ndarray, inputs: tuple) -> Tensor:
    """The tape node of an op's freshly computed result. Its finiteness is
    checked at the model's boundaries, not here."""
    out = _node(data)
    if _GRAD_ENABLED and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._prev = inputs
    return out


def _accum(t: Tensor, g) -> None:
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


# -- free functions ---------------------------------------------------------


def concat(tensors, axis=0) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    out = _op(np.concatenate([t.data for t in ts], axis=axis), tuple(ts))
    if out._prev:
        sizes = [t.data.shape[axis] for t in ts]
        splits = np.cumsum(sizes)[:-1]
        def bw(g):
            for t, piece in zip(ts, np.split(g, splits, axis=axis)):
                _accum(t, piece)
        out._backward = bw
    return out


def stack(tensors) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    return concat([t.reshape((1,) + t.shape) for t in tensors], axis=0)


def take_rows(t: Tensor, indices) -> Tensor:
    """Gather rows along the leading axis (integer fancy indexing)."""
    idx = np.asarray(indices, dtype=np.int64)
    out = _op(t.data[idx], (t,))
    if out._prev:
        def bw(g):
            full = np.zeros_like(t.data)
            np.add.at(full, idx, g)
            _accum(t, full)
        out._backward = bw
    return out


def gated_scan(decay: Tensor, write: Tensor, init: Tensor) -> Tensor:
    """States of f_t = decay_t * f_(t-1) + write_t from f_(-1) = init.

    A [T, d] decay and write give the [T, d] rows f_0..f_(T-1); a [d] pair
    gives the one-step state. One tape node: the forward runs the
    recurrence in numpy and the backward runs its adjoint in reverse time.
    """
    a, b, f0 = _wrap(decay), _wrap(write), _wrap(init)
    if a.shape != b.shape or a.shape[-1:] != f0.shape or f0.ndim != 1:
        raise NumericsError(
            f"gated_scan shape mismatch: {a.shape}, {b.shape}, {f0.shape}")
    dec = a.data.reshape(-1, f0.shape[0])
    wr = b.data.reshape(dec.shape)
    rows = np.empty_like(dec)
    f = f0.data
    for t in range(dec.shape[0]):
        f = dec[t] * f + wr[t]
        rows[t] = f
    out = _op(rows.reshape(a.shape), (a, b, f0))
    if out._prev:
        def bw(g):
            g = g.reshape(dec.shape)
            g_dec = np.empty_like(dec)
            g_wr = np.empty_like(dec)
            carry = np.zeros_like(f0.data)  # dL/df_t from later steps
            for t in range(dec.shape[0] - 1, -1, -1):
                carry = carry + g[t]
                g_wr[t] = carry
                g_dec[t] = carry * (rows[t - 1] if t > 0 else f0.data)
                carry = carry * dec[t]
            _accum(a, g_dec.reshape(a.shape))
            _accum(b, g_wr.reshape(a.shape))
            _accum(f0, carry)
        out._backward = bw
    return out


def straight_through(hard_values: np.ndarray, soft: Tensor) -> Tensor:
    """Forward the hard values, route the backward pass through `soft`."""
    hard = np.asarray(hard_values, dtype=np.float64)
    if hard.shape != soft.shape:
        raise NumericsError("straight-through shape mismatch")
    out = _op(hard, (soft,))
    if out._prev:
        out._backward = lambda g: _accum(soft, g)
    return out


def rmsnorm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y_i = gain_i * x_i / sqrt(mean_j(x_j^2) + eps) over the last axis."""
    if x.shape[-1] == 0:
        raise NumericsError("rmsnorm on zero-length last axis")
    if gain.shape != (x.shape[-1],):
        raise NumericsError("rmsnorm gain length mismatch")
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x / (ms + eps).sqrt() * gain


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
        return self._entries[name]

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


def forward_backward(root: Tensor, params: ParameterStore) -> dict[str, Tensor]:
    """Gradients of a scalar root w.r.t. every trainable parameter reached.

    Frozen and unreachable parameters are omitted, not zero-filled.
    """
    if root.data.size != 1:
        raise NumericsError("forward_backward requires a scalar root")
    params.zero_grad()
    root.backward()
    grads = {}
    for name, t in params.trainable_items():
        if t.grad is not None:
            check_finite(t.grad, f"gradient of {name!r}")
            grads[name] = _node(t.grad.copy())
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
