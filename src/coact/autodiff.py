"""Reverse-mode automatic differentiation on numpy arrays.

Small tape-based engine: every operation returns a node holding the forward
value plus a closure that routes the upstream gradient to its parents.
Gradients accumulate into ``Tensor.grad`` until cleared, so several scalar
losses that share parameters can be backpropagated one after another and
their gradients add up. Everything is float64 and single-threaded, which
keeps results bit-reproducible.

A leaf built with ``Tensor(...)`` is a parameter and needs a gradient; a
value that ``as_tensor`` wraps from a non-Tensor is a constant and does not.
An operation's output needs a gradient when any of its parents does, and
backward computes a parent's gradient only when that parent needs one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "logsumexp",
    "softmax",
    "take_rows",
    "pick",
    "Adam",
]


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` (reverses numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Tensor:
    __slots__ = ("data", "grad", "needs_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.needs_grad = any(p.needs_grad for p in parents) if parents else True
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # ---- graph traversal ----

    def backward(self) -> None:
        """Backpropagate from a scalar node, accumulating into ``.grad``."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ----

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            if self.needs_grad:
                _accumulate(self, _unbroadcast(g, self.data.shape))
            if other.needs_grad:
                _accumulate(other, _unbroadcast(g, other.data.shape))

        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward = lambda g: _accumulate(self, -g)
        return out

    def __sub__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data - other.data, (self, other))

        def bw(g):
            if self.needs_grad:
                _accumulate(self, _unbroadcast(g, self.data.shape))
            if other.needs_grad:
                _accumulate(other, _unbroadcast(-g, other.data.shape))

        out._backward = bw
        return out

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            if self.needs_grad:
                _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            if other.needs_grad:
                _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            if self.needs_grad:
                _accumulate(self, g @ other.data.T)
            if other.needs_grad:
                _accumulate(other, self.data.T @ g)

        out._backward = bw
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, (self,))
        out._backward = lambda g: _accumulate(self, g.T)
        return out

    # ---- elementwise functions ----

    # exp and tanh close over their result array, not ``out``: a closure over
    # ``out`` makes the tape a reference cycle that only the cyclic GC frees.

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, (self,))
        out._backward = lambda g: _accumulate(self, g * y)
        return out

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, (self,))
        out._backward = lambda g: _accumulate(self, g * (1.0 - y * y))
        return out

    def cos(self):
        out = Tensor(np.cos(self.data), (self,))
        out._backward = lambda g: _accumulate(self, -g * np.sin(self.data))
        return out

    # ---- reductions ----

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(g):
            if axis is None:
                _accumulate(self, np.broadcast_to(g, self.data.shape))
            else:
                gk = g if keepdims else np.expand_dims(g, axis)
                _accumulate(self, np.broadcast_to(gk, self.data.shape))

        out._backward = bw
        return out

    def item(self) -> float:
        return float(self.data)


def as_tensor(x) -> Tensor:
    """``x`` itself if it is a Tensor, else ``x`` as a constant (no gradient)."""
    if isinstance(x, Tensor):
        return x
    t = Tensor(x)
    t.needs_grad = False
    return t


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.needs_grad:
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    out._backward = bw
    return out


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    m = np.max(t.data, axis=axis, keepdims=True)
    lse_k = m + np.log(np.sum(np.exp(t.data - m), axis=axis, keepdims=True))
    out = Tensor(lse_k if keepdims else np.squeeze(lse_k, axis=axis), (t,))

    def bw(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        _accumulate(t, gk * np.exp(t.data - lse_k))

    out._backward = bw
    return out


def softmax(t: Tensor, axis: int) -> Tensor:
    return (t - logsumexp(t, axis=axis, keepdims=True)).exp()


def take_rows(t: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows ``t[idx]``; the scatter-add adjoint handles repeats."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(t.data[idx], (t,))

    def bw(g):
        if t.needs_grad:
            acc = np.zeros_like(t.data)
            np.add.at(acc, idx, g)
            _accumulate(t, acc)

    out._backward = bw
    return out


def pick(t: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Elementwise gather ``t[rows, cols]`` as a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(t.data[rows, cols], (t,))

    def bw(g):
        if t.needs_grad:
            acc = np.zeros_like(t.data)
            np.add.at(acc, (rows, cols), g)
            _accumulate(t, acc)

    out._backward = bw
    return out


class Adam:
    """Adam with (coupled) L2 regularization added to the raw gradient."""

    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self._m[k] = b1 * self._m[k] + (1.0 - b1) * g
            self._v[k] = b2 * self._v[k] + (1.0 - b2) * (g * g)
            m_hat = self._m[k] / (1.0 - b1 ** self._t)
            v_hat = self._v[k] / (1.0 - b2 ** self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def snapshot(params: dict) -> dict:
    """Copy parameter values (for best-checkpoint restore)."""
    return {k: p.data.copy() for k, p in params.items()}


def restore(params: dict, saved: dict) -> None:
    for k, p in params.items():
        p.data = saved[k].copy()
