"""Reverse-mode automatic differentiation on numpy arrays: the test oracle.

Small tape-based engine: every operation returns a node holding the forward
value plus a closure that routes the upstream gradient to its parents. The
library computes every gradient with a hand-written adjoint instead; the
tests write the same models on this tape (``tape_reference``) and check
that the adjoints match it bit for bit.

A leaf built with ``Tensor(...)`` needs a gradient and keeps it in its own
``grad``. ``as_tensor`` wraps a library parameter (``coact.autodiff.Tensor``)
as a leaf whose gradient is added straight into that parameter's ``grad``,
and anything else as a constant, which gets no gradient. An operation's
output needs a gradient when any of its parents does, and backward computes
a parent's gradient only when that parent needs one. Gradients accumulate
until cleared, so several scalar losses that share parameters can be
backpropagated one after another and their gradients add up.
"""

import numpy as np

import coact.autodiff as ad


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    ad._accumulate(t if t.param is None else t.param, g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` (reverses numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Tensor:
    __slots__ = ("data", "grad", "needs_grad", "param", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.param = None  # the library parameter that receives this leaf's gradient
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
    """``x`` itself if it is a node, a parameter as a leaf, else a constant."""
    if isinstance(x, Tensor):
        return x
    if isinstance(x, ad.Tensor):
        t = Tensor(x.data)
        t.param = x
        return t
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
    t = as_tensor(t)
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
    t = as_tensor(t)
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
