"""Trainable parameters and the Adam optimizer.

A ``Tensor`` is one parameter array (``data``) and the gradient added into
it so far (``grad``, ``None`` until the first addition). Gradients add up
until they are cleared, so several losses that share parameters can each
add their part. ``Adam`` updates every parameter from its ``grad``;
``snapshot`` and ``restore`` copy parameter values for best-epoch restore.
``logsumexp`` and ``row_softmax`` are the one log-sum-exp and the one
softmax that the sequence model, the scorer and the E-step share.

No autodiff tape runs in the library. The sequence model
(``pointprocess.SequenceModel``) and the unary scorer (``crf.UnaryScorer``)
each have a hand-written numpy forward and adjoint that add into
``Tensor.grad`` with ``_accumulate``. Every step of each adjoint is the
numpy expression that a reverse-mode tape of the same model would run, in
the tape's order, so the gradients are bit-identical to backpropagating it.
That tape lives only in the tests, as the oracle the adjoints must match.
Everything is float64, with one BLAS thread per process and an ordered
reduction across processes, which keeps results bit-reproducible: when
``pointprocess`` trains with a helper process, the parent adds the helper's
gradient increments in the serial order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "Adam"]


def _accumulate(t: "Tensor", g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad = t.grad + g


class Tensor:
    """A parameter: its value ``data`` and its accumulated gradient ``grad``."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def logsumexp(a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """log sum exp(a) along ``axis``, shifted by the maximum."""
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return out if keepdims else np.squeeze(out, axis=axis)


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the maximum."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Adam:
    """Adam with (coupled) L2 regularization added to the raw gradient."""

    def __init__(self, params: dict, lr=1e-3, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        self._t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
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
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def snapshot(params: dict) -> dict:
    """Copy parameter values (for best-checkpoint restore)."""
    return {k: p.data.copy() for k, p in params.items()}


def restore(params: dict, saved: dict) -> None:
    for k, p in params.items():
        p.data = saved[k].copy()
