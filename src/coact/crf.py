"""Conditional random field over group assignments, with mean-field inference.

The potential of an assignment Y is a sum of learnable unary scores (one
feed-forward scorer applied per account embedding) and fixed pairwise
rewards B_uv = w_uv / sqrt(d_u d_v) paid once per unordered co-appearing
pair with equal labels:

    Phi(Y) = sum_u theta_u(y_u) + sum_{u<v} B_uv * 1(y_u = y_v)

P(Y) proportional to exp(Phi(Y)) is intractable in general, so inference
fits a fully factorized distribution Q by coordinate ascent on the
free-energy functional E_Q[Phi] + H(Q). The row update is

    Q_u = softmax_m( theta_u(m) + sum_v B_uv Q_v(m) ),

whose fixed points are exactly the stationary points of the functional
under this unordered-pair counting. A Jacobi schedule updates all rows from
a snapshot; the Gauss-Seidel schedule updates rows in place and never
decreases the free energy. ``estep_converge`` is the one E-step: it sweeps
until the beliefs stop moving, and ``max_iter=1`` runs a single sweep.
B is never formed in a sweep: ``KnowledgeGraph.couple`` sums
sum_v B_uv Q_v over the graph's edge list, for all rows at once (Jacobi)
or for one row (Gauss-Seidel), so a sweep costs time and memory in
proportion to the number of edges. The tests check this maths against
exhaustive enumeration of small fields (``tests/oracles.py``).

Degree normalization bounds the spectral norm of B by 1, and softmax is
1/2-Lipschitz, so the update is a contraction whose unique fixed point is
label-symmetric whenever the unaries are: the coupling cannot break label
symmetry on its own, and agreement between neighbours comes from unary
scores or clamped rows.

The unary scorer is a two-layer tanh MLP. Its cross-entropy against target
beliefs (``UnaryScorer.crossent``), which the scorer fit and the M-step
ascend, has a hand-written numpy adjoint; it is bit-identical to the
autodiff tape that the tests keep as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _accumulate, glorot, logsumexp, row_softmax
from .graph import KnowledgeGraph

__all__ = [
    "UnaryScorer",
    "CrfParams",
    "MeanField",
    "estep_converge",
    "mean_field_free_energy",
]


class UnaryScorer:
    """Two-layer feed-forward map from an account embedding to M group scores."""

    def __init__(self, d_embed: int, n_groups: int, hidden: int = 64, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.n_groups = n_groups
        self.params = {
            "W1": Tensor(glorot(rng, d_embed, hidden)),
            "b1": Tensor(np.zeros(hidden)),
            "W2": Tensor(glorot(rng, hidden, n_groups)),
            "b2": Tensor(np.zeros(n_groups)),
        }

    def _forward(self, E: np.ndarray) -> tuple:
        """Hidden layer h = tanh(E @ W1 + b1) and scores theta for embeddings ``E``."""
        p = self.params
        h = np.tanh(E @ p["W1"].data + p["b1"].data)
        return h, h @ p["W2"].data + p["b2"].data

    def scores(self, E: np.ndarray) -> np.ndarray:
        """(V, M) score matrix, no gradient."""
        return self._forward(np.asarray(E, dtype=np.float64))[1]

    def crossent(self, E, targets: np.ndarray, scale: float | None = None) -> float:
        """``scale`` times sum_u sum_m targets_u(m) log softmax_m(theta_u).

        ``E`` is an embedding array, or the ``Tensor`` that holds one. Without
        ``scale`` this returns the bare sum and computes no gradient. With it,
        the gradient of the returned value is added into the scorer's
        ``grad`` and, when ``E`` is a Tensor, into ``E.grad``. Each adjoint
        step is the numpy expression an autodiff tape of this loss runs, in
        the tape's order, so the gradients are bit-identical to the tape's.
        """
        E_param, E = (E, E.data) if isinstance(E, Tensor) else (None, E)
        h, theta = self._forward(E)
        lse = logsumexp(theta, axis=1, keepdims=True)
        total = (targets * (theta - lse)).sum()
        if scale is None:
            return float(total)
        p = self.params
        g_lp = scale * targets
        g_theta = g_lp + (-g_lp).sum(axis=1, keepdims=True) * np.exp(theta - lse)
        _accumulate(p["b2"], g_theta.sum(axis=0))
        _accumulate(p["W2"], h.T @ g_theta)
        g_a = (g_theta @ p["W2"].data.T) * (1 - h * h)
        _accumulate(p["b1"], g_a.sum(axis=0))
        if E_param is not None:
            _accumulate(E_param, g_a @ p["W1"].data.T)
        _accumulate(p["W1"], E.T @ g_a)
        return float(total * scale)


@dataclass
class CrfParams:
    scorer: UnaryScorer
    graph: KnowledgeGraph

    def __post_init__(self):
        if self.n_groups < 2:
            raise ValueError("need at least 2 groups")

    @property
    def n_groups(self) -> int:
        return self.scorer.n_groups


@dataclass
class MeanField:
    """Per-account categorical beliefs; clamped rows are held fixed."""

    q: np.ndarray                    # (V, M), rows on the simplex
    clamped: np.ndarray | None = None  # (V,) bool
    residual: float | None = None    # max change of the last sweep (estep_converge)

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        if np.any(self.q < 0):
            raise ValueError("beliefs must be non-negative")
        if np.max(np.abs(self.q.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("belief rows must sum to 1")
        if self.clamped is None:
            self.clamped = np.zeros(len(self.q), dtype=bool)

    @property
    def n_groups(self) -> int:
        return self.q.shape[1]


def _sweep(q, theta, g, clamped, schedule):
    if schedule == "jacobi":
        out = row_softmax(theta + g.couple(q))
        out[clamped] = q[clamped]
        return out
    if schedule == "gauss_seidel":
        out = q.copy()
        for u in range(len(q)):
            if clamped[u]:
                continue
            out[u] = row_softmax(theta[u] + g.couple(out, u))
        return out
    raise ValueError(f"unknown schedule {schedule!r}")


def estep_converge(crf: CrfParams, E: np.ndarray, init: MeanField,
                   tol: float = 1e-6, max_iter: int = 10,
                   schedule: str = "jacobi") -> tuple:
    """Sweep until the max row-wise L-inf change drops below ``tol``.

    Returns (MeanField, iterations used). Default iteration cap is 10. The
    MeanField's ``residual`` is the last sweep's max change (inf if no sweep
    ran), so it converged exactly when ``residual < tol``; at the cap it may
    not have.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    theta = crf.scorer.scores(E)
    q = init.q.copy()
    clamped = init.clamped.copy()
    iterations = 0
    delta = np.inf
    for iterations in range(1, max_iter + 1):
        q_next = _sweep(q, theta, crf.graph, clamped, schedule)
        delta = float(np.max(np.abs(q_next - q))) if len(q) else 0.0
        q = q_next
        if delta < tol:
            break
    return MeanField(q, clamped, delta), iterations


def mean_field_free_energy(mf: MeanField, crf: CrfParams, E: np.ndarray) -> float:
    """E_Q[Phi] + H(Q); log Z minus this value is the exact KL(Q || P)."""
    theta = crf.scorer.scores(E)
    q = mf.q
    expected_unary = float((q * theta).sum())
    expected_pair = 0.5 * float((q * crf.graph.couple(q)).sum())  # B has zero diagonal
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(q > 0, q * np.log(q), 0.0)
    entropy = -float(plogp.sum())
    return expected_unary + expected_pair + entropy


def softmax_init(crf: CrfParams, E: np.ndarray, clamp_rows=None,
                 clamp_groups=None) -> MeanField:
    """Unary-only warm start: rows are softmax(theta_u), clamps one-hot."""
    q = row_softmax(crf.scorer.scores(E))
    clamped = np.zeros(len(q), dtype=bool)
    if clamp_rows is not None and len(clamp_rows):
        rows = np.asarray(clamp_rows, dtype=np.intp)
        groups = np.asarray(clamp_groups, dtype=np.intp)
        if np.any(groups < 0) or np.any(groups >= crf.n_groups):
            raise ValueError("clamp groups out of range")
        q[rows] = 0.0
        q[rows, groups] = 1.0
        clamped[rows] = True
    return MeanField(q, clamped)
