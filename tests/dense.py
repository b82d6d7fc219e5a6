"""Test helpers: a KnowledgeGraph from explicit float edge weights or a dense weight matrix."""

import numpy as np

from coact.graph import KnowledgeGraph


def weighted_graph(accounts, u, v, w, filter_tag="none") -> KnowledgeGraph:
    """The graph with edges ``(u, v)`` of weights ``w``: its table holds the distinct weights."""
    values, level = np.unique(np.asarray(w, dtype=np.float64), return_inverse=True)
    level = level.reshape(np.shape(w))
    return KnowledgeGraph(list(accounts), u, v, level, values, filter_tag)


def dense_graph(accounts, w, filter_tag="none") -> KnowledgeGraph:
    """The graph whose dense weights are ``w``: symmetric, zero diagonal, >= 0."""
    w = np.asarray(w, dtype=np.float64)
    if not np.array_equal(w, w.T) or np.diag(w).any():
        raise ValueError("dense weights must be symmetric with a zero diagonal")
    u, v = np.nonzero(np.triu(w, 1))
    return weighted_graph(accounts, u, v, w[u, v], filter_tag)


def regularized_coupling(g: KnowledgeGraph) -> np.ndarray:
    """Dense (V, V) B_tau of ``graph.regularized_spectrum``: the weights plus
    tau/V on every pair, tau the mean weighted degree, normalised by the
    regularised degrees on both sides."""
    V = g.n
    w = g.w
    w_tau = w + w.sum() / V / V * (1.0 - np.eye(V))
    d_tau = w_tau.sum(axis=1)
    return w_tau / np.sqrt(np.outer(d_tau, d_tau))
