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
