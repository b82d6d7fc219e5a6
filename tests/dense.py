"""Test helper: a KnowledgeGraph from a dense weight matrix."""

import numpy as np

from coact.graph import KnowledgeGraph


def dense_graph(accounts, w, filter_tag="none") -> KnowledgeGraph:
    """The graph whose dense weights are ``w``: symmetric, zero diagonal, >= 0."""
    w = np.asarray(w, dtype=np.float64)
    if not np.array_equal(w, w.T) or np.diag(w).any():
        raise ValueError("dense weights must be symmetric with a zero diagonal")
    u, v = np.nonzero(np.triu(w, 1))
    return KnowledgeGraph(list(accounts), u, v, w[u, v], filter_tag)
