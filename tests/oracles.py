"""Test oracles that the library itself never runs.

- Exhaustive enumeration of the assignment field: the potential Phi(Y) of
  every assignment, the log-partition function, the exact marginals, and the
  partition-function bound behind the M-step's surrogate objective
  (``check_prop1_bound``). Small instances only.
- The Hawkes conditional intensity, for the time-rescaling check of the
  simulator.
- A reader for the graph files ``coact.graph.save_graph`` writes; the CLI
  never reads one back.
- Probes of ``SequenceModel``'s intermediate quantities (features, contexts,
  the two likelihood terms, mark probabilities, the gap mixture and its
  density), written as functions of a model on its numpy kernel.
"""

import csv
import json
from pathlib import Path

import numpy as np

from coact.autodiff import logsumexp
from coact.crf import CrfParams, MeanField
from coact.events import EventSequence
from coact.graph import KnowledgeGraph
from coact.hawkes import HawkesParams
from coact.pointprocess import NEG_INF, SequenceModel
from dense import weighted_graph

ENUMERATION_LIMIT = 10 ** 6


# ---- the assignment field, by enumeration ----

def potential(Y, crf: CrfParams, E: np.ndarray) -> float:
    """Phi(Y): unary scores plus one pairwise reward per unordered pair."""
    Y = np.asarray(Y, dtype=np.intp)
    theta = crf.scorer.scores(E)
    B = crf.graph.coupling()
    same = Y[:, None] == Y[None, :]
    return float(theta[np.arange(len(Y)), Y].sum() + 0.5 * (B * same).sum())


def enumerate_assignments(n: int, m: int) -> np.ndarray:
    """All m**n assignments as an (m**n, n) integer array."""
    if m ** n > ENUMERATION_LIMIT:
        raise ValueError(f"instance too large to enumerate: {m}**{n}")
    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _pair_scores(B: np.ndarray, Y_all: np.ndarray) -> np.ndarray:
    """sum_{u<v} B_uv * 1(y_u = y_v) for each assignment row of ``Y_all``."""
    n = Y_all.shape[1]
    scores = np.zeros(len(Y_all))
    for u in range(n):
        for v in range(u + 1, n):
            if B[u, v] != 0.0:
                scores += B[u, v] * (Y_all[:, u] == Y_all[:, v])
    return scores


def _all_potentials(crf: CrfParams, E: np.ndarray) -> np.ndarray:
    theta = crf.scorer.scores(E)
    n = len(theta)
    Y_all = enumerate_assignments(n, crf.n_groups)
    return theta[np.arange(n), Y_all].sum(axis=1) + _pair_scores(crf.graph.coupling(), Y_all)


def log_partition_bruteforce(crf: CrfParams, E: np.ndarray) -> float:
    """log sum_Y exp(Phi(Y)) by exhaustive enumeration (small instances only)."""
    return float(logsumexp(_all_potentials(crf, E)))


def marginals_bruteforce(crf: CrfParams, E: np.ndarray) -> MeanField:
    """Exact per-account marginals of P(Y) by enumeration."""
    phi = _all_potentials(crf, E)
    weights = np.exp(phi - logsumexp(phi))
    n = len(crf.scorer.scores(E))
    Y_all = enumerate_assignments(n, crf.n_groups)
    q = np.zeros((n, crf.n_groups))
    for m in range(crf.n_groups):
        q[:, m] = weights @ (Y_all == m)
    q /= q.sum(axis=1, keepdims=True)
    return MeanField(q)


def check_prop1_bound(crf: CrfParams, E: np.ndarray) -> tuple:
    """Verify log Z <= max_Y pairwise(Y) + sum_u log sum_m exp(theta_u(m)).

    Returns (lhs, rhs) and raises if the inequality fails. Equality holds
    when all pairwise weights vanish.
    """
    lhs = log_partition_bruteforce(crf, E)
    theta = crf.scorer.scores(E)
    Y_all = enumerate_assignments(len(theta), crf.n_groups)
    rhs = float(_pair_scores(crf.graph.coupling(), Y_all).max()
                + logsumexp(theta, axis=1).sum())
    if lhs > rhs + 1e-9:
        raise AssertionError(f"partition-bound violation: {lhs} > {rhs}")
    return lhs, rhs


# ---- the Hawkes process ----

def intensity(params: HawkesParams, v, t: float, history) -> float:
    """Conditional intensity of account key ``v`` at time ``t`` given past
    events, (account key, time) pairs.

    lambda_v(t) = mu_v + sum over history of alpha[v, u] * exp(-beta (t - t_i)).
    """
    index = {a: i for i, a in enumerate(params.accounts)}
    vi = index[v]
    acc = params.mu[vi]
    for account, t_i in history:
        if t_i >= t:
            raise ValueError("history events must precede the query time")
        ui = index[account]
        acc += params.alpha[vi, ui] * np.exp(-params.beta * (t - t_i))
    return float(acc)


# ---- graph files ----

def load_graph(path) -> KnowledgeGraph:
    """The graph ``save_graph`` wrote, or any file of that form.

    A pair listed more than once, in either orientation, takes its last
    weight; a zero weight is no edge; an account paired with itself is an
    error.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        meta = fh.readline().strip()
        if not meta.startswith("# filter_tag="):
            raise ValueError(f"{path}: missing filter_tag header line")
        tag, _, accounts_json = meta[len("# filter_tag="):].partition(" accounts=")
        accounts = json.loads(accounts_json)
        header = fh.readline().strip()
        if header != "u,v,weight":
            raise ValueError(f"{path}: expected 'u,v,weight' header")
        index = {a: i for i, a in enumerate(accounts)}
        ends, weights = [], []
        for row in csv.reader(fh):
            if not row:
                continue
            u, v, weight = row
            ends.append((index[u], index[v]))
            weights.append(float(weight))
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    weights = np.array(weights, dtype=np.float64)
    if np.any(ends[:, 0] == ends[:, 1]):
        raise ValueError(f"{path}: an edge joins an account to itself")
    u, v = ends.min(axis=1), ends.max(axis=1)
    # the first of each pair in the reversed listing is its last listing
    _, first = np.unique((u * len(accounts) + v)[::-1], return_index=True)
    last = len(u) - 1 - first
    last = last[weights[last] != 0]
    return weighted_graph(accounts, u[last], v[last], weights[last], tag)


# ---- the sequence model's intermediates ----

def featurize(model: SequenceModel, s: EventSequence) -> np.ndarray:
    return model._features(model.prepare([s])[0])[0]


def encode(model: SequenceModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    L = len(X)
    return model._encode(X, np.triu(np.full((L, L), NEG_INF), k=1))[0]


def context(model: SequenceModel, s: EventSequence) -> np.ndarray:
    seq = model.prepare([s])[0]
    return model._encode(model._features(seq)[0], seq.mask)[0]


def log_likelihood_terms(model: SequenceModel, s: EventSequence) -> tuple:
    mark, time, _ = model._forward(model.prepare([s])[0])
    return mark, time


def mark_probs(model: SequenceModel, s: EventSequence) -> np.ndarray:
    logits = model._heads(context(model, s))[2]
    return np.exp(logits - logsumexp(logits, axis=1, keepdims=True))


def time_mixture(model: SequenceModel, s: EventSequence) -> tuple:
    """Per-event mixture parameters (weights, locations, scales)."""
    log_w, mu, log_s = model._heads(context(model, s))[3:]
    return np.exp(log_w), mu, np.exp(log_s)


def time_density(tau: np.ndarray, w, mu, s_) -> np.ndarray:
    """Mixture density of the gap for one event's (w, mu, s) row."""
    tau = np.asarray(tau, dtype=np.float64)
    z = (np.log(tau)[..., None] - mu) / s_
    comp = np.exp(-0.5 * z * z) / (s_ * np.sqrt(2.0 * np.pi))
    return (w * comp).sum(axis=-1) / tau
