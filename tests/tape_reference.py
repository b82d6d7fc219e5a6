"""The sequence-model likelihood written as an autodiff tape: the test oracle.

``SequenceModel`` computes each sequence's log-likelihood and gradient with
one hand-written numpy forward and its adjoint. This module keeps the same
model as a graph of ``autodiff`` operations, one tape per sequence, so the
tests can check that the kernel matches it bit for bit: the same values,
and every gradient summed in the same order.
"""

import numpy as np

import coact.autodiff as ad
from coact.pointprocess import FIRST_GAP, LOG_2PI, MIN_GAP, NEG_INF, positional_encoding


def featurize_t(model, idx, t):
    cfg = model.config
    L = len(idx)
    feat_gaps = np.zeros(L)
    feat_gaps[1:] = np.diff(t)  # first event has gap 0 by definition
    emb = ad.take_rows(model.params["E"], idx)
    pe = ad.as_tensor(positional_encoding(L, cfg.d_pos))
    angles = (ad.as_tensor(feat_gaps[:, None]) * model.params["time_freq"]
              + model.params["time_phase"])
    return ad.concat([emb, pe, angles.cos()], axis=1)


def encode_t(model, X):
    """Context rows C_1..C_L; row i sees the start token and events < i."""
    p = model.params
    L = X.shape[0]
    shifted = ad.concat([p["start_token"], ad.take_rows(X, np.arange(L - 1))], axis=0)
    q = shifted @ p["W_q"]
    k = shifted @ p["W_k"]
    v = shifted @ p["W_v"]
    scores = (q @ k.T) * (1.0 / np.sqrt(model.config.d_feat))
    mask = np.triu(np.full((L, L), NEG_INF), k=1)
    attn = ad.softmax(scores + mask, axis=1)
    return ((attn @ v) @ p["F_W"] + p["F_b"]).tanh()


def mark_logits_t(model, C):
    p = model.params
    h = (C @ p["mark_W1"] + p["mark_b1"]).tanh()
    # score marks against their embeddings
    return h @ p["mark_W2"] @ p["E"].T + p["mark_b2"]


def mixture_t(model, C):
    """Per-event log-weights, locations and log-scales of the gap mixture."""
    p = model.params
    w_logits = C @ p["mix_Ww"] + p["mix_bw"]
    log_w = w_logits - ad.logsumexp(w_logits, axis=1, keepdims=True)
    mu = C @ p["mix_Wmu"] + p["mix_bmu"]
    log_s = C @ p["mix_Ws"] + p["mix_bs"]
    return log_w, mu, log_s


def ll_terms_t(model, s):
    """(mark, time) log-likelihood tensors for one sequence."""
    index = {a: i for i, a in enumerate(model.accounts)}
    idx = np.array([index[e.account] for e in s.events], dtype=np.intp)
    t = np.array([e.t for e in s.events], dtype=np.float64)
    C = encode_t(model, featurize_t(model, idx, t))
    L = len(idx)

    logits = mark_logits_t(model, C)
    log_probs = logits - ad.logsumexp(logits, axis=1, keepdims=True)
    mark_ll = ad.pick(log_probs, np.arange(L), idx).sum()

    gaps = np.empty(L)
    gaps[0] = FIRST_GAP
    gaps[1:] = np.diff(t)
    log_tau = np.log(np.maximum(gaps, MIN_GAP))
    log_w, mu, log_s = mixture_t(model, C)
    z = (ad.as_tensor(log_tau[:, None]) - mu) * (-log_s).exp()
    comp = log_w - log_s - 0.5 * LOG_2PI - 0.5 * (z * z)
    time_ll = ad.logsumexp(comp, axis=1).sum() - float(log_tau.sum())
    return mark_ll, time_ll


def backward_nll(model, batch, scale=1.0):
    """The tape's ``SequenceModel.backward_nll``: one tape per sequence."""
    nll = 0.0
    for s in batch:
        mark, time = ll_terms_t(model, s)
        nll -= mark.item() + time.item()
        ((mark + time) * -scale).backward()
    return nll


def grad_log_likelihood(model, batch):
    """The tape's ``SequenceModel.grad_log_likelihood``."""
    model.zero_grad()
    backward_nll(model, batch, scale=-1.0)
    grads = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for k, t in model.params.items()}
    model.zero_grad()
    return grads
