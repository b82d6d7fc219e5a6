"""The library's models written as autodiff tapes: the test oracle.

``SequenceModel`` computes each sequence's log-likelihood and gradient, and
``UnaryScorer.crossent`` its loss and gradient, with a hand-written numpy
forward and adjoint. This module keeps the same models as graphs of ``tape``
operations, one tape per sequence or per loss, so the tests can check that
the adjoints match them bit for bit: the same values, and every gradient
summed in the same order. Gradients go straight into the parameters' grad,
except a batch's tail: ``backward_nll`` sums it apart and adds it last, as
``SequenceModel.passes`` does.
"""

import numpy as np

import tape
from coact import autodiff as ad
from coact.pointprocess import FIRST_GAP, LOG_2PI, MIN_GAP, NEG_INF, positional_encoding


def featurize_t(model, idx, t):
    cfg = model.config
    L = len(idx)
    feat_gaps = np.zeros(L)
    feat_gaps[1:] = np.diff(t)  # first event has gap 0 by definition
    emb = tape.take_rows(model.params["E"], idx)
    pe = tape.as_tensor(positional_encoding(L, cfg.d_pos))
    angles = (tape.as_tensor(feat_gaps[:, None]) * model.params["time_freq"]
              + model.params["time_phase"])
    return tape.concat([emb, pe, angles.cos()], axis=1)


def encode_t(model, X):
    """Context rows C_1..C_L; row i sees the start token and events < i."""
    p = model.params
    L = X.shape[0]
    shifted = tape.concat([p["start_token"], tape.take_rows(X, np.arange(L - 1))], axis=0)
    q = shifted @ p["W_q"]
    k = shifted @ p["W_k"]
    v = shifted @ p["W_v"]
    scores = (q @ k.T) * (1.0 / np.sqrt(model.config.d_feat))
    mask = np.triu(np.full((L, L), NEG_INF), k=1)
    attn = tape.softmax(scores + mask, axis=1)
    return ((attn @ v) @ p["F_W"] + p["F_b"]).tanh()


def mark_logits_t(model, C):
    p = model.params
    h = (C @ p["mark_W1"] + p["mark_b1"]).tanh()
    # score marks against their embeddings
    return h @ p["mark_W2"] @ tape.as_tensor(p["E"]).T + p["mark_b2"]


def mixture_t(model, C):
    """Per-event log-weights, locations and log-scales of the gap mixture."""
    p = model.params
    w_logits = C @ p["mix_Ww"] + p["mix_bw"]
    log_w = w_logits - tape.logsumexp(w_logits, axis=1, keepdims=True)
    mu = C @ p["mix_Wmu"] + p["mix_bmu"]
    log_s = C @ p["mix_Ws"] + p["mix_bs"]
    return log_w, mu, log_s


def ll_terms_t(model, s):
    """(mark, time) log-likelihood tensors for one sequence."""
    index = {a: i for i, a in enumerate(model.accounts)}
    keys = s.registry.keys
    idx = np.array([index[keys[a]] for a in s.account], dtype=np.intp)
    t = np.array(s.t, dtype=np.float64)
    C = encode_t(model, featurize_t(model, idx, t))
    L = len(idx)

    logits = mark_logits_t(model, C)
    log_probs = logits - tape.logsumexp(logits, axis=1, keepdims=True)
    mark_ll = tape.pick(log_probs, np.arange(L), idx).sum()

    gaps = np.empty(L)
    gaps[0] = FIRST_GAP
    gaps[1:] = np.diff(t)
    log_tau = np.log(np.maximum(gaps, MIN_GAP))
    log_w, mu, log_s = mixture_t(model, C)
    z = (tape.as_tensor(log_tau[:, None]) - mu) * (-log_s).exp()
    comp = log_w - log_s - 0.5 * LOG_2PI - 0.5 * (z * z)
    time_ll = tape.logsumexp(comp, axis=1).sum() - float(log_tau.sum())
    return mark_ll, time_ll


def cut(batch):
    """The kernel's cut of ``batch``: the first sequence at which the running
    event count reaches half, kept within 1..n - 1; n for fewer than two."""
    n = len(batch)
    if n < 2:
        return n
    counts = np.cumsum([len(s) for s in batch])
    return int(np.clip(np.searchsorted(counts, counts[-1] / 2), 1, n - 1))


def backward_nll(model, batch, scale=1.0):
    """The tape's ``-sum(SequenceModel.passes(batch, -scale))``: adds the gradient
    of ``scale`` times the summed NLL to ``grad`` and returns that NLL, one
    tape per sequence. The head, before ``cut(batch)``, backpropagates into
    ``grad``; the tail into a gradient summed from zero, added last."""
    nll = 0.0
    at = cut(batch)
    held = None
    for i, s in enumerate(batch):
        if i == at:  # the tail starts from no gradient
            held = {k: t.grad for k, t in model.params.items()}
            model.zero_grad()
        mark, time = ll_terms_t(model, s)
        nll -= mark.item() + time.item()
        ((mark + time) * -scale).backward()
    if held is not None:
        for k, t in model.params.items():
            t.grad, part = held[k], t.grad
            if part is not None:
                ad._accumulate(t, part)
    return nll


def grad_log_likelihood(model, batch):
    """The tape's ``SequenceModel.grad_log_likelihood``."""
    model.zero_grad()
    backward_nll(model, batch, scale=-1.0)
    grads = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for k, t in model.params.items()}
    model.zero_grad()
    return grads


def scorer_forward_t(scorer, E):
    """The unary scorer's (V, M) scores as a tape."""
    p = scorer.params
    h = (tape.as_tensor(E) @ p["W1"] + p["b1"]).tanh()
    return h @ p["W2"] + p["b2"]


def scorer_crossent(scorer, E, targets, scale=None):
    """The tape's ``UnaryScorer.crossent``; a parameter ``E`` gets a gradient too."""
    theta = scorer_forward_t(scorer, E)
    log_probs = theta - tape.logsumexp(theta, axis=1, keepdims=True)
    total = (tape.as_tensor(targets) * log_probs).sum()
    if scale is None:
        return total.item()
    loss = total * scale
    loss.backward()
    return loss.item()
