"""Neural temporal point process over marked event sequences.

Each event is featurized as [account embedding | sinusoidal position
embedding | temporal embedding of the inter-event gap]. A single-head,
single-layer self-attention encoder with a strictly causal shift produces
context vectors: the context for event i attends over a learned start token
plus events 1..i-1 only, so the likelihood of event i never sees event i
itself. The decoder scores the mark with a softmax MLP head and the
inter-event gap with a K-component log-normal mixture (Shchur, Bilos &
Gunnemann, "Intensity-Free Learning of Temporal Point Processes", ICLR 2020),
whose density includes the 1/tau change-of-variables factor, so it
integrates to one over tau > 0.

Training needs each sequence's log-likelihood and its gradient, over and
over. ``SequenceModel`` computes them with one hand-written numpy forward
(``_forward``) and its adjoint (``_backward``), with no autodiff tape. Each
step of the adjoint is the same numpy expression that the matching op of a
reverse-mode tape would run, and the terms of every gradient are summed in
the order the tape would sum them. So the values and gradients are
bit-identical to backpropagating the model written as a tape; that tape
lives only in the tests, as their oracle (``tests/tape.py`` is the engine,
``tests/tape_reference.py`` the model written on it).
The per-sequence constants (account indices, gaps, position encodings and
the causal mask) come from ``SequenceModel.prepare``, once per fit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accumulate
from .events import Dataset, EventSequence

__all__ = [
    "SeqModelConfig",
    "TrainConfig",
    "SequenceModel",
    "TrainingDiverged",
    "fit",
    "train",
    "positional_encoding",
]

LOG_2PI = float(np.log(2.0 * np.pi))
NEG_INF = -1e30  # masked attention logit; exp underflows to exactly 0
FIRST_GAP = 1.0  # decoder gap for the first event of a sequence
MIN_GAP = 1e-8   # clamp before log; simultaneous events exist


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class SeqModelConfig:
    d_embed: int = 64       # account (mark) embedding width
    d_pos: int = 8          # position-encoding width
    d_time: int = 8         # temporal-embedding width
    n_mix: int = 32         # log-normal mixture components
    # initial temporal-kernel periods span this range (tune to the data's unit)
    time_scale_min: float = 1.0
    time_scale_max: float = 1e6

    @property
    def d_feat(self) -> int:
        """Feature width, which is also the attention, context and mark-head width."""
        return self.d_embed + self.d_pos + self.d_time


# Config keys that older checkpoints carry, with the one value the model now
# uses for each; the three widths were stored as d_feat, or as 0 for d_feat.
_FOLDED_KEYS = {"tie_mark_head": True, "first_gap": FIRST_GAP, "min_gap": MIN_GAP,
                "time_density_jacobian": True, "pe_base": 1e4, "time_unit": 1.0}
_FOLDED_WIDTHS = ("d_attn", "d_context", "d_mark_hidden")


def _config_from_checkpoint(stored: dict) -> SeqModelConfig:
    """The config a checkpoint stores; a folded key must hold its fixed value."""
    known = {f.name for f in fields(SeqModelConfig)}
    cfg = SeqModelConfig(**{k: v for k, v in stored.items() if k in known})
    for k, v in stored.items():
        if k in known:
            continue
        if k in _FOLDED_WIDTHS:
            allowed = (0, cfg.d_feat)
        elif k in _FOLDED_KEYS:
            allowed = (_FOLDED_KEYS[k],)
        else:
            raise ValueError(f"unknown checkpoint config key {k!r}")
        if v not in allowed:
            raise ValueError(f"checkpoint config key {k!r} = {v!r} is not supported; "
                             f"the model requires {' or '.join(map(repr, allowed))}")
    return cfg


@dataclass
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    weight_decay: float = 1e-5
    batch_size: int = 64
    patience: int = 10
    seed: int = 0
    val_fraction: float = 0.15  # used when no validation set is supplied


def positional_encoding(length: int, dim: int, base: float = 1e4) -> np.ndarray:
    """Interleaved sine/cosine encoding, positions 0..length-1."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    j = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / base ** (2.0 * np.floor(j / 2.0) / dim)
    pe = np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row, kept as a column."""
    m = np.max(a, axis=1, keepdims=True)
    return m + np.log(np.sum(np.exp(a - m), axis=1, keepdims=True))


class _Prepared(NamedTuple):
    """One sequence's constants of the likelihood (``SequenceModel.prepare``)."""
    idx: np.ndarray          # account row of each event
    feat_gaps: np.ndarray    # (L, 1) gap to the previous event, 0 for the first
    log_tau: np.ndarray      # (L, 1) log of the decoder's gap
    log_tau_sum: float
    pe: np.ndarray           # (L, d_pos) position encoding
    mask: np.ndarray         # (L, L) causal attention mask


def _glorot(rng, fan_in, fan_out):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


class SequenceModel:
    """Account embeddings plus encoder/decoder parameters, all trainable."""

    def __init__(self, accounts, config: SeqModelConfig | None = None, seed: int = 0):
        self.accounts = list(accounts)
        self.config = config or SeqModelConfig()
        cfg = self.config
        V, d = len(self.accounts), cfg.d_feat
        rng = np.random.default_rng(seed)
        # small embedding init: learned structure must outgrow the init noise
        # within a short training budget for downstream clustering to see it
        p = {
            "E": rng.normal(0.0, 0.05, size=(V, cfg.d_embed)),
            "start_token": rng.normal(0.0, 1.0 / np.sqrt(d), size=(1, d)),
            "W_q": _glorot(rng, d, d),
            "W_k": _glorot(rng, d, d),
            "W_v": _glorot(rng, d, d),
            "F_W": _glorot(rng, d, d),
            "F_b": np.zeros(d),
            "mark_W1": _glorot(rng, d, d),
            "mark_b1": np.zeros(d),
            "mark_W2": _glorot(rng, d, cfg.d_embed),
            "mark_b2": np.zeros(V),
            "mix_Ww": _glorot(rng, d, cfg.n_mix),
            "mix_bw": np.zeros(cfg.n_mix),
            "mix_Ws": _glorot(rng, d, cfg.n_mix),
            "mix_bs": np.zeros(cfg.n_mix),
            "mix_Wmu": _glorot(rng, d, cfg.n_mix),
            "mix_bmu": np.zeros(cfg.n_mix),
            "time_freq": 2.0 * np.pi / np.geomspace(
                cfg.time_scale_min, cfg.time_scale_max, cfg.d_time
            ),
            "time_phase": np.zeros(cfg.d_time),
        }
        self.params = {k: Tensor(v) for k, v in p.items()}
        self._index = {a: i for i, a in enumerate(self.accounts)}
        self.history = []  # per-epoch training records, filled by train()

    # ---- bookkeeping ----

    @property
    def n_accounts(self) -> int:
        return len(self.accounts)

    def copy(self) -> "SequenceModel":
        clone = SequenceModel(self.accounts, self.config, seed=0)
        for k, t in self.params.items():
            clone.params[k].data = t.data.copy()
        return clone

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def prepare(self, sequences) -> list:
        """The per-sequence constants of the likelihood, one ``_Prepared`` each.

        They depend only on the data and the config, so a caller that scores
        the same sequences many times prepares them once.
        """
        sequences = list(sequences)
        if any(len(s.events) < 1 for s in sequences):
            raise ValueError("sequence must contain at least one event")
        n = max((len(s.events) for s in sequences), default=0)
        # one table at the longest length: every shorter one is its top-left corner
        pe = positional_encoding(n, self.config.d_pos)
        mask = np.triu(np.full((n, n), NEG_INF), k=1)
        out = []
        for s in sequences:
            try:
                idx = np.array([self._index[e.account] for e in s.events], dtype=np.intp)
            except KeyError as exc:
                raise KeyError(f"unknown account {exc.args[0]!r} in sequence {s.seq_id!r}")
            diffs = np.diff(np.array([e.t for e in s.events], dtype=np.float64))
            L = len(idx)
            feat_gaps = np.zeros(L)
            feat_gaps[1:] = diffs  # first event has gap 0 by definition
            gaps = np.empty(L)
            gaps[0] = FIRST_GAP
            gaps[1:] = diffs
            log_tau = np.log(np.maximum(gaps, MIN_GAP))
            out.append(_Prepared(idx, feat_gaps[:, None], log_tau[:, None],
                                 float(log_tau.sum()), pe[:L], mask[:L, :L]))
        return out

    # ---- likelihood kernel ----

    def _features(self, seq: _Prepared) -> tuple:
        """Rows [embedding | position | cos(gap * freq + phase)], and the angles."""
        angles = seq.feat_gaps * self.params["time_freq"].data + self.params["time_phase"].data
        X = np.concatenate([self.params["E"].data[seq.idx], seq.pe, np.cos(angles)], axis=1)
        return X, angles

    def _encode(self, X: np.ndarray, mask: np.ndarray) -> tuple:
        """Context rows C_1..C_L, row i seeing the start token and events < i,
        with the intermediates the adjoint needs."""
        p = self.params
        shifted = np.concatenate([p["start_token"].data, X[:len(X) - 1]], axis=0)
        q = shifted @ p["W_q"].data
        k = shifted @ p["W_k"].data
        v = shifted @ p["W_v"].data
        S = (q @ k.T) * (1.0 / np.sqrt(self.config.d_feat)) + mask
        attn = np.exp(S - _logsumexp_rows(S))
        AV = attn @ v
        C = np.tanh(AV @ p["F_W"].data + p["F_b"].data)
        return C, (shifted, q, k, v, attn, AV)

    def _heads(self, C: np.ndarray) -> tuple:
        """Mark-head hidden rows and scores, and the gap mixture's log-weights,
        locations and log-scales."""
        p = self.params
        h = np.tanh(C @ p["mark_W1"].data + p["mark_b1"].data)
        hW = h @ p["mark_W2"].data
        # score marks against their embeddings
        logits = hW @ p["E"].data.T + p["mark_b2"].data
        w_logits = C @ p["mix_Ww"].data + p["mix_bw"].data
        log_w = w_logits - _logsumexp_rows(w_logits)
        mu = C @ p["mix_Wmu"].data + p["mix_bmu"].data
        log_s = C @ p["mix_Ws"].data + p["mix_bs"].data
        return h, hW, logits, log_w, mu, log_s

    def _forward(self, seq: _Prepared) -> tuple:
        """(mark, time) log-likelihood of one prepared sequence, and a cache
        of the intermediates for ``_backward``."""
        X, angles = self._features(seq)
        C, enc = self._encode(X, seq.mask)
        h, hW, logits, log_w, mu, log_s = self._heads(C)
        log_probs = logits - _logsumexp_rows(logits)
        mark = log_probs[np.arange(len(seq.idx)), seq.idx].sum()

        inv_s = np.exp(-log_s)
        dev = seq.log_tau - mu
        z = dev * inv_s
        comp = log_w - log_s - 0.5 * LOG_2PI - 0.5 * (z * z)
        lse = _logsumexp_rows(comp)
        time = lse[:, 0].sum() - seq.log_tau_sum
        cache = (angles, C, enc, h, hW, log_probs, log_w, inv_s, dev, z, comp, lse)
        return float(mark), float(time), cache

    def _backward(self, seq: _Prepared, cache: tuple, g: float) -> None:
        """Add the gradient of ``g`` times the sequence's log-likelihood to
        the parameters' ``grad``.

        Every step computes the same numpy expression as the adjoint of the
        matching autodiff op and sums the terms of one gradient in the same
        order, so the result is bit-identical to backpropagating the tape.
        The logsumexp adjoint takes exp(x - logsumexp(x)), which the forward
        already holds as ``attn``, ``exp(log_w)`` and ``exp(log_probs)``.
        """
        p = self.params
        angles, C, (shifted, q, k, v, attn, AV), h, hW, log_probs, log_w, inv_s, dev, z, \
            comp, lse = cache
        L = len(seq.idx)

        # time term: logsumexp over the mixture, then each component's log-density
        g_comp = g * np.exp(comp - lse)
        g_zz = -g_comp * 0.5
        g_z = g_zz * z
        g_z = g_z + g_z
        g_inv_s = g_z * dev
        g_mu = -(g_z * inv_s)
        g_log_s = -g_comp - g_inv_s * inv_s
        g_w = g_comp + (-g_comp).sum(axis=1, keepdims=True) * np.exp(log_w)

        # mark term: log-softmax picked at each event's own account
        g_lp = np.zeros_like(log_probs)
        g_lp[np.arange(L), seq.idx] = g
        g_logits = g_lp + (-g_lp).sum(axis=1, keepdims=True) * np.exp(log_probs)
        _accumulate(p["mark_b2"], g_logits.sum(axis=0))
        g_hW = g_logits @ p["E"].data
        _accumulate(p["E"], (hW.T @ g_logits).T)
        g_h = g_hW @ p["mark_W2"].data.T
        _accumulate(p["mark_W2"], h.T @ g_hW)
        g_h = g_h * (1.0 - h * h)
        _accumulate(p["mark_b1"], g_h.sum(axis=0))
        _accumulate(p["mark_W1"], C.T @ g_h)

        g_C = g_h @ p["mark_W1"].data.T
        for name, g_head in (("w", g_w), ("mu", g_mu), ("s", g_log_s)):
            _accumulate(p[f"mix_b{name}"], g_head.sum(axis=0))
            _accumulate(p[f"mix_W{name}"], C.T @ g_head)
            g_C += g_head @ p[f"mix_W{name}"].data.T

        # encoder
        g_C = g_C * (1.0 - C * C)
        _accumulate(p["F_b"], g_C.sum(axis=0))
        _accumulate(p["F_W"], AV.T @ g_C)
        g_AV = g_C @ p["F_W"].data.T
        g_attn = g_AV @ v.T
        g_v = attn.T @ g_AV
        g_attn = g_attn * attn
        g_S = g_attn + (-g_attn).sum(axis=1, keepdims=True) * attn
        g_S = g_S * (1.0 / np.sqrt(self.config.d_feat))
        g_q = g_S @ k
        g_k = (q.T @ g_S).T
        g_shifted = g_q @ p["W_q"].data.T
        _accumulate(p["W_q"], shifted.T @ g_q)
        g_shifted += g_k @ p["W_k"].data.T
        _accumulate(p["W_k"], shifted.T @ g_k)
        g_shifted += g_v @ p["W_v"].data.T
        _accumulate(p["W_v"], shifted.T @ g_v)
        _accumulate(p["start_token"], g_shifted[0:1])

        # features: row i of the shifted input is event i - 1; the last event
        # is no input, so its row of the gradient is zero
        d_embed, d_pos = self.config.d_embed, self.config.d_pos
        g_X = np.zeros((L, self.config.d_feat))
        g_X[:L - 1] += g_shifted[1:]
        g_E = np.zeros_like(p["E"].data)
        np.add.at(g_E, seq.idx, g_X[:, :d_embed])  # repeated accounts add up in order
        _accumulate(p["E"], g_E)
        g_angles = -g_X[:, d_embed + d_pos:] * np.sin(angles)
        _accumulate(p["time_phase"], g_angles.sum(axis=0))
        _accumulate(p["time_freq"], (g_angles * seq.feat_gaps).sum(axis=0))

    # ---- public numpy surface ----

    def featurize(self, s: EventSequence) -> np.ndarray:
        return self._features(self.prepare([s])[0])[0]

    def encode(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        L = len(X)
        return self._encode(X, np.triu(np.full((L, L), NEG_INF), k=1))[0]

    def _context(self, s: EventSequence) -> np.ndarray:
        seq = self.prepare([s])[0]
        return self._encode(self._features(seq)[0], seq.mask)[0]

    def log_likelihood(self, s: EventSequence) -> float:
        return self.log_likelihoods(self.prepare([s]))[0]

    def log_likelihoods(self, items) -> list:
        """Log-likelihood of each sequence in ``items``, from ``prepare``."""
        out = []
        for seq in items:
            mark, time, _ = self._forward(seq)
            out.append(mark + time)
        return out

    def log_likelihood_terms(self, s: EventSequence) -> tuple:
        mark, time, _ = self._forward(self.prepare([s])[0])
        return mark, time

    def grad_log_likelihood(self, batch) -> dict:
        """Exact gradients of the summed log-likelihood over ``batch``."""
        self.zero_grad()
        self.backward_nll(self.prepare(batch), scale=-1.0)
        grads = {
            k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for k, t in self.params.items()
        }
        self.zero_grad()
        return grads

    def backward_nll(self, batch, scale: float = 1.0) -> float:
        """Add the gradient of ``scale`` times each sequence's negative
        log-likelihood to the parameters' ``grad``; returns the summed NLL.

        ``batch`` holds sequences from ``prepare``.
        """
        nll = 0.0
        for seq in batch:
            mark, time, cache = self._forward(seq)
            nll -= mark + time
            self._backward(seq, cache, -scale)
        return nll

    def mark_probs(self, s: EventSequence) -> np.ndarray:
        logits = self._heads(self._context(s))[2]
        return np.exp(logits - _logsumexp_rows(logits))

    def time_mixture(self, s: EventSequence) -> tuple:
        """Per-event mixture parameters (weights, locations, scales)."""
        log_w, mu, log_s = self._heads(self._context(s))[3:]
        return np.exp(log_w), mu, np.exp(log_s)

    def time_density(self, tau: np.ndarray, w, mu, s_) -> np.ndarray:
        """Mixture density of the gap for one event's (w, mu, s) row."""
        tau = np.asarray(tau, dtype=np.float64)
        z = (np.log(tau)[..., None] - mu) / s_
        comp = np.exp(-0.5 * z * z) / (s_ * np.sqrt(2.0 * np.pi))
        return (w * comp).sum(axis=-1) / tau

    # ---- persistence ----

    def save(self, path) -> None:
        arrays = {k: t.data for k, t in self.params.items()}
        meta = json.dumps(
            {"version": 1, "accounts": self.accounts, "config": asdict(self.config)}
        )
        np.savez(path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "SequenceModel":
        with np.load(path) as archive:
            meta = json.loads(archive["__meta__"].tobytes().decode())
            if meta.get("version") != 1:
                raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
            model = cls(meta["accounts"], _config_from_checkpoint(meta["config"]), seed=0)
            for k in model.params:
                model.params[k].data = np.array(archive[k], dtype=np.float64)
        return model


def fit(params: dict, items, batch_loss, val_fn, *, epochs: int, lr: float,
        weight_decay: float, batch_size: int, patience: int, rng) -> tuple:
    """Minibatch Adam on ``params`` with early stopping on ``val_fn``.

    Each epoch visits ``items`` in the order of ``rng.permutation``. For each
    minibatch, ``batch_loss(batch)`` accumulates the gradient of the loss into
    the parameters' ``grad`` and returns the batch's summed loss; Adam then
    takes one step. After the epoch ``val_fn()`` scores the parameters (higher
    is better). Training stops once ``patience`` epochs in a row fail to beat
    the best score by more than 1e-12, and the best parameters are restored
    (the starting ones if no epoch beat them).

    Returns (start value, best value, history), with one history record per
    epoch: ``train_loss`` is the running loss per item, each scored at the
    parameters before its batch's step.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    opt = ad.Adam(params, lr=lr, weight_decay=weight_decay)
    start = best_val = val_fn()
    best = ad.snapshot(params)
    history = []
    bad_epochs = 0
    for epoch in range(epochs):
        order = rng.permutation(len(items))
        loss_sum = 0.0
        for lo in range(0, len(order), batch_size):
            opt.zero_grad()
            loss = batch_loss([items[i] for i in order[lo:lo + batch_size]])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
            loss_sum += loss
            opt.step()
        value = val_fn()
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite validation value at epoch {epoch}")
        history.append({"epoch": epoch, "train_loss": loss_sum / len(items), "val": value})
        if value > best_val + 1e-12:
            best_val = value
            best = ad.snapshot(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    ad.restore(params, best)
    return start, best_val, history


def train(
    d: Dataset,
    cfg: TrainConfig | None = None,
    model_config: SeqModelConfig | None = None,
    val: Dataset | None = None,
) -> SequenceModel:
    """Fit by minimizing mean negative log-likelihood with Adam.

    Early stopping monitors validation log-likelihood (an internal split of
    ``d`` when ``val`` is not given); the best checkpoint is restored.
    Deterministic given ``cfg.seed``.
    """
    cfg = cfg or TrainConfig()
    if not d.sequences:
        raise ValueError("training dataset is empty")
    if val is not None:
        train_seqs, val_seqs = d.sequences, val.sequences
    elif cfg.val_fraction > 0 and len(d.sequences) >= 5:
        order = np.random.default_rng(cfg.seed).permutation(len(d.sequences))
        n_val = max(1, int(cfg.val_fraction * len(d.sequences)))
        val_seqs = [d.sequences[i] for i in sorted(order[:n_val])]
        train_seqs = [d.sequences[i] for i in sorted(order[n_val:])]
    else:
        train_seqs, val_seqs = d.sequences, d.sequences

    model = SequenceModel(d.registry.keys, model_config, seed=cfg.seed)
    train_items, val_items = model.prepare(train_seqs), model.prepare(val_seqs)
    # land the log-normal heads on the data's log-gap scale up front;
    # otherwise the time loss swamps every shared gradient for a long time
    logs = np.concatenate([seq.log_tau[:, 0] for seq in train_items])
    model.params["mix_bmu"].data += logs.mean()
    model.params["mix_bs"].data += np.log(max(logs.std(), 1e-3))
    _, _, model.history = fit(
        model.params, train_items,
        lambda batch: model.backward_nll(batch, 1.0 / len(batch)),
        lambda: float(np.mean(model.log_likelihoods(val_items))),
        epochs=cfg.epochs, lr=cfg.lr, weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size, patience=cfg.patience,
        rng=np.random.default_rng(cfg.seed + 1),
    )
    return model
