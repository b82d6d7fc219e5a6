"""Neural temporal point process over marked event sequences.

Each event is featurized as [account embedding | sinusoidal position
embedding | temporal embedding of the inter-event gap]. A single-head,
single-layer self-attention encoder with a strictly causal shift produces
context vectors: the context for event i attends over a learned start token
plus events 1..i-1 only, so the likelihood of event i never sees event i
itself. The decoder scores the mark with a softmax MLP head and the
inter-event gap with a K-component log-normal mixture.

The gap density includes the 1/tau change-of-variables factor by default so
it integrates to one; ``time_density_jacobian=False`` drops it and scores
the plain normal density of log tau instead (the two modes differ by a
constant sum of log gaps for fixed data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class SeqModelConfig:
    d_embed: int = 64       # account (mark) embedding width
    d_pos: int = 8          # position-encoding width
    d_time: int = 8         # temporal-embedding width
    n_mix: int = 32         # log-normal mixture components
    d_attn: int = 0         # attention width; 0 = feature width
    d_context: int = 0      # context width; 0 = attention width
    d_mark_hidden: int = 0  # mark-head hidden width; 0 = context width
    tie_mark_head: bool = True  # factor the mark head's output layer through E
    first_gap: float = 1.0  # decoder gap for the first event of a sequence
    min_gap: float = 1e-8   # clamp before log; simultaneous events exist
    time_density_jacobian: bool = True
    pe_base: float = 1e4
    # initial temporal-kernel periods span this range (tune to the data's unit)
    time_scale_min: float = 1.0
    time_scale_max: float = 1e6
    time_unit: float = 1.0  # gaps are divided by this before the decoder/features

    @property
    def d_feat(self) -> int:
        return self.d_embed + self.d_pos + self.d_time

    def resolved(self) -> "SeqModelConfig":
        cfg = SeqModelConfig(**asdict(self))
        cfg.d_attn = cfg.d_attn or cfg.d_feat
        cfg.d_context = cfg.d_context or cfg.d_attn
        cfg.d_mark_hidden = cfg.d_mark_hidden or cfg.d_context
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


def _glorot(rng, fan_in, fan_out):
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


class SequenceModel:
    """Account embeddings plus encoder/decoder parameters, all trainable."""

    def __init__(self, accounts, config: SeqModelConfig | None = None, seed: int = 0):
        self.accounts = list(accounts)
        self.config = (config or SeqModelConfig()).resolved()
        cfg = self.config
        V, d, da, dc = len(self.accounts), cfg.d_feat, cfg.d_attn, cfg.d_context
        rng = np.random.default_rng(seed)
        # small embedding init: learned structure must outgrow the init noise
        # within a short training budget for downstream clustering to see it
        p = {
            "E": rng.normal(0.0, 0.05, size=(V, cfg.d_embed)),
            "start_token": rng.normal(0.0, 1.0 / np.sqrt(d), size=(1, d)),
            "W_q": _glorot(rng, d, da),
            "W_k": _glorot(rng, d, da),
            "W_v": _glorot(rng, d, da),
            "F_W": _glorot(rng, da, dc),
            "F_b": np.zeros(dc),
            "mark_W1": _glorot(rng, dc, cfg.d_mark_hidden),
            "mark_b1": np.zeros(cfg.d_mark_hidden),
            "mark_W2": _glorot(
                rng, cfg.d_mark_hidden, cfg.d_embed if cfg.tie_mark_head else V
            ),
            "mark_b2": np.zeros(V),
            "mix_Ww": _glorot(rng, dc, cfg.n_mix),
            "mix_bw": np.zeros(cfg.n_mix),
            "mix_Ws": _glorot(rng, dc, cfg.n_mix),
            "mix_bs": np.zeros(cfg.n_mix),
            "mix_Wmu": _glorot(rng, dc, cfg.n_mix),
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

    def _indices(self, s: EventSequence) -> np.ndarray:
        try:
            return np.array([self._index[e.account] for e in s.events], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown account {exc.args[0]!r} in sequence {s.seq_id!r}")

    @staticmethod
    def _times(s: EventSequence) -> np.ndarray:
        return np.array([e.t for e in s.events], dtype=np.float64)

    # ---- forward graph ----

    def featurize_t(self, idx: np.ndarray, t: np.ndarray) -> Tensor:
        cfg = self.config
        L = len(idx)
        feat_gaps = np.zeros(L)
        feat_gaps[1:] = np.diff(t)  # first event has gap 0 by definition
        emb = ad.take_rows(self.params["E"], idx)
        pe = ad.as_tensor(positional_encoding(L, cfg.d_pos, cfg.pe_base))
        angles = (ad.as_tensor(feat_gaps[:, None]) * self.params["time_freq"]
                  + self.params["time_phase"])
        return ad.concat([emb, pe, angles.cos()], axis=1)

    def encode_t(self, X: Tensor) -> Tensor:
        """Context rows C_1..C_L; row i sees the start token and events < i."""
        L = X.shape[0]
        shifted = ad.concat(
            [self.params["start_token"], ad.take_rows(X, np.arange(L - 1))], axis=0
        )
        q = shifted @ self.params["W_q"]
        k = shifted @ self.params["W_k"]
        v = shifted @ self.params["W_v"]
        scores = (q @ k.T) * (1.0 / np.sqrt(self.config.d_attn))
        mask = np.triu(np.full((L, L), NEG_INF), k=1)
        attn = ad.softmax(scores + mask, axis=1)
        return ((attn @ v) @ self.params["F_W"] + self.params["F_b"]).tanh()

    def _mark_logits_t(self, C: Tensor) -> Tensor:
        h = (C @ self.params["mark_W1"] + self.params["mark_b1"]).tanh()
        out = h @ self.params["mark_W2"]
        if self.config.tie_mark_head:
            out = out @ self.params["E"].T  # score marks against their embeddings
        return out + self.params["mark_b2"]

    def _decoder_gaps(self, t: np.ndarray) -> np.ndarray:
        gaps = np.empty(len(t))
        gaps[0] = self.config.first_gap
        gaps[1:] = np.diff(t) / self.config.time_unit
        return np.maximum(gaps, self.config.min_gap)

    def _ll_terms_t(self, s: EventSequence) -> tuple:
        """(mark, time) log-likelihood tensors for one sequence."""
        idx = self._indices(s)
        t = self._times(s)
        C = self.encode_t(self.featurize_t(idx, t))
        L = len(idx)

        logits = self._mark_logits_t(C)
        log_probs = logits - ad.logsumexp(logits, axis=1, keepdims=True)
        mark_ll = ad.pick(log_probs, np.arange(L), idx).sum()

        log_tau = np.log(self._decoder_gaps(t))
        w_logits = C @ self.params["mix_Ww"] + self.params["mix_bw"]
        log_w = w_logits - ad.logsumexp(w_logits, axis=1, keepdims=True)
        mu = C @ self.params["mix_Wmu"] + self.params["mix_bmu"]
        log_s = C @ self.params["mix_Ws"] + self.params["mix_bs"]
        z = (ad.as_tensor(log_tau[:, None]) - mu) * (-log_s).exp()
        comp = log_w - log_s - 0.5 * LOG_2PI - 0.5 * (z * z)
        time_ll = ad.logsumexp(comp, axis=1).sum()
        if self.config.time_density_jacobian:
            time_ll = time_ll - float(log_tau.sum())
        return mark_ll, time_ll

    # ---- public numpy surface ----

    def featurize(self, s: EventSequence) -> np.ndarray:
        if len(s.events) < 1:
            raise ValueError("sequence must contain at least one event")
        return self.featurize_t(self._indices(s), self._times(s)).data

    def encode(self, X: np.ndarray) -> np.ndarray:
        return self.encode_t(ad.as_tensor(np.asarray(X, dtype=np.float64))).data

    def log_likelihood(self, s: EventSequence) -> float:
        mark, time = self._ll_terms_t(s)
        return mark.item() + time.item()

    def log_likelihood_terms(self, s: EventSequence) -> tuple:
        mark, time = self._ll_terms_t(s)
        return mark.item(), time.item()

    def grad_log_likelihood(self, batch) -> dict:
        """Exact gradients of the summed log-likelihood over ``batch``."""
        self.zero_grad()
        self.backward_nll(batch, scale=-1.0)
        grads = {
            k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for k, t in self.params.items()
        }
        self.zero_grad()
        return grads

    def backward_nll(self, batch, scale: float = 1.0) -> float:
        """Add the gradient of ``scale`` times each sequence's negative
        log-likelihood to the parameters' ``grad``; returns the summed NLL.

        One tape per sequence, each freed before the next is built.
        """
        nll = 0.0
        for s in batch:
            mark, time = self._ll_terms_t(s)
            nll -= mark.item() + time.item()
            ((mark + time) * -scale).backward()
        return nll

    def mark_probs(self, s: EventSequence) -> np.ndarray:
        C = ad.as_tensor(self.encode(self.featurize(s)))
        return ad.softmax(self._mark_logits_t(C), axis=1).data

    def time_mixture(self, s: EventSequence) -> tuple:
        """Per-event mixture parameters (weights, locations, scales)."""
        C = ad.as_tensor(self.encode(self.featurize(s)))
        w = ad.softmax(C @ self.params["mix_Ww"] + self.params["mix_bw"], axis=1).data
        mu = (C @ self.params["mix_Wmu"] + self.params["mix_bmu"]).data
        s_ = (C @ self.params["mix_Ws"] + self.params["mix_bs"]).exp().data
        return w, mu, s_

    def time_density(self, tau: np.ndarray, w, mu, s_) -> np.ndarray:
        """Mixture density of the gap for one event's (w, mu, s) row."""
        tau = np.asarray(tau, dtype=np.float64)
        z = (np.log(tau)[..., None] - mu) / s_
        comp = np.exp(-0.5 * z * z) / (s_ * np.sqrt(2.0 * np.pi))
        dens = (w * comp).sum(axis=-1)
        if self.config.time_density_jacobian:
            dens = dens / tau
        return dens

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
            model = cls(meta["accounts"], SeqModelConfig(**meta["config"]), seed=0)
            for k in model.params:
                model.params[k].data = np.array(archive[k], dtype=np.float64)
        return model


def mean_log_likelihood(model: SequenceModel, sequences) -> float:
    return float(np.mean([model.log_likelihood(s) for s in sequences]))


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
    # land the log-normal heads on the data's log-gap scale up front;
    # otherwise the time loss swamps every shared gradient for a long time
    logs = np.concatenate(
        [np.log(model._decoder_gaps(model._times(s))) for s in train_seqs]
    )
    model.params["mix_bmu"].data += logs.mean()
    model.params["mix_bs"].data += np.log(max(logs.std(), 1e-3))
    _, _, model.history = fit(
        model.params, train_seqs,
        lambda batch: model.backward_nll(batch, 1.0 / len(batch)),
        lambda: mean_log_likelihood(model, val_seqs),
        epochs=cfg.epochs, lr=cfg.lr, weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size, patience=cfg.patience,
        rng=np.random.default_rng(cfg.seed + 1),
    )
    return model
