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
over. ``SequenceModel.passes`` is the one loop that computes them, with one
hand-written numpy forward (``_forward``) and its adjoint (``_backward``),
with no autodiff tape. Each step of the adjoint is the same numpy expression
that the matching op of a reverse-mode tape would run, and the terms of
every gradient are summed in the order the tape would sum them. So the
values and gradients are bit-identical to backpropagating the model written
as a tape; that tape lives only in the tests, as their oracle
(``tests/tape.py`` is the engine, ``tests/tape_reference.py`` the model
written on it).
The kernel works in place on its own temporaries, since at the usual sizes
a sequence costs more in numpy passes and allocations than in BLAS.
The per-sequence constants (account indices, gaps, position encodings, the
causal mask and the embedding layout) come from ``SequenceModel.prepare``,
once per fit. The embedding layout groups the encoder's inputs, events
0..L-2, by account and repeat, so ``_backward`` sums their embedding
gradient in a block of the U accounts they hold and adds it to those rows
of ``E``'s gradient, with no (V, d_embed) temporary per sequence to zero
and add (about 0.2 ms of a 4.3 ms sequence at V = 4000).
A checkpoint (``SequenceModel.save``) holds the parameters, the accounts and
the config. ``SequenceModel.load`` accepts only config keys that are
``SeqModelConfig`` fields: it refuses a checkpoint that stores options
since folded into constants, and names those keys. It also refuses, by
name, a missing array, one whose shape disagrees with the stored accounts
and config, and one that holds a NaN or an infinity.

Every process this package forks is a ``_child``: it runs one function and
hands back one pickled outcome, the value or the exception with the child's
traceback. When the parent leaves the child's context, the child is killed
if it still runs and is reaped; a parent killed outright takes the child
with it (``PR_SET_PDEATHSIG``). Children fork only on Linux, with two or
more usable CPUs, and while this process has one OS thread, so nothing
forks under a multi-threaded BLAS (``_helper_wanted``); otherwise the
parent does the work itself. ``_forked`` is that guard around ``_child``:
``coact detect`` writes the checkpoint and the graph in it while the parent
runs EM.

``train`` and ``em.run_em`` each open one helper child (``_helper``),
``train`` around its ``fit`` and ``run_em`` around all its M-step
loops, and hand it to every ``passes`` call they make; the model holds no
process state. The helper serves the parent's tasks until the parent closes
its pipes; if the results pipe closes early, the parent raises the helper's
outcome. ``passes`` cuts each minibatch and validation pass at ``_cut``:
the parent runs the head, and the helper sums the tail's gradient from zero
for the parent to add last. Without a helper the parent sums the tail the
same way, so training is bit-identical with or without one.
"""

from __future__ import annotations

import ctypes
import json
import mmap
import os
import pickle
import signal
import struct
import sys
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accumulate, glorot, logsumexp
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
PE_BASE = 1e4    # position-encoding wavelength base


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

    def __post_init__(self):
        if self.d_embed < 1 or self.n_mix < 1:
            raise ValueError("d_embed and n_mix must be >= 1")
        if self.d_pos < 0 or self.d_time < 0:
            raise ValueError("d_pos and d_time must be >= 0")

    @property
    def d_feat(self) -> int:
        """Feature width, which is also the attention, context and mark-head width."""
        return self.d_embed + self.d_pos + self.d_time


@dataclass
class TrainConfig:
    epochs: int = 100
    lr: float = 1e-3
    weight_decay: float = 1e-5
    batch_size: int = 64
    patience: int = 10
    seed: int = 0


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Interleaved sine/cosine encoding, positions 0..length-1."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    j = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / PE_BASE ** (2.0 * np.floor(j / 2.0) / dim)
    pe = np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
    return pe


class _Prepared(NamedTuple):
    """One sequence's constants of the likelihood (``SequenceModel.prepare``);
    the last three are the embedding layout of the inputs, events 0..L-2."""
    idx: np.ndarray          # account row of each event: the view's account column
    rows: np.ndarray         # 0..L-1, the rows of the picked mark log-probabilities
    feat_gaps: np.ndarray    # (L, 1) gap to the previous event, 0 for the first
    log_tau: np.ndarray      # (L, 1) log of the decoder's gap
    log_tau_sum: float
    pe: np.ndarray           # (L, d_pos) position encoding
    mask: np.ndarray         # (L, L) causal attention mask
    input_accounts: np.ndarray  # (U,) the inputs' distinct accounts, those with more events first
    by_rank: np.ndarray      # (L-1,) the inputs: each account's first event, in
                             # ``input_accounts`` order, then each one's second event, and so on
    rank_sizes: tuple        # how many accounts have a second, a third, ... event


def _embedding_layout(accounts: np.ndarray, rows: np.ndarray) -> tuple:
    """``_Prepared``'s (input_accounts, by_rank, rank_sizes) for the inputs'
    ``accounts``; ``rows`` is 0..len(accounts) - 1 or longer.

    Ordering the accounts by their number of events makes the accounts with
    a k-th event a prefix of ``input_accounts`` for every k.
    """
    events = {}
    for i, a in enumerate(accounts.tolist()):
        events.setdefault(a, []).append(i)
    if len(events) == len(accounts):  # no account repeats
        return accounts, rows[:len(accounts)], ()
    runs = sorted(events.values(), key=len, reverse=True)
    by_rank = [run[0] for run in runs]
    rank_sizes = []
    for k in range(1, len(runs[0])):
        kth = [run[k] for run in runs if len(run) > k]
        by_rank += kth
        rank_sizes.append(len(kth))
    return (accounts[[run[0] for run in runs]], np.array(by_rank, dtype=np.intp),
            tuple(rank_sizes))


def _cut(items) -> int:
    """The first sequence at which the running event count of ``items``
    reaches half, kept within 1..n - 1; n, no tail, for fewer than two."""
    if len(items) < 2:
        return len(items)
    counts = np.cumsum([len(seq.idx) for seq in items])
    return int(np.clip(np.searchsorted(counts, counts[-1] / 2), 1, len(items) - 1))


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
            "W_q": glorot(rng, d, d),
            "W_k": glorot(rng, d, d),
            "W_v": glorot(rng, d, d),
            "F_W": glorot(rng, d, d),
            "F_b": np.zeros(d),
            "mark_W1": glorot(rng, d, d),
            "mark_b1": np.zeros(d),
            "mark_W2": glorot(rng, d, cfg.d_embed),
            "mark_b2": np.zeros(V),
            "mix_Ww": glorot(rng, d, cfg.n_mix),
            "mix_bw": np.zeros(cfg.n_mix),
            "mix_Ws": glorot(rng, d, cfg.n_mix),
            "mix_bs": np.zeros(cfg.n_mix),
            "mix_Wmu": glorot(rng, d, cfg.n_mix),
            "mix_bmu": np.zeros(cfg.n_mix),
            "time_freq": 2.0 * np.pi / np.geomspace(
                cfg.time_scale_min, cfg.time_scale_max, cfg.d_time
            ),
            "time_phase": np.zeros(cfg.d_time),
        }
        self.params = {k: Tensor(v) for k, v in p.items()}
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
        """The per-sequence constants of the likelihood, one ``_Prepared`` for
        each view from ``Dataset.sequences``.

        A view's account column is its rows of this model, so a sequence whose
        registry's keys are not the model's ``accounts`` raises ``ValueError``
        (checked once per distinct registry). The constants depend only on the
        data and the config, so a caller that scores the same sequences many
        times prepares them once.
        """
        sequences = list(sequences)
        if any(len(s) < 1 for s in sequences):
            raise ValueError("sequence must contain at least one event")
        for s in {id(s.registry): s for s in sequences}.values():
            if s.registry.keys != self.accounts:
                raise ValueError(f"sequence {s.seq_id!r} is over another account registry "
                                 "than the model's accounts")
        n = max((len(s) for s in sequences), default=0)
        # one table at the longest length: every shorter one is its top-left corner
        pe = positional_encoding(n, self.config.d_pos)
        mask = np.triu(np.full((n, n), NEG_INF), k=1)
        rows = np.arange(n)
        out = []
        for s in sequences:
            feat_gaps = np.diff(s.t, prepend=s.t[0])  # first event has gap 0 by definition
            log_tau = np.log(np.maximum(np.concatenate(([FIRST_GAP], feat_gaps[1:])), MIN_GAP))
            L = len(s)
            out.append(_Prepared(s.account, rows[:L], feat_gaps[:, None], log_tau[:, None],
                                 float(log_tau.sum()), pe[:L], mask[:L, :L],
                                 *_embedding_layout(s.account[:L - 1], rows)))
        return out

    # ---- likelihood kernel ----

    def _features(self, seq: _Prepared) -> tuple:
        """The encoder's input rows, the start token and then each event's
        [embedding | position | cos(gap * freq + phase)]; and the angles."""
        p, cfg = self.params, self.config
        d_embed, d_pos = cfg.d_embed, cfg.d_pos
        inputs = np.empty((len(seq.idx) + 1, cfg.d_feat))
        inputs[0] = p["start_token"].data[0]
        inputs[1:, :d_embed] = p["E"].data[seq.idx]
        inputs[1:, d_embed:d_embed + d_pos] = seq.pe
        angles = seq.feat_gaps * p["time_freq"].data
        angles += p["time_phase"].data
        inputs[1:, d_embed + d_pos:] = np.cos(angles)
        return inputs, angles

    def _encode(self, inputs: np.ndarray, mask: np.ndarray) -> tuple:
        """Context rows C_1..C_L from the input rows of ``_features``, row i
        seeing the start token and events < i, with the intermediates the
        adjoint needs."""
        p = self.params
        shifted = inputs[:-1]  # row i is the start token, then event i - 1
        q = shifted @ p["W_q"].data
        k = shifted @ p["W_k"].data
        v = shifted @ p["W_v"].data
        attn = q @ k.T
        attn *= 1.0 / np.sqrt(self.config.d_feat)
        attn += mask
        attn -= logsumexp(attn, axis=1, keepdims=True)
        np.exp(attn, out=attn)
        AV = attn @ v
        C = AV @ p["F_W"].data
        C += p["F_b"].data
        np.tanh(C, out=C)
        return C, (shifted, q, k, v, attn, AV)

    def _heads(self, C: np.ndarray) -> tuple:
        """Mark-head hidden rows and scores, and the gap mixture's log-weights,
        locations and log-scales."""
        p = self.params
        h = C @ p["mark_W1"].data
        h += p["mark_b1"].data
        np.tanh(h, out=h)
        hW = h @ p["mark_W2"].data
        # score marks against their embeddings
        logits = hW @ p["E"].data.T
        logits += p["mark_b2"].data
        log_w = C @ p["mix_Ww"].data
        log_w += p["mix_bw"].data
        log_w -= logsumexp(log_w, axis=1, keepdims=True)
        mu = C @ p["mix_Wmu"].data
        mu += p["mix_bmu"].data
        log_s = C @ p["mix_Ws"].data
        log_s += p["mix_bs"].data
        return h, hW, logits, log_w, mu, log_s

    def _forward(self, seq: _Prepared) -> tuple:
        """(mark, time) log-likelihood of one prepared sequence, and a cache
        of the intermediates for ``_backward``, which overwrites them."""
        inputs, angles = self._features(seq)
        C, enc = self._encode(inputs, seq.mask)
        h, hW, log_probs, log_w, mu, log_s = self._heads(C)
        log_probs -= logsumexp(log_probs, axis=1, keepdims=True)
        mark = log_probs[seq.rows, seq.idx].sum()

        inv_s = np.negative(log_s)
        np.exp(inv_s, out=inv_s)
        dev = np.subtract(seq.log_tau, mu, out=mu)
        z = dev * inv_s
        comp = log_w - log_s
        comp -= 0.5 * LOG_2PI
        half_zz = z * z
        half_zz *= 0.5
        comp -= half_zz
        lse = logsumexp(comp, axis=1, keepdims=True)
        time = lse[:, 0].sum() - seq.log_tau_sum
        cache = (angles, C, enc, h, hW, log_probs, log_w, inv_s, dev, z, comp, lse)
        return float(mark), float(time), cache

    def _backward(self, seq: _Prepared, cache: tuple, g: float) -> None:
        """Add the gradient of ``g`` times the sequence's log-likelihood to
        the parameters' ``grad``, working in the cache's arrays.

        Every step computes the same IEEE operations on the same operands as
        the adjoint of the matching autodiff op and sums the terms of one
        gradient in the same order, so the result is bit-identical to
        backpropagating the tape. The logsumexp adjoint takes
        exp(x - logsumexp(x)), which the forward already holds as ``attn``,
        ``exp(log_w)`` and ``exp(log_probs)``.
        """
        p = self.params
        angles, C, (shifted, q, k, v, attn, AV), h, hW, log_probs, log_w, inv_s, dev, z, \
            comp, lse = cache
        L = len(seq.idx)

        # time term: logsumexp over the mixture, then each component's log-density
        g_comp = comp
        g_comp -= lse
        np.exp(g_comp, out=g_comp)
        g_comp *= g
        neg_g_comp = np.negative(g_comp)
        g_z = neg_g_comp * 0.5
        g_z *= z
        g_z += g_z
        g_inv_s = np.multiply(g_z, dev, out=dev)
        g_mu = np.multiply(g_z, inv_s, out=g_z)
        np.negative(g_mu, out=g_mu)
        g_inv_s *= inv_s
        g_log_s = np.subtract(neg_g_comp, g_inv_s, out=g_inv_s)
        g_w = np.exp(log_w, out=log_w)
        g_w *= neg_g_comp.sum(axis=1, keepdims=True)
        g_w += g_comp

        # mark term: log-softmax picked at each event's own account, whose
        # adjoint adds g at the picks to the softmax times -g, the row sum of
        # the one-hot -g
        g_logits = np.exp(log_probs, out=log_probs)
        g_logits *= -g
        g_logits[seq.rows, seq.idx] += g
        _accumulate(p["mark_b2"], g_logits.sum(axis=0))
        g_hW = g_logits @ p["E"].data
        _accumulate(p["E"], (hW.T @ g_logits).T)
        g_h = g_hW @ p["mark_W2"].data.T
        _accumulate(p["mark_W2"], h.T @ g_hW)
        tanh_grad = np.multiply(h, h, out=h)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        g_h *= tanh_grad
        _accumulate(p["mark_b1"], g_h.sum(axis=0))
        _accumulate(p["mark_W1"], C.T @ g_h)

        g_C = g_h @ p["mark_W1"].data.T
        for name, g_head in (("w", g_w), ("mu", g_mu), ("s", g_log_s)):
            _accumulate(p[f"mix_b{name}"], g_head.sum(axis=0))
            _accumulate(p[f"mix_W{name}"], C.T @ g_head)
            g_C += g_head @ p[f"mix_W{name}"].data.T

        # encoder
        tanh_grad = np.multiply(C, C, out=C)
        np.subtract(1.0, tanh_grad, out=tanh_grad)
        g_C *= tanh_grad
        _accumulate(p["F_b"], g_C.sum(axis=0))
        _accumulate(p["F_W"], AV.T @ g_C)
        g_AV = g_C @ p["F_W"].data.T
        g_attn = g_AV @ v.T
        g_v = attn.T @ g_AV
        g_attn *= attn
        row_sum = g_attn.sum(axis=1, keepdims=True)
        np.negative(row_sum, out=row_sum)  # the sum of -g_attn: negation is exact
        g_S = np.multiply(attn, row_sum, out=attn)
        g_S += g_attn
        g_S *= 1.0 / np.sqrt(self.config.d_feat)
        g_q = g_S @ k
        g_k = (q.T @ g_S).T
        g_shifted = g_q @ p["W_q"].data.T
        _accumulate(p["W_q"], shifted.T @ g_q)
        g_shifted += g_k @ p["W_k"].data.T
        _accumulate(p["W_k"], shifted.T @ g_k)
        g_shifted += g_v @ p["W_v"].data.T
        _accumulate(p["W_v"], shifted.T @ g_v)
        _accumulate(p["start_token"], g_shifted[0:1])

        # features: row i of the shifted input is event i - 1, and the last
        # event is no input. The inputs' embedding rows are summed account
        # by account, first events first, and added to those accounts' rows
        # of E's grad, which the mark term made: the sums, in the order, of
        # np.add.at into zeros followed by a dense add
        d_embed, d_pos = self.config.d_embed, self.config.d_pos
        g_inputs = g_shifted[1:]
        g_rows = g_inputs[seq.by_rank, :d_embed]
        lo = len(seq.input_accounts)
        g_E = g_rows[:lo]  # each account's first event, then add the later ones rank by rank
        for n in seq.rank_sizes:
            g_E[:n] += g_rows[lo:lo + n]
            lo += n
        p["E"].grad[seq.input_accounts] += g_E
        g_angles = np.sin(angles)
        g_angles[:L - 1] *= np.negative(g_inputs[:, d_embed + d_pos:])
        g_angles[L - 1] = 0.0  # the sums below run over all L rows, as the tape's do
        _accumulate(p["time_phase"], g_angles.sum(axis=0))
        g_angles *= seq.feat_gaps
        _accumulate(p["time_freq"], g_angles.sum(axis=0))

    # ---- likelihoods and gradients ----

    def log_likelihood(self, s: EventSequence) -> float:
        """Log-likelihood of one view from ``Dataset.sequences``."""
        return self.passes(self.prepare([s]))[0]

    def grad_log_likelihood(self, batch) -> dict:
        """Exact gradients of the summed log-likelihood over ``batch``."""
        self.zero_grad()
        self.passes(self.prepare(batch), 1.0)
        grads = {
            k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for k, t in self.params.items()
        }
        self.zero_grad()
        return grads

    def passes(self, items, g: float | None = None, helper: _Helper | None = None) -> list:
        """Each sequence's log-likelihood, for sequences from ``prepare``; with
        ``g``, also add the gradient of ``g`` times it to the parameters' ``grad``.

        The sequences before ``_cut(items)``, the head, add their gradients
        in order; the rest, the tail, are summed from zero and added last.
        With a ``helper`` from ``_helper`` the tail runs there while the head
        runs here.
        """
        cut = _cut(items)
        head, tail = items[:cut], items[cut:]
        if helper is None or not tail:
            return self._run(head, g) + self._apart(tail, g)
        helper.send(tail, g)
        return self._run(head, g) + helper.receive(len(tail), g is not None)

    def _run(self, items, g: float | None) -> list:
        """``passes`` in order, each gradient added straight into ``grad``."""
        out = []
        for seq in items:
            mark, time, cache = self._forward(seq)
            if g is not None:
                self._backward(seq, cache, g)
            out.append(mark + time)
        return out

    def _apart(self, items, g: float | None) -> list:
        """``_run`` with the gradient summed from zero, then added to ``grad``
        with one ``_accumulate`` per parameter, as a helper's tail is."""
        held = [t.grad for t in self.params.values()]
        self.zero_grad()
        out = self._run(items, g)
        for t, grad in zip(self.params.values(), held):
            t.grad, part = grad, t.grad
            if part is not None:
                _accumulate(t, part)
        return out

    # ---- persistence ----

    def save(self, path) -> None:
        arrays = {k: t.data for k, t in self.params.items()}
        meta = json.dumps(
            {"version": 1, "accounts": self.accounts, "config": asdict(self.config)}
        )
        with open(path, "wb") as fh:  # given a path, np.savez would append ".npz"
            np.savez(fh, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "SequenceModel":
        with np.load(path) as archive:
            meta = json.loads(archive["__meta__"].tobytes().decode())
            if meta.get("version") != 1:
                raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
            unknown = sorted(set(meta["config"]) - {f.name for f in fields(SeqModelConfig)})
            if unknown:
                raise ValueError(f"checkpoint config keys {unknown} are not SeqModelConfig fields")
            model = cls(meta["accounts"], SeqModelConfig(**meta["config"]), seed=0)
            for k, t in model.params.items():
                if k not in archive:
                    raise ValueError(f"checkpoint has no array {k!r}")
                data = np.asarray(archive[k], dtype=np.float64)
                if data.shape != t.data.shape:
                    raise ValueError(f"checkpoint array {k!r} has shape {data.shape}, but its "
                                     f"accounts and config give {t.data.shape}")
                if not np.isfinite(data).all():
                    raise ValueError(f"checkpoint array {k!r} holds a non-finite value")
                t.data = data
        return model


# ---- forked children ----

_LENGTH = struct.Struct("<q")  # bytes of the pickled outcome that follows
PR_SET_PDEATHSIG = 1           # <sys/prctl.h>


def _helper_wanted() -> bool:
    """Linux, two or more usable CPUs, and no other thread in this process."""
    return (sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
            and _os_threads() == 1)


def _os_threads() -> int:
    """The number of OS threads in this process."""
    return len(os.listdir("/proc/self/task"))


def _read(fd: int, n: int) -> bytes:
    """``n`` bytes from pipe ``fd``, or b"" if the other end closes first."""
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return b""
        buf += chunk
    return buf


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _die_with_parent(parent: int) -> None:
    """Have the kernel kill this process once ``parent`` exits, however it
    exits, and exit at once if it already has."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


@contextmanager
def _child(where: str, fn, *args):
    """Run ``fn(*args)`` in a forked child while the context is open; yields
    the child's pid and ``outcome``, which returns ``fn``'s value, raises its
    exception with "in the <where>" and the child's traceback as the cause,
    or raises that the <where> exited without a result.

    The child sends one length-prefixed pickle, ``(True, value)`` or
    ``(False, (exc, traceback))``, and leaves only through ``os._exit``. On
    exit the child is killed, if it still runs, and reaped; if the parent
    dies first, the kernel kills the child.
    """
    parent = os.getpid()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the parent's code
        ok = False
        try:
            _die_with_parent(parent)
            os.close(result_r)
            try:
                sent = (True, fn(*args))
            except BaseException as exc:  # the parent raises it (see outcome)
                sent = (False, (exc, traceback.format_exc()))
            payload = pickle.dumps(sent)  # if this fails, the parent sees no result
            _write(result_w, _LENGTH.pack(len(payload)) + payload)
            ok = sent[0]
        finally:
            os._exit(0 if ok else 1)
    os.close(result_w)

    def outcome():
        head = _read(result_r, _LENGTH.size)
        body = head and _read(result_r, _LENGTH.unpack(head)[0])
        if not body:
            raise RuntimeError(f"the {where} exited without a result")
        ok, value = pickle.loads(body)
        if not ok:
            exc, trace = value
            raise exc from RuntimeError(f"in the {where}:\n{trace}")
        return value

    try:
        yield pid, outcome
    finally:
        os.close(result_r)
        os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie until reaped
        os.waitpid(pid, 0)


@contextmanager
def _forked(fn, *args):
    """Run ``fn(*args)`` in a ``_child`` while the context is open, if
    ``_helper_wanted``; yields a function that returns its value.

    Without a child the yielded function calls ``fn(*args)`` itself.
    """
    if not _helper_wanted():
        yield lambda: fn(*args)
        return
    with _child("forked child", fn, *args) as (_, outcome):
        yield outcome


# ---- the helper process ----

_TASK = struct.Struct("<?dq")  # backward pass?, its g, number of sequences


def _shared(params: dict) -> dict:
    """A view per tensor of ``params``, of its shape, into one new anonymous
    shared mapping, which a child forked later shares."""
    sizes = [t.data.size for t in params.values()]
    flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return {k: part.reshape(t.data.shape) for (k, t), part in zip(params.items(), parts)}


class _Helper:
    """A ``_child`` that runs the tail of each batch and validation pass of
    ``model`` over the sequences ``items``, for the ``SequenceModel.passes``
    calls it is handed to.

    Before the fork, two anonymous shared mappings are made with the
    parameters' layout: the parent copies the parameters into one before each
    task, and the helper writes the tail's gradient into the other. Per
    ``passes`` call one pipe carries one task (g and indices into ``items``,
    which the helper inherited) and another one result (the tail's
    log-likelihoods). The helper returns on EOF of the task pipe; when it
    fails, the parent sees EOF on the results pipe and raises its outcome.
    """

    def __init__(self, model: SequenceModel, items: list):
        self.model = model
        self._index = {id(seq): i for i, seq in enumerate(items)}
        self._params, self._grads = _shared(model.params), _shared(model.params)
        task_r, self._task_w = os.pipe()
        self._result_r, result_w = os.pipe()
        self._running = ExitStack()
        self.pid, self._outcome = self._running.enter_context(
            _child("helper process", self._serve, items, task_r, result_w))
        for fd in (task_r, result_w):
            os.close(fd)

    def _serve(self, items, task_r, result_w) -> None:
        """The helper's loop: run each task's sequences in order until EOF."""
        for fd in (self._task_w, self._result_r):
            os.close(fd)
        model = self.model
        for k, view in self._params.items():
            model.params[k].data = view
        try:
            while head := _read(task_r, _TASK.size):
                backward, g, n = _TASK.unpack(head)
                tail = [items[i] for i in np.frombuffer(_read(task_r, 8 * n), dtype=np.int64)]
                model.zero_grad()
                out = model._run(tail, g if backward else None)
                if backward:
                    for k, view in self._grads.items():
                        np.copyto(view, model.params[k].grad)
                _write(result_w, np.array(out, dtype=np.float64).tobytes())
        finally:
            os.close(result_w)  # the parent reads the outcome only after this EOF

    def send(self, tail, g: float | None = None) -> None:
        """Give the helper ``tail``: its backward passes with ``g``, or with
        ``g=None`` its log-likelihoods only.

        Every sequence must be one the helper was forked with; any other
        raises ``KeyError``, and a closed helper ``ValueError``, before
        anything is sent.
        """
        if self._task_w is None:
            raise ValueError("the helper process is closed")
        idx = np.array([self._index[id(seq)] for seq in tail], dtype=np.int64)
        for k, view in self._params.items():
            view[...] = self.model.params[k].data
        head = _TASK.pack(g is not None, 0.0 if g is None else g, len(idx))
        _write(self._task_w, head + idx.tobytes())

    def receive(self, n: int, backward: bool) -> list:
        """The log-likelihoods of the ``n`` sequences sent last; after a
        backward pass their gradient is first added to the parameters' ``grad``."""
        body = _read(self._result_r, 8 * n)
        if not body:
            self._outcome()  # raises the helper's exception, or that it sent none
            raise RuntimeError("the helper process exited without a result")
        if backward:
            for k, view in self._grads.items():
                _accumulate(self.model.params[k], view)
        return np.frombuffer(body, dtype=np.float64).tolist()

    def close(self) -> None:
        """Close the pipes, then kill and reap the helper. The helper keeps
        no fd number, which a file opened later could take."""
        with self._running:
            fds = (self._task_w, self._result_r)
            self._task_w = self._result_r = None
            for fd in fds:
                os.close(fd)


@contextmanager
def _helper(model: SequenceModel, *item_lists):
    """Yield a ``_Helper`` for ``model``'s passes over the sequences of
    ``item_lists``, closed when the context exits; yield None unless
    ``_helper_wanted``. The caller hands it to ``SequenceModel.passes``."""
    items = [seq for seqs in item_lists for seq in seqs]
    if not (items and _helper_wanted()):
        yield None
        return
    helper = _Helper(model, items)
    try:
        yield helper
    finally:
        helper.close()


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
    parameters before its batch's step. Pretraining, the M-step and the
    scorer fit at EM's start (``em._fit_unary``) all run through this loop.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    _check_step_sizes(lr, weight_decay)
    if epochs < 1 or patience < 1:
        raise ValueError(f"epochs and patience must be >= 1, got {epochs!r} and {patience!r}")
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


def _check_step_sizes(lr: float, weight_decay: float) -> None:
    """Raise ``ValueError`` unless ``lr`` is finite and positive and
    ``weight_decay`` is finite and non-negative."""
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr!r}")
    if not (np.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"weight_decay must be finite and non-negative, got {weight_decay!r}")


def train(
    d: Dataset,
    cfg: TrainConfig | None = None,
    model_config: SeqModelConfig | None = None,
    val: Dataset | None = None,
) -> SequenceModel:
    """Fit by minimizing mean negative log-likelihood with Adam.

    Early stopping monitors the mean log-likelihood of ``val``, or of ``d``
    itself when ``val`` is not given; the best checkpoint is restored.
    Deterministic given ``cfg.seed``.
    """
    cfg = cfg or TrainConfig()
    if not d.seq_ids:
        raise ValueError("training dataset is empty")
    model = SequenceModel(d.registry.keys, model_config, seed=cfg.seed)
    train_items = model.prepare(d.sequences)
    val_items = train_items if val is None else model.prepare(val.sequences)
    # land the log-normal heads on the data's log-gap scale up front;
    # otherwise the time loss swamps every shared gradient for a long time
    logs = np.concatenate([seq.log_tau[:, 0] for seq in train_items])
    model.params["mix_bmu"].data += logs.mean()
    model.params["mix_bs"].data += np.log(max(logs.std(), 1e-3))
    with _helper(model, train_items, val_items) as helper:
        _, _, model.history = fit(
            model.params, train_items,
            lambda batch: -sum(model.passes(batch, -1.0 / len(batch), helper)),
            lambda: float(np.mean(model.passes(val_items, helper=helper))),
            epochs=cfg.epochs, lr=cfg.lr, weight_decay=cfg.weight_decay,
            batch_size=cfg.batch_size, patience=cfg.patience,
            rng=np.random.default_rng(cfg.seed + 1),
        )
    return model
