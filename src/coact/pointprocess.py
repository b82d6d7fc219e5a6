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
A checkpoint (``SequenceModel.save``) holds the parameters, the accounts and
the config. ``SequenceModel.load`` accepts only config keys that are
``SeqModelConfig`` fields: it refuses a checkpoint that stores options
since folded into constants, and names those keys.

While ``train`` and the EM M-step run ``fit``, one forked helper process
shares the work (``_helper``). In each minibatch and each validation pass
the parent runs the sequences at even positions and the helper those at odd
positions. ``_backward`` hands each gradient increment to a sink: in the
parent that is ``_accumulate``, in the helper a slot of a shared-memory
ring. The parent adds the helper's increments for position p - 1 before it
runs position p, so every gradient is summed in the serial order and
training is bit-identical with or without a helper. There is a helper only
on Linux, with two or more usable CPUs, and while this process has a single
OS thread, so nothing forks under a multi-threaded BLAS; otherwise the
parent runs every position.

``_forked`` is the second kind of fork: one child that runs a single
function while the parent goes on with other work, and hands back its
pickled value. ``em.kmeans`` runs half its starts this way beside the
other half, and ``coact detect`` fits the unary scorer this way beside
ingest and graph build. It forks under the same guard as the helper and
calls the function in the parent otherwise. When the parent leaves its
context, whether it read the value or raised, the child is killed if it
still runs and is reaped; a parent killed outright takes the child with it
(``PR_SET_PDEATHSIG``). So no child outlives its parent.
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
from contextlib import contextmanager, suppress
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
    """One sequence's constants of the likelihood (``SequenceModel.prepare``)."""
    idx: np.ndarray          # account row of each event
    feat_gaps: np.ndarray    # (L, 1) gap to the previous event, 0 for the first
    log_tau: np.ndarray      # (L, 1) log of the decoder's gap
    log_tau_sum: float
    pe: np.ndarray           # (L, d_pos) position encoding
    mask: np.ndarray         # (L, L) causal attention mask


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
        self._index = {a: i for i, a in enumerate(self.accounts)}
        self.history = []  # per-epoch training records, filled by train()
        self._helper = None  # the _Helper sharing this model's passes, if any

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
        attn = np.exp(S - logsumexp(S, axis=1, keepdims=True))
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
        log_w = w_logits - logsumexp(w_logits, axis=1, keepdims=True)
        mu = C @ p["mix_Wmu"].data + p["mix_bmu"].data
        log_s = C @ p["mix_Ws"].data + p["mix_bs"].data
        return h, hW, logits, log_w, mu, log_s

    def _forward(self, seq: _Prepared) -> tuple:
        """(mark, time) log-likelihood of one prepared sequence, and a cache
        of the intermediates for ``_backward``."""
        X, angles = self._features(seq)
        C, enc = self._encode(X, seq.mask)
        h, hW, logits, log_w, mu, log_s = self._heads(C)
        log_probs = logits - logsumexp(logits, axis=1, keepdims=True)
        mark = log_probs[np.arange(len(seq.idx)), seq.idx].sum()

        inv_s = np.exp(-log_s)
        dev = seq.log_tau - mu
        z = dev * inv_s
        comp = log_w - log_s - 0.5 * LOG_2PI - 0.5 * (z * z)
        lse = logsumexp(comp, axis=1, keepdims=True)
        time = lse[:, 0].sum() - seq.log_tau_sum
        cache = (angles, C, enc, h, hW, log_probs, log_w, inv_s, dev, z, comp, lse)
        return float(mark), float(time), cache

    def _backward(self, seq: _Prepared, cache: tuple, g: float, add=_accumulate) -> None:
        """Add the gradient of ``g`` times the sequence's log-likelihood to
        the parameters' ``grad``: each increment goes to ``add(tensor, array)``.

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
        add(p["mark_b2"], g_logits.sum(axis=0))
        g_hW = g_logits @ p["E"].data
        add(p["E"], (hW.T @ g_logits).T)
        g_h = g_hW @ p["mark_W2"].data.T
        add(p["mark_W2"], h.T @ g_hW)
        g_h = g_h * (1.0 - h * h)
        add(p["mark_b1"], g_h.sum(axis=0))
        add(p["mark_W1"], C.T @ g_h)

        g_C = g_h @ p["mark_W1"].data.T
        for name, g_head in (("w", g_w), ("mu", g_mu), ("s", g_log_s)):
            add(p[f"mix_b{name}"], g_head.sum(axis=0))
            add(p[f"mix_W{name}"], C.T @ g_head)
            g_C += g_head @ p[f"mix_W{name}"].data.T

        # encoder
        g_C = g_C * (1.0 - C * C)
        add(p["F_b"], g_C.sum(axis=0))
        add(p["F_W"], AV.T @ g_C)
        g_AV = g_C @ p["F_W"].data.T
        g_attn = g_AV @ v.T
        g_v = attn.T @ g_AV
        g_attn = g_attn * attn
        g_S = g_attn + (-g_attn).sum(axis=1, keepdims=True) * attn
        g_S = g_S * (1.0 / np.sqrt(self.config.d_feat))
        g_q = g_S @ k
        g_k = (q.T @ g_S).T
        g_shifted = g_q @ p["W_q"].data.T
        add(p["W_q"], shifted.T @ g_q)
        g_shifted += g_k @ p["W_k"].data.T
        add(p["W_k"], shifted.T @ g_k)
        g_shifted += g_v @ p["W_v"].data.T
        add(p["W_v"], shifted.T @ g_v)
        add(p["start_token"], g_shifted[0:1])

        # features: row i of the shifted input is event i - 1; the last event
        # is no input, so its row of the gradient is zero
        d_embed, d_pos = self.config.d_embed, self.config.d_pos
        g_X = np.zeros((L, self.config.d_feat))
        g_X[:L - 1] += g_shifted[1:]
        g_E = np.zeros_like(p["E"].data)
        np.add.at(g_E, seq.idx, g_X[:, :d_embed])  # repeated accounts add up in order
        add(p["E"], g_E)
        g_angles = -g_X[:, d_embed + d_pos:] * np.sin(angles)
        add(p["time_phase"], g_angles.sum(axis=0))
        add(p["time_freq"], (g_angles * seq.feat_gaps).sum(axis=0))

    # ---- likelihoods and gradients ----

    def log_likelihood(self, s: EventSequence) -> float:
        return self.log_likelihoods(self.prepare([s]))[0]

    def log_likelihoods(self, items) -> list:
        """Log-likelihood of each sequence in ``items``, from ``prepare``."""
        return self._passes(items)

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
        ``batch`` holds sequences from ``prepare``."""
        nll = 0.0
        for ll in self._passes(batch, -scale):
            nll -= ll
        return nll

    def _passes(self, items, g: float | None = None) -> list:
        """Each sequence's log-likelihood; with ``g``, also add the gradient of
        ``g`` times it to the parameters' ``grad``. With a helper, the odd
        positions run there, and position p runs only after the helper's p - 1
        has been added, so the additions keep the serial order."""
        helper = self._helper
        shared = helper is not None and helper.send(items, g)
        out = []
        for pos, seq in enumerate(items):
            if shared and pos % 2:
                out.append(helper.receive())
            else:
                mark, time, cache = self._forward(seq)
                if g is not None:
                    self._backward(seq, cache, g)
                out.append(mark + time)
        return out

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
            unknown = sorted(set(meta["config"]) - {f.name for f in fields(SeqModelConfig)})
            if unknown:
                raise ValueError(f"checkpoint config keys {unknown} are not SeqModelConfig fields")
            model = cls(meta["accounts"], SeqModelConfig(**meta["config"]), seed=0)
            for k in model.params:
                model.params[k].data = np.array(archive[k], dtype=np.float64)
        return model


# ---- the helper process ----

RING_SLOTS = 2                  # sequences' increments the helper may send ahead
_TASK = struct.Struct("<?dq")   # backward pass?, its g, number of sequences
_RESULT = struct.Struct("<qd")  # ring slot (or _NO_SLOT/_FAILED), log-likelihood
_LENGTH = struct.Struct("<q")   # bytes of the pickled error after a _FAILED result
_NO_SLOT, _FAILED = -1, -2


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


def _send(fd: int, k: int, obj) -> None:
    """A result header with ``k``, then ``obj`` pickled, length first."""
    payload = pickle.dumps(obj)
    _write(fd, _RESULT.pack(k, 0.0) + _LENGTH.pack(len(payload)) + payload)


def _receive(fd: int):
    """The object that ``_send`` wrote after the header just read."""
    (n,) = _LENGTH.unpack(_read(fd, _LENGTH.size))
    return pickle.loads(_read(fd, n))


def _report(fd: int, exc: BaseException) -> None:
    """Send ``exc`` and its traceback to the parent as a _FAILED result (if
    ``exc`` does not pickle, the parent sees the child exit instead)."""
    with suppress(OSError):  # the parent has closed the pipe and is not listening
        _send(fd, _FAILED, (exc, traceback.format_exc()))


def _raise_reported(fd: int, where: str):
    """Raise the exception that ``_report`` sent, with the child's traceback."""
    exc, trace = _receive(fd)
    raise exc from RuntimeError(f"in the {where}:\n{trace}")


def _views(flat: np.ndarray, shapes) -> list:
    """Views of ``flat`` with the given ``shapes``, back to back."""
    out, off = [], 0
    for shape in shapes:
        n = int(np.prod(shape))
        out.append(flat[off:off + n].reshape(shape))
        off += n
    return out


class _Helper:
    """A forked process that runs the odd positions of each batch and
    validation pass of ``model`` over the sequences ``items``.

    Before the fork, two anonymous shared mappings are made: one holds the
    parameters, which the parent copies in before each pass and the helper
    reads through views, and one is a ring of ``RING_SLOTS`` slots, each
    holding one sequence's increments in ``_backward``'s call order. Three
    pipes carry the rest: tasks (indices into ``items``, which the helper
    inherited), results ("slot k ready, log-likelihood x") and "slot free"
    tokens. The helper exits on EOF of a pipe, and only through ``os._exit``.
    """

    def __init__(self, model: SequenceModel, items: list):
        self.model = model
        self._index = {id(seq): i for i, seq in enumerate(items)}
        names = list(model.params)
        param_buf = mmap.mmap(-1, 8 * sum(model.params[k].data.size for k in names))
        self._params = dict(zip(names, _views(np.frombuffer(param_buf, dtype=np.float64),
                                              [model.params[k].data.shape for k in names])))
        # a slot's layout: the tensor and shape of each increment, in the
        # order of _backward's calls, recorded once by a dry run
        layout = []
        seq = min(items, key=lambda s: len(s.idx))
        with np.errstate(all="ignore"):  # its values are discarded
            model._backward(seq, model._forward(seq)[2], 0.0,
                            add=lambda t, inc: layout.append((t, inc.shape)))
        tensors, shapes = zip(*layout)
        size = sum(int(np.prod(shape)) for shape in shapes)
        ring = np.frombuffer(mmap.mmap(-1, 8 * RING_SLOTS * size), dtype=np.float64)
        self._slots = [list(zip(tensors, _views(ring[k * size:(k + 1) * size], shapes)))
                       for k in range(RING_SLOTS)]

        task_r, self._task_w = os.pipe()
        self._result_r, result_w = os.pipe()
        free_r, self._free_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper never returns into the parent's code
            status = 1
            try:
                for fd in (self._task_w, self._result_r, self._free_w):
                    os.close(fd)
                self._serve(items, task_r, result_w, free_r)
                status = 0
            except BaseException as exc:  # the parent raises it (see receive)
                _report(result_w, exc)
            finally:
                os._exit(status)
        for fd in (task_r, result_w, free_r):
            os.close(fd)

    def _serve(self, items, task_r, result_w, free_r) -> None:
        """The helper's loop: run each task's sequences in order until EOF."""
        model = self.model
        for k, view in self._params.items():
            model.params[k].data = view
        free, slot = RING_SLOTS, 0
        while head := _read(task_r, _TASK.size):
            backward, g, n = _TASK.unpack(head)
            for i in np.frombuffer(_read(task_r, 8 * n), dtype=np.int64):
                seq = items[i]
                mark, time, cache = model._forward(seq)
                k = _NO_SLOT
                if backward:
                    if not free:
                        tokens = os.read(free_r, RING_SLOTS)
                        if not tokens:
                            return
                        free = len(tokens)
                    views = iter(self._slots[slot])
                    model._backward(seq, cache, g,
                                    add=lambda t, inc: np.copyto(next(views)[1], inc))
                    k, slot, free = slot, (slot + 1) % RING_SLOTS, free - 1
                _write(result_w, _RESULT.pack(k, mark + time))

    def send(self, batch, g: float | None = None) -> bool:
        """Give the helper the odd positions of ``batch``: their backward
        passes with ``g``, or with ``g=None`` their log-likelihoods only.

        Returns False, and sends nothing, if the helper does not know one of
        those sequences.
        """
        try:
            idx = np.array([self._index[id(seq)] for seq in batch[1::2]], dtype=np.int64)
        except KeyError:
            return False
        for k, view in self._params.items():
            view[...] = self.model.params[k].data
        if len(idx):
            head = _TASK.pack(g is not None, 0.0 if g is None else g, len(idx))
            _write(self._task_w, head + idx.tobytes())
        return True

    def receive(self) -> float:
        """The next sequence's log-likelihood; after a backward pass its
        increments are first added to the parameters' ``grad``."""
        head = _read(self._result_r, _RESULT.size)
        if not head:
            raise RuntimeError("the helper process exited without a result")
        k, ll = _RESULT.unpack(head)
        if k == _FAILED:
            _raise_reported(self._result_r, "helper process")
        if k != _NO_SLOT:
            for t, inc in self._slots[k]:
                _accumulate(t, inc)
            _write(self._free_w, b"\0")
        return ll

    def close(self) -> None:
        """Close the pipes, which ends the helper, and reap it."""
        try:
            for fd in (self._task_w, self._free_w, self._result_r):
                os.close(fd)
        finally:
            os.waitpid(self.pid, 0)


@contextmanager
def _helper(model: SequenceModel, *item_lists):
    """Share ``model``'s passes over the sequences of ``item_lists`` with
    one helper process while the context is open, if ``_helper_wanted``."""
    items = [seq for seqs in item_lists for seq in seqs]
    if not (items and _helper_wanted()):
        yield
        return
    helper = _Helper(model, items)
    model._helper = helper
    try:
        yield
    finally:
        model._helper = None
        helper.close()


PR_SET_PDEATHSIG = 1  # <sys/prctl.h>


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
def _forked(fn, *args):
    """Run ``fn(*args)`` in a forked child while the context is open, if
    ``_helper_wanted``; yields a function that returns its value.

    The value comes back pickled through a pipe, and an exception raised in
    the child is raised again with the child's traceback as its cause.
    Without a child the yielded function calls ``fn(*args)`` itself. On exit
    the child is killed, if it is still running, and reaped; if the parent
    dies before it leaves the context, the kernel kills the child. The child
    leaves only through ``os._exit``.
    """
    if not _helper_wanted():
        yield lambda: fn(*args)
        return
    parent = os.getpid()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the parent's code
        status = 1
        try:
            _die_with_parent(parent)
            os.close(result_r)
            _send(result_w, 0, fn(*args))
            status = 0
        except BaseException as exc:  # the parent raises it (see result)
            _report(result_w, exc)
        finally:
            os._exit(status)
    os.close(result_w)

    def result():
        head = _read(result_r, _RESULT.size)
        if not head:
            raise RuntimeError("the forked child exited without a result")
        if _RESULT.unpack(head)[0] == _FAILED:
            _raise_reported(result_r, "forked child")
        return _receive(result_r)

    try:
        yield result
    finally:
        os.close(result_r)
        os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie until reaped
        os.waitpid(pid, 0)


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
    if not d.sequences:
        raise ValueError("training dataset is empty")
    model = SequenceModel(d.registry.keys, model_config, seed=cfg.seed)
    train_items = model.prepare(d.sequences)
    val_items = train_items if val is None else model.prepare(val.sequences)
    # land the log-normal heads on the data's log-gap scale up front;
    # otherwise the time loss swamps every shared gradient for a long time
    logs = np.concatenate([seq.log_tau[:, 0] for seq in train_items])
    model.params["mix_bmu"].data += logs.mean()
    model.params["mix_bs"].data += np.log(max(logs.std(), 1e-3))
    with _helper(model, train_items, val_items):
        _, _, model.history = fit(
            model.params, train_items,
            lambda batch: model.backward_nll(batch, 1.0 / len(batch)),
            lambda: float(np.mean(model.log_likelihoods(val_items))),
            epochs=cfg.epochs, lr=cfg.lr, weight_decay=cfg.weight_decay,
            batch_size=cfg.batch_size, patience=cfg.patience,
            rng=np.random.default_rng(cfg.seed + 1),
        )
    return model
