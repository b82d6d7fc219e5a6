"""Prior-knowledge account graph: co-appearance weights plus filtering.

Edge weights count the sequences in which two accounts both appear. Two
filters sharpen the raw counts: an elementwise power (exponent p >= 1),
and a temporal-overlap rule that only counts a sequence when the accounts'
[first, last] activity intervals inside it overlap by more than a
threshold. The pairwise potential used downstream normalizes each edge by
1/sqrt(d_u d_v), which is where low-value edges get suppressed.

A graph is stored as a sorted upper-triangle edge list ``(u, v, weight)``,
so its memory grows with the number of edges, not with the square of the
number of accounts. The edge ends are int32 (at most 2**31 - 1 accounts), so
a graph holds 16 bytes per edge: 4 + 4 for the ends and 8 for the weight.
The coupling w_uv / sqrt(d_u d_v) is not kept: ``KnowledgeGraph.couple``,
which applies it in the E-step, computes it slice by slice. The builders
count the account pairs of each sequence in one preallocated key buffer
(int32 keys while V * V fits in them), and that buffer then holds the
second edge ends. Every pass over the edges, validation included, runs in
slices of ``COUPLE_EDGES``, so no full-size temporary, and no whole-array
intp copy of the int32 ends (numpy makes one for each fancy index or
``bincount`` they are given), sits beside the edge arrays. The degrees are
summed with ``np.add.at`` slice by slice: it adds the weights one edge at a
time in edge order, as one ``np.bincount`` over all edges would, so the bits
stay those of the unsliced sum, where adding per-slice ``bincount`` totals
would not. Dense (V, V) views (``w``, ``coupling()``) are built on demand
for tests and small instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .events import Dataset, _csv_field

__all__ = [
    "KnowledgeGraph",
    "co_occurrence",
    "filter_power",
    "filter_temporal_logic",
    "save_graph",
]


# Passes over the edges take this many at a time; couple() takes one per
# account if that is more: its temporaries stay small, and zeroing its
# per-account sums costs no more than the edges do
COUPLE_EDGES = 2 ** 16


def _slices(n: int, step: int | None = None):
    """Consecutive slices of ``step`` (default COUPLE_EDGES) items covering range(n)."""
    step = step or COUPLE_EDGES
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _ends(x, n: int) -> np.ndarray:
    """``x`` as int32 account indices, checked against n accounts before narrowing.

    The caller's values must be integers: floats only when integral (an empty
    list is float). A value outside [0, n) raises before the cast could wrap it.
    """
    x = np.asarray(x)
    if not (np.issubdtype(x.dtype, np.integer)
            or (np.issubdtype(x.dtype, np.floating) and (x == np.floor(x)).all())):
        raise ValueError("edge ends must be integers")
    if x.size and not (x.min() >= 0 and x.max() < n):
        raise ValueError("edges must join two accounts u < v")
    return x.astype(np.int32, copy=False)


@dataclass
class KnowledgeGraph:
    """Account keys and a sorted upper-triangle edge list, validated on creation.

    Edge k joins accounts ``u[k] < v[k]`` with weight ``weight[k]``. The
    edges are sorted row-major (by u, then by v) and distinct, and every
    weight is finite and positive; a pair without an edge has weight 0. So
    the weights are those of a symmetric (V, V) matrix with a zero diagonal.
    """

    accounts: list             # account keys; u and v index into them
    u: np.ndarray              # (E,) int32, first account of each edge
    v: np.ndarray              # (E,) int32, second account of each edge, u < v
    weight: np.ndarray         # (E,) finite, > 0
    filter_tag: str = "none"

    def __post_init__(self):
        n = self.n
        if n > np.iinfo(np.int32).max:
            raise ValueError("a graph holds at most 2**31 - 1 accounts")
        self.weight = np.asarray(self.weight, dtype=np.float64)
        shapes = {np.shape(self.u), np.shape(self.v), self.weight.shape}
        if len(shapes) != 1 or self.weight.ndim != 1:
            raise ValueError("u, v and weight must be vectors of one length")
        self.u, self.v = _ends(self.u, n), _ends(self.v, n)
        for s in _slices(len(self.weight)):
            # each slice's order check starts at the last edge of the one before
            p = slice(max(s.start - 1, 0), s.stop)
            u, v, w, pu, pv = self.u[s], self.v[s], self.weight[s], self.u[p], self.v[p]
            if not (u < v).all():
                raise ValueError("edges must join two accounts u < v")
            if not ((pu[1:] > pu[:-1]) | ((pu[1:] == pu[:-1]) & (pv[1:] > pv[:-1]))).all():
                raise ValueError("edges must be sorted row-major and distinct")
            if not ((w > 0) & (w < np.inf)).all():
                raise ValueError("weights must be finite and positive")

    @property
    def n(self) -> int:
        return len(self.accounts)

    @cached_property
    def deg(self) -> np.ndarray:
        """(V,) weighted degree of each account: its sum over u plus its sum over v."""
        du, dv = np.zeros(self.n), np.zeros(self.n)
        for s in _slices(len(self.weight)):
            np.add.at(du, self.u[s], self.weight[s])
            np.add.at(dv, self.v[s], self.weight[s])
        return du + dv

    def _b_slice(self, s: slice, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """w_uv / sqrt(d_u d_v) for the edges in slice ``s``, whose ends are ``u`` and ``v``."""
        d = self.deg[u]
        np.multiply(d, self.deg[v], out=d)
        np.sqrt(d, out=d)
        return np.divide(self.weight[s], d, out=d)

    @property
    def b(self) -> np.ndarray:
        """(E,) per-edge coupling w_uv / sqrt(d_u d_v), built on each access.

        The graph does not keep it; ``couple`` computes the same values slice
        by slice with the same expression.
        """
        out = np.empty_like(self.weight)
        for s in _slices(len(self.weight)):
            out[s] = self._b_slice(s, self.u[s], self.v[s])
        return out

    @cached_property
    def _rows(self) -> tuple:
        """Both orientations of every edge grouped by row: (row starts, columns, couplings)."""
        counts = np.zeros(self.n, dtype=np.intp)
        for s in _slices(len(self.weight)):
            np.add.at(counts, self.u[s], 1)
            np.add.at(counts, self.v[s], 1)
        starts = np.concatenate([[0], np.cumsum(counts)])
        order = np.argsort(np.concatenate([self.u, self.v]), kind="stable")
        b = self.b
        return starts, np.concatenate([self.v, self.u])[order], np.concatenate([b, b])[order]

    def couple(self, q: np.ndarray, row: int | None = None) -> np.ndarray:
        """sum_v B_uv q_v for every account u, as a (V, M) array like ``q``.

        The sums run over the edges with ``np.bincount`` on both ends, and
        each slice of edges computes its own coupling on the way. With
        ``row``, only that account's (M,) sum, from its slice of a layout
        that lists both orientations of each edge by row; that layout is
        built on the first such call.
        """
        if row is not None:
            starts, cols, b = self._rows
            lo, hi = starts[row], starts[row + 1]
            return b[lo:hi] @ q[cols[lo:hi]]
        out = np.zeros_like(q)
        for s in _slices(len(self.weight), max(COUPLE_EDGES, self.n)):
            u, v = self.u[s].astype(np.intp), self.v[s].astype(np.intp)
            b = self._b_slice(s, u, v)
            for m in range(q.shape[1]):
                qm = q[:, m]
                out[:, m] += np.bincount(u, b * qm[v], self.n) + np.bincount(v, b * qm[u], self.n)
        return out

    def _dense(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for s in _slices(len(self.weight)):
            out[self.u[s], self.v[s]] = values[s]
            out[self.v[s], self.u[s]] = values[s]
        return out

    @property
    def w(self) -> np.ndarray:
        """Dense (V, V) weights, built on each access: for tests and small instances."""
        return self._dense(self.weight)

    def coupling(self) -> np.ndarray:
        """Dense (V, V) coupling B, built on each call: for tests and small instances."""
        return self._dense(self.b)


def _participants(d: Dataset):
    """Per sequence: (account indices, first event times, last event times).

    Each participant appears once, in order of first appearance; its first
    and last event times in the sequence bound its active interval there.
    """
    for s in d.sequences:
        first: dict[int, float] = {}
        last: dict[int, float] = {}
        for e in s.events:
            i = d.registry.index(e.account)
            if i not in first:
                first[i] = e.t
            last[i] = e.t
        yield (np.fromiter(first.keys(), dtype=np.intp),
               np.fromiter(first.values(), dtype=np.float64),
               np.fromiter(last.values(), dtype=np.float64))


_INT32_KEYS = np.iinfo(np.int32).max  # the largest V * V with int32 pair keys


def _pair_counts(d: Dataset, c: float | None = None) -> tuple:
    """Edge arrays (u, v, count): the number of sequences holding both accounts.

    Each sequence writes the sorted pair keys u * V + v of its participants
    into one buffer sized for every pair of every sequence, and the keys are
    counted at once. With ``c``, a pair counts in a sequence only when its
    active intervals there overlap by more than ``c``. The returned ``v`` and
    counts are views of the key buffer and of the runs' first indices.
    """
    if not d.sequences:
        raise ValueError("dataset is empty")
    V = len(d.registry)
    participants = list(_participants(d))
    # a key is below V * V: int32 keys, half the buffer, whenever they fit
    buf = np.empty(sum(len(idx) * (len(idx) - 1) // 2 for idx, _, _ in participants),
                   dtype=np.int32 if V * V <= _INT32_KEYS else np.int64)
    n_pairs = 0
    for idx, lo, hi in participants:
        order = np.argsort(idx)
        idx = idx[order]
        iu, iv = np.triu_indices(len(idx), 1)
        pairs = idx[iu] * V + idx[iv]
        if c is not None:
            lo, hi = lo[order], hi[order]
            pairs = pairs[np.minimum(hi[iu], hi[iv]) - np.maximum(lo[iu], lo[iv]) > c]
        buf[n_pairs:n_pairs + len(pairs)] = pairs
        n_pairs += len(pairs)
    del participants
    # np.unique(keys, return_counts=True) in place. Edge k's key sits at
    # first[k] >= k, so v[k], an int32 written over key k (int32 keys) or
    # k // 2 (int64 keys), never lands on a key still to be read; the buffer
    # then shrinks to v. The count of each run overwrites its first index,
    # and first ends with n_pairs.
    keys = buf[:n_pairs]
    keys.sort()
    starts = np.empty(n_pairs + 1, dtype=bool)
    starts[:1] = starts[-1:] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:-1])
    first = np.flatnonzero(starts)
    del starts
    n_edges = len(first) - 1
    u = np.empty(n_edges, dtype=np.int32)
    v = buf.view(np.int32)[:n_edges]
    for s in _slices(n_edges):
        np.divmod(keys[first[s]], V, out=(u[s], v[s]))
    del keys, v
    buf.resize(-(-4 * n_edges // buf.itemsize), refcheck=False)  # no view of buf is left
    counts = first[:-1].view(np.float64)
    for s in _slices(n_edges):
        counts[s] = np.diff(first[s.start:s.stop + 1])
    return u, buf.view(np.int32)[:n_edges], counts


def co_occurrence(d: Dataset) -> KnowledgeGraph:
    """Raw weights: number of sequences containing both accounts.

    Presence counts once per sequence regardless of how often an account
    appears in it.
    """
    return KnowledgeGraph(d.registry.keys, *_pair_counts(d), "none")


def filter_power(g: KnowledgeGraph, p: float, in_place: bool = False) -> KnowledgeGraph:
    """Elementwise p-th power of the raw co-occurrence counts; same edges.

    ``g`` is left as it is, unless ``in_place``: then its weight array is
    raised to the power and becomes the new graph's, so ``g`` must not be
    used again. That is for a caller that holds the only use of a freshly
    counted ``g``, and saves a second weight array.
    """
    if p < 1:
        raise ValueError("power exponent must be >= 1")
    if g.filter_tag != "none":
        raise ValueError(f"expected raw co-occurrence weights, got {g.filter_tag!r}")
    weight = np.power(g.weight, p, out=g.weight if in_place else None)
    return KnowledgeGraph(g.accounts, g.u, g.v, weight, f"power(p={p:g})")


def filter_temporal_logic(d: Dataset, c: float) -> KnowledgeGraph:
    """Count co-appearances only when active intervals overlap by more than c.

    An account's active interval within a sequence spans its first to last
    event there; a single appearance gives a point interval, so it can never
    satisfy a positive threshold.
    """
    if c < 0:
        raise ValueError("overlap threshold must be non-negative")
    return KnowledgeGraph(d.registry.keys, *_pair_counts(d, c), f"temporal_logic(c={c:g})")


# Pads the fixed-width byte rows that save_graph assembles its lines from.
# 0xFF never occurs in UTF-8, while NUL may occur in a key.
_PAD = 0xFF


def _fixed_width(items: list) -> np.ndarray:
    """(len(items), max length) uint8 rows holding ``items`` (bytes), _PAD after each."""
    lengths = np.array([len(b) for b in items], dtype=np.intp)
    width = max(int(lengths.max(initial=0)), 1)
    rows = np.array(items, dtype=f"S{width}").view(np.uint8).reshape(len(items), width)
    rows[np.arange(width) >= lengths[:, None]] = _PAD
    return rows


# save_graph assembles about this many bytes of lines at once; its
# temporaries, a few times this, stay small beside the edge arrays
_LINE_BYTES = 2 ** 21


def save_graph(g: KnowledgeGraph, path) -> None:
    """CSV triplets ``u,v,weight``, one line per edge in edge order, tagged header.

    Keys are quoted CSV-style where they need it (``csv.reader`` reads them
    back) and weights are written with ``repr``. Each line is assembled from
    two per-account byte rows ``key,`` and one per-distinct-weight byte row
    holding the weight and the newline.
    """
    keys = _fixed_width([f"{_csv_field(a)},".encode("utf-8") for a in g.accounts])
    # a float's repr and its newline take at most 25 bytes
    step = max(1, _LINE_BYTES // (2 * keys.shape[1] + 25))
    with Path(path).open("wb") as fh:
        fh.write(f"# filter_tag={g.filter_tag} accounts={json.dumps(g.accounts)}\n"
                 .encode("utf-8"))
        fh.write(b"u,v,weight\n")
        for lo in range(0, len(g.weight), step):
            e = slice(lo, lo + step)
            values, which = np.unique(g.weight[e], return_inverse=True)
            weights = _fixed_width([f"{x!r}\n".encode("ascii") for x in values.tolist()])
            lines = np.concatenate([keys[g.u[e]], keys[g.v[e]], weights[which]], axis=1).ravel()
            fh.write(lines[lines != _PAD].tobytes())
