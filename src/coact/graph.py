"""Prior-knowledge account graph: co-appearance weights plus filtering.

Edge weights count the sequences in which two accounts both appear. Two
filters sharpen the raw counts: an elementwise power (exponent p >= 1),
and a temporal-overlap rule that only counts a sequence when the accounts'
[first, last] activity intervals inside it overlap by more than a
threshold. The pairwise potential used downstream normalizes each edge by
1/sqrt(d_u d_v), which is where low-value edges get suppressed.

A graph is stored as a sorted upper-triangle edge list ``(u, v, level)``
and a small float64 table ``values``: edge k's weight is ``values[level[k]]``,
so its memory grows with the number of edges, not with the square of the
number of accounts. The edge ends are uint16 while the graph has at most
65 536 accounts and int32 above that (at most 2**31 - 1 accounts), and a
level is the narrowest unsigned type that indexes the table. Every weight
the builders make is a count of sequences, raw or raised to a power, so
their table holds one weight per count up to the largest, and a graph holds
6 bytes per edge up to 65 536 accounts and 65 536 sequences (5 while no pair
shares more than 256 sequences); the power filter powers only the table.
The coupling w_uv / sqrt(d_u d_v) is not kept, per edge or at all: both
products with it scale the beliefs around one degree-free edge product W Y
(``KnowledgeGraph._couple``), which gathers each slice's weights from the
table and touches no degree. ``KnowledgeGraph.couple``, the E-step's, is
s * W (s * q) with s = 1/sqrt(d) (0 on an isolated account), and
``regularized_spectrum``, EM's start, runs the same product with
regularised degrees. The builders count the account pairs of each sequence
in one preallocated key buffer (int32 keys while V * V fits in them), and that
buffer then holds the second edge ends. Counting needs, beside the sorted
keys, only the first end and the level of each edge (its count less one):
where each run of equal keys ends is found slice by slice. Every pass over the edges, validation
included, runs in slices of ``COUPLE_EDGES`` and gathers its weights from
the table, so no full-size temporary, and no whole-array intp copy of the
narrow ends or levels (numpy makes one for each fancy index or ``bincount``
they are given), sits beside the edge arrays. The degrees are summed with
``np.add.at`` slice by slice: it adds the weights one edge at a time in edge
order, as one ``np.bincount`` over all edges would, so the bits stay those
of the unsliced sum, where adding per-slice ``bincount`` totals would not.
Dense (V, V) views (``w``, ``coupling()``) are built on demand for tests and
small instances.
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
    "regularized_spectrum",
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


def _end_type(n: int) -> type:
    """The edge ends' dtype on n accounts: uint16 while it indexes them all, else int32."""
    return np.uint16 if n <= 2 ** 16 else np.int32


def _level_type(n: int) -> np.dtype:
    """The levels' dtype for a table of n weights: the narrowest unsigned type indexing it."""
    return np.min_scalar_type(max(n - 1, 0))


def _indices(x, n: int, dtype_of, name: str, out_of_range: str) -> np.ndarray:
    """``x`` as indices into n items, of ``dtype_of(n)``, checked against n before narrowing.

    The caller's values must be integers, else "``name`` must be integers":
    floats only when integral (an empty list is float). A value outside
    [0, n) raises ``out_of_range`` before the cast could wrap it.
    """
    x = np.asarray(x)
    if not (np.issubdtype(x.dtype, np.integer)
            or (np.issubdtype(x.dtype, np.floating) and (x == np.floor(x)).all())):
        raise ValueError(f"{name} must be integers")
    if x.size and not (x.min() >= 0 and x.max() < n):
        raise ValueError(out_of_range)
    return x.astype(dtype_of(n), copy=False)


@dataclass
class KnowledgeGraph:
    """Account keys and a sorted upper-triangle edge list, validated on creation.

    Edge k joins accounts ``u[k] < v[k]`` with weight ``values[level[k]]``.
    The edges are sorted row-major (by u, then by v) and distinct, and every
    value is finite and positive; a pair without an edge has weight 0. So
    the weights are those of a symmetric (V, V) matrix with a zero diagonal.
    An edge takes 6 bytes up to 65 536 accounts and 65 536 values.
    """

    accounts: list             # account keys; u and v index into them
    u: np.ndarray              # (E,) first account of each edge (see _end_type)
    v: np.ndarray              # (E,) second account of each edge, u < v, same dtype
    level: np.ndarray          # (E,) each edge's index into values (see _level_type)
    values: np.ndarray         # the weights, each finite and > 0
    filter_tag: str = "none"

    def __post_init__(self):
        n = self.n
        if n > np.iinfo(np.int32).max:
            raise ValueError("a graph holds at most 2**31 - 1 accounts")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("values must be a vector")
        if not ((self.values > 0) & (self.values < np.inf)).all():
            raise ValueError("weights must be finite and positive")
        if len({np.shape(self.u), np.shape(self.v), np.shape(self.level)}) != 1 \
                or np.ndim(self.level) != 1:
            raise ValueError("u, v and level must be vectors of one length")
        ends = _end_type, "edge ends", "edges must join two accounts u < v"
        self.u, self.v = _indices(self.u, n, *ends), _indices(self.v, n, *ends)
        self.level = _indices(self.level, len(self.values), _level_type, "levels",
                              "levels must index the values")
        for s in _slices(len(self.u)):
            # each slice's order check starts at the last edge of the one before
            p = slice(max(s.start - 1, 0), s.stop)
            u, v, pu, pv = self.u[s], self.v[s], self.u[p], self.v[p]
            if not (u < v).all():
                raise ValueError("edges must join two accounts u < v")
            if not ((pu[1:] > pu[:-1]) | ((pu[1:] == pu[:-1]) & (pv[1:] > pv[:-1]))).all():
                raise ValueError("edges must be sorted row-major and distinct")

    @property
    def n(self) -> int:
        return len(self.accounts)

    @property
    def weight(self) -> np.ndarray:
        """(E,) edge weights, built on each access: for tests and small instances."""
        return self.values[self.level]

    @cached_property
    def deg(self) -> np.ndarray:
        """(V,) weighted degree of each account: its sum over u plus its sum over v."""
        du, dv = np.zeros(self.n), np.zeros(self.n)
        for s in _slices(len(self.u)):
            w = self.values.take(self.level[s])
            np.add.at(du, self.u[s], w)
            np.add.at(dv, self.v[s], w)
        return du + dv

    @cached_property
    def row_sums(self) -> np.ndarray:
        """(V,) B 1, each account's coupling summed over its neighbours.

        The Jacobi sweep derives its last belief column from it.
        """
        return self.couple(np.ones((self.n, 1)))[:, 0]

    def _b_slice(self, s: slice, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """w_uv / sqrt(d_u d_v) for the edges in slice ``s``, whose ends are ``u`` and ``v``."""
        d = self.deg[u]
        np.multiply(d, self.deg[v], out=d)
        np.sqrt(d, out=d)
        return np.divide(self.values.take(self.level[s]), d, out=d)

    @property
    def b(self) -> np.ndarray:
        """(E,) per-edge coupling w_uv / sqrt(d_u d_v), built on each access.

        The graph does not keep it, and ``couple`` does not form it: for
        tests, small instances and the Gauss-Seidel layout (``_rows``).
        """
        out = np.empty(len(self.u))
        for s in _slices(len(self.u)):
            out[s] = self._b_slice(s, self.u[s], self.v[s])
        return out

    @cached_property
    def _rows(self) -> tuple:
        """Both orientations of every edge grouped by row: (row starts, columns, couplings)."""
        ends = np.concatenate([self.u, self.v])
        starts = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=self.n))])
        order = np.argsort(ends, kind="stable")
        b = self.b
        return starts, np.concatenate([self.v, self.u])[order], np.concatenate([b, b])[order]

    def couple(self, q: np.ndarray, row: int | None = None) -> np.ndarray:
        """sum_v B_uv q_v for every account u, as a (V, M) array like ``q``.

        B q = s * W (s * q) with s = 1/sqrt(d), and s = 0 on an isolated
        account, whose row of B is empty: the beliefs are scaled around the
        degree-free product ``_couple``, so no edge's coupling is formed.
        With ``row``, only that account's (M,) sum, from its slice of a
        layout that lists both orientations of each edge by row; that layout
        is built on the first such call.
        """
        if row is not None:
            starts, cols, b = self._rows
            lo, hi = starts[row], starts[row + 1]
            return b[lo:hi] @ q[cols[lo:hi]]
        s = np.zeros((self.n, 1))
        np.divide(1.0, np.sqrt(self.deg)[:, None], out=s, where=self.deg[:, None] > 0)
        return s * self._couple(s * q)

    def _couple(self, y: np.ndarray) -> np.ndarray:
        """W y: sum_v w_uv y_v for every account u, as a (V, M) array like ``y``.

        Each slice of edges gathers its weights from the table, and each
        column then takes two gathers and two ``np.bincount`` calls.
        """
        out = np.zeros_like(y)
        for s in _slices(len(self.u), max(COUPLE_EDGES, self.n)):
            u, v = self.u[s].astype(np.intp), self.v[s].astype(np.intp)
            w = self.values.take(self.level[s])
            for m in range(y.shape[1]):
                ym = y[:, m]
                out[:, m] += np.bincount(u, w * ym[v], self.n) + np.bincount(v, w * ym[u], self.n)
        return out

    def _dense(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for s in _slices(len(self.u)):
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


# regularized_spectrum stops once every wanted Ritz pair has |B x - theta x|
# below SPECTRAL_TOL (x a unit vector, and B's norm is at most 1), or after
# SPECTRAL_MAX_ITER products with B
SPECTRAL_TOL = 1e-6
SPECTRAL_MAX_ITER = 200


def _orthonormal(X: np.ndarray, *against: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the span of ``X``'s columns with the spans of
    the orthonormal blocks ``against`` projected out (twice, for rounding);
    directions that projection all but removes are dropped."""
    for _ in range(2):
        for A in against:
            X = X - A @ (A.T @ X)
    U, sv, _ = np.linalg.svd(X, full_matrices=False)
    return U[:, sv > sv[:1] * 1e-8]


def regularized_spectrum(g: KnowledgeGraph, k: int) -> tuple:
    """The k largest eigenvalues after the top one of the graph's regularised
    coupling B_tau, their unit eigenvectors, and the products with B_tau used.

    B_tau = D_tau^{-1/2} (W + (tau/V)(11^T - I)) D_tau^{-1/2}, where tau is the
    mean weighted degree and d_tau = d + tau (V - 1)/V: every pair of accounts
    gains the weight tau/V (Qin & Rohe, "Regularized Spectral Clustering under
    the Degree-Corrected Stochastic Blockmodel", NIPS 2013). Its top
    eigenvector is sqrt(d_tau), of eigenvalue 1, and is projected out. The
    product scales the block around the graph's one degree-free edge product
    (``KnowledgeGraph._couple``): B_tau X = s (W Y + (tau/V)(1(1^T Y) - Y))
    with s = d_tau^{-1/2} and Y = s X, so no (V, V) array is made.

    The iteration is a block Rayleigh-Ritz method on min(k + 2, V - 1)
    columns from a fixed random start: each step adds the residuals of the k
    wanted columns to the block, takes B_tau's Ritz pairs on that span, and
    keeps the largest; the other columns only guard the wanted ones, so each
    step multiplies at most k columns by B_tau. It ascends the Rayleigh
    quotients, so it finds the largest eigenvalues even where a negative one
    has a larger modulus, as power iteration would not. Returns (values (k,),
    vectors (V, k), products), where ``products`` counts the blocks
    multiplied by B_tau.
    """
    V = g.n
    if not 1 <= k <= V - 1:
        raise ValueError(f"a graph of {V} accounts has no {k} eigenvectors after its top one")
    tau = g.deg.sum() / V
    d_tau = g.deg + tau * (V - 1) / V
    scale = 1.0 / np.sqrt(d_tau)[:, None]
    top = np.sqrt(d_tau)[:, None] / np.sqrt(d_tau.sum())

    def product(X):
        Y = X * scale
        return scale * (g._couple(Y) + (tau / V) * (Y.sum(axis=0) - Y))

    p = min(k + 2, V - 1)
    # a fixed start: the eigenvectors are a function of the graph alone
    basis = _orthonormal(np.random.default_rng(0).standard_normal((V, p)), top)
    image, products = product(basis), 1
    while True:
        H = basis.T @ image
        theta, C = np.linalg.eigh((H + H.T) / 2)
        theta, C = theta[::-1][:p], C[:, ::-1][:, :p]
        X, AX = basis @ C, image @ C
        R = AX - X * theta
        if np.linalg.norm(R[:, :k], axis=0).max() < SPECTRAL_TOL or products == SPECTRAL_MAX_ITER:
            break
        W = _orthonormal(R[:, :k], top, X)
        if not W.shape[1]:
            break
        basis, image = np.hstack([X, W]), np.hstack([AX, product(W)])
        products += 1
    return theta[:k], X[:, :k], products


def _participants(d: Dataset) -> tuple:
    """Each account's run of events in each sequence, sorted by sequence, then
    account: (sequence positions, accounts, first and last event times, which
    bound the account's active interval there)."""
    seq = d.event_seq()
    # one stable sort by (sequence, account): a run keeps its time order
    order = np.argsort(seq * len(d.registry) + d.account, kind="stable")
    seq, account = seq[order], d.account[order]
    first = np.flatnonzero(np.diff(seq, prepend=-1) | np.diff(account, prepend=-1))
    last = np.append(first[1:], len(order)) - 1
    return seq[first], account[first].astype(np.intp), d.t[order[first]], d.t[order[last]]


_INT32_KEYS = np.iinfo(np.int32).max  # the largest V * V with int32 pair keys


def _pair_counts(d: Dataset, c: float | None = None) -> tuple:
    """Edge arrays (u, v, level) and the table ``values`` of the counts 1 to
    the largest: edge k's accounts are both in ``values[level[k]]`` sequences.

    Each sequence writes the sorted pair keys u * V + v of its participants
    into one buffer sized for every pair of every sequence, and the keys are
    counted at once. With ``c``, a pair counts in a sequence only when its
    active intervals there overlap by more than ``c``. The returned ``v`` is
    a view of the key buffer.
    """
    if not d.seq_ids:
        raise ValueError("dataset is empty")
    V = len(d.registry)
    seq, idx, lo, hi = _participants(d)
    n = np.bincount(seq, minlength=len(d.seq_ids))  # participants per sequence
    # a key is below V * V: int32 keys, half the buffer, whenever they fit
    buf = np.empty(int((n * (n - 1) // 2).sum()),
                   dtype=np.int32 if V * V <= _INT32_KEYS else np.int64)
    n_pairs, ends = 0, np.cumsum(n).tolist()
    for a, b in zip([0, *ends], ends):  # each sequence's participants
        iu, iv = (i + a for i in np.triu_indices(b - a, 1))
        pairs = idx[iu] * V + idx[iv]
        if c is not None:
            pairs = pairs[np.minimum(hi[iu], hi[iv]) - np.maximum(lo[iu], lo[iv]) > c]
        buf[n_pairs:n_pairs + len(pairs)] = pairs
        n_pairs += len(pairs)
    del seq, idx, lo, hi
    # np.unique(keys, return_counts=True) in place, in slices of the sorted
    # keys: a slice finds where its runs end from its keys and the next one,
    # once to count the edges and again to write them. Edge k's key is read
    # at index >= k, and v[k], narrower than a key, lands within a key at
    # index <= k, so never on a key still to be read; the buffer then
    # shrinks to v. Each count is the distance between the last indices of
    # consecutive runs, and a level is that less one.
    keys = buf[:n_pairs]
    keys.sort()

    def run_ends(s: slice) -> np.ndarray:
        """The indices in ``s`` where a run of equal keys ends."""
        at = np.flatnonzero(np.diff(keys[s.start:s.stop + 1]))
        if s.stop == n_pairs:  # the last key ends the last run
            at = np.append(at, s.stop - 1 - s.start)
        at += s.start
        return at

    n_edges = sum(len(run_ends(s)) for s in _slices(n_pairs))
    end = _end_type(V)
    u = np.empty(n_edges, dtype=end)
    v = buf.view(end)[:n_edges]
    # a pair counts at most once per sequence
    level = np.empty(n_edges, dtype=_level_type(len(d.seq_ids)))
    k, prev = 0, -1  # edges written so far, and the last index of the latest run
    for s in _slices(n_pairs):
        at = run_ends(s)
        if len(at):
            e = slice(k, k + len(at))
            u[e], v[e] = np.divmod(keys[at], V)
            level[e] = np.diff(at, prepend=prev) - 1
            k, prev = e.stop, at[-1]
    del keys, v
    buf.resize(-(-u.nbytes // buf.itemsize), refcheck=False)  # no view of buf is left
    return u, buf.view(end)[:n_edges], level, np.arange(1.0, int(level.max(initial=0)) + 2)


def co_occurrence(d: Dataset) -> KnowledgeGraph:
    """Raw weights: number of sequences containing both accounts.

    Presence counts once per sequence regardless of how often an account
    appears in it.
    """
    return KnowledgeGraph(d.registry.keys, *_pair_counts(d), "none")


def filter_power(g: KnowledgeGraph, p: float) -> KnowledgeGraph:
    """Elementwise p-th power of the raw co-occurrence counts; same edges.

    The new graph shares ``g``'s edge and level arrays and powers only its
    table of values, so ``g`` is left as it is and no per-edge array is made.
    """
    if p < 1:
        raise ValueError("power exponent must be >= 1")
    if g.filter_tag != "none":
        raise ValueError(f"expected raw co-occurrence weights, got {g.filter_tag!r}")
    return KnowledgeGraph(g.accounts, g.u, g.v, g.level, np.power(g.values, p),
                          f"power(p={p:g})")


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
# temporaries, a few times this, stay small beside the edge arrays, and so
# does what they leave resident on the heap after the call
_LINE_BYTES = 2 ** 18


def save_graph(g: KnowledgeGraph, path) -> None:
    """CSV triplets ``u,v,weight``, one line per edge in edge order, tagged header.

    Keys are quoted CSV-style where they need it (``csv.reader`` reads them
    back) and weights are written with ``repr``. Each line is assembled from
    two per-account byte rows ``key,`` and the byte row of its level, which
    holds the weight and the newline.
    """
    keys = _fixed_width([f"{_csv_field(a)},".encode("utf-8") for a in g.accounts])
    weights = _fixed_width([f"{x!r}\n".encode("ascii") for x in g.values.tolist()])
    step = max(1, _LINE_BYTES // (2 * keys.shape[1] + weights.shape[1]))
    with Path(path).open("wb") as fh:
        fh.write(f"# filter_tag={g.filter_tag} accounts={json.dumps(g.accounts)}\n"
                 .encode("utf-8"))
        fh.write(b"u,v,weight\n")
        for e in _slices(len(g.u), step):
            lines = np.concatenate([keys[g.u[e]], keys[g.v[e]], weights[g.level[e]]],
                                   axis=1).ravel()
            fh.write(lines[lines != _PAD].tobytes())
