"""Prior-knowledge account graph: co-appearance weights plus filtering.

Edge weights count the sequences in which two accounts both appear. Two
filters sharpen the raw counts: an elementwise power (exponent p >= 1),
and a temporal-overlap rule that only counts a sequence when the accounts'
[first, last] activity intervals inside it overlap by more than a
threshold. The pairwise potential used downstream normalizes each edge by
1/sqrt(d_u d_v), which is where low-value edges get suppressed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .events import Dataset, _csv_field

__all__ = [
    "KnowledgeGraph",
    "co_occurrence",
    "filter_power",
    "filter_temporal_logic",
    "save_graph",
    "load_graph",
]


# Whole-matrix passes over a dense (V, V) array run in blocks of rows with
# about this many entries, so their temporaries stay small next to the array.
BLOCK_ENTRIES = 2 ** 20


def _row_blocks(n: int):
    """Slices covering rows 0..n of an (n, n) array, about BLOCK_ENTRIES each."""
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


@dataclass
class KnowledgeGraph:
    """Account keys and their dense (V, V) edge weights, validated on creation.

    The checks run in row blocks of about BLOCK_ENTRIES entries, in this
    order, and give the same verdicts as the whole-matrix tests
    ``np.allclose(w, w.T)``, ``diag(w) == 0`` and ``isfinite(w) & (w >= 0)``:

    - symmetry: each block of rows equals the matching block of columns
      exactly, or failing that within ``np.allclose``'s tolerances;
    - a zero diagonal;
    - every weight in [0, inf), one comparison pair per block, which also
      rejects NaN.
    """

    accounts: list             # account keys, index-aligned with w
    w: np.ndarray              # (V, V) symmetric, zero diagonal, >= 0
    filter_tag: str = "none"
    deg: np.ndarray = field(init=False)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        w = self.w
        n = len(self.accounts)
        if w.shape != (n, n):
            raise ValueError("weight matrix must be square over the accounts")
        if not all(np.array_equal(w[rows], w[:, rows].T) or np.allclose(w[rows], w[:, rows].T)
                   for rows in _row_blocks(n)):
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValueError("diagonal must be zero")
        for rows in _row_blocks(n):
            b = w[rows]
            if not ((b >= 0) & (b < np.inf)).all():
                raise ValueError("weights must be finite and non-negative")
        self.deg = w.sum(axis=1)

    @property
    def n(self) -> int:
        return len(self.accounts)

    def coupling(self) -> np.ndarray:
        """Degree-normalized weights w_uv / sqrt(d_u d_v); 0 for isolated nodes."""
        d = self.deg
        out = np.zeros_like(self.w)
        for rows in _row_blocks(self.n):
            denom = np.sqrt(np.outer(d[rows], d))
            np.divide(self.w[rows], denom, out=out[rows], where=denom > 0)
        return out


def _membership(d: Dataset) -> np.ndarray:
    """Binary (n_sequences, V) presence matrix."""
    Z = np.zeros((len(d.sequences), len(d.registry)), dtype=np.float64)
    for i, s in enumerate(d.sequences):
        for e in s.events:
            Z[i, d.registry.index(e.account)] = 1.0
    return Z


def co_occurrence(d: Dataset) -> KnowledgeGraph:
    """Raw weights: number of sequences containing both accounts.

    Presence counts once per sequence regardless of how often an account
    appears in it.
    """
    if not d.sequences:
        raise ValueError("dataset is empty")
    Z = _membership(d)
    w = Z.T @ Z
    np.fill_diagonal(w, 0.0)
    return KnowledgeGraph(d.registry.keys, w, "none")


def filter_power(g: KnowledgeGraph, p: float) -> KnowledgeGraph:
    """Elementwise p-th power of the raw co-occurrence counts."""
    if p < 1:
        raise ValueError("power exponent must be >= 1")
    if g.filter_tag != "none":
        raise ValueError(f"expected raw co-occurrence weights, got {g.filter_tag!r}")
    # pow(0, p) = 0 for p >= 1, so only the edges need the power
    w = np.zeros_like(g.w)
    np.power(g.w, p, out=w, where=g.w != 0)
    return KnowledgeGraph(g.accounts, w, f"power(p={p:g})")


def filter_temporal_logic(d: Dataset, c: float) -> KnowledgeGraph:
    """Count co-appearances only when active intervals overlap by more than c.

    An account's active interval within a sequence spans its first to last
    event there; a single appearance gives a point interval, so it can never
    satisfy a positive threshold.
    """
    if c < 0:
        raise ValueError("overlap threshold must be non-negative")
    if not d.sequences:
        raise ValueError("dataset is empty")
    V = len(d.registry)
    w = np.zeros((V, V))
    for s in d.sequences:
        first: dict[int, float] = {}
        last: dict[int, float] = {}
        for e in s.events:
            i = d.registry.index(e.account)
            if i not in first:
                first[i] = e.t
            last[i] = e.t
        idx = np.fromiter(first.keys(), dtype=np.intp)
        lo = np.fromiter(first.values(), dtype=np.float64)
        hi = np.fromiter(last.values(), dtype=np.float64)
        overlap = np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo)
        hit = (overlap > c).astype(np.float64)
        w[np.ix_(idx, idx)] += hit
    np.fill_diagonal(w, 0.0)
    return KnowledgeGraph(d.registry.keys, w, f"temporal_logic(c={c:g})")


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


def save_graph(g: KnowledgeGraph, path) -> None:
    """CSV triplets ``u,v,weight`` (upper triangle, nonzero), tagged header.

    Keys are quoted CSV-style where they need it (``csv.reader`` reads them
    back) and weights are written with ``repr``. Each line is assembled from
    two per-account byte rows ``key,`` and one per-distinct-weight byte row
    holding the weight and the newline.
    """
    keys = _fixed_width([f"{_csv_field(a)},".encode("utf-8") for a in g.accounts])
    with Path(path).open("wb") as fh:
        fh.write(f"# filter_tag={g.filter_tag} accounts={json.dumps(g.accounts)}\n"
                 .encode("utf-8"))
        fh.write(b"u,v,weight\n")
        for rows in _row_blocks(g.n):
            block = g.w[rows]
            iu, iv = np.nonzero(np.triu(block, k=rows.start + 1))
            if not len(iu):
                continue
            values, which = np.unique(block[iu, iv], return_inverse=True)
            weights = _fixed_width([f"{x!r}\n".encode("ascii") for x in values.tolist()])
            # long keys must not blow up the bytes assembled at once
            step = max(1, 8 * BLOCK_ENTRIES // (2 * keys.shape[1] + weights.shape[1]))
            for lo in range(0, len(iu), step):
                e = slice(lo, lo + step)
                lines = np.concatenate(
                    [keys[iu[e] + rows.start], keys[iv[e]], weights[which[e]]], axis=1).ravel()
                fh.write(lines[lines != _PAD].tobytes())


def load_graph(path) -> KnowledgeGraph:
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
        w = np.zeros((len(accounts), len(accounts)))
        for row in csv.reader(fh):
            if not row:
                continue
            u, v, weight = row
            w[index[u], index[v]] = w[index[v], index[u]] = float(weight)
    return KnowledgeGraph(accounts, w, tag)
