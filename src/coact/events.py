"""Marked event sequences held as columns: loading, validation, splitting, serialization.

A dataset holds its events in two columns, ``account`` (int32 registry
indices) and ``t`` (float64 timestamps), with the events of one sequence in
consecutive rows: sequence i is rows ``offsets[i]:offsets[i + 1]``, so the
int64 ``offsets`` run from 0 to the number of events, and no sequence is
empty. Within a sequence the timestamps are non-decreasing. ``seq_ids``
names the sequences, and ``Dataset.sequences`` gives per-sequence views of
the columns.

The registry maps account keys to dense indices 0..V-1. It is built
canonically: accounts are indexed in order of first appearance scanning the
time-sorted sequences, which keeps indices stable across save/reload of the
same data.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "EventSequence",
    "AccountRegistry",
    "Dataset",
    "DataError",
    "load_dataset",
    "save_dataset",
    "load_labels",
    "save_labels",
    "split_long_sequences",
    "check_fractions",
    "train_val_test_split",
]


class DataError(ValueError):
    """Malformed input file (message carries the offending line)."""


class AccountRegistry:
    """Bijection between distinct account keys and dense indices."""

    def __init__(self, keys=()):
        self._keys: list[str] = list(keys)
        self._index: dict[str, int] = {k: i for i, k in enumerate(self._keys)}

    def index(self, key: str) -> int:
        return self._index[key]

    @property
    def keys(self) -> list:
        return list(self._keys)

    def __len__(self):
        return len(self._keys)

    def __contains__(self, key):
        return key in self._index

    def __eq__(self, other):
        return isinstance(other, AccountRegistry) and self._keys == other._keys


@dataclass(frozen=True, eq=False, slots=True)
class EventSequence:
    """One sequence of a dataset: views of its rows of the columns."""

    seq_id: str
    account: np.ndarray  # registry indices
    t: np.ndarray        # non-decreasing
    registry: AccountRegistry

    def __len__(self):
        return len(self.t)


@dataclass(eq=False)
class Dataset:
    account: np.ndarray  # (n_events,) int32 registry indices
    t: np.ndarray        # (n_events,) float64
    offsets: np.ndarray  # (n_sequences + 1,) int64
    seq_ids: list
    registry: AccountRegistry
    labels: dict | None = None  # account key -> group index

    @classmethod
    def from_columns(cls, seq_ids, seq, account, t, keys, labels=None) -> "Dataset":
        """The events ``(seq_ids[seq[i]], keys[account[i]], t[i])``, canonically held.

        Each sequence's events are sorted by time (stable: ties keep their
        order), sequences without events are dropped, and the registry holds
        the accounts that occur, by first appearance in that order.
        """
        seq = np.asarray(seq, dtype=np.intp)
        t = np.asarray(t, dtype=np.float64)
        order = np.lexsort((t, seq))
        account = np.asarray(account, dtype=np.intp)[order]
        codes = account[np.sort(np.unique(account, return_index=True)[1])]  # by first appearance
        index = np.empty(len(keys), dtype=np.int32)
        index[codes] = np.arange(len(codes))
        lengths = np.bincount(seq, minlength=len(seq_ids))
        kept = lengths > 0
        return cls(index[account], t[order], np.concatenate(([0], np.cumsum(lengths[kept]))),
                   [sid for sid, k in zip(seq_ids, kept.tolist()) if k],
                   AccountRegistry([keys[c] for c in codes.tolist()]), labels)

    @property
    def sequences(self) -> list:
        """A view of each sequence's rows of the columns, made on each access."""
        bounds = self.offsets.tolist()
        return [EventSequence(sid, self.account[a:b], self.t[a:b], self.registry)
                for sid, a, b in zip(self.seq_ids, bounds, bounds[1:])]

    def event_seq(self) -> np.ndarray:
        """Each event's sequence position."""
        return np.repeat(np.arange(len(self.seq_ids)), np.diff(self.offsets))

    def take(self, rows) -> "Dataset":
        """The sequences at positions ``rows``, in that order, sharing the registry."""
        rows = np.asarray(rows, dtype=np.intp)
        lo, hi = self.offsets[rows], self.offsets[rows + 1]
        offsets = np.concatenate(([0], np.cumsum(hi - lo)))
        at = np.arange(offsets[-1]) + np.repeat(lo - offsets[:-1], hi - lo)
        return Dataset(self.account[at], self.t[at], offsets,
                       [self.seq_ids[i] for i in rows.tolist()], self.registry, self.labels)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.registry == other.registry and self.labels == other.labels
                and self.seq_ids == other.seq_ids
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("offsets", "account", "t")))

    def n_events(self) -> int:
        return int(self.offsets[-1])


def _key(value, what: str, where: str) -> str:
    """An account key or a sequence id, which must be a string or an integer."""
    if type(value) is str:
        return value
    if type(value) is int:  # bool is a subclass of int, not int itself
        return str(value)
    raise DataError(f"{where}: {what} {value!r} is not a string or an integer")


def _time(t, where: str) -> float:
    """A timestamp: a number, or a string that parses as one; JSON's booleans are neither."""
    try:
        t = float(None if type(t) is bool else t)  # float(True) would be 1.0
    except (TypeError, ValueError):
        raise DataError(f"{where}: timestamp {t!r} is not a number")
    except OverflowError:  # a JSON integer beyond the largest float
        raise DataError(f"{where}: timestamp {t!r} is too large")
    if not math.isfinite(t):
        raise DataError(f"{where}: non-finite timestamp {t!r}")
    if t < 0:
        raise DataError(f"{where}: negative timestamp {t!r}")
    return t


def _parse_jsonl(path: Path) -> tuple:
    """``Dataset.from_columns`` arguments: one sequence per line."""
    # typed arrays, so parsing holds no Python number per event
    seq_ids, seq, account, t = [], array("q"), array("q"), array("d")
    keys: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})")
            if not isinstance(rec, dict) or "seq_id" not in rec or "events" not in rec:
                raise DataError(f"{path}:{lineno}: need 'seq_id' and 'events'")
            where = f"{path}:{lineno}"
            seq_ids.append(_key(rec["seq_id"], "seq_id", where))
            events = rec["events"]
            if not (isinstance(events, list) and all(isinstance(e, dict) for e in events)):
                raise DataError(f"{where}: 'events' must be a list of objects")
            for e in events:
                key = _key(e.get("account"), "account", where)
                account.append(keys.setdefault(key, len(keys)))
                t.append(_time(e.get("t"), where))
            seq.extend([len(seq_ids) - 1] * len(events))
    return seq_ids, seq, account, t, list(keys)


def _parse_csv(path: Path) -> tuple:
    """``Dataset.from_columns`` arguments: rows of one seq_id form a sequence."""
    seq, account, t = array("q"), array("q"), array("d")
    seq_ids: dict[str, int] = {}
    keys: dict[str, int] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is not None and [h.strip() for h in header] != ["seq_id", "account", "t"]:
            raise DataError(f"{path}:1: expected header 'seq_id,account,t'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            seq_id, key, stamp = row
            t.append(_time(stamp, f"{path}:{lineno}"))
            account.append(keys.setdefault(key, len(keys)))
            seq.append(seq_ids.setdefault(seq_id, len(seq_ids)))
    return list(seq_ids), seq, account, t, list(keys)


def load_dataset(path, format=None, min_account_count: int = 0) -> Dataset:
    """Load a dataset from JSON-lines or CSV.

    ``min_account_count`` (off by default) drops accounts with fewer total
    events than the threshold, then drops sequences left empty.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {format!r}")
    d = Dataset.from_columns(*(_parse_jsonl(path) if format == "jsonl" else _parse_csv(path)))
    if not d.seq_ids:
        raise DataError(f"{path}: no event sequences found")
    if min_account_count and min_account_count > 1:
        rows = (np.bincount(d.account) >= min_account_count)[d.account]
        d = Dataset.from_columns(d.seq_ids, d.event_seq()[rows], d.account[rows], d.t[rows],
                                 d.registry.keys)
        if not d.seq_ids:
            raise DataError(f"{path}: min_account_count={min_account_count} removed everything")
    return d


def save_dataset(d: Dataset, path) -> None:
    keys = d.registry.keys
    with Path(path).open("w", encoding="utf-8") as fh:
        for s in d.sequences:
            events = [{"account": keys[a], "t": t}
                      for a, t in zip(s.account.tolist(), s.t.tolist())]
            fh.write(json.dumps({"seq_id": s.seq_id, "events": events}) + "\n")


def load_labels(path) -> dict:
    """Labels file: CSV ``account,group``."""
    path = Path(path)
    labels: dict[str, int] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["account", "group"]:
            raise DataError(f"{path}:1: expected header 'account,group'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 columns")
            try:
                g = int(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: group {row[1]!r} is not an integer")
            if g < 0:
                raise DataError(f"{path}:{lineno}: negative group index")
            if row[0] in labels:
                raise DataError(f"{path}:{lineno}: account {row[0]!r} is labelled twice")
            labels[row[0]] = g
    return labels


def _csv_field(text: str) -> str:
    """``text`` as one field of a CSV line that ``csv.reader`` reads back.

    Quoted, with inner quotes doubled, only when it holds a comma, a quote
    or a line break, so plain keys are written as they are.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def save_labels(labels: dict, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("account,group\n")
        for account, group in labels.items():
            fh.write(f"{_csv_field(account)},{group}\n")


def split_long_sequences(d: Dataset, max_len: int) -> Dataset:
    """Chop sequences into contiguous chunks of at most ``max_len`` events.

    Chunk ids get a ``#k`` suffix; concatenating a sequence's chunks in order
    reproduces the original event order. The columns are shared, not copied.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    chunks = -(-np.diff(d.offsets) // max_len)
    first = np.cumsum(chunks) - chunks  # each sequence's first chunk
    k = np.arange(chunks.sum()) - np.repeat(first, chunks)  # chunk within its sequence
    offsets = np.append(np.repeat(d.offsets[:-1], chunks) + k * max_len, d.offsets[-1])
    seq_ids = [f"{sid}#{j}" if n > 1 else sid
               for sid, n in zip(d.seq_ids, chunks.tolist()) for j in range(n)]
    return Dataset(d.account, d.t, offsets, seq_ids, d.registry, d.labels)


def check_fractions(fractions) -> tuple:
    """The train/val/test ``fractions`` as a tuple of floats.

    Raises ``ValueError`` unless there are three, each finite and positive,
    and they sum to at most 1.
    """
    parts = tuple(float(f) for f in fractions)
    if len(parts) != 3:
        raise ValueError(f"expected three fractions, got {len(parts)}")
    if not all(math.isfinite(f) and f > 0 for f in parts):
        raise ValueError(f"fractions must be finite and positive, got {parts}")
    total = parts[0] + parts[1] + parts[2]
    if total > 1.0 + 1e-9:
        raise ValueError(f"fractions sum to {total:g} > 1")
    return parts


def train_val_test_split(d: Dataset, fractions, seed: int):
    """Deterministic sequence-level partition; splits share the registry."""
    f_tr, f_va, f_te = check_fractions(fractions)
    total = f_tr + f_va + f_te
    n = len(d.seq_ids)
    order = np.random.default_rng(seed).permutation(n)
    n_tr = int(np.floor(f_tr * n + 1e-9))
    n_va = int(np.floor(f_va * n + 1e-9))
    if abs(total - 1.0) <= 1e-9:
        n_te = n - n_tr - n_va  # rounding remainder goes to test
    else:
        n_te = int(np.floor(f_te * n + 1e-9))
    bounds = (0, n_tr, n_tr + n_va, n_tr + n_va + n_te)
    return tuple(d.take(np.sort(order[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))
