"""Marked event sequences: loading, validation, splitting, serialization.

A dataset is a list of event sequences, each an ordered run of
(account, timestamp) events, together with a registry mapping account keys
to dense indices 0..V-1. The registry is built canonically: accounts are
indexed in order of first appearance scanning the time-sorted sequences,
which keeps indices stable across save/reload of the same data.

The loaders hand every event of one account the same key string, and an
``Event`` has slots and no ``__dict__``, so a loaded dataset holds one key
string per account, not one per event.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Event",
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


@dataclass(frozen=True, slots=True)
class Event:
    account: str
    t: float


@dataclass
class EventSequence:
    seq_id: str
    events: list  # list[Event], timestamps non-decreasing

    def __len__(self):
        return len(self.events)


class AccountRegistry:
    """Bijection between account keys and dense indices."""

    def __init__(self, keys=()):
        self._keys: list[str] = []
        self._index: dict[str, int] = {}
        for k in keys:
            self.add(k)

    def add(self, key: str) -> int:
        if key not in self._index:
            self._index[key] = len(self._keys)
            self._keys.append(key)
        return self._index[key]

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


@dataclass
class Dataset:
    sequences: list
    registry: AccountRegistry
    labels: dict | None = None  # account key -> group index

    @classmethod
    def from_sequences(cls, sequences, labels=None) -> "Dataset":
        """Build with the canonical registry (first appearance in time order)."""
        seqs = []
        for s in sequences:
            ev = sorted(s.events, key=lambda e: e.t)  # stable: ties keep order
            seqs.append(EventSequence(s.seq_id, ev))
        registry = AccountRegistry()
        for s in seqs:
            for e in s.events:
                registry.add(e.account)
        return cls(seqs, registry, labels)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.registry == other.registry
            and self.labels == other.labels
            and len(self.sequences) == len(other.sequences)
            and all(
                a.seq_id == b.seq_id and a.events == b.events
                for a, b in zip(self.sequences, other.sequences)
            )
        )

    def n_events(self) -> int:
        return sum(len(s) for s in self.sequences)


def _check_event(account, t, where, keys: dict) -> Event:
    """The checked Event; ``keys`` maps each account key to the one copy events share.

    The account must be a string or an integer, and the timestamp a number or
    a string that parses as one; JSON's booleans are neither.
    """
    if type(account) is not str:
        if type(account) is not int:  # bool is a subclass of int, not int itself
            raise DataError(f"{where}: account {account!r} is not a string or an integer")
        account = str(account)
    try:
        t = float(None if type(t) is bool else t)  # float(True) would be 1.0
    except (TypeError, ValueError):
        raise DataError(f"{where}: timestamp {t!r} is not a number")
    if not math.isfinite(t):
        raise DataError(f"{where}: non-finite timestamp {t!r}")
    if t < 0:
        raise DataError(f"{where}: negative timestamp {t!r}")
    return Event(keys.setdefault(account, account), t)


def _parse_jsonl(path: Path):
    sequences = []
    keys: dict[str, str] = {}
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
            events = rec["events"]
            if not (isinstance(events, list) and all(isinstance(e, dict) for e in events)):
                raise DataError(f"{where}: 'events' must be a list of objects")
            events = [_check_event(e.get("account"), e.get("t"), where, keys) for e in events]
            sequences.append(EventSequence(str(rec["seq_id"]), events))
    return sequences


def _parse_csv(path: Path):
    by_id: dict[str, list] = {}
    order: list[str] = []
    keys: dict[str, str] = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip() for h in header] != ["seq_id", "account", "t"]:
            raise DataError(f"{path}:1: expected header 'seq_id,account,t'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            seq_id, account, t = row
            ev = _check_event(account, t, f"{path}:{lineno}", keys)
            if seq_id not in by_id:
                by_id[seq_id] = []
                order.append(seq_id)
            by_id[seq_id].append(ev)
    return [EventSequence(sid, by_id[sid]) for sid in order]


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
    sequences = _parse_jsonl(path) if format == "jsonl" else _parse_csv(path)
    sequences = [s for s in sequences if len(s.events) > 0]
    if not sequences:
        raise DataError(f"{path}: no event sequences found")
    if min_account_count and min_account_count > 1:
        counts: dict[str, int] = {}
        for s in sequences:
            for e in s.events:
                counts[e.account] = counts.get(e.account, 0) + 1
        kept = {a for a, c in counts.items() if c >= min_account_count}
        pruned = []
        for s in sequences:
            ev = [e for e in s.events if e.account in kept]
            if ev:
                pruned.append(EventSequence(s.seq_id, ev))
        if not pruned:
            raise DataError(f"{path}: min_account_count={min_account_count} removed everything")
        sequences = pruned
    return Dataset.from_sequences(sequences)


def save_dataset(d: Dataset, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for s in d.sequences:
            rec = {
                "seq_id": s.seq_id,
                "events": [{"account": e.account, "t": e.t} for e in s.events],
            }
            fh.write(json.dumps(rec) + "\n")


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
    reproduces the original event order.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    out = []
    for s in d.sequences:
        if len(s.events) <= max_len:
            out.append(s)
            continue
        for k, lo in enumerate(range(0, len(s.events), max_len)):
            out.append(EventSequence(f"{s.seq_id}#{k}", s.events[lo:lo + max_len]))
    return Dataset(out, d.registry, d.labels)


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
    n = len(d.sequences)
    order = np.random.default_rng(seed).permutation(n)
    n_tr = int(np.floor(f_tr * n + 1e-9))
    n_va = int(np.floor(f_va * n + 1e-9))
    if abs(total - 1.0) <= 1e-9:
        n_te = n - n_tr - n_va  # rounding remainder goes to test
    else:
        n_te = int(np.floor(f_te * n + 1e-9))
    parts = (
        order[:n_tr],
        order[n_tr:n_tr + n_va],
        order[n_tr + n_va:n_tr + n_va + n_te],
    )
    return tuple(
        Dataset([d.sequences[i] for i in sorted(idx)], d.registry, d.labels)
        for idx in parts
    )
