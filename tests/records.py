"""Datasets built from per-event records, and sequences read back as records."""

from coact.events import Dataset


def dataset(records, labels=None) -> Dataset:
    """The dataset of ``records``, (seq_id, [(account, t), ...]) pairs in order."""
    seq_ids, seq, account, t = [], [], [], []
    keys: dict = {}
    for i, (seq_id, events) in enumerate(records):
        seq_ids.append(seq_id)
        for key, x in events:
            seq.append(i)
            account.append(keys.setdefault(key, len(keys)))
            t.append(x)
    return Dataset.from_columns(seq_ids, seq, account, t, list(keys), labels)


def events(s) -> list:
    """The (account key, t) pairs of the sequence view ``s``, in order."""
    keys = s.registry.keys
    return [(keys[a], x) for a, x in zip(s.account.tolist(), s.t.tolist())]
