"""Seeded input files for the benchmark workloads.

``planted`` data comes from the library's own Hawkes simulator. ``scale``
data comes from a small numpy generator here: the Hawkes thinning sampler
costs O(V) per proposal, which is far too slow at thousands of accounts.
The generator plants one coordinated block that piles into shared short
windows of "campaign" sequences, on top of independent background activity.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HORIZON = 259_200.0  # three days, in seconds


def write_planted(out: Path, tag: str, seed: int, n_normal=80, n_coord=20, strength=1.0,
                  n_sequences=120) -> tuple:
    """Simulate one planted scenario; returns (data path, labels path)."""
    from coact import make_planted_scenario, save_dataset, save_labels

    _, data = make_planted_scenario(n_normal, n_coord, strength=strength, seed=seed,
                                    n_sequences=n_sequences)
    data_path, labels_path = out / f"{tag}.jsonl", out / f"{tag}-labels.csv"
    save_dataset(data, data_path)
    save_labels(data.labels, labels_path)
    return data_path, labels_path


def write_scale(out: Path, tag: str, seed: int, n_accounts=4000, coord_frac=0.05, n_sequences=600,
                normal_rate=100.0, campaign_prob=0.3, coord_join=0.3,
                window=7200.0) -> tuple:
    """Background activity plus planted co-participation in shared windows.

    Each sequence draws about ``normal_rate`` background participants, each
    posting 1 + Poisson(0.5) events at uniform times. A campaign sequence
    (probability ``campaign_prob``) is also joined by each coordinated account
    with probability ``coord_join``, all posting inside one window of
    ``window`` seconds. Every account appears at least once, so the registry
    holds all ``n_accounts``.
    """
    rng = np.random.default_rng(seed)
    V = n_accounts
    n_coord = int(round(coord_frac * V))
    coord = rng.choice(V, size=n_coord, replace=False)
    is_coord = np.zeros(V, dtype=bool)
    is_coord[coord] = True
    keys = [f"u{v:05d}" for v in range(V)]

    seq_accounts, seq_times = [], []
    for _ in range(n_sequences):
        who = np.nonzero(rng.random(V) < normal_rate / V)[0]
        reps = 1 + rng.poisson(0.5, size=len(who))
        acc = np.repeat(who, reps)
        t = rng.uniform(0.0, HORIZON, size=len(acc))
        if rng.random() < campaign_prob:
            joined = coord[rng.random(n_coord) < coord_join]
            reps = 1 + rng.poisson(0.5, size=len(joined))
            lo = rng.uniform(0.0, HORIZON - window)
            acc = np.concatenate([acc, np.repeat(joined, reps)])
            t = np.concatenate([t, rng.uniform(lo, lo + window, size=reps.sum())])
        seq_accounts.append(acc)
        seq_times.append(t)

    seen = np.zeros(V, dtype=bool)
    for acc in seq_accounts:
        seen[acc] = True
    for v in np.nonzero(~seen)[0]:
        i = int(rng.integers(n_sequences))
        seq_accounts[i] = np.append(seq_accounts[i], v)
        seq_times[i] = np.append(seq_times[i], rng.uniform(0.0, HORIZON))

    data_path, labels_path = out / f"{tag}.jsonl", out / f"{tag}-labels.csv"
    with data_path.open("w", encoding="utf-8") as fh:
        for i, (acc, t) in enumerate(zip(seq_accounts, seq_times)):
            order = np.argsort(t, kind="stable")
            events = [{"account": keys[a], "t": float(x)} for a, x in zip(acc[order], t[order])]
            fh.write(json.dumps({"seq_id": f"s{i:04d}", "events": events}) + "\n")
    with labels_path.open("w", encoding="utf-8") as fh:
        fh.write("account,group\n")
        for v in range(V):
            fh.write(f"{keys[v]},{int(is_coord[v])}\n")
    return data_path, labels_path


def rename_accounts(src_data: Path, src_labels: Path, out: Path, seed,
                    src_revealed: Path | None = None) -> tuple:
    """Copy the inputs with every account key replaced by a seeded random key.

    The detector indexes accounts by first appearance, so a renaming changes
    no number it computes; only the key strings differ. Writes
    ``data.jsonl``, ``labels.csv`` and, if given, ``revealed.csv`` under
    ``out``. Returns the mapping from old to new keys and the set of new keys
    that occur in the data.
    """
    rng = np.random.default_rng(seed)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def new_key(old: str) -> str:
        if old not in mapping:
            key = f"a{int(rng.integers(1 << 44)):011x}"
            while key in used:
                key = f"a{int(rng.integers(1 << 44)):011x}"
            used.add(key)
            mapping[old] = key
        return mapping[old]

    with src_data.open(encoding="utf-8") as fin, \
            (out / "data.jsonl").open("w", encoding="utf-8") as fout:
        for line in fin:
            rec = json.loads(line)
            for e in rec["events"]:
                e["account"] = new_key(e["account"])
            fout.write(json.dumps(rec) + "\n")
    in_data = set(mapping.values())
    for src, name in ((src_labels, "labels.csv"), (src_revealed, "revealed.csv")):
        if src is None:
            continue
        lines = src.read_text(encoding="utf-8").split()
        rows = [line.split(",") for line in lines[1:]]
        (out / name).write_text(
            lines[0] + "\n" + "".join(f"{new_key(a)},{g}\n" for a, g in rows), encoding="utf-8")
    return mapping, in_data


def write_revealed(labels_path: Path, out: Path, tag: str, seed: int, frac=0.2) -> Path:
    """Reveal ``frac`` of each truth group (stratified), as a labels CSV."""
    rows = [line.split(",") for line in labels_path.read_text(encoding="utf-8").split()[1:]]
    rng = np.random.default_rng(seed)
    picked = []
    for group in sorted({g for _, g in rows}):
        members = [a for a, g in rows if g == group]
        k = max(1, int(round(frac * len(members))))
        picked += [(members[i], group) for i in sorted(rng.choice(len(members), k, replace=False))]
    path = out / f"{tag}-revealed.csv"
    path.write_text("account,group\n" + "".join(f"{a},{g}\n" for a, g in picked),
                    encoding="utf-8")
    return path
