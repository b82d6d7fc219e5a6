import json
import tracemalloc

import numpy as np
import pytest

from coact.events import (
    DataError,
    load_dataset,
    load_labels,
    save_dataset,
    save_labels,
    split_long_sequences,
    train_val_test_split,
)
from coact.graph import _participants
from records import dataset, events


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_jsonl_basic(tmp_path):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}, {"account": "v", "t": 2.0}]}\n')
    d = load_dataset(p)
    assert len(d.sequences) == 1
    assert len(d.registry) == 2
    assert [a for a, _ in events(d.sequences[0])] == ["u", "v"]


def test_load_sorts_events(tmp_path):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "v", "t": 2.0}, {"account": "u", "t": 1.0}]}\n')
    d = load_dataset(p)
    assert [t for _, t in events(d.sequences[0])] == [1.0, 2.0]


def test_negative_timestamp_rejected(tmp_path):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "u", "t": -1.0}]}\n')
    with pytest.raises(DataError, match="negative timestamp"):
        load_dataset(p)


@pytest.mark.parametrize("json_t, csv_t", [("NaN", "nan"), ("Infinity", "inf"),
                                           ("-Infinity", "-inf"), ('"nan"', "NaN")])
def test_non_finite_timestamp_rejected(tmp_path, json_t, csv_t):
    # -inf must be caught as non-finite, not as negative
    p = write(tmp_path, "d.jsonl",
              f'{{"seq_id": "a", "events": [{{"account": "u", "t": {json_t}}}]}}\n')
    with pytest.raises(DataError, match="d.jsonl:1: non-finite timestamp"):
        load_dataset(p)
    p = write(tmp_path, "d.csv", f"seq_id,account,t\na,u,1.0\na,v,{csv_t}\n")
    with pytest.raises(DataError, match="d.csv:3: non-finite timestamp"):
        load_dataset(p)


def test_an_integer_timestamp_too_large_for_a_float_names_its_file_and_line(tmp_path):
    big = "1" * 401
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "u", "t": 1}]}\n'
              f'{{"seq_id": "b", "events": [{{"account": "u", "t": {big}}}]}}\n')
    with pytest.raises(DataError, match=f"d.jsonl:2: timestamp {big} is too large"):
        load_dataset(p)


def test_empty_file_rejected(tmp_path):
    p = write(tmp_path, "d.jsonl", "")
    with pytest.raises(DataError):
        load_dataset(p)


def test_parse_error_carries_line_number(tmp_path):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}]}\n{oops\n')
    with pytest.raises(DataError, match=":2"):
        load_dataset(p)


@pytest.mark.parametrize("line, message", [
    ('{"seq_id": "b", "events": [{"t": 1.0}]}', "account None is not a string or an integer"),
    ('{"seq_id": "b", "events": [{"account": null, "t": 1.0}]}',
     "account None is not a string or an integer"),
    ('{"seq_id": "b", "events": [{"account": true, "t": 1.0}]}',
     "account True is not a string or an integer"),
    ('{"seq_id": "b", "events": [{"account": 1.5, "t": 1.0}]}',
     "account 1.5 is not a string or an integer"),
    ('{"seq_id": "b", "events": [{"account": ["u"], "t": 1.0}]}',
     r"account \['u'\] is not a string or an integer"),
    ('{"seq_id": "b", "events": 5}', "'events' must be a list of objects"),
    ('{"seq_id": "b", "events": {"account": "u", "t": 1.0}}', "'events' must be a list of objects"),
    ('{"seq_id": "b", "events": [["u", 1]]}', "'events' must be a list of objects"),
    ('{"seq_id": "b", "events": [{"account": "u", "t": 1.0}, "u"]}',
     "'events' must be a list of objects"),
    ('{"seq_id": "b", "events": [{"account": "u", "t": true}]}', "timestamp True is not a number"),
    ('{"seq_id": "b", "events": [{"account": "u"}]}', "timestamp None is not a number"),
    ('{"seq_id": null, "events": []}', "seq_id None is not a string or an integer"),
    ('{"seq_id": [1], "events": []}', r"seq_id \[1\] is not a string or an integer"),
    ('{"seq_id": true, "events": []}', "seq_id True is not a string or an integer"),
    ('{"seq_id": 1.5, "events": []}', "seq_id 1.5 is not a string or an integer"),
    ('[{"seq_id": "b", "events": []}]', "need 'seq_id' and 'events'"),
    ('5', "need 'seq_id' and 'events'"),
])
def test_a_malformed_jsonl_event_names_its_file_and_line(tmp_path, line, message):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": 7, "t": 1.0}]}\n' + line + "\n")
    with pytest.raises(DataError, match=f"d.jsonl:2: {message}"):
        load_dataset(p)


def test_load_csv(tmp_path):
    p = write(tmp_path, "d.csv", "seq_id,account,t\ns1,u,1.0\ns1,v,2.5\ns2,w,0.0\n")
    d = load_dataset(p, format="csv")
    assert len(d.sequences) == 2
    assert d.sequences[0].seq_id == "s1"
    assert d.sequences[1].t[0] == 0.0


def test_csv_header_required(tmp_path):
    p = write(tmp_path, "d.csv", "s1,u,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_dataset(p, format="csv")


def test_min_account_count(tmp_path):
    lines = [
        '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}, {"account": "rare", "t": 2.0}]}',
        '{"seq_id": "b", "events": [{"account": "u", "t": 1.0}]}',
    ]
    p = write(tmp_path, "d.jsonl", "\n".join(lines) + "\n")
    d = load_dataset(p, min_account_count=2)
    assert "rare" not in d.registry
    assert len(d.registry) == 1


def test_duplicate_events_retained(tmp_path):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}, {"account": "u", "t": 1.0}]}\n')
    d = load_dataset(p)
    assert len(d.sequences[0]) == 2


def test_round_trip(tmp_path):
    p = write(tmp_path, "d.jsonl", "\n".join([
        '{"seq_id": "a", "events": [{"account": "v", "t": 2.0}, {"account": "u", "t": 1.25}]}',
        '{"seq_id": "b", "events": [{"account": "w", "t": 0.125}]}',
    ]) + "\n")
    d1 = load_dataset(p)
    out = tmp_path / "copy.jsonl"
    save_dataset(d1, out)
    d2 = load_dataset(out)
    assert d1 == d2
    # identical bytes load to identical registries
    out2 = tmp_path / "copy2.jsonl"
    save_dataset(d2, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_labels_round_trip(tmp_path):
    labels = {"u": 0, "v": 1}
    p = tmp_path / "labels.csv"
    save_labels(labels, p)
    assert load_labels(p) == labels


def test_labels_refuse_an_account_labelled_twice(tmp_path):
    p = tmp_path / "labels.csv"
    p.write_text("account,group\na,1\nb,0\na,0\n", encoding="utf-8")
    with pytest.raises(DataError, match="labels.csv:4: account 'a' is labelled twice"):
        load_labels(p)


def test_split_long_chunks():
    d = dataset([("s", [("u", float(i)) for i in range(300)])])
    out = split_long_sequences(d, 128)
    assert [len(s) for s in out.sequences] == [128, 128, 44]
    merged = [e for s in out.sequences for e in events(s)]
    assert merged == events(d.sequences[0])


def test_split_long_noop_below_limit():
    d = dataset([("s", [("u", float(i)) for i in range(5)])])
    out = split_long_sequences(d, 128)
    assert out.sequences[0].seq_id == "s"
    assert len(out.sequences) == 1


def test_split_long_remainder():
    d = dataset([("s", [("u", float(i)) for i in range(10)])])
    out = split_long_sequences(d, 3)
    assert [len(s) for s in out.sequences] == [3, 3, 3, 1]


def test_split_long_requires_min_two():
    d = dataset([("s", [("u", 0.0)])])
    with pytest.raises(ValueError):
        split_long_sequences(d, 1)


def test_split_preserves_counts():
    rng = np.random.default_rng(0)
    seqs = []
    for i in range(20):
        n = int(rng.integers(1, 40))
        ev = [(f"u{int(rng.integers(5))}", float(t)) for t in np.sort(rng.uniform(0, 10, n))]
        seqs.append((f"s{i}", ev))
    d = dataset(seqs)
    out = split_long_sequences(d, 7)
    assert out.n_events() == d.n_events()
    def account_counts(ds):
        counts = {}
        for s in ds.sequences:
            for account, _ in events(s):
                counts[account] = counts.get(account, 0) + 1
        return counts
    assert account_counts(out) == account_counts(d)


def make_dataset(n):
    return dataset([(f"s{i}", [("u", float(i))]) for i in range(n)])


def test_split_sizes():
    tr, va, te = train_val_test_split(make_dataset(100), (0.7, 0.15, 0.15), seed=1)
    assert (len(tr.sequences), len(va.sequences), len(te.sequences)) == (70, 15, 15)


def test_split_deterministic():
    d = make_dataset(50)
    a = train_val_test_split(d, (0.6, 0.2, 0.2), seed=5)
    b = train_val_test_split(d, (0.6, 0.2, 0.2), seed=5)
    for x, y in zip(a, b):
        assert [s.seq_id for s in x.sequences] == [s.seq_id for s in y.sequences]


def test_split_is_partition():
    d = make_dataset(41)
    tr, va, te = train_val_test_split(d, (0.7, 0.15, 0.15), seed=3)
    ids = [s.seq_id for part in (tr, va, te) for s in part.sequences]
    assert len(ids) == len(set(ids)) == 41


def test_split_rejects_oversum():
    with pytest.raises(ValueError):
        train_val_test_split(make_dataset(10), (0.8, 0.3, 0.1), seed=0)


@pytest.mark.parametrize("fractions,message", [
    ((0, 0, 1), "positive"), ((float("nan"), 0.1, 0.1), "finite"),
    ((float("inf"), 0.1, 0.1), "finite"), ((0.5, 0.5), "three")])
def test_split_rejects_fractions_that_are_not_three_finite_positive_parts(fractions, message):
    with pytest.raises(ValueError, match=message):
        train_val_test_split(make_dataset(10), fractions, seed=0)


@pytest.mark.parametrize("name, text", [
    ("d.jsonl", "\n".join([
        '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}, {"account": "v", "t": 2.0},'
        ' {"account": "u", "t": 3.0}]}',
        '{"seq_id": "b", "events": [{"account": "v", "t": 0.5}, {"account": "u", "t": 4.0},'
        ' {"account": 7, "t": 5.0}, {"account": "7", "t": 6.0}]}',
    ]) + "\n"),
    ("d.csv", "seq_id,account,t\na,u,1.0\na,v,2.0\nb,v,0.5\na,u,3.0\nb,u,4.0\nb,7,5.0\nb,7,6.0\n"),
])
def test_loaders_round_trip(tmp_path, name, text):
    d = load_dataset(write(tmp_path, name, text))
    assert sorted(d.registry.keys) == ["7", "u", "v"]
    out = tmp_path / "copy.jsonl"
    save_dataset(d, out)
    assert load_dataset(out) == d


# ---- the column layout, against per-event references ----

def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for seq_id, evs in records:
            fh.write(json.dumps({"seq_id": seq_id,
                                 "events": [{"account": a, "t": t} for a, t in evs]}) + "\n")
    return path


def random_records(rng, n_sequences=30, n_accounts=12):
    """(seq_id, [(account, t), ...]) records with repeated accounts, tied and
    unsorted times, and some empty sequences."""
    return [(f"s{i}", [(f"u{int(rng.integers(n_accounts))}", float(rng.integers(10)))
                       for _ in range(int(rng.integers(0, 25)))])
            for i in range(n_sequences)]


def canonical(records):
    """The loaders, event by event: each sequence's events stably sorted by
    time, empty sequences dropped, and the accounts by first appearance."""
    seqs = [(seq_id, sorted(evs, key=lambda e: e[1])) for seq_id, evs in records if evs]
    return seqs, list(dict.fromkeys(a for _, evs in seqs for a, _ in evs))


def as_records(d):
    return [(s.seq_id, events(s)) for s in d.sequences]


def test_loaded_columns_have_fixed_dtypes_and_offsets_from_zero_to_n_events(tmp_path):
    d = load_dataset(write_jsonl(tmp_path / "d.jsonl", random_records(np.random.default_rng(0))))
    assert (d.account.dtype, d.t.dtype, d.offsets.dtype) == (np.int32, np.float64, np.int64)
    assert d.offsets[0] == 0 and d.offsets[-1] == d.n_events() == len(d.account) == len(d.t)
    assert np.all(np.diff(d.offsets) > 0) and len(d.offsets) == len(d.seq_ids) + 1
    assert d.account.min() == 0 and d.account.max() == len(d.registry) - 1


def test_loaders_match_a_per_event_reference(tmp_path):
    rng = np.random.default_rng(1)
    for k in range(10):
        records = random_records(rng)
        d = load_dataset(write_jsonl(tmp_path / f"d{k}.jsonl", records))
        assert (as_records(d), d.registry.keys) == canonical(records)
        # the same rows in CSV, the sequences interleaved at random
        pending = [[(seq_id, a, t) for a, t in evs] for seq_id, evs in records if evs]
        rows = []
        while pending:
            rows.append(pending[int(rng.integers(len(pending)))].pop(0))
            pending = [p for p in pending if p]
        first = list(dict.fromkeys(seq_id for seq_id, _, _ in rows))
        p = write(tmp_path, f"d{k}.csv", "seq_id,account,t\n"
                  + "".join(f"{seq_id},{a},{t!r}\n" for seq_id, a, t in rows))
        by_id, got = dict(records), load_dataset(p)
        assert (as_records(got), got.registry.keys) == canonical([(i, by_id[i]) for i in first])


def test_a_csv_that_interleaves_sequences_loads_equal_to_the_same_jsonl(tmp_path):
    jsonl = write(tmp_path, "d.jsonl", "\n".join([
        '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}, {"account": "v", "t": 2.0},'
        ' {"account": "u", "t": 3.0}]}',
        '{"seq_id": "b", "events": [{"account": "v", "t": 0.5}, {"account": "u", "t": 4.0},'
        ' {"account": 7, "t": 5.0}]}',
    ]) + "\n")
    csv = write(tmp_path, "d.csv", "seq_id,account,t\na,u,1.0\nb,v,0.5\na,v,2.0\nb,u,4.0\n"
                                   "a,u,3.0\nb,7,5.0\n")
    assert load_dataset(csv) == load_dataset(jsonl)


def test_a_jsonl_seq_id_on_two_lines_stays_two_sequences(tmp_path):
    d = load_dataset(write_jsonl(tmp_path / "d.jsonl", [("a", [("u", 2.0)]), ("a", [("v", 1.0)])]))
    assert d.seq_ids == ["a", "a"]
    assert as_records(d) == [("a", [("u", 2.0)]), ("a", [("v", 1.0)])]


def test_min_account_count_matches_a_per_event_reference(tmp_path):
    rng = np.random.default_rng(2)
    for k in range(10):
        records = random_records(rng, n_accounts=20)
        m = int(rng.integers(2, 12))
        counts = {}
        for _, evs in records:
            for a, _ in evs:
                counts[a] = counts.get(a, 0) + 1
        kept = [(seq_id, [e for e in evs if counts[e[0]] >= m]) for seq_id, evs in records]
        d = load_dataset(write_jsonl(tmp_path / f"d{k}.jsonl", records), min_account_count=m)
        assert (as_records(d), d.registry.keys) == canonical(kept)


def test_split_long_sequences_matches_a_per_event_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = dataset(random_records(rng))
        max_len = int(rng.integers(2, 9))
        want = []
        for seq_id, evs in as_records(d):
            chunks = [evs[lo:lo + max_len] for lo in range(0, len(evs), max_len)]
            want += [(seq_id if len(chunks) == 1 else f"{seq_id}#{k}", c)
                     for k, c in enumerate(chunks)]
        out = split_long_sequences(d, max_len)
        assert as_records(out) == want and out.registry == d.registry


def test_train_val_test_split_matches_a_per_event_reference():
    rng = np.random.default_rng(4)
    for seed in range(10):
        d = dataset(random_records(rng))
        records = as_records(d)
        parts = train_val_test_split(d, (0.5, 0.3, 0.2), seed)
        n = len(records)
        order = np.random.default_rng(seed).permutation(n)
        n_tr, n_va = int(np.floor(0.5 * n + 1e-9)), int(np.floor(0.3 * n + 1e-9))
        bounds = [0, n_tr, n_tr + n_va, n]  # the rounding remainder goes to test
        for part, lo, hi in zip(parts, bounds, bounds[1:]):
            assert as_records(part) == [records[i] for i in sorted(order[lo:hi])]
            assert part.registry is d.registry


def test_participants_match_a_per_event_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = dataset(random_records(rng))
        want = []
        for i, s in enumerate(d.sequences):
            first, last = {}, {}
            for a, t in zip(s.account.tolist(), s.t.tolist()):
                first.setdefault(a, t)
                last[a] = t
            want += sorted((i, a, first[a], last[a]) for a in first)
        assert list(zip(*(x.tolist() for x in _participants(d)))) == want


def test_a_loaded_dataset_holds_under_32_bytes_per_event(tmp_path):
    rng = np.random.default_rng(6)
    p = tmp_path / "big.jsonl"
    with p.open("w", encoding="utf-8") as fh:
        for i in range(800):
            accounts = rng.integers(4000, size=125).tolist()
            times = np.sort(rng.uniform(0, 1e5, 125)).tolist()
            fh.write(json.dumps({"seq_id": f"s{i:04d}", "events": [
                {"account": f"acct{a:05d}", "t": t} for a, t in zip(accounts, times)]}) + "\n")
    tracemalloc.start()
    try:
        d = load_dataset(p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert d.n_events() == 100_000
    assert held / d.n_events() < 32, held / d.n_events()
