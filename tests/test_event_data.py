import numpy as np
import pytest

from coact.events import (
    DataError,
    Dataset,
    Event,
    EventSequence,
    load_dataset,
    load_labels,
    save_dataset,
    save_labels,
    split_long_sequences,
    train_val_test_split,
)


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
    assert [e.account for e in d.sequences[0].events] == ["u", "v"]


def test_load_sorts_events(tmp_path):
    p = write(tmp_path, "d.jsonl",
              '{"seq_id": "a", "events": [{"account": "v", "t": 2.0}, {"account": "u", "t": 1.0}]}\n')
    d = load_dataset(p)
    assert [e.t for e in d.sequences[0].events] == [1.0, 2.0]


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
    assert d.sequences[1].events[0].t == 0.0


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
    assert len(d.sequences[0].events) == 2


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


def test_split_long_chunks():
    events = [Event("u", float(i)) for i in range(300)]
    d = Dataset.from_sequences([EventSequence("s", events)])
    out = split_long_sequences(d, 128)
    assert [len(s) for s in out.sequences] == [128, 128, 44]
    merged = [e for s in out.sequences for e in s.events]
    assert merged == d.sequences[0].events


def test_split_long_noop_below_limit():
    d = Dataset.from_sequences([EventSequence("s", [Event("u", float(i)) for i in range(5)])])
    out = split_long_sequences(d, 128)
    assert out.sequences[0].seq_id == "s"
    assert len(out.sequences) == 1


def test_split_long_remainder():
    d = Dataset.from_sequences([EventSequence("s", [Event("u", float(i)) for i in range(10)])])
    out = split_long_sequences(d, 3)
    assert [len(s) for s in out.sequences] == [3, 3, 3, 1]


def test_split_long_requires_min_two():
    d = Dataset.from_sequences([EventSequence("s", [Event("u", 0.0)])])
    with pytest.raises(ValueError):
        split_long_sequences(d, 1)


def test_split_preserves_counts():
    rng = np.random.default_rng(0)
    seqs = []
    for i in range(20):
        n = int(rng.integers(1, 40))
        ev = [Event(f"u{int(rng.integers(5))}", float(t)) for t in np.sort(rng.uniform(0, 10, n))]
        seqs.append(EventSequence(f"s{i}", ev))
    d = Dataset.from_sequences(seqs)
    out = split_long_sequences(d, 7)
    assert out.n_events() == d.n_events()
    def account_counts(ds):
        counts = {}
        for s in ds.sequences:
            for e in s.events:
                counts[e.account] = counts.get(e.account, 0) + 1
        return counts
    assert account_counts(out) == account_counts(d)


def make_dataset(n):
    return Dataset.from_sequences(
        [EventSequence(f"s{i}", [Event("u", float(i))]) for i in range(n)]
    )


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


def test_event_has_slots_and_no_dict():
    e = Event("u", 1.0)
    assert not hasattr(e, "__dict__")
    with pytest.raises(AttributeError):
        e.t = 2.0


@pytest.mark.parametrize("name, text", [
    ("d.jsonl", "\n".join([
        '{"seq_id": "a", "events": [{"account": "u", "t": 1.0}, {"account": "v", "t": 2.0},'
        ' {"account": "u", "t": 3.0}]}',
        '{"seq_id": "b", "events": [{"account": "v", "t": 0.5}, {"account": "u", "t": 4.0},'
        ' {"account": 7, "t": 5.0}, {"account": "7", "t": 6.0}]}',
    ]) + "\n"),
    ("d.csv", "seq_id,account,t\na,u,1.0\na,v,2.0\nb,v,0.5\na,u,3.0\nb,u,4.0\nb,7,5.0\nb,7,6.0\n"),
])
def test_loaders_share_one_key_object_per_account_and_round_trip(tmp_path, name, text):
    def key_objects(d):
        ids = {}
        for s in d.sequences:
            for e in s.events:
                ids.setdefault(e.account, set()).add(id(e.account))
        return ids

    d = load_dataset(write(tmp_path, name, text))
    ids = key_objects(d)
    assert sorted(ids) == ["7", "u", "v"]
    assert all(len(i) == 1 for i in ids.values())
    assert all({id(k)} == ids[k] for k in d.registry.keys)
    out = tmp_path / "copy.jsonl"
    save_dataset(d, out)
    d2 = load_dataset(out)
    assert d2 == d
    assert all(len(i) == 1 for i in key_objects(d2).values())
