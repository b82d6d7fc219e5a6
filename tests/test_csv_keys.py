"""Account keys of any text survive every CSV file that holds them."""

import csv
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from coact.cli import read_result_csv, write_q_csv, write_result_csv
from coact.crf import MeanField
from coact.em import DetectionResult
from coact.events import _csv_field, load_labels, save_labels
from coact.graph import save_graph
from dense import dense_graph
from oracles import load_graph

# any text that UTF-8 can encode, with the awkward cases drawn often
AWKWARD = st.sampled_from([",", '"', '""', "\r", "\n", "\r\n", "\x00", "é,\x00", ""])
KEYS = st.lists(st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                          AWKWARD),
                min_size=1, max_size=8, unique=True)
SETTINGS = settings(max_examples=60, deadline=None)


def per_edge_save_graph(g, path):
    """Reference writer: one line per nonzero upper-triangle edge."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# filter_tag={g.filter_tag} accounts={json.dumps(g.accounts)}\n")
        fh.write("u,v,weight\n")
        rows, cols = np.nonzero(np.triu(g.w, k=1))
        for u, v in zip(rows, cols):
            fh.write(f"{_csv_field(g.accounts[u])},{_csv_field(g.accounts[v])},"
                     f"{float(g.w[u, v])!r}\n")


@SETTINGS
@given(keys=KEYS, seed=st.integers(0, 2 ** 32 - 1))
def test_graph_file_round_trips_any_key(tmp_path_factory, keys, seed):
    rng = np.random.default_rng(seed)
    n = len(keys)
    w = np.triu(rng.choice([0.0, 1.0, 8.0, 0.1 + rng.random()], size=(n, n)), 1)
    g = dense_graph(keys, w + w.T, "power(p=3)")
    tmp = tmp_path_factory.mktemp("graph")
    save_graph(g, tmp / "got.csv")
    per_edge_save_graph(g, tmp / "want.csv")
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
    back = load_graph(tmp / "got.csv")
    assert back.accounts == keys
    assert back.filter_tag == g.filter_tag
    assert np.array_equal(back.w, g.w)


@SETTINGS
@given(keys=KEYS, groups=st.lists(st.integers(0, 3), min_size=8, max_size=8))
def test_labels_file_round_trips_any_key(tmp_path_factory, keys, groups):
    labels = dict(zip(keys, groups))
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    save_labels(labels, path)
    assert load_labels(path) == labels


@SETTINGS
@given(keys=KEYS, seed=st.integers(0, 2 ** 32 - 1))
def test_result_files_round_trip_any_key(tmp_path_factory, keys, seed):
    rng = np.random.default_rng(seed)
    q = rng.dirichlet([1.0, 1.0], size=len(keys))
    scores = q[:, 1].copy()
    result = DetectionResult(
        accounts=keys, mean_field=MeanField(q), scores=scores,
        labels=(scores >= 0.5).astype(np.intp), group_of=q.argmax(axis=1),
        coordinated_group=1)
    tmp = tmp_path_factory.mktemp("result")
    write_result_csv(result, tmp / "result.csv")
    write_q_csv(result, tmp / "q_matrix.csv")
    assert read_result_csv(tmp / "result.csv") == [
        (a, float(s), int(s >= 0.5)) for a, s in zip(keys, scores)]
    with (tmp / "q_matrix.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["account", "q_0", "q_1"]
    assert [r[0] for r in rows[1:]] == keys
    assert np.array_equal(np.array([[float(x) for x in r[1:]] for r in rows[1:]]), q)


def test_plain_keys_are_written_unquoted(tmp_path):
    save_labels({"u1": 0, "a b": 1, "é": 1}, tmp_path / "labels.csv")
    assert (tmp_path / "labels.csv").read_text(encoding="utf-8") == \
        "account,group\nu1,0\na b,1\né,1\n"
    assert [_csv_field(k) for k in ("x,y", 'say "hi"', "a\rb")] == \
        ['"x,y"', '"say ""hi"""', '"a\rb"']
