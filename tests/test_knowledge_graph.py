import json
import tracemalloc
import warnings

import numpy as np
import pytest

from dense import dense_graph, regularized_coupling, weighted_graph

from coact import graph as graph_mod
from coact.crf import CrfParams, UnaryScorer, estep_converge, softmax_init
from coact.graph import (
    KnowledgeGraph,
    co_occurrence,
    filter_power,
    filter_temporal_logic,
    regularized_spectrum,
    save_graph,
)
from oracles import load_graph, potential
from records import dataset, events


def seq(sid, *pairs):
    return (sid, [(a, float(t)) for a, t in pairs])


def random_dataset(rng, n_accounts=8, n_sequences=12):
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        n = int(rng.integers(1, 10))
        ev = [
            (accounts[int(rng.integers(n_accounts))], float(t))
            for t in np.sort(rng.uniform(0, 100, n))
        ]
        seqs.append((f"s{i}", ev))
    return dataset(seqs)


def test_co_occurrence_example():
    d = dataset([
        seq("s1", ("A", 0), ("B", 1), ("A", 2)),
        seq("s2", ("B", 0), ("C", 1)),
    ])
    g = co_occurrence(d)
    i = d.registry.index
    assert g.w[i("A"), i("B")] == 1  # duplicate A counts once
    assert g.w[i("B"), i("C")] == 1
    assert g.w[i("A"), i("C")] == 0


def test_co_occurrence_disjoint_zero():
    d = dataset([seq("s1", ("A", 0)), seq("s2", ("B", 0))])
    g = co_occurrence(d)
    assert np.all(g.w == 0)


def test_co_occurrence_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = random_dataset(rng)
        g = co_occurrence(d)
        brute = np.zeros_like(g.w)
        for s in d.sequences:
            present = set(s.account.tolist())
            for i in present:
                for j in present:
                    if i != j:
                        brute[i, j] += 1
        # brute counted each ordered pair once per sequence
        assert np.array_equal(g.w, brute)


def presence_product(d):
    """Z.T @ Z of the (sequences, accounts) 0/1 presence matrix, zero diagonal."""
    Z = np.zeros((len(d.sequences), len(d.registry)))
    for i, s in enumerate(d.sequences):
        for a in s.account:
            Z[i, a] = 1.0
    w = Z.T @ Z
    np.fill_diagonal(w, 0.0)
    return w


def test_co_occurrence_equals_presence_matrix_product():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_accounts = int(rng.integers(2, 25))
        seqs = []
        for i in range(int(rng.integers(1, 40))):
            # a few accounts per sequence, most of them repeated; one in
            # five sequences holds a single account, often several times
            pool = rng.choice(n_accounts, size=1 if i % 5 == 0 else int(rng.integers(1, 6)))
            who = pool[rng.integers(len(pool), size=int(rng.integers(1, 12)))]
            seqs.append((f"s{i}", [(f"u{a}", float(t)) for a, t in
                                                zip(who, np.sort(rng.uniform(0, 50, len(who))))]))
        d = dataset(seqs)
        assert np.array_equal(co_occurrence(d).w, presence_product(d))

def test_filter_power_example():
    d = dataset([seq(f"s{k}", ("A", 0), ("B", 1)) for k in range(2)])
    g = filter_power(co_occurrence(d), 3.0)
    i = d.registry.index
    assert g.w[i("A"), i("B")] == 8.0
    assert g.filter_tag == "power(p=3)"


def test_filter_power_identity():
    rng = np.random.default_rng(1)
    d = random_dataset(rng)
    g = co_occurrence(d)
    assert np.array_equal(filter_power(g, 1.0).w, g.w)


def test_filter_power_matches_elementwise():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = random_dataset(rng)
        g = co_occurrence(d)
        assert np.array_equal(filter_power(g, 2.0).w, g.w * g.w)


def test_filter_power_rejects_small_exponent():
    d = dataset([seq("s", ("A", 0), ("B", 1))])
    with pytest.raises(ValueError):
        filter_power(co_occurrence(d), 0.5)


def test_filter_power_preserves_order():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, n_accounts=6, n_sequences=30)
    g = co_occurrence(d)
    gp = filter_power(g, 3.0)
    iu = np.triu_indices(g.n, k=1)
    order_raw = np.argsort(g.w[iu], kind="stable")
    order_pow = np.argsort(gp.w[iu], kind="stable")
    assert np.array_equal(order_raw, order_pow)


def test_temporal_logic_worked_example():
    # u active [0, 50000], v active [10000, 60000]: overlap 40000 <= 43200
    d = dataset([
        seq("s", ("u", 0), ("u", 50_000), ("v", 10_000), ("v", 60_000)),
    ])
    g = filter_temporal_logic(d, 43_200.0)
    i = d.registry.index
    assert g.w[i("u"), i("v")] == 0.0
    g2 = filter_temporal_logic(d, 39_999.0)
    assert g2.w[i("u"), i("v")] == 1.0


def test_temporal_logic_full_overlap_counted():
    d = dataset([
        seq("s", ("u", 0), ("v", 0), ("u", 100_000), ("v", 100_000)),
    ])
    g = filter_temporal_logic(d, 43_200.0)
    i = d.registry.index
    assert g.w[i("u"), i("v")] == 1.0


def test_temporal_logic_point_interval_never_counts():
    d = dataset([
        seq("s", ("u", 5), ("v", 0), ("v", 100_000)),
    ])
    g = filter_temporal_logic(d, 1e-9)
    i = d.registry.index
    assert g.w[i("u"), i("v")] == 0.0


def test_temporal_logic_rejects_negative_threshold():
    d = dataset([seq("s", ("u", 0))])
    with pytest.raises(ValueError):
        filter_temporal_logic(d, -1.0)


def test_temporal_logic_matches_bruteforce():
    rng = np.random.default_rng(11)
    for trial in range(50):
        d = random_dataset(rng)
        c = float(rng.uniform(0, 50))
        assert np.array_equal(filter_temporal_logic(d, c).w, temporal_bruteforce(d, c))


def temporal_bruteforce(d, c):
    """Dense temporal-logic weights by looping over every ordered pair of every sequence."""
    V = len(d.registry)
    brute = np.zeros((V, V))
    for s in d.sequences:
        first, last = {}, {}
        for account, t in events(s):
            k = d.registry.index(account)
            first.setdefault(k, t)
            last[k] = t
        keys = sorted(first)
        for a in keys:
            for b in keys:
                if a == b:
                    continue
                if min(last[a], last[b]) - max(first[a], first[b]) > c:
                    brute[a, b] += 1
    return brute


def test_pair_counter_matches_the_references_across_many_slices(monkeypatch):
    # the counter writes each slice's second ends over keys it has read, and
    # counts runs of equal keys that cross the seams between slices
    monkeypatch.setattr(graph_mod, "COUPLE_EDGES", 3)
    rng = np.random.default_rng(29)
    for _ in range(5):
        d = random_dataset(rng, n_accounts=30, n_sequences=40)
        g = co_occurrence(d)
        assert len(g.weight) > 10 * graph_mod.COUPLE_EDGES
        assert np.array_equal(g.w, presence_product(d))
        c = float(rng.uniform(0, 20))
        assert np.array_equal(filter_temporal_logic(d, c).w, temporal_bruteforce(d, c))


def test_int32_and_int64_pair_keys_count_the_same_graph(monkeypatch):
    rng = np.random.default_rng(31)
    d = random_dataset(rng, n_accounts=30, n_sequences=40)
    c = float(rng.uniform(0, 20))
    graphs = [co_occurrence(d), filter_temporal_logic(d, c)]
    V = len(d.registry)
    monkeypatch.setattr(graph_mod, "_INT32_KEYS", V * V - 1)  # int64 keys at this V
    for want, got in zip(graphs, [co_occurrence(d), filter_temporal_logic(d, c)]):
        for name in ("u", "v", "weight"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.u.dtype == got.v.dtype == np.uint16  # at most 2**16 accounts


def test_temporal_logic_bounded_by_co_occurrence():
    rng = np.random.default_rng(13)
    d = random_dataset(rng)
    g0 = co_occurrence(d)
    gt = filter_temporal_logic(d, 0.0)
    assert np.all(gt.w <= g0.w)


def test_pairwise_potential_values():
    # the pairwise reward of an edge is B_uv = w_uv / sqrt(d_u d_v), paid only
    # for equal labels: a lone edge of weight 4 pays 1.0, unequal labels 0
    g = dense_graph(["a", "b"], [[0.0, 4.0], [4.0, 0.0]])
    np.testing.assert_array_equal(g.coupling(), [[0.0, 1.0], [1.0, 0.0]])
    scorer = UnaryScorer(3, 2, hidden=4, seed=0)
    scorer.params["W2"].data = np.zeros_like(scorer.params["W2"].data)
    scorer.params["b2"].data = np.zeros_like(scorer.params["b2"].data)
    crf = CrfParams(scorer, g)
    E = np.zeros((2, 3))
    assert potential(np.array([1, 1]), crf, E) == 1.0
    assert potential(np.array([0, 1]), crf, E) == 0.0


def test_pairwise_potential_isolated_node():
    g = dense_graph(["a", "b", "c"], [[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = g.coupling()
    assert B[0, 1] == 1.0
    assert B[0, 2] == 0.0
    assert not B[2].any() and not B[:, 2].any()


def test_pairwise_potential_symmetry():
    rng = np.random.default_rng(5)
    w = rng.uniform(0, 3, (5, 5))
    w = np.triu(w, 1)
    w = w + w.T
    B = dense_graph([f"u{i}" for i in range(5)], w).coupling()
    for _ in range(50):
        u, v = rng.integers(5, size=2)
        a, b = rng.integers(3, size=2)
        assert B[u, v] * (a == b) == B[v, u] * (b == a)
    np.testing.assert_array_equal(B, B.T)


def test_coupling_spectral_norm_at_most_one():
    # D^-1/2 W D^-1/2 is similar to the random-walk matrix D^-1 W, so its
    # eigenvalues lie in [-1, 1] whatever the weights; row sums are no bound
    n = 21
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0  # 20-leaf star
    B = dense_graph([f"u{i}" for i in range(n)], w).coupling()
    assert B[0].sum() == pytest.approx(np.sqrt(20))
    assert abs(np.linalg.norm(B, 2) - 1.0) <= 1e-12
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        keep = rng.random((n, n)) < rng.uniform(0.05, 1.0)  # sparse ones leave isolated nodes
        w = np.triu(rng.exponential(2.0, (n, n)) * keep, 1)
        B = dense_graph([f"u{i}" for i in range(n)], w + w.T).coupling()
        np.testing.assert_array_equal(B, B.T)
        assert np.linalg.norm(B, 2) <= 1.0 + 1e-12


def two_block_weights(rng, n, bipartite):
    """Random symmetric weights on n accounts in two blocks of n // 2: dense
    within blocks, or, with ``bipartite``, dense across them."""
    block = np.arange(n) < n // 2
    same = block[:, None] == block[None, :]
    dense = same != bipartite
    w = rng.exponential(1.0, (n, n)) * np.where(dense, 1.0, rng.random((n, n)) < 0.1)
    w = np.triu(w, 1)
    return w + w.T


@pytest.mark.parametrize("bipartite", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_regularized_spectrum_matches_a_dense_eigh(bipartite, k):
    rng = np.random.default_rng(10 * k + bipartite)
    for n in (3 + k, 10, 31):
        g = dense_graph([f"u{i}" for i in range(n)], two_block_weights(rng, n, bipartite))
        lam, vec = np.linalg.eigh(regularized_coupling(g))
        lam, vec = lam[::-1], vec[:, ::-1]
        assert lam[0] == pytest.approx(1.0, abs=1e-12)
        if bipartite and n > 10:
            # power iteration would find the negative eigenvalue first
            assert -lam[-1] > lam[1]
        values, vectors, products = regularized_spectrum(g, k)
        assert 1 <= products <= graph_mod.SPECTRAL_MAX_ITER
        np.testing.assert_allclose(values, lam[1:k + 1], rtol=0, atol=1e-9)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(k), rtol=0, atol=1e-12)
        for j in range(k):  # eigenvectors up to sign, where their eigenvalue is simple
            if min(abs(lam[j + 1] - lam[j]), abs(lam[j + 1] - lam[j + 2])) > 1e-3:
                assert abs(vectors[:, j] @ vec[:, j + 1]) == pytest.approx(1.0, abs=1e-8)


def test_regularized_spectrum_needs_k_below_the_account_count():
    g = dense_graph(["a", "b", "c"], np.ones((3, 3)) - np.eye(3))
    assert regularized_spectrum(g, 2)[1].shape == (3, 2)
    for k in (0, 3):
        with pytest.raises(ValueError, match="no .* eigenvectors"):
            regularized_spectrum(g, k)


def test_graph_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    d = random_dataset(rng)
    g = filter_power(co_occurrence(d), 3.0)
    p = tmp_path / "graph.csv"
    save_graph(g, p)
    g2 = load_graph(p)
    assert g2.accounts == g.accounts
    assert g2.filter_tag == g.filter_tag
    np.testing.assert_array_equal(g2.w, g.w)


def whole_matrix_save_graph(g, path):
    """Reference writer: one pass over the nonzero upper triangle."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# filter_tag={g.filter_tag} accounts={json.dumps(g.accounts)}\n")
        fh.write("u,v,weight\n")
        w = g.w
        rows, cols = np.nonzero(np.triu(w, k=1))
        for u, v in zip(rows, cols):
            fh.write(f"{g.accounts[u]},{g.accounts[v]},{float(w[u, v])!r}\n")


def sparse_graph(rng, n, density, n_isolated=0):
    """Random symmetric weights with arbitrary floats; the first nodes isolated."""
    w = np.triu(rng.exponential(1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    w[:n_isolated] = 0.0
    w[:, :n_isolated] = 0.0
    return dense_graph([f"u{i}" for i in range(n)], w + w.T, "power(p=2)")


def test_save_graph_matches_whole_matrix_writer(tmp_path):
    rng = np.random.default_rng(13)
    for n, density in ((1, 1.0), (2, 1.0), (7, 0.0), (60, 0.3), (400, 0.05)):
        g = sparse_graph(rng, n, density, n_isolated=n // 5)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_graph(g, got)
        whole_matrix_save_graph(g, want)
        assert got.read_bytes() == want.read_bytes()


def test_save_graph_in_many_chunks_matches_whole_matrix_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_mod, "_LINE_BYTES", 2 ** 10)
    test_save_graph_matches_whole_matrix_writer(tmp_path)


def dense_coupling(w):
    """w_uv / sqrt(d_u d_v) with dense row-sum degrees; 0 where a degree is 0."""
    d = w.sum(axis=1)
    denom = np.sqrt(np.outer(d, d))
    out = np.zeros_like(w)
    np.divide(w, denom, out=out, where=denom > 0)
    return d, out


def test_coupling_matches_one_shot_formula():
    g = sparse_graph(np.random.default_rng(14), 1500, 0.01, n_isolated=40)
    _, want = dense_coupling(g.w)
    assert np.all(want[:40] == 0)
    np.testing.assert_allclose(g.coupling(), want, rtol=1e-15, atol=0)


def test_integer_weights_give_the_dense_degrees_and_couplings_bit_for_bit():
    rng = np.random.default_rng(18)
    for n, density in ((2, 1.0), (30, 0.2), (300, 0.05)):
        w = np.triu(rng.integers(1, 50, (n, n)) * (rng.random((n, n)) < density), 1)
        w[: n // 6] = w[:, : n // 6] = 0  # isolated accounts
        w = (w + w.T).astype(float) ** 3
        g = dense_graph([f"u{i}" for i in range(n)], w)
        deg, B = dense_coupling(w)
        assert np.array_equal(g.deg, deg)
        assert np.array_equal(g.b, B[g.u, g.v])
        assert np.array_equal(g.coupling(), B)


def edges(n, rng, density=0.02):
    """A valid (u, v, weight) edge list over n accounts, in edge order."""
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, 1))
    return u, v, rng.exponential(1.0, len(u)) + 0.5


def test_graph_validation_checks_every_edge():
    n = 1500
    keys = [f"u{i}" for i in range(n)]
    u, v, w = edges(n, np.random.default_rng(15))
    weighted_graph(keys, u, v, w)
    for k in (0, len(u) // 2, len(u) - 1):  # first, middle and last edge
        for value in (0.0, -1.0, np.nan, np.inf):
            bad = w.copy()
            bad[k] = value
            with pytest.raises(ValueError, match="^weights must be finite and positive$"):
                weighted_graph(keys, u, v, bad)
        for vk in (u[k], u[k] - 1, n):  # on the diagonal, below it, past the last account
            bad = v.copy()
            bad[k] = vk
            with pytest.raises(ValueError):
                weighted_graph(keys, u, bad, w)


def test_graph_validation_verdicts():
    keys = ["a", "b", "c", "d"]
    weighted_graph(keys, [0, 0, 2], [1, 3, 3], [1.0, 2.0, 3.0])
    weighted_graph(keys, [], [], [])
    cases = [  # (u, v, weight, message)
        ([0, 0], [1], [1.0], "^u, v and level must be vectors of one length$"),
        ([[0]], [[1]], [[1.0]], "^u, v and level must be vectors of one length$"),
        ([1], [1], [1.0], "^edges must join two accounts u < v$"),
        ([2], [1], [1.0], "^edges must join two accounts u < v$"),
        ([-1], [1], [1.0], "^edges must join two accounts u < v$"),
        ([0], [4], [1.0], "^edges must join two accounts u < v$"),
        ([0, 0], [3, 1], [1.0, 1.0], "^edges must be sorted row-major and distinct$"),
        ([1, 0], [2, 3], [1.0, 1.0], "^edges must be sorted row-major and distinct$"),
        ([0, 0], [1, 1], [1.0, 1.0], "^edges must be sorted row-major and distinct$"),
        ([0], [1], [0.0], "^weights must be finite and positive$"),
        ([0], [1], [-0.0], "^weights must be finite and positive$"),
        ([0], [1], [-2.0], "^weights must be finite and positive$"),
        ([0], [1], [np.inf], "^weights must be finite and positive$"),
        ([0], [1], [np.nan], "^weights must be finite and positive$"),
    ]
    for u, v, w, message in cases:
        with pytest.raises(ValueError, match=message):
            weighted_graph(keys, u, v, w)


@pytest.mark.parametrize("p", [1.0, 2.5, 3.0])
def test_filter_power_equals_the_whole_matrix_power(p):
    rng = np.random.default_rng(16)
    for n, density in ((1, 1.0), (9, 0.0), (50, 0.3), (300, 0.05)):
        g = sparse_graph(rng, n, density)
        g.filter_tag = "none"
        powered = filter_power(g, p)
        assert powered.u is g.u and powered.v is g.v and powered.level is g.level
        got = powered.w
        want = g.w ** p
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def test_graph_validates_its_table_and_levels_not_each_weight():
    keys = ["a", "b", "c"]
    g = KnowledgeGraph(keys, [0, 1], [1, 2], [1, 1], [2.0, 3.0, 5.0], "none")
    assert g.level.dtype == np.uint8 and g.weight.tolist() == [3.0, 3.0]
    # levels narrow to the table: uint8 up to 256 values, uint16 above
    for n_values, dtype in ((256, np.uint8), (257, np.uint16)):
        g = KnowledgeGraph(keys, [0], [1], np.array([n_values - 1]), np.arange(1.0, n_values + 1))
        assert g.level.dtype == dtype and g.weight.tolist() == [n_values]
    cases = [  # (level, values, message)
        ([0, 2], [2.0, 3.0], "^levels must index the values$"),
        ([0, -1], [2.0, 3.0], "^levels must index the values$"),
        ([0, 0.5], [2.0, 3.0], "^levels must be integers$"),
        ([[0, 0]], [2.0], "^u, v and level must be vectors of one length$"),
        ([0, 0], [[2.0]], "^values must be a vector$"),
        ([0, 0], [2.0, np.nan], "^weights must be finite and positive$"),  # unused, still refused
        ([0, 0], [2.0, 0.0], "^weights must be finite and positive$"),
    ]
    for level, values, message in cases:
        with pytest.raises(ValueError, match=message):
            KnowledgeGraph(keys, [0, 1], [1, 2], level, values, "none")


def test_graph_validation_rejects_asymmetry():
    # an edge listed in both orientations, with two weights, is asymmetric
    with pytest.raises(ValueError):
        weighted_graph(["a", "b"], [0, 1], [1, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        dense_graph(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]))


def write_triplets(path, accounts, rows):
    path.write_text(f"# filter_tag=none accounts={json.dumps(accounts)}\nu,v,weight\n"
                    + "".join(f"{u},{v},{w}\n" for u, v, w in rows), encoding="utf-8")


def test_load_graph_keeps_the_last_weight_drops_zeros_and_rejects_self_pairs(tmp_path):
    p = tmp_path / "graph.csv"
    write_triplets(p, ["a", "b", "c", "d"], [
        ("c", "a", 1.0), ("a", "b", 5.0), ("a", "c", 2.0),  # (a, c) twice: 2.0 wins
        ("d", "b", 4.0), ("b", "d", 0.0),                   # (b, d) ends at 0: no edge
        ("b", "c", 0.0), ("c", "b", 3.0),                   # (b, c) ends at 3.0
        ("a", "d", 0.0),                                    # zero only: no edge
    ])
    g = load_graph(p)
    assert g.u.tolist() == [0, 0, 1] and g.v.tolist() == [1, 2, 2]
    assert g.weight.tolist() == [5.0, 2.0, 3.0]
    write_triplets(p, ["a", "b"], [("a", "b", 1.0), ("b", "b", 1.0)])
    with pytest.raises(ValueError, match="joins an account to itself"):
        load_graph(p)
    write_triplets(p, ["a", "b"], [("a", "b", -1.0)])
    with pytest.raises(ValueError, match="finite and positive"):
        load_graph(p)
    write_triplets(p, ["a", "b"], [])
    assert len(load_graph(p).weight) == 0


def test_a_20k_account_graph_builds_and_sweeps_in_edge_sized_memory():
    # a dense float64 (V, V) array would take 3.2 GB here
    V, n_seqs = 20_000, 2_000
    rng = np.random.default_rng(19)
    who = np.concatenate([rng.permutation(V), rng.integers(V, size=4 * n_seqs)])
    seqs = [(f"s{i}", [(f"u{a}", float(t)) for t, a in enumerate(part)])
            for i, part in enumerate(np.array_split(who, n_seqs))]
    d = dataset(seqs)
    assert len(d.registry) == V
    E = rng.normal(size=(V, 4))
    scorer = UnaryScorer(4, 2, hidden=4, seed=0)
    tracemalloc.start()
    try:
        g = filter_power(co_occurrence(d), 3.0)
        crf = CrfParams(scorer, g)
        mf, sweeps = estep_converge(crf, E, softmax_init(crf, E), max_iter=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sweeps == 1 and mf.q.shape == (V, 2)
    assert 100_000 < len(g.weight) < 200_000
    assert peak < 50 * 2 ** 20, peak / 2 ** 20


def test_edge_ends_must_be_integers_in_range_before_they_narrow():
    keys = ["a", "b", "c"]
    with pytest.raises(ValueError, match="^edge ends must be integers$"):
        weighted_graph(keys, [0.9], [1.7], [1.0])
    with pytest.raises(ValueError, match="^edge ends must be integers$"):
        weighted_graph(keys, [0], [np.nan], [1.0])
    # 2**32 and 2**32 + 1 would wrap to 0 and 1 in a plain int32 or uint16
    # cast, and 2**16 + 2 to 2 in a uint16 cast
    for u, v in (([0], [2 ** 32]), ([2 ** 32], [2 ** 32 + 1]), ([0], [float(2 ** 32)]),
                 ([0], [2 ** 16 + 2])):
        with pytest.raises(ValueError, match="^edges must join two accounts u < v$"):
            weighted_graph(keys, np.array(u), np.array(v), [1.0])
    g = weighted_graph(keys, np.array([0.0, 1.0]), np.array([2.0, 2.0]), [1.0, 2.0])
    assert g.u.dtype == g.v.dtype == np.uint16  # at most 2**16 accounts
    assert g.u.tolist() == [0, 1] and g.v.tolist() == [2, 2]


def test_graph_rejects_more_accounts_than_int32_can_index():
    class TooMany(list):
        def __len__(self):
            return 2 ** 31

    with pytest.raises(ValueError, match="at most 2\\*\\*31 - 1 accounts"):
        KnowledgeGraph(TooMany(), [0], [1], [0], [1.0], "none")


@pytest.mark.parametrize("V", [2 ** 16, 2 ** 16 + 1])
def test_edge_ends_are_uint16_up_to_65536_accounts_and_int32_above(V, tmp_path):
    # blocks of 8 consecutive accounts, registered in order, and a sequence
    # joining the first account to the last; V * V needs int64 pair keys
    top = V - 1
    blocks = [(f"b{lo}", [(f"u{a}", 0.0) for a in range(lo, min(lo + 8, V))])
              for lo in range(0, V, 8)]
    d = dataset([*blocks, seq("ends", ("u0", 0), (f"u{top}", 1))])
    assert d.registry.keys[top] == f"u{top}"
    g = co_occurrence(d)
    assert g.u.dtype == g.v.dtype == (np.uint16 if V <= 2 ** 16 else np.int32)
    assert (g.u[7], g.v[7], g.weight[7]) == (0, top, 1.0)  # after 0's block mates 1..7
    u, v, w = g.u.astype(np.intp), g.v.astype(np.intp), g.weight
    assert len(w) == 28 * (V // 8) + 1 and (u < v).all()
    deg = np.bincount(u, w, V) + np.bincount(v, w, V)
    assert np.array_equal(g.deg, deg) and g.deg[top] == (8 if V % 8 == 0 else 1)
    q = np.random.default_rng(5).random((V, 2))
    b = w / np.sqrt(deg[u] * deg[v])
    want = np.stack([np.bincount(u, b * q[v, m], V) + np.bincount(v, b * q[u, m], V)
                     for m in range(2)], axis=1)
    assert np.allclose(g.couple(q), want, rtol=1e-12, atol=0)
    assert np.allclose(g.couple(q, row=top), want[top], rtol=1e-12, atol=0)
    save_graph(g, tmp_path / "g.csv")
    back = load_graph(tmp_path / "g.csv")
    assert back.u.dtype == g.u.dtype
    for name in ("u", "v", "weight"):
        assert np.array_equal(getattr(back, name), getattr(g, name)), name
    with pytest.raises(ValueError, match="^edges must join two accounts u < v$"):
        KnowledgeGraph(g.accounts, [0], [V], [0], [1.0], "none")


def edge_dominated_dataset(V=3000, n_seqs=60, size=250, seed=20):
    """n_seqs sequences of ``size`` distinct accounts, and one single-event sequence per account."""
    rng = np.random.default_rng(seed)
    seqs = [(f"a{a}", [(f"u{a}", 0.0)]) for a in range(V)]
    for i in range(n_seqs):
        who = rng.choice(V, size, replace=False)
        seqs.append((f"s{i}", [(f"u{a}", float(t)) for t, a in enumerate(who)]))
    return dataset(seqs)


@pytest.mark.parametrize("power", [None, 3.0])
def test_graph_build_and_one_sweep_peak_at_11_bytes_per_edge(power, tmp_path):
    # counting peaks with the int32 key buffer, 4 bytes per counted pair,
    # which ends as the v array, beside u and the uint16 levels; u, v and the
    # levels, narrowed to uint8, then hold 5 bytes per edge and powering adds
    # none. The coupling is not kept: the sweep and save_graph add only their
    # slices' temporaries, about 3 MB, where one (E,) float64 would take 12 MB
    d = edge_dominated_dataset()
    E = np.random.default_rng(21).normal(size=(len(d.registry), 4))
    scorer = UnaryScorer(4, 2, hidden=4, seed=0)
    tracemalloc.start()
    try:
        g = co_occurrence(d)
        if power is not None:
            g = filter_power(g, power)
        built, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        crf = CrfParams(scorer, g)
        mf, sweeps = estep_converge(crf, E, softmax_init(crf, E), max_iter=1)
        save_graph(g, tmp_path / "graph.csv")
        after = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert sweeps == 1 and mf.q.shape == (3000, 2)
    assert 1_500_000 < len(g.u) < 1_560_000
    assert peak / len(g.u) <= 11, peak / len(g.u)
    assert after < 4 * 2 ** 20, after / 2 ** 20
    assert g.u.dtype == g.v.dtype == np.uint16  # at most 2**16 accounts
    assert g.level.dtype == np.uint8  # no pair shares more than 256 sequences


def test_filter_power_shares_the_edges_and_levels_and_powers_a_new_table():
    d = edge_dominated_dataset(60, 4, 20, seed=3)
    raw = co_occurrence(d)
    counts = np.arange(1.0, raw.weight.max() + 1)  # the table of every count to the largest
    assert np.array_equal(raw.values, counts) and raw.level.dtype == np.uint8
    powered = filter_power(raw, 2.0)
    assert powered.u is raw.u and powered.v is raw.v and powered.level is raw.level
    assert powered.values is not raw.values and np.array_equal(raw.values, counts)
    assert np.array_equal(powered.values, counts ** 2.0)
    assert np.array_equal(powered.weight, raw.weight ** 2.0)


@pytest.mark.parametrize("k", [graph_mod.COUPLE_EDGES - 1, graph_mod.COUPLE_EDGES])
def test_graph_rejects_a_bad_edge_on_either_side_of_a_slice_seam(k):
    # validation runs in slices of COUPLE_EDGES edges; edge k is the last of
    # the first slice or the first of the second
    iu, iv = np.triu_indices(400, 1)
    assert len(iu) > graph_mod.COUPLE_EDGES + 1
    keys = [f"a{i}" for i in range(400)]
    ones = np.zeros(len(iu), dtype=np.uint8)  # every edge at level 0, of weight 1
    KnowledgeGraph(keys, iu, iv, ones, [1.0], "none")

    def rejects(u, v, level, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            KnowledgeGraph(keys, u, v, level, [1.0], "none")

    u, v = iu.copy(), iv.copy()
    u[k], v[k] = v[k], u[k]
    rejects(u, v, ones, "edges must join two accounts u < v")
    u, v = iu.copy(), iv.copy()
    v[k] = u[k]
    rejects(u, v, ones, "edges must join two accounts u < v")
    for j in (k - 1, k):  # edges j and j + 1 swapped: only that pair is out of order
        u, v = iu.copy(), iv.copy()
        u[[j, j + 1]], v[[j, j + 1]] = u[[j + 1, j]], v[[j + 1, j]]
        rejects(u, v, ones, "edges must be sorted row-major and distinct")
    u, v = iu.copy(), iv.copy()
    u[k], v[k] = u[k - 1], v[k - 1]
    rejects(u, v, ones, "edges must be sorted row-major and distinct")
    level = ones.copy()
    level[k] = 1  # past the one-value table
    rejects(iu, iv, level, "levels must index the values")


def unsliced(g):
    """deg, b, couple and couple(row=...) by the whole-array formulas on intp copies of the ends."""
    u, v, w, n = g.u.astype(np.intp), g.v.astype(np.intp), g.weight, g.n
    deg = np.bincount(u, w, n) + np.bincount(v, w, n)
    b = w / np.sqrt(deg[u] * deg[v])
    s = np.zeros((n, 1))
    s[deg > 0, 0] = 1 / np.sqrt(deg[deg > 0])

    def couple(q):
        # s * W (s * q): the beliefs scaled around the degree-free edge product
        y, out = s * q, np.zeros_like(q)
        step = max(graph_mod.COUPLE_EDGES, n)  # couple's slices fix its order of summation
        for lo in range(0, len(u), step):
            uu, vv, ww = u[lo:lo + step], v[lo:lo + step], w[lo:lo + step]
            for m in range(q.shape[1]):
                out[:, m] += np.bincount(uu, ww * y[vv, m], n) + np.bincount(vv, ww * y[uu, m], n)
        return s * out

    rows = np.concatenate([u, v])
    order = np.argsort(rows, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    cols, bs = np.concatenate([v, u])[order], np.concatenate([b, b])[order]

    def couple_row(q, r):
        return bs[starts[r]:starts[r + 1]] @ q[cols[starts[r]:starts[r + 1]]]

    return deg, b, couple, couple_row


def test_sliced_graph_sums_equal_the_unsliced_formulas_on_non_integer_weights(
        tmp_path, monkeypatch):
    # integer-valued weights sum exactly in any order; these do not
    monkeypatch.setattr(graph_mod, "COUPLE_EDGES", 457)  # fewer than the 600 accounts
    rng = np.random.default_rng(22)
    powered = filter_power(co_occurrence(edge_dominated_dataset(600, 40, 60, seed=23)), 2.5)
    p = tmp_path / "graph.csv"
    save_graph(powered, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    weights = rng.exponential(1.0, len(lines) - 2).tolist()
    p.write_text("\n".join(lines[:2] + [f"{line.rsplit(',', 1)[0]},{x!r}"
                                        for line, x in zip(lines[2:], weights)]),
                 encoding="utf-8")
    for g in (powered, load_graph(p)):
        assert len(g.weight) > 10 * max(graph_mod.COUPLE_EDGES, g.n)
        assert not np.array_equal(g.weight, np.round(g.weight))
        deg, b, couple, couple_row = unsliced(g)
        assert np.array_equal(g.deg, deg)
        assert np.array_equal(g.b, b)
        q = rng.dirichlet(np.ones(3), g.n)
        assert np.array_equal(g.couple(q), couple(q))
        for r in (0, 1, g.n // 2, g.n - 1):
            assert np.array_equal(g.couple(q, r), couple_row(q, r))


def test_couple_gives_the_isolated_accounts_of_a_temporal_logic_graph_zero_rows():
    # an account that posts once in a sequence is active at one instant there,
    # which overlaps no interval by more than c, so the filter gives it no edge
    rng = np.random.default_rng(25)
    seqs = []
    for i in range(30):
        evs = [(f"u{a}", x) for a in rng.choice(80, 10, replace=False)
               for x in rng.uniform(0, 100, 2)] + [(f"lone{i}", rng.uniform(0, 100))]
        seqs.append((f"s{i}", sorted(evs, key=lambda e: e[1])))
    g = filter_temporal_logic(dataset(seqs), 10.0)
    isolated = g.deg == 0
    assert isolated.sum() >= 30 and not isolated.all()
    q = rng.dirichlet(np.ones(3), g.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = g.couple(q)
    assert (got[isolated] == 0).all()
    np.testing.assert_allclose(got, g.coupling() @ q, rtol=1e-12, atol=0)


def interval_dataset(V=600, n_seqs=40, size=60, seed=23):
    """n_seqs sequences of ``size`` distinct accounts, each posting twice at uniform times."""
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n_seqs):
        who = np.repeat(rng.choice(V, size, replace=False), 2)
        t = rng.uniform(0, 100, len(who))
        order = np.argsort(t)
        seqs.append((f"s{i}", [(f"u{a}", float(x)) for a, x in zip(who[order], t[order])]))
    return dataset(seqs)


@pytest.mark.parametrize("build", [co_occurrence, lambda d: filter_temporal_logic(d, 20.0),
                                   lambda d: filter_power(co_occurrence(d), 2.5)],
                         ids=["raw", "tl", "power"])
def test_levels_give_the_sums_and_bytes_of_the_same_explicit_weights(build, tmp_path, monkeypatch):
    # a built graph and the same edges given as explicit float weights add
    # the same float addends in the same order, and write the same lines
    monkeypatch.setattr(graph_mod, "COUPLE_EDGES", 457)  # fewer than the 600 accounts
    monkeypatch.setattr(graph_mod, "_LINE_BYTES", 2 ** 12)
    g = build(interval_dataset())
    explicit = weighted_graph(g.accounts, g.u, g.v, g.weight, g.filter_tag)
    assert len(g.u) > 10 * max(graph_mod.COUPLE_EDGES, g.n) and len(g.values) > 2
    deg, b, couple, couple_row = unsliced(explicit)
    q = np.random.default_rng(24).dirichlet(np.ones(3), g.n)
    for h in (g, explicit):
        assert np.array_equal(h.deg, deg) and np.array_equal(h.b, b)
        assert np.array_equal(h.couple(q), couple(q))
        for r in (0, 1, g.n // 2, g.n - 1):
            assert np.array_equal(h.couple(q, r), couple_row(q, r))
    save_graph(g, tmp_path / "levels.csv")
    save_graph(explicit, tmp_path / "explicit.csv")
    whole_matrix_save_graph(g, tmp_path / "whole.csv")
    want = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "levels.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes() == want
