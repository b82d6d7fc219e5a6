import json

import numpy as np
import pytest

from coact.crf import CrfParams, UnaryScorer, potential
from coact.events import Dataset, Event, EventSequence
from coact.graph import (
    BLOCK_ENTRIES,
    KnowledgeGraph,
    co_occurrence,
    filter_power,
    filter_temporal_logic,
    load_graph,
    save_graph,
)


def seq(sid, *pairs):
    return EventSequence(sid, [Event(a, float(t)) for a, t in pairs])


def random_dataset(rng, n_accounts=8, n_sequences=12):
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        n = int(rng.integers(1, 10))
        ev = [
            Event(accounts[int(rng.integers(n_accounts))], float(t))
            for t in np.sort(rng.uniform(0, 100, n))
        ]
        seqs.append(EventSequence(f"s{i}", ev))
    return Dataset.from_sequences(seqs)


def test_co_occurrence_example():
    d = Dataset.from_sequences([
        seq("s1", ("A", 0), ("B", 1), ("A", 2)),
        seq("s2", ("B", 0), ("C", 1)),
    ])
    g = co_occurrence(d)
    i = d.registry.index
    assert g.w[i("A"), i("B")] == 1  # duplicate A counts once
    assert g.w[i("B"), i("C")] == 1
    assert g.w[i("A"), i("C")] == 0


def test_co_occurrence_disjoint_zero():
    d = Dataset.from_sequences([seq("s1", ("A", 0)), seq("s2", ("B", 0))])
    g = co_occurrence(d)
    assert np.all(g.w == 0)


def test_co_occurrence_matches_bruteforce():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = random_dataset(rng)
        g = co_occurrence(d)
        brute = np.zeros_like(g.w)
        for s in d.sequences:
            present = {d.registry.index(e.account) for e in s.events}
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
        for e in s.events:
            Z[i, d.registry.index(e.account)] = 1.0
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
            seqs.append(EventSequence(f"s{i}", [Event(f"u{a}", float(t)) for a, t in
                                                zip(who, np.sort(rng.uniform(0, 50, len(who))))]))
        d = Dataset.from_sequences(seqs)
        assert np.array_equal(co_occurrence(d).w, presence_product(d))

def test_filter_power_example():
    d = Dataset.from_sequences([seq(f"s{k}", ("A", 0), ("B", 1)) for k in range(2)])
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
    d = Dataset.from_sequences([seq("s", ("A", 0), ("B", 1))])
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
    d = Dataset.from_sequences([
        seq("s", ("u", 0), ("u", 50_000), ("v", 10_000), ("v", 60_000)),
    ])
    g = filter_temporal_logic(d, 43_200.0)
    i = d.registry.index
    assert g.w[i("u"), i("v")] == 0.0
    g2 = filter_temporal_logic(d, 39_999.0)
    assert g2.w[i("u"), i("v")] == 1.0


def test_temporal_logic_full_overlap_counted():
    d = Dataset.from_sequences([
        seq("s", ("u", 0), ("v", 0), ("u", 100_000), ("v", 100_000)),
    ])
    g = filter_temporal_logic(d, 43_200.0)
    i = d.registry.index
    assert g.w[i("u"), i("v")] == 1.0


def test_temporal_logic_point_interval_never_counts():
    d = Dataset.from_sequences([
        seq("s", ("u", 5), ("v", 0), ("v", 100_000)),
    ])
    g = filter_temporal_logic(d, 1e-9)
    i = d.registry.index
    assert g.w[i("u"), i("v")] == 0.0


def test_temporal_logic_rejects_negative_threshold():
    d = Dataset.from_sequences([seq("s", ("u", 0))])
    with pytest.raises(ValueError):
        filter_temporal_logic(d, -1.0)


def test_temporal_logic_matches_bruteforce():
    rng = np.random.default_rng(11)
    for trial in range(50):
        d = random_dataset(rng)
        c = float(rng.uniform(0, 50))
        g = filter_temporal_logic(d, c)
        V = len(d.registry)
        brute = np.zeros((V, V))
        for s in d.sequences:
            first, last = {}, {}
            for e in s.events:
                k = d.registry.index(e.account)
                first.setdefault(k, e.t)
                last[k] = e.t
            keys = sorted(first)
            for a in keys:
                for b in keys:
                    if a == b:
                        continue
                    if min(last[a], last[b]) - max(first[a], first[b]) > c:
                        brute[a, b] += 1
        assert np.array_equal(g.w, brute)


def test_temporal_logic_bounded_by_co_occurrence():
    rng = np.random.default_rng(13)
    d = random_dataset(rng)
    g0 = co_occurrence(d)
    gt = filter_temporal_logic(d, 0.0)
    assert np.all(gt.w <= g0.w)


def test_pairwise_potential_values():
    # the pairwise reward of an edge is B_uv = w_uv / sqrt(d_u d_v), paid only
    # for equal labels: a lone edge of weight 4 pays 1.0, unequal labels 0
    g = KnowledgeGraph(["a", "b"], np.array([[0.0, 4.0], [4.0, 0.0]]), "none")
    np.testing.assert_array_equal(g.coupling(), [[0.0, 1.0], [1.0, 0.0]])
    scorer = UnaryScorer(3, 2, hidden=4, seed=0)
    scorer.params["W2"].data = np.zeros_like(scorer.params["W2"].data)
    scorer.params["b2"].data = np.zeros_like(scorer.params["b2"].data)
    crf = CrfParams(scorer, g, 2)
    E = np.zeros((2, 3))
    assert potential(np.array([1, 1]), crf, E) == 1.0
    assert potential(np.array([0, 1]), crf, E) == 0.0


def test_pairwise_potential_isolated_node():
    g = KnowledgeGraph(["a", "b", "c"],
                       np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                       "none")
    B = g.coupling()
    assert B[0, 1] == 1.0
    assert B[0, 2] == 0.0
    assert not B[2].any() and not B[:, 2].any()


def test_pairwise_potential_symmetry():
    rng = np.random.default_rng(5)
    w = rng.uniform(0, 3, (5, 5))
    w = np.triu(w, 1)
    w = w + w.T
    B = KnowledgeGraph([f"u{i}" for i in range(5)], w, "none").coupling()
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
    B = KnowledgeGraph([f"u{i}" for i in range(n)], w, "none").coupling()
    assert B[0].sum() == pytest.approx(np.sqrt(20))
    assert abs(np.linalg.norm(B, 2) - 1.0) <= 1e-12
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 25))
        keep = rng.random((n, n)) < rng.uniform(0.05, 1.0)  # sparse ones leave isolated nodes
        w = np.triu(rng.exponential(2.0, (n, n)) * keep, 1)
        B = KnowledgeGraph([f"u{i}" for i in range(n)], w + w.T, "none").coupling()
        np.testing.assert_array_equal(B, B.T)
        assert np.linalg.norm(B, 2) <= 1.0 + 1e-12


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
        rows, cols = np.nonzero(np.triu(g.w, k=1))
        for u, v in zip(rows, cols):
            fh.write(f"{g.accounts[u]},{g.accounts[v]},{float(g.w[u, v])!r}\n")


def sparse_graph(rng, n, density, n_isolated=0):
    """Random symmetric weights with arbitrary floats; the first nodes isolated."""
    w = np.triu(rng.exponential(1.0, (n, n)) * (rng.random((n, n)) < density), 1)
    w[:n_isolated] = 0.0
    w[:, :n_isolated] = 0.0
    return KnowledgeGraph([f"u{i}" for i in range(n)], w + w.T, "power(p=2)")


def test_save_graph_matches_whole_matrix_writer(tmp_path):
    rng = np.random.default_rng(13)
    for n, density in ((1, 1.0), (2, 1.0), (7, 0.0), (60, 0.3), (400, 0.05)):
        g = sparse_graph(rng, n, density, n_isolated=n // 5)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_graph(g, got)
        whole_matrix_save_graph(g, want)
        assert got.read_bytes() == want.read_bytes()


def test_coupling_in_row_blocks_matches_one_shot_formula():
    n = 1500
    assert n * n > 2 * BLOCK_ENTRIES  # three row blocks
    g = sparse_graph(np.random.default_rng(14), n, 0.01, n_isolated=40)
    d = g.w.sum(axis=1)
    denom = np.sqrt(np.outer(d, d))
    want = np.zeros_like(g.w)
    np.divide(g.w, denom, out=want, where=denom > 0)
    assert np.all(want[:40] == 0)
    np.testing.assert_array_equal(g.coupling(), want)


def test_graph_validation_checks_the_last_row_block():
    n = 1500
    assert n * n > 2 * BLOCK_ENTRIES
    keys = [f"u{i}" for i in range(n)]
    w = np.zeros((n, n))
    w[0, 1] = w[1, 0] = 1.0
    u, v = n - 1, n - 2
    for a, b in ((1.0, 0.0), (-1.0, -1.0), (np.nan, np.nan)):
        bad = w.copy()
        bad[u, v], bad[v, u] = a, b
        with pytest.raises(ValueError):
            KnowledgeGraph(keys, bad, "none")
    # np.allclose semantics: a relative asymmetry of 1e-12 is accepted
    ok = w.copy()
    ok[u, v], ok[v, u] = 1.0, 1.0 + 1e-12
    KnowledgeGraph(keys, ok, "none")


def whole_matrix_verdict(w):
    """The message KnowledgeGraph raises for ``w``, or None, by whole-matrix tests."""
    if not np.allclose(w, w.T):
        return "weight matrix must be symmetric"
    if np.any(np.diag(w) != 0):
        return "diagonal must be zero"
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        return "weights must be finite and non-negative"
    return None


def test_graph_validation_gives_the_whole_matrix_verdicts():
    n = 1500
    assert n * n > 2 * BLOCK_ENTRIES  # three row blocks
    keys = [f"u{i}" for i in range(n)]
    w = sparse_graph(np.random.default_rng(15), n, 0.02).w
    edits = [  # (w[u, v], w[v, u])
        (np.nan, np.nan), (np.inf, np.inf), (-np.inf, -np.inf), (np.inf, 1.0),
        (-2.0, -2.0), (-0.0, -0.0), (0.0, -0.0), (5.0, 5.0 * (1 + 1e-12)),
        (5.0, 5.0 * (1 + 1e-3)), (1e-3, 0.0), (np.nan, 1.0),
    ]
    verdicts = set()
    for u, v in ((3, 900), (1499, 5), (1499, 1498)):  # first and last row block
        for a, b in edits:
            bad = w.copy()
            bad[u, v], bad[v, u] = a, b
            want = whole_matrix_verdict(bad)
            verdicts.add(want)
            if want is None:
                KnowledgeGraph(keys, bad, "none")
            else:
                with pytest.raises(ValueError) as exc:
                    KnowledgeGraph(keys, bad, "none")
                assert str(exc.value) == want, (u, v, a, b)
    bad = w.copy()
    bad[1499, 1499] = 1.0
    with pytest.raises(ValueError, match="^diagonal must be zero$"):
        KnowledgeGraph(keys, bad, "none")
    assert len(verdicts) == 3  # accepted, asymmetric, and not finite or negative


@pytest.mark.parametrize("p", [1.0, 2.5, 3.0])
def test_filter_power_equals_the_whole_matrix_power(p):
    rng = np.random.default_rng(16)
    for n, density in ((1, 1.0), (9, 0.0), (50, 0.3), (300, 0.05)):
        g = sparse_graph(rng, n, density)
        g.filter_tag = "none"
        got = filter_power(g, p).w
        want = g.w ** p
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # bit for bit


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(ValueError):
        KnowledgeGraph(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]), "none")
