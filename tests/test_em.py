import os
from dataclasses import replace

import numpy as np
import pytest

import tape_reference as ref
from dense import dense_graph
from oracles import check_prop1_bound
from records import dataset
from coact import em
from coact.autodiff import Tensor
from coact.crf import CrfParams, UnaryScorer
from coact.em import EmConfig, initialize, run_em
from coact.graph import KnowledgeGraph, co_occurrence
from coact.pointprocess import SeqModelConfig, SequenceModel

TINY = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=2,
                      time_scale_min=0.1, time_scale_max=100.0)


def random_dataset(rng, n_accounts=8, n_sequences=12):
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        t = np.sort(rng.uniform(0, 20, int(rng.integers(2, 9))))
        seqs.append((f"s{i}", [
            (accounts[int(rng.integers(n_accounts))], float(x)) for x in t
        ]))
    return dataset(seqs)


def test_run_em_history_reports_estep_convergence():
    d = random_dataset(np.random.default_rng(3))
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    for max_iter, converged in ((1, False), (200, True)):
        cfg = EmConfig(n_loops=2, m_step_epochs=1, estep_max_iter=max_iter, estep_tol=1e-9)
        history = run_em(d, g, model, cfg).history
        assert [h["loop"] for h in history] == [0, 1, 2]
        for h in history:
            assert h["estep_converged"] is converged
            assert h["estep_converged"] == (h["estep_residual"] < cfg.estep_tol)
            assert h["estep_iterations"] <= max_iter


# lr 1e-300 leaves every parameter as it was; at lr 0.1 the M-step of seed 3
# finds no better epoch than its start, and that of seed 1 does
@pytest.mark.parametrize("lr,seed,kept", [(1e-300, 0, True), (1e-300, 5, True),
                                          (0.1, 3, True), (0.1, 1, False)])
def test_one_loop_gives_the_estep_only_scores_when_its_m_step_keeps_its_start(lr, seed, kept):
    d = random_dataset(np.random.default_rng(seed))
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=seed)
    cfg = EmConfig(m_step_epochs=2, m_step_lr=lr, estep_tol=1e-10, estep_max_iter=200,
                   scorer_hidden=5)
    estep_only = run_em(d, g, model, replace(cfg, estep_only=True))
    assert estep_only.history[0]["estep_converged"]
    got = run_em(d, g, model, cfg)
    loop = got.history[1]
    assert (loop["val_objective_after"] == loop["val_objective_before"]) == kept
    assert (np.max(np.abs(got.scores - estep_only.scores)) <= cfg.estep_tol) == kept


@pytest.mark.parametrize("bad", [{"estep_max_iter": 0}, {"batch_size": 0},
                                 {"batch_size": -3}, {"m_step_epochs": 0},
                                 {"m_step_epochs": -1}, {"patience": 0}])
def test_em_config_rejects_sizes_below_one(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        EmConfig(**bad)


@pytest.mark.parametrize("bad", [{"lambda_balance": np.nan}, {"lambda_balance": np.inf},
                                 {"m_step_lr": np.nan}, {"m_step_lr": -1.0},
                                 {"weight_decay": np.inf}, {"weight_decay": -5.0},
                                 {"estep_tol": np.inf}, {"estep_tol": 0.0},
                                 {"threshold": np.nan}, {"threshold": 2.0},
                                 {"threshold": -0.1}])
def test_em_config_rejects_non_finite_or_out_of_range_rates(bad):
    name = next(iter(bad))
    with pytest.raises(ValueError, match="lr" if name == "m_step_lr" else name):
        EmConfig(**bad)


@pytest.mark.parametrize("bad", [{"estep_schedule": "foo"}, {"estep_schedule": "Jacobi"},
                                 {"fractions": (0.9, 0.9, 0.9)}, {"fractions": (0.5, 0.5)},
                                 {"fractions": (0.0, 0.5, 0.5)}, {"fractions": (np.nan, 0.1, 0.1)},
                                 {"scorer_hidden": 0}, {"scorer_hidden": -4},
                                 {"scorer_weight_decay": -1.0}, {"scorer_weight_decay": np.inf},
                                 {"scorer_weight_decay": np.nan}])
def test_em_config_rejects_a_bad_schedule_fractions_or_scorer_setting(bad):
    # raised on construction, before run_em's start
    with pytest.raises(ValueError, match=next(iter(bad))):
        EmConfig(**bad)


def test_prop1_bound_holds_and_is_tight_without_edges():
    rng = np.random.default_rng(12)
    n_tight = 0
    for i in range(50):
        n, m = int(rng.integers(1, 8)), int(rng.choice([2, 3]))
        E = rng.normal(size=(n, 3))
        w = np.triu(rng.uniform(0, 3, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        if i % 4 == 0:
            w[:] = 0.0
        crf = CrfParams(UnaryScorer(3, m, hidden=6, seed=i),
                        dense_graph([f"u{j}" for j in range(n)], w + w.T))
        lhs, rhs = check_prop1_bound(crf, E)
        assert lhs <= rhs + 1e-9
        if not w.any():
            assert abs(lhs - rhs) <= 1e-9
            n_tight += 1
    assert n_tight >= 12


def test_m_step_gradient_matches_finite_differences(monkeypatch):
    rng = np.random.default_rng(5)
    d = random_dataset(rng)
    cfg = SeqModelConfig(d_embed=8, d_pos=4, d_time=4, n_mix=2,
                         time_scale_min=0.1, time_scale_max=100.0)
    model = SequenceModel(d.registry.keys, cfg, seed=1)
    crf = initialize(model, 2, seed=0, graph=co_occurrence(d), hidden=6)
    Q = rng.dirichlet(np.ones(2), size=model.n_accounts)
    em_cfg = EmConfig(lambda_balance=0.7)
    seqs = model.prepare(d.sequences)

    handed = {}

    def capture(params, items, batch_loss, val_fn, **kwargs):
        for t in params.values():
            t.grad = None
        batch_loss(seqs)  # one batch spanning the epoch: loss = -objective
        handed.update(params=params)
        return 0.0, 0.0, []

    monkeypatch.setattr(em, "fit", capture)
    em._m_step(model, crf, seqs, seqs, Q, em_cfg, np.random.default_rng(0), None)
    params = handed["params"]
    assert {f"unary_{k}" for k in crf.scorer.params} <= set(params)

    def objective():
        return em._val_objective(model, crf.scorer, seqs, Q, em_cfg.lambda_balance, None)

    h = 1e-4
    coord_rng = np.random.default_rng(0)
    n_checked = 0
    for name, t in params.items():
        flat = t.data.ravel()
        grad = t.grad.ravel() if t.grad is not None else np.zeros(flat.size)
        for _ in range(3):
            j = int(coord_rng.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + h
            up = objective()
            flat[j] = orig - h
            dn = objective()
            flat[j] = orig
            fd = -(up - dn) / (2 * h)
            an = grad[j]
            if abs(fd) > 1e-10 or abs(an) > 1e-10:
                assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-4, (name, j)
            n_checked += 1
    assert n_checked >= 50


def reference_lloyd(X, centers, k, max_iter):
    """Lloyd iterations with the row norms recomputed every iteration."""
    labels = None
    for _ in range(max_iter):
        d2 = (
            (X * X).sum(axis=1)[:, None]
            - 2.0 * X @ centers.T
            + (centers * centers).sum(axis=1)[None, :]
        )
        new_labels = d2.argmin(axis=1)
        if np.any(np.bincount(new_labels, minlength=k) == 0):
            return None, None, np.inf
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([X[labels == j].mean(axis=0) for j in range(k)])
    inertia = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, inertia


def test_kmeans_matches_reference_lloyd(monkeypatch):
    rng = np.random.default_rng(21)
    cases = [rng.normal(size=(200, 8)) * 10.0 + 3.0,  # norms far above the gaps
             np.repeat(rng.normal(size=(5, 3)), 6, axis=0),  # duplicates: empty clusters
             rng.normal(size=(400, 16)) + (rng.random((400, 1)) < 0.2) * 2.0]
    for X in cases:
        for k in (2, 3, 5):
            got = em.kmeans(X, k, seed=k)
            with monkeypatch.context() as m:
                m.setattr(em, "_lloyd", reference_lloyd)
                want = em.kmeans(X, k, seed=k)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_kmeans_raises_when_every_start_leaves_a_cluster_empty():
    # two distinct values and k = 3: the third k-means++ seed duplicates one
    # of the first two, and the duplicate center never wins a point
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    with pytest.raises(RuntimeError, match="empty clusters"):
        em.kmeans(X, 3, seed=0)


def test_kmeans_is_deterministic_given_the_seed():
    X = np.random.default_rng(9).normal(size=(80, 5))
    labels, centers = em.kmeans(X, 3, seed=4)
    again_labels, again_centers = em.kmeans(X, 3, seed=4)
    assert np.array_equal(labels, again_labels)
    assert np.array_equal(centers, again_centers)
    assert np.array_equal(np.unique(labels), [0, 1, 2])


def serial_kmeans(X, k, seed):
    """k-means as one loop: each start's seeds drawn just before its Lloyd run."""
    rng = np.random.default_rng(seed)
    best, completed = (None, None, np.inf), 0
    for _ in range(em.KMEANS_STARTS + em.KMEANS_RESTARTS):
        labels, centers, inertia = em._lloyd(X, em._kpp_seeds(X, k, rng), k, em.KMEANS_MAX_ITER)
        if labels is None:
            continue
        completed += 1
        if inertia < best[2]:
            best = (labels, centers, inertia)
        if completed >= em.KMEANS_STARTS:
            break
    return best[0], best[1]


@pytest.mark.parametrize("abandon", [False, True])
@pytest.mark.parametrize("k", [2, 3])
def test_kmeans_runs_its_starts_in_order_in_one_process(forks, monkeypatch, k, abandon):
    rng = np.random.default_rng(40 + k)
    X = rng.normal(size=(300, 6)) + (rng.random((300, 1)) < 0.3) * 1.5
    lloyd, seen = em._lloyd, []

    def lloyd_or_abandon(X, centers, k, max_iter):
        # abandon every start whose first seed center has a positive first coordinate
        seen.append(centers.copy())
        if abandon and centers[0, 0] > 0:
            return None, None, np.inf
        return lloyd(X, centers, k, max_iter)

    monkeypatch.setattr(em, "_lloyd", lloyd_or_abandon)
    for seed in range(4):
        seen.clear()
        got = em.kmeans(X, k, seed)
        assert forks == []  # even where a child could be forked
        # each start's seeds come next from one continuing stream
        stream = np.random.default_rng(seed)
        for centers in seen:
            assert np.array_equal(centers, em._kpp_seeds(X, k, stream))
        if abandon:  # some planned starts were abandoned and replaced
            assert len(seen) > em.KMEANS_STARTS
            assert any(c[0, 0] > 0 for c in seen[:em.KMEANS_STARTS])
        else:
            assert len(seen) == em.KMEANS_STARTS
        want = serial_kmeans(X, k, seed)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_kmeans_picks_the_earliest_of_tied_starts(monkeypatch):
    # the starts run in order, so each run's labels name its start; starts 3
    # and 5 tie at the lowest inertia
    calls = iter(range(100))

    def lloyd(X, centers, k, max_iter):
        i = next(calls)
        return np.full(len(X), i), centers, float(i not in (3, 5))

    monkeypatch.setattr(em, "_lloyd", lloyd)
    labels, _ = em.kmeans(np.zeros((4, 1)), 1, seed=0)
    assert labels.tolist() == [3] * 4
    assert next(calls) == em.KMEANS_STARTS  # no start ran after the planned ones


# ---- EM's start ----

def brute_force_two_means(x):
    """Labels of the cut of the sorted ``x`` with the least within-cluster sum
    of squares, over every cut between distinct values; the cut with the
    fewest values below wins a tie. Exact: it sums the floats as fractions."""
    from fractions import Fraction

    order = np.argsort(x, kind="stable")
    xs = [Fraction(v) for v in x[order].tolist()]

    def within(part):
        mean = sum(part) / len(part)
        return sum((v - mean) ** 2 for v in part)

    costs = {cut: within(xs[:cut]) + within(xs[cut:])
             for cut in range(1, len(xs)) if xs[cut - 1] != xs[cut]}
    cut = min(costs, key=lambda c: (costs[c], c))
    labels = np.empty(len(x), dtype=np.intp)
    labels[order] = np.arange(len(x)) >= cut
    return labels


def test_two_means_matches_a_brute_force_search_over_the_cuts():
    rng = np.random.default_rng(21)
    cases = [np.array([0.0, 1.0, 1.0, 2.0]),  # two cuts tie: the first wins
             np.array([3.0, -1.0, 3.0, -1.0]), np.array([5.0, 5.0, 5.0, 7.0])]
    for n in (2, 3, 5, 9, 40):
        cases += [rng.normal(size=n), rng.integers(0, 4, size=n).astype(float),
                  rng.integers(-3, 3, size=n) * 0.25]
    for x in cases:
        if len(set(x.tolist())) < 2:
            continue
        got = em._two_means(x)
        assert np.array_equal(got, brute_force_two_means(x)), x
    assert np.array_equal(em._two_means(np.array([0.0, 1.0, 1.0, 2.0])), [0, 1, 1, 1])


def test_the_scorer_fit_keeps_the_epoch_of_the_lowest_held_out_cross_entropy(monkeypatch):
    rng = np.random.default_rng(22)
    E = rng.normal(size=(60, 4))
    labels = rng.integers(2, size=60)  # no signal in E: held-out loss soon rises
    crossent, held_out = UnaryScorer.crossent, []

    def recorded(scorer, E_, targets, scale=None):
        value = crossent(scorer, E_, targets, scale)
        if scale is None:  # the held-out evaluation after each epoch
            held_out.append((-value, len(E_),
                             {k: t.data.copy() for k, t in scorer.params.items()}))
        return value

    monkeypatch.setattr(UnaryScorer, "crossent", recorded)
    scorer = em._fit_unary(E, labels, 2, seed=3, hidden=8, fit_weight_decay=0.0)
    losses = [loss for loss, *_ in held_out]
    best = int(np.argmin(losses))
    assert best < len(losses) - 1 and len(losses) < em.SCORER_FIT_EPOCHS  # the stop fired
    assert len(losses) == best + 1 + em.SCORER_FIT_PATIENCE
    assert {rows for _, rows, _ in held_out} == {60 // em.SCORER_HOLDOUT}
    for k, t in scorer.params.items():
        assert np.array_equal(t.data, held_out[best][2][k]), k


@pytest.mark.parametrize("edges", [None, "no edges", "edges"])
@pytest.mark.parametrize("n_groups", [2, 3])
def test_the_start_is_kmeans_of_the_embeddings_only_without_edges(monkeypatch, edges, n_groups):
    d = random_dataset(np.random.default_rng(23), n_accounts=10, n_sequences=20)
    model = SequenceModel(d.registry.keys, TINY, seed=1)
    graph = {None: None, "edges": co_occurrence(d),
             "no edges": KnowledgeGraph(d.registry.keys, [], [], [], [])}[edges]
    calls = {"kmeans": [], "spectrum": []}
    kmeans, spectrum = em.kmeans, em.regularized_spectrum
    monkeypatch.setattr(em, "kmeans", lambda X, k, seed: (calls["kmeans"].append(X.shape),
                                                          kmeans(X, k, seed))[1])
    monkeypatch.setattr(em, "regularized_spectrum", lambda g, k: (calls["spectrum"].append(k),
                                                                   spectrum(g, k))[1])
    crf = initialize(model, n_groups, seed=4, graph=graph, hidden=5)
    E = model.params["E"].data
    if edges == "edges":
        _, vectors, _ = spectrum(graph, n_groups - 1)
        assert calls["spectrum"] == [n_groups - 1]
        # two groups: the exact 2-means; more: k-means of the (V, M - 1) block
        assert calls["kmeans"] == ([] if n_groups == 2 else [(10, n_groups - 1)])
        labels = (em._two_means(vectors[:, 0]) if n_groups == 2
                  else kmeans(vectors, n_groups, 4)[0])
    else:
        assert calls == {"kmeans": [E.shape], "spectrum": []}
        labels = kmeans(E, n_groups, 4)[0]
    want = em._fit_unary(E, labels, n_groups, 4, 5, 1e-3)
    for k, t in crf.scorer.params.items():
        assert np.array_equal(t.data, want.params[k].data), k
    assert crf.graph.n == 10 and (graph is None or crf.graph is graph)


def brute_force_alignment(labels, n_groups, rows, groups):
    from itertools import permutations

    best_perm, best_hits = None, -1
    for perm in permutations(range(n_groups)):
        hits = sum(1 for r, g_ in zip(rows, groups) if perm[labels[r]] == g_)
        if hits > best_hits:
            best_perm, best_hits = perm, hits
    return np.asarray(best_perm, dtype=np.intp)[labels]


@pytest.mark.parametrize("n_groups", [2, 3, 4, 5, 6])
def test_alignment_takes_the_first_best_permutation(n_groups):
    rng = np.random.default_rng(n_groups)
    for trial in range(40):
        labels = rng.integers(n_groups, size=30)
        # few revealed rows over few groups: many permutations tie
        rows = rng.choice(30, size=int(rng.integers(1, 3 * n_groups)), replace=False)
        groups = rng.integers(int(rng.integers(1, n_groups + 1)), size=len(rows))
        got = em._align_to_revealed(labels, n_groups, rows, groups)
        assert np.array_equal(got, brute_force_alignment(labels, n_groups, rows, groups))


def test_alignment_of_twelve_groups_takes_under_a_second():
    import time

    rng = np.random.default_rng(12)
    labels = rng.integers(12, size=4000)
    rows = rng.choice(4000, size=120, replace=False)
    truth = rng.permutation(12)
    groups = np.where(rng.random(120) < 0.8, truth[labels[rows]], rng.integers(12, size=120))
    start = time.perf_counter()
    got = em._align_to_revealed(labels, 12, rows, groups)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(got, truth[labels])


@pytest.mark.parametrize("n_accounts,n_groups", [(30, 2), (400, 2), (400, 3)])
def test_scorer_fit_matches_the_tape_bit_for_bit(monkeypatch, n_accounts, n_groups):
    model = SequenceModel([f"u{i}" for i in range(n_accounts)],
                          SeqModelConfig(d_embed=8, d_pos=4, d_time=4, n_mix=2), seed=n_accounts)
    start = UnaryScorer(8, n_groups, hidden=6, seed=1).params
    got = initialize(model, n_groups, seed=1, hidden=6).scorer.params
    monkeypatch.setattr(UnaryScorer, "crossent", ref.scorer_crossent)
    want = initialize(model, n_groups, seed=1, hidden=6).scorer.params
    for k in want:
        assert not np.array_equal(want[k].data, start[k].data), k  # the fit moved it
        assert np.array_equal(got[k].data, want[k].data), k


@pytest.mark.parametrize("trial", range(6))
def test_m_step_crossent_matches_the_tape_bit_for_bit(trial):
    rng = np.random.default_rng(trial)
    V, d, M = (1, 30, 400)[trial % 3], 5, 2 + trial % 2
    scale = (-0.7, -1.0 / 3.0, 1.0)[trial % 3]
    E0 = rng.normal(size=(V, d))
    Q = rng.dirichlet(np.ones(M), size=V)
    held = rng.normal(size=(V, d))  # E.grad from the batch's NLL terms

    def run(crossent):
        scorer = UnaryScorer(d, M, hidden=7, seed=trial)
        E = Tensor(E0)
        E.grad = held.copy()
        value = crossent(scorer, E, Q, scale)
        grads = {k: t.grad for k, t in scorer.params.items()}
        return value, crossent(scorer, E0, Q), dict(grads, E=E.grad)

    want_value, want_bare, want = run(ref.scorer_crossent)
    got_value, got_bare, got = run(UnaryScorer.crossent)
    assert (got_value, got_bare) == (want_value, want_bare)
    assert got.keys() == want.keys() == {"W1", "b1", "W2", "b2", "E"}
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_run_em_matches_the_tape_bit_for_bit(monkeypatch):
    # the scorer fit, the M-step's gradients and its validation objective
    d = random_dataset(np.random.default_rng(8))
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=4)
    cfg = EmConfig(n_loops=2, m_step_epochs=3, batch_size=4, scorer_hidden=5)
    got = run_em(d, g, model, cfg)
    monkeypatch.setattr(UnaryScorer, "crossent", ref.scorer_crossent)
    want = run_em(d, g, model, cfg)
    assert np.array_equal(got.mean_field.q, want.mean_field.q)
    assert got.history == want.history


@pytest.mark.parametrize("batch_size", [1, 3, 64])
def test_run_em_with_a_helper_is_bit_identical_to_without(forks, monkeypatch, batch_size):
    d = random_dataset(np.random.default_rng(14), n_sequences=20)
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=6)
    cfg = EmConfig(n_loops=3, m_step_epochs=3, batch_size=batch_size, scorer_hidden=5)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = run_em(d, g, model, cfg)
    assert forks == []
    got = run_em(d, g, model, cfg)
    assert len(forks) == 1  # one helper serves every M-step
    assert np.array_equal(got.mean_field.q, want.mean_field.q)
    assert np.array_equal(got.scores, want.scores)
    assert got.history == want.history


def test_identify_coordinated_group_raises_on_exact_ties():
    with pytest.raises(ValueError, match="tie"):
        em.identify_coordinated_group(np.array([[0.9, 0.1], [0.1, 0.9]]))


@pytest.mark.parametrize("n_groups", [2, 3])
def test_run_em_with_revealed_accounts_scores_group_1(n_groups):
    d = random_dataset(np.random.default_rng(9))
    keys = d.registry.keys
    model = SequenceModel(keys, TINY, seed=2)
    revealed = {keys[0]: 1, keys[1]: 1, keys[2]: 0}
    result = run_em(d, co_occurrence(d), model,
                    EmConfig(n_groups=n_groups, m_step_epochs=2, scorer_hidden=5), revealed)
    q = result.mean_field.q
    assert result.coordinated_group == 1
    assert np.array_equal(result.scores, q[:, 1])
    assert np.array_equal(q[:3], np.eye(n_groups)[[1, 1, 0]])  # the clamps hold their labels


def test_run_em_names_revealed_accounts_the_model_lacks():
    d = random_dataset(np.random.default_rng(9))
    keys = d.registry.keys
    model = SequenceModel(keys, TINY, seed=2)
    with pytest.raises(ValueError, match=r"revealed accounts \['zz'\] are not among"):
        run_em(d, co_occurrence(d), model, EmConfig(scorer_hidden=5), {"zz": 1, keys[0]: 0})
