import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

import tape_reference as ref
from coact.autodiff import Tensor, row_softmax
from coact.crf import (
    CrfParams,
    MeanField,
    UnaryScorer,
    estep_converge,
    mean_field_free_energy,
    softmax_init,
)
from dense import dense_graph
from oracles import (
    enumerate_assignments,
    log_partition_bruteforce,
    marginals_bruteforce,
    potential,
)


def one_sweep(mf, crf, E, schedule="jacobi"):
    """One sweep of the fixed-point update."""
    return estep_converge(crf, E, mf, max_iter=1, schedule=schedule)[0]


def zero_scorer(d_embed, n_groups):
    s = UnaryScorer(d_embed, n_groups, hidden=4, seed=0)
    s.params["W2"].data = np.zeros_like(s.params["W2"].data)
    s.params["b2"].data = np.zeros_like(s.params["b2"].data)
    return s


def graph_of(w):
    w = np.asarray(w, dtype=np.float64)
    return dense_graph([f"a{i}" for i in range(len(w))], w)


def random_instance(rng, n=None, m=None, coupling_scale=2.0):
    n = n or int(rng.integers(2, 9))
    m = m or int(rng.integers(2, 4))
    E = rng.normal(size=(n, 3))
    w = np.triu(rng.uniform(0, coupling_scale, (n, n)), 1)
    crf = CrfParams(UnaryScorer(3, m, hidden=6, seed=int(rng.integers(1000))),
                    graph_of(w + w.T))
    return crf, E


def exact_kl(q, crf, E):
    """KL(Q || P) by full enumeration."""
    n, m = q.shape
    Y_all = enumerate_assignments(n, m)
    phis = np.array([potential(Y, crf, E) for Y in Y_all])
    logp = phis - logsumexp(phis)
    logq = np.log(np.maximum(q[np.arange(n), Y_all], 1e-300)).sum(axis=1)
    pq = np.exp(logq)
    return float(np.sum(pq * (logq - logp)))


# ---- potential ----

def test_potential_unary_only():
    rng = np.random.default_rng(0)
    E = rng.normal(size=(4, 3))
    crf = CrfParams(UnaryScorer(3, 2, hidden=4, seed=1), graph_of(np.zeros((4, 4))))
    Y = np.array([0, 1, 1, 0])
    theta = crf.scorer.scores(E)
    assert potential(Y, crf, E) == pytest.approx(theta[np.arange(4), Y].sum(), abs=1e-12)


def test_potential_single_edge_equal_labels():
    # a lone edge normalizes to B = 1 whatever its weight
    for weight in (1.0, 4.0):
        crf = CrfParams(zero_scorer(3, 2), graph_of([[0, weight], [weight, 0]]))
        E = np.zeros((2, 3))
        assert potential(np.array([0, 0]), crf, E) == pytest.approx(1.0, abs=1e-12)
        assert potential(np.array([1, 1]), crf, E) == pytest.approx(1.0, abs=1e-12)
        assert potential(np.array([0, 1]), crf, E) == pytest.approx(0.0, abs=1e-12)


def test_potential_matches_term_by_term_sum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        crf, E = random_instance(rng, n=5)
        theta = crf.scorer.scores(E)
        B = crf.graph.coupling()
        Y = rng.integers(0, crf.n_groups, size=5)
        want = sum(theta[u, Y[u]] for u in range(5))
        for u in range(5):
            for v in range(u + 1, 5):
                if Y[u] == Y[v]:
                    want += B[u, v]
        assert potential(Y, crf, E) == pytest.approx(want, abs=1e-12)


# ---- partition function ----

def test_log_partition_single_node_uniform():
    crf = CrfParams(zero_scorer(3, 2), graph_of(np.zeros((1, 1))))
    E = np.zeros((1, 3))
    assert log_partition_bruteforce(crf, E) == pytest.approx(np.log(2.0), abs=1e-12)


def test_log_partition_factorizes_for_independent_nodes():
    rng = np.random.default_rng(2)
    crf = CrfParams(UnaryScorer(3, 3, hidden=5, seed=3), graph_of(np.zeros((2, 2))))
    E = rng.normal(size=(2, 3))
    theta = crf.scorer.scores(E)
    assert log_partition_bruteforce(crf, E) == pytest.approx(
        logsumexp(theta, axis=1).sum(), abs=1e-10)


def test_log_partition_guards_large_instances():
    crf = CrfParams(zero_scorer(3, 2), graph_of(np.zeros((25, 25))))
    with pytest.raises(ValueError, match="too large"):
        log_partition_bruteforce(crf, np.zeros((25, 3)))


# ---- E-step ----

def test_estep_unary_only_is_softmax_and_fixed_point():
    rng = np.random.default_rng(3)
    crf = CrfParams(UnaryScorer(3, 2, hidden=4, seed=4), graph_of(np.zeros((5, 5))))
    E = rng.normal(size=(5, 3))
    theta = crf.scorer.scores(E)
    want = np.exp(theta - logsumexp(theta, axis=1, keepdims=True))
    uniform = MeanField(np.full((5, 2), 0.5))
    one = one_sweep(uniform, crf, E)
    np.testing.assert_allclose(one.q, want, atol=1e-12)
    two = one_sweep(one, crf, E)
    np.testing.assert_array_equal(one.q, two.q)


def test_estep_unary_only_converges_in_one_iteration():
    rng = np.random.default_rng(4)
    crf = CrfParams(UnaryScorer(3, 2, hidden=4, seed=5), graph_of(np.zeros((4, 4))))
    E = rng.normal(size=(4, 3))
    mf, iters = estep_converge(crf, E, softmax_init(crf, E), tol=1e-9)
    assert iters == 1


def test_estep_default_iteration_cap_is_ten():
    import inspect
    assert inspect.signature(estep_converge).parameters["max_iter"].default == 10


def test_estep_strong_edge_consensus():
    # the degree normalization caps a single-edge coupling at exactly 1
    crf = CrfParams(zero_scorer(3, 2), graph_of([[0, 5], [5, 0]]))
    assert crf.graph.coupling()[0, 1] == 1.0
    E = np.zeros((2, 3))
    exact = marginals_bruteforce(crf, E)
    for schedule in ("jacobi", "gauss_seidel"):
        # with zero unaries, m = 2q - 1 obeys m_u = tanh(B m_v / 2); at B = 1
        # its only fixed point is m = 0, so the edge cannot break symmetry
        init = MeanField(np.array([[0.9, 0.1], [0.9, 0.1]]))
        mf, iters = estep_converge(crf, E, init, tol=1e-12, max_iter=300, schedule=schedule)
        assert iters < 300
        np.testing.assert_allclose(mf.q, 0.5, rtol=0, atol=1e-9)
        np.testing.assert_allclose(mf.q, exact.q, rtol=0, atol=1e-9)
        # a revealed account pulls its neighbour out of the opposite mode, to
        # the exact conditional P(y_1 = 0 | y_0 = 0) = sigmoid(B)
        init = MeanField(np.array([[1.0, 0.0], [0.1, 0.9]]), clamped=np.array([True, False]))
        mf, iters = estep_converge(crf, E, init, tol=1e-12, max_iter=300, schedule=schedule)
        assert iters < 300
        np.testing.assert_array_equal(mf.q[0], [1.0, 0.0])
        assert mf.q[1, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), abs=1e-9)


def test_estep_reports_residual_and_convergence():
    # a 20-leaf star from opposite modes: slow under Jacobi, not a cycle
    n = 21
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0
    crf = CrfParams(zero_scorer(3, 2), graph_of(w))
    E = np.zeros((n, 3))
    q0 = np.tile([0.1, 0.9], (n, 1))
    q0[0] = [0.9, 0.1]
    mf, iters = estep_converge(crf, E, MeanField(q0))
    assert iters == 10
    assert mf.residual == pytest.approx(2.2e-3, rel=0.01)
    assert not mf.residual < 1e-6
    mf, iters = estep_converge(crf, E, MeanField(q0), max_iter=50)
    assert iters == 21
    assert mf.residual < 1e-6
    np.testing.assert_allclose(mf.q, 0.5, rtol=0, atol=1e-6)


def test_estep_agrees_with_enumeration_marginals_on_tilted_edge():
    crf = CrfParams(zero_scorer(3, 2), graph_of([[0, 5], [5, 0]]))
    crf.scorer.params["b2"].data = np.array([0.4, 0.0])  # slight pull to group 0
    E = np.zeros((2, 3))
    mf, _ = estep_converge(crf, E, softmax_init(crf, E),
                           tol=1e-12, max_iter=300, schedule="gauss_seidel")
    exact = marginals_bruteforce(crf, E)
    assert np.array_equal(mf.q.argmax(axis=1), exact.q.argmax(axis=1))
    assert np.all(exact.q[:, 0] > 0.5) and np.all(mf.q[:, 0] > 0.5)


def test_estep_clamped_rows_never_move():
    rng = np.random.default_rng(5)
    crf, E = random_instance(rng, n=5, m=2)
    q = np.full((5, 2), 0.5)
    q[2] = [0.0, 1.0]
    mf = MeanField(q, clamped=np.array([False, False, True, False, False]))
    for schedule in ("jacobi", "gauss_seidel"):
        cur = mf
        for _ in range(7):
            cur = one_sweep(cur, crf, E, schedule)
            np.testing.assert_array_equal(cur.q[2], [0.0, 1.0])


def test_estep_rows_stay_normalized():
    rng = np.random.default_rng(6)
    for _ in range(20):
        crf, E = random_instance(rng)
        mf = softmax_init(crf, E)
        for _ in range(5):
            mf = one_sweep(mf, crf, E, "jacobi")
            assert np.all(mf.q >= 0)
            np.testing.assert_allclose(mf.q.sum(axis=1), 1.0, atol=1e-9)


def test_gauss_seidel_free_energy_monotone_over_many_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        crf, E = random_instance(rng, n=int(rng.integers(2, 7)))
        mf = softmax_init(crf, E)
        f_prev = mean_field_free_energy(mf, crf, E)
        for _ in range(8):
            mf = one_sweep(mf, crf, E, "gauss_seidel")
            f = mean_field_free_energy(mf, crf, E)
            assert f >= f_prev - 1e-9
            f_prev = f


def test_converged_beliefs_satisfy_fixed_point_equation():
    rng = np.random.default_rng(8)
    for _ in range(25):
        crf, E = random_instance(rng, n=int(rng.integers(2, 7)))
        mf, _ = estep_converge(crf, E, softmax_init(crf, E),
                               tol=1e-10, max_iter=500, schedule="gauss_seidel")
        theta = crf.scorer.scores(E)
        B = crf.graph.coupling()
        logits = theta + B @ mf.q
        want = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        np.testing.assert_allclose(mf.q, want, atol=1e-8)


def test_label_permutation_equivariance():
    rng = np.random.default_rng(9)
    crf, E = random_instance(rng, n=5, m=3)
    mf1 = one_sweep(softmax_init(crf, E), crf, E)
    perm = np.array([2, 0, 1])
    # permute the scorer's output columns
    crf.scorer.params["W2"].data = crf.scorer.params["W2"].data[:, perm]
    crf.scorer.params["b2"].data = crf.scorer.params["b2"].data[perm]
    mf2 = one_sweep(softmax_init(crf, E), crf, E)
    np.testing.assert_allclose(mf2.q, mf1.q[:, perm], atol=1e-12)


def test_unary_shift_invariance():
    rng = np.random.default_rng(10)
    crf, E = random_instance(rng, n=4, m=2)
    mf1 = one_sweep(softmax_init(crf, E), crf, E)
    crf.scorer.params["b2"].data = crf.scorer.params["b2"].data + 7.5  # same shift per group
    mf2 = one_sweep(softmax_init(crf, E), crf, E)
    np.testing.assert_allclose(mf2.q, mf1.q, atol=1e-12)


# ---- free energy and KL ----

def test_free_energy_pure_entropy():
    crf = CrfParams(zero_scorer(3, 2), graph_of(np.zeros((3, 3))))
    E = np.zeros((3, 3))
    mf = MeanField(np.full((3, 2), 0.5))
    assert mean_field_free_energy(mf, crf, E) == pytest.approx(3 * np.log(2), abs=1e-12)


def test_free_energy_one_hot_is_potential():
    rng = np.random.default_rng(11)
    crf, E = random_instance(rng, n=5, m=2)
    Y = rng.integers(0, 2, size=5)
    q = np.zeros((5, 2))
    q[np.arange(5), Y] = 1.0
    assert mean_field_free_energy(MeanField(q), crf, E) == pytest.approx(
        potential(Y, crf, E), abs=1e-12)


def test_kl_identity_against_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(30):
        crf, E = random_instance(rng, n=int(rng.integers(2, 7)))
        mf, _ = estep_converge(crf, E, softmax_init(crf, E), tol=1e-12, max_iter=200)
        lhs = log_partition_bruteforce(crf, E) - mean_field_free_energy(mf, crf, E)
        assert lhs == pytest.approx(exact_kl(mf.q, crf, E), abs=1e-8)


# ---- exact marginals ----

def test_marginals_independent_nodes_are_softmax():
    rng = np.random.default_rng(13)
    crf = CrfParams(UnaryScorer(3, 2, hidden=4, seed=14), graph_of(np.zeros((4, 4))))
    E = rng.normal(size=(4, 3))
    theta = crf.scorer.scores(E)
    want = np.exp(theta - logsumexp(theta, axis=1, keepdims=True))
    np.testing.assert_allclose(marginals_bruteforce(crf, E).q, want, atol=1e-12)


def test_marginals_symmetric_instance_swap_invariant():
    crf = CrfParams(zero_scorer(3, 2), graph_of([[0, 2], [2, 0]]))
    E = np.zeros((2, 3))
    q = marginals_bruteforce(crf, E).q
    np.testing.assert_allclose(q[0], q[1], atol=1e-12)
    np.testing.assert_allclose(q, 0.5, atol=1e-12)  # label symmetry too


def test_mean_field_tracks_exact_marginals_loosely():
    rng = np.random.default_rng(14)
    crf, E = random_instance(rng, n=8, m=2, coupling_scale=1.0)
    mf, _ = estep_converge(crf, E, softmax_init(crf, E), tol=1e-10, max_iter=300)
    exact = marginals_bruteforce(crf, E)
    # approximation-quality report, not equality: argmax agreement
    assert np.mean(mf.q.argmax(1) == exact.q.argmax(1)) >= 0.75


def test_mean_field_validation():
    with pytest.raises(ValueError):
        MeanField(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        MeanField(np.array([[-0.1, 1.1]]))


# ---- the edge-list coupling against the dense formulas ----

def dense_sweep(q, theta, B, clamped, schedule):
    """One sweep written on the dense coupling matrix B."""
    out = q.copy()
    if schedule == "jacobi":
        z = theta + B @ q
        out = np.exp(z - logsumexp(z, axis=1, keepdims=True))
        out[clamped] = q[clamped]
        return out
    for u in range(len(q)):
        if not clamped[u]:
            z = theta[u] + B[u] @ out
            out[u] = np.exp(z - logsumexp(z))
    return out


def sparse_instance(rng, m=None):
    """A random field on a graph with isolated accounts, and beliefs with clamped
    rows, over ``m`` groups (drawn from 2 to 4 if not given)."""
    n, m = int(rng.integers(2, 40)), m or int(rng.integers(2, 5))
    w = np.triu(rng.exponential(2.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1)), 1)
    isolated = rng.random(n) < 0.2
    w[isolated] = w[:, isolated] = 0.0
    crf = CrfParams(UnaryScorer(3, m, hidden=6, seed=int(rng.integers(1000))),
                    graph_of(w + w.T))
    E = rng.normal(size=(n, 3))
    rows = np.nonzero(rng.random(n) < 0.25)[0]
    mf = softmax_init(crf, E, rows, rng.integers(m, size=len(rows)))
    mf.q[~mf.clamped] = rng.dirichlet(np.ones(m), int((~mf.clamped).sum()))
    return crf, E, mf


@pytest.mark.parametrize("schedule", ["jacobi", "gauss_seidel"])
def test_one_sweep_equals_the_dense_sweep(schedule):
    rng = np.random.default_rng(40)
    for _ in range(100):
        crf, E, mf = sparse_instance(rng)
        got = one_sweep(mf, crf, E, schedule).q
        want = dense_sweep(mf.q, crf.scorer.scores(E), crf.graph.coupling(), mf.clamped, schedule)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.array_equal(got[mf.clamped], mf.q[mf.clamped])


def test_couple_equals_the_dense_product_for_all_rows_and_each_row():
    rng = np.random.default_rng(41)
    for _ in range(50):
        crf, _, mf = sparse_instance(rng)
        g, B = crf.graph, crf.graph.coupling()
        np.testing.assert_allclose(g.couple(mf.q), B @ mf.q, rtol=0, atol=1e-12)
        for u in range(g.n):
            np.testing.assert_allclose(g.couple(mf.q, u), B[u] @ mf.q, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_the_jacobi_sweep_with_the_derived_last_column_equals_the_dense_update(m):
    # the sweep couples M - 1 columns and takes the last from the row sums
    rng = np.random.default_rng(43)
    n_clamped = 0
    for _ in range(100):
        crf, E, mf = sparse_instance(rng, m)
        want = row_softmax(crf.scorer.scores(E) + crf.graph.coupling() @ mf.q)
        want[mf.clamped] = mf.q[mf.clamped]
        got = one_sweep(mf, crf, E).q
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert np.array_equal(got[mf.clamped], mf.q[mf.clamped])
        n_clamped += int(mf.clamped.sum())
    assert n_clamped > 100


def test_row_sums_are_the_coupling_summed_over_each_row():
    rng = np.random.default_rng(44)
    for _ in range(50):
        g = sparse_instance(rng)[0].graph
        np.testing.assert_allclose(g.row_sums, g.coupling().sum(axis=1), rtol=0, atol=1e-13)
        assert (g.row_sums[g.deg == 0] == 0).all()


def test_free_energy_pair_term_equals_the_dense_formula():
    rng = np.random.default_rng(42)
    for _ in range(100):
        crf, E, mf = sparse_instance(rng)
        q, theta = mf.q, crf.scorer.scores(E)
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy = -np.where(q > 0, q * np.log(q), 0.0).sum()
        want = (q * theta).sum() + 0.5 * (crf.graph.coupling() * (q @ q.T)).sum() + entropy
        assert mean_field_free_energy(mf, crf, E) == pytest.approx(want, rel=0, abs=1e-12)


# ---- the scorer against its tape ----

def test_a_scorer_called_again_and_again_matches_the_tape_bit_for_bit():
    # one scorer, called again and again and alternately on two account
    # counts, against a tape over the same parameters each time; its
    # parameters move between calls, as in the scorer fit
    rng = np.random.default_rng(43)
    d, M = 5, 3
    Es = [rng.normal(size=(V, d)) for V in (40, 17)]
    Qs = [rng.dirichlet(np.ones(M), size=len(E)) for E in Es]
    scorer = UnaryScorer(d, M, hidden=7, seed=2)
    held = []
    for call, i in enumerate([1, 1, 0, 1, 0, 0, 1]):
        E, Q, scale = Es[i], Qs[i], (-1.0 / 40, 0.7, -1.0)[call % 3]
        twin = UnaryScorer(d, M, hidden=7)  # the same parameters, nothing else
        for k, t in scorer.params.items():
            twin.params[k].data = t.data.copy()
        E_got, E_want = Tensor(E), Tensor(E)
        for t in scorer.params.values():
            t.grad = None
        assert scorer.crossent(E_got, Q, scale) == ref.scorer_crossent(twin, E_want, Q, scale)
        for k, t in scorer.params.items():
            assert np.array_equal(t.grad, twin.params[k].grad), k
        assert np.array_equal(E_got.grad, E_want.grad)
        assert scorer.crossent(E, Q) == ref.scorer_crossent(twin, E, Q)
        theta = scorer.scores(E)
        assert np.array_equal(theta, ref.scorer_forward_t(twin, E).data)
        held.append((theta, theta.copy()))
        for t in scorer.params.values():
            t.data = t.data - 0.1 * t.grad
    # later calls never write into what an earlier call returned
    for theta, copy in held:
        assert np.array_equal(theta, copy)
