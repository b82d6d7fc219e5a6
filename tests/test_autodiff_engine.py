import gc

import numpy as np
import pytest

import coact.autodiff as ad
import tape
import tape_reference as ref
from coact.autodiff import Adam
from coact.crf import UnaryScorer
from tape import Tensor


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x, flat_g = x.ravel(), g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f()
        flat_x[i] = orig - h
        dn = f()
        flat_x[i] = orig
        flat_g[i] = (up - dn) / (2 * h)
    return g


def check(build, *shapes, seed=0):
    """Compare backward() against central differences for a scalar graph."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s)) for s in shapes]
    out = build(*tensors)
    out.backward()
    for t in tensors:
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        want = fd_grad(lambda t=t: build(*tensors).data.item(), t.data)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)


def test_add_mul_broadcast():
    check(lambda a, b: ((a + b) * a).sum(), (3, 4), (4,))


def test_sub_div():
    check(lambda a, b: (a - (b * b - 3.0) * a - b).sum(), (5,), (5,))


def test_matmul_chain():
    check(lambda a, b, c: ((a @ b) @ c).sum(), (3, 4), (4, 2), (2, 3))


def test_exp_log_tanh_cos():
    check(lambda a: (a.tanh().exp() + a.cos()).sum(), (4, 3))


def test_pow_and_transpose():
    check(lambda a: ((a * a * a).T @ a).sum(), (4, 2))


def test_sum_axis_keepdims():
    check(lambda a: (a - a.sum(axis=1, keepdims=True) * 0.1).sum(), (3, 5))


def test_logsumexp_grad():
    check(lambda a: tape.logsumexp(a, axis=1).sum(), (4, 6))


def test_logsumexp_matches_value():
    from scipy.special import logsumexp
    x = np.random.default_rng(0).normal(size=(3, 5))
    np.testing.assert_allclose(tape.logsumexp(Tensor(x), axis=1).data,
                               logsumexp(x, axis=1), rtol=1e-12)


def test_softmax_rows_normalize():
    x = np.random.default_rng(1).normal(size=(4, 7))
    p = tape.softmax(Tensor(x), axis=1).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_concat_grad():
    check(lambda a, b: (tape.concat([a, b], axis=1) * tape.concat([a, b], axis=1)).sum(),
          (3, 2), (3, 4))


def test_take_rows_repeated_indices():
    rng = np.random.default_rng(2)
    t = Tensor(rng.normal(size=(4, 3)))
    idx = np.array([0, 2, 0, 3])
    rows = tape.take_rows(t, idx)
    out = (rows * rows).sum()
    out.backward()
    want = fd_grad(lambda: float((t.data[idx] ** 2).sum()), t.data)
    np.testing.assert_allclose(t.grad, want, rtol=1e-5, atol=1e-8)


def test_pick_grad():
    rng = np.random.default_rng(3)
    t = Tensor(rng.normal(size=(5, 4)))
    rows = np.arange(5)
    cols = np.array([0, 3, 1, 1, 2])
    tape.pick(t, rows, cols).sum().backward()
    want = np.zeros((5, 4))
    want[rows, cols] = 1.0
    np.testing.assert_allclose(t.grad, want)


def test_grad_accumulates_across_backward_calls():
    t = Tensor(np.array([2.0]))
    (t * 3.0).sum().backward()
    (t * 5.0).sum().backward()
    np.testing.assert_allclose(t.grad, [8.0])


def test_diamond_graph_grad():
    # the same node feeds two consumers; grads must sum
    t = Tensor(np.array([1.5]))
    y = t * t + t * 3.0
    y.sum().backward()
    np.testing.assert_allclose(t.grad, [2 * 1.5 + 3.0])


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2))).backward()


def test_tapes_are_freed_without_the_cycle_collector():
    # a backward closure that reads its own output node makes the tape a
    # reference cycle, which only the cyclic collector frees; the scorer fit
    # in em.initialize then holds hundreds of dead tapes at once
    gc.collect()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if isinstance(o, Tensor)}
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = (x.exp() + x.tanh() + tape.softmax(x, axis=1)).sum()
        out = out + tape.logsumexp(x, axis=1).sum()
        out.backward()
        assert x.grad is not None
        del x, out
        leaked = [o for o in gc.get_objects()
                  if isinstance(o, Tensor) and id(o) not in before]
    finally:
        gc.enable()
    assert leaked == []


def test_constants_get_no_gradient_and_parameter_gradients_do_not_change():
    # the scorer-fit loss of em.initialize plus a gather, a pick and a concat:
    # built once with every input a Tensor leaf (so backward also fills the
    # inputs' gradients) and once with the inputs as constants
    rng = np.random.default_rng(4)
    E = rng.normal(size=(30, 5))
    onehot = np.eye(2)[rng.integers(2, size=30)]
    extra = rng.normal(size=(30, 3))
    idx = rng.integers(30, size=12)

    def grads(wrap):
        scorer = UnaryScorer(5, 2, hidden=7, seed=1)
        consts = [wrap(E), wrap(onehot), wrap(extra), wrap(idx[:, None] * 0.5)]
        e, y, x, s = consts
        theta = ref.scorer_forward_t(scorer, e)
        log_probs = theta - tape.logsumexp(theta, axis=1, keepdims=True)
        loss = -(y * log_probs).sum() * (1.0 / len(E))
        mixed = tape.concat([tape.take_rows(theta, idx), tape.take_rows(x, idx), s], axis=1)
        loss = loss + (mixed * mixed).sum() * (x.sum() + 100.0)
        loss = loss + tape.pick(theta - y, idx, idx % 2).sum()
        loss.backward()
        return {k: t.grad for k, t in scorer.params.items()}, [c.grad for c in consts]

    want, leaf_grads = grads(Tensor)
    got, const_grads = grads(tape.as_tensor)
    assert all(g is not None for g in leaf_grads)
    assert const_grads == [None] * 4
    assert want.keys() == got.keys()
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_model_gradients_and_scorer_fit_do_not_depend_on_constants(monkeypatch):
    # every constant of the tapes goes through tape.as_tensor; patched to
    # build Tensor leaves, backward also fills gradients for those constants.
    # The model's gradients and the scorer fit of em.initialize run on their
    # tape forms, which the library's adjoints match bit for bit
    from coact.em import initialize
    from coact.events import Dataset, Event, EventSequence
    from coact.pointprocess import SeqModelConfig, SequenceModel

    rng = np.random.default_rng(6)
    seqs = [EventSequence(f"s{i}", [Event(f"u{int(rng.integers(8))}", float(t))
                                    for t in np.sort(rng.uniform(0, 20, 6))])
            for i in range(5)]
    d = Dataset.from_sequences(seqs)
    cfg = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=2)
    monkeypatch.setattr(UnaryScorer, "crossent", ref.scorer_crossent)

    def run():
        model = SequenceModel(d.registry.keys, cfg, seed=2)
        grads = ref.grad_log_likelihood(model, d.sequences)
        scorer = initialize(model, 2, seed=0, hidden=5).scorer
        return grads, {k: t.data for k, t in scorer.params.items()}

    got = run()
    as_tensor = tape.as_tensor
    monkeypatch.setattr(tape, "as_tensor", lambda x: as_tensor(x) if isinstance(
        x, (Tensor, ad.Tensor)) else Tensor(x))
    want = run()
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for k in g:
            assert np.array_equal(g[k], w[k]), k


def test_adam_decreases_quadratic():
    t = ad.Tensor(np.array([5.0, -3.0]))
    opt = Adam({"t": t}, lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        t.grad = 2.0 * t.data  # gradient of sum(t * t)
        opt.step()
    assert np.all(np.abs(t.data) < 0.05)


def test_adam_weight_decay_shrinks_unused_param():
    t = ad.Tensor(np.array([1.0]))
    u = ad.Tensor(np.array([4.0]))  # never in the loss
    opt = Adam({"t": t, "u": u}, lr=0.01, weight_decay=0.1)
    for _ in range(50):
        opt.zero_grad()
        t.grad = 2.0 * t.data
        u.grad = np.zeros_like(u.data)  # decay applies on top of a zero grad
        opt.step()
    assert abs(u.data[0]) < 4.0
