import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad

import tape
import tape_reference as ref
from coact.autodiff import Tensor
from coact.events import Dataset, Event, EventSequence
from coact.pointprocess import (
    SeqModelConfig,
    SequenceModel,
    TrainConfig,
    fit,
    positional_encoding,
    train,
)

TINY = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=2,
                      time_scale_min=0.1, time_scale_max=100.0)


def seq(*pairs, sid="s"):
    return EventSequence(sid, [Event(a, float(t)) for a, t in pairs])


def toy_model(n_accounts=4, config=TINY, seed=0):
    return SequenceModel([f"u{i}" for i in range(n_accounts)], config, seed=seed)


def random_dataset(rng, n_accounts=6, n_sequences=10, max_len=9):
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        n = int(rng.integers(2, max_len))
        t = np.sort(rng.uniform(0, 20, n))
        seqs.append(EventSequence(f"s{i}", [
            Event(accounts[int(rng.integers(n_accounts))], float(x)) for x in t
        ]))
    return Dataset.from_sequences(seqs)


# ---- featurize ----

def test_feature_width_is_concatenation():
    m = toy_model()
    X = m.featurize(seq(("u0", 0.0), ("u1", 1.0), ("u2", 3.0)))
    assert X.shape == (3, 12)


def test_first_event_gap_is_zero():
    m = toy_model()
    X = m.featurize(seq(("u0", 5.0), ("u1", 6.0)))
    # phase init is zero, so cos(freq * 0 + 0) = 1 for every kernel
    np.testing.assert_array_equal(X[0, 8:], np.ones(4))


def test_equal_spacing_gives_equal_rows():
    m = toy_model()
    X1 = m.featurize(seq(("u0", 0.0), ("u1", 2.0)))
    X2 = m.featurize(seq(("u0", 10.0), ("u1", 12.0)))
    np.testing.assert_array_equal(X1[1], X2[1])


def test_unknown_account_rejected():
    m = toy_model()
    with pytest.raises(KeyError):
        m.featurize(seq(("stranger", 0.0)))


def test_positional_encoding_shape_and_range():
    pe = positional_encoding(7, 5)
    assert pe.shape == (7, 5)
    assert np.all(np.abs(pe) <= 1.0)


# ---- encode ----

def test_single_event_context_is_start_token_value():
    m = toy_model()
    X = m.featurize(seq(("u0", 0.0)))
    C = m.encode(X)
    start = m.params["start_token"].data
    want = np.tanh((start @ m.params["W_v"].data) @ m.params["F_W"].data
                   + m.params["F_b"].data)
    np.testing.assert_allclose(C, want, atol=1e-12)


def test_causality_under_future_mutation():
    m = toy_model()
    base = seq(("u0", 0.0), ("u1", 1.0), ("u2", 2.0), ("u3", 4.0))
    mutated = seq(("u0", 0.0), ("u1", 1.0), ("u0", 3.5), ("u1", 4.0))  # events 3,4 changed
    C1 = m.encode(m.featurize(base))
    C2 = m.encode(m.featurize(mutated))
    np.testing.assert_array_equal(C1[:3], C2[:3])  # exact: rows 1..3 see events < 3 only


def test_encode_matches_straight_line_recomputation():
    m = toy_model(seed=3)
    s = seq(("u1", 0.5), ("u3", 1.25), ("u0", 4.0))
    X = m.featurize(s)
    C = m.encode(X)

    start = m.params["start_token"].data[0]
    Wq, Wk, Wv = (m.params[k].data for k in ("W_q", "W_k", "W_v"))
    Fw, Fb = m.params["F_W"].data, m.params["F_b"].data
    rows = [start, X[0], X[1]]  # strictly-causal shift
    scale = 1.0 / np.sqrt(m.config.d_feat)
    for i in range(3):
        q = rows[i] @ Wq
        keys = np.stack([r @ Wk for r in rows[: i + 1]])
        vals = np.stack([r @ Wv for r in rows[: i + 1]])
        logits = keys @ q * scale
        a = np.exp(logits - logits.max())
        a /= a.sum()
        want = np.tanh(a @ vals @ Fw + Fb)
        np.testing.assert_allclose(C[i], want, atol=1e-10)


# ---- likelihood ----

def test_uniform_mark_head_gives_log_quarter():
    m = toy_model()
    for k in ("mark_W1", "mark_W2", "mark_b2"):
        m.params[k].data = np.zeros_like(m.params[k].data)
    s = seq(("u0", 0.0), ("u2", 1.0), ("u3", 2.5))
    mark, _ = m.log_likelihood_terms(s)
    assert mark == pytest.approx(3 * np.log(0.25), abs=1e-12)


def test_standard_lognormal_at_unit_gap():
    cfg = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=1,
                         time_scale_min=0.1, time_scale_max=100.0)
    m = toy_model(config=cfg)
    for k in ("mix_Ww", "mix_bw", "mix_Ws", "mix_bs", "mix_Wmu", "mix_bmu"):
        m.params[k].data = np.zeros_like(m.params[k].data)
    # gaps: first event uses the configured constant 1.0, second has t-diff 1.0
    _, time_ll = m.log_likelihood_terms(seq(("u0", 0.0), ("u1", 1.0)))
    assert time_ll == pytest.approx(2 * np.log(1.0 / np.sqrt(2 * np.pi)), abs=1e-9)


def test_mark_probabilities_normalize():
    m = toy_model(seed=5)
    probs = m.mark_probs(seq(("u0", 0.0), ("u1", 0.5), ("u2", 0.7)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_time_density_integrates_to_one():
    m = toy_model(seed=7)
    s = seq(("u0", 0.0), ("u1", 2.0), ("u2", 2.4))
    w, mu, s_ = m.time_mixture(s)
    for i in range(len(w)):
        total, _ = quad(lambda tau: m.time_density(tau, w[i], mu[i], s_[i]),
                        0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-3)
    # the same head the likelihood trains: first gap 1.0, then the time diffs
    _, time_ll = m.log_likelihood_terms(s)
    logs = [np.log(m.time_density(tau, w[i], mu[i], s_[i])) for i, tau in enumerate((1.0, 2.0, 0.4))]
    assert sum(logs) == pytest.approx(time_ll, abs=1e-9)


def test_density_without_jacobian_is_plain_normal_of_log_gap():
    cfg = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=1,
                         time_scale_min=0.1, time_scale_max=100.0)
    m = toy_model(config=cfg)
    for k in ("mix_Ww", "mix_bw", "mix_Ws", "mix_bs", "mix_Wmu", "mix_bmu"):
        m.params[k].data = np.zeros_like(m.params[k].data)
    taus = (1.0, 3.0)
    _, time_ll = m.log_likelihood_terms(seq(("u0", 0.0), ("u1", 3.0)))
    # both events: standard normal density of log(tau), times the 1/tau Jacobian
    plain = sum(-0.5 * np.log(2 * np.pi) - 0.5 * np.log(tau) ** 2 for tau in taus)
    assert time_ll == pytest.approx(plain - sum(np.log(tau) for tau in taus), abs=1e-9)


def test_translation_invariance_exact():
    m = toy_model(seed=1)
    base = seq(("u0", 1.0), ("u2", 3.5), ("u1", 7.25))
    shifted = seq(("u0", 1025.0), ("u2", 1027.5), ("u1", 1031.25))
    assert m.log_likelihood(base) == m.log_likelihood(shifted)


# ---- gradients ----

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, n_accounts=6)
    cfg = SeqModelConfig(d_embed=8, d_pos=4, d_time=4, n_mix=2,
                         time_scale_min=0.1, time_scale_max=100.0)
    m = SequenceModel(d.registry.keys, cfg, seed=1)
    batch = d.sequences[:2]
    grads = m.grad_log_likelihood(batch)
    h = 1e-4
    coord_rng = np.random.default_rng(0)
    n_checked = 0
    for name, t in m.params.items():
        flat = t.data.ravel()
        for _ in range(3):
            j = int(coord_rng.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + h
            up = sum(m.log_likelihood(s) for s in batch)
            flat[j] = orig - h
            dn = sum(m.log_likelihood(s) for s in batch)
            flat[j] = orig
            fd = (up - dn) / (2 * h)
            an = grads[name].ravel()[j]
            if abs(fd) > 1e-10 or abs(an) > 1e-10:
                assert abs(fd - an) / max(abs(fd), abs(an)) < 1e-4, (name, j)
            n_checked += 1
    assert n_checked >= 50


def test_structurally_unused_parameters_get_zero_grad():
    # on the tape reference, which the kernel matches bit for bit
    m = toy_model(seed=2)
    s = seq(("u0", 0.0), ("u1", 1.0))
    m.zero_grad()
    _, time_t = ref.ll_terms_t(m, s)
    time_t.backward()
    # the time term never touches the mark head
    for k in ("mark_W1", "mark_b1", "mark_W2", "mark_b2"):
        assert m.params[k].grad is None or not np.any(m.params[k].grad)
    m.zero_grad()
    mark_t, _ = ref.ll_terms_t(m, s)
    mark_t.backward()
    for k in ("mix_Ww", "mix_bw", "mix_Ws", "mix_bs", "mix_Wmu", "mix_bmu"):
        assert m.params[k].grad is None or not np.any(m.params[k].grad)
    m.zero_grad()


def awkward_dataset(rng, n_accounts, n_sequences, max_len=40):
    """Sequences of 1..max_len events that repeat a few accounts, some with tied times."""
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        n = 1 if i % 4 == 0 else int(rng.integers(2, max_len))
        t = np.sort(rng.uniform(0, 20, n))
        if n > 2 and i % 3 == 0:
            t[2] = t[1]
        pool = rng.choice(n_accounts, size=max(1, n // 3))
        seqs.append(EventSequence(f"s{i}", [
            Event(accounts[int(pool[rng.integers(len(pool))])], float(x)) for x in t
        ]))
    return Dataset.from_sequences(seqs)


@pytest.mark.parametrize("trial", range(12))
def test_kernel_matches_the_tape_bit_for_bit(trial):
    rng = np.random.default_rng(100 + trial)
    d = awkward_dataset(rng, int(rng.integers(2, 10)), int(rng.integers(2, 9)))
    config = TINY if trial % 2 else SeqModelConfig()
    m = SequenceModel(d.registry.keys, config, seed=trial)
    scale = (1.0, 1.0 / 3.0, -1.0, 0.7)[trial % 4]
    held = {k: np.random.default_rng(trial).normal(size=t.data.shape)
            for k, t in m.params.items()} if trial % 3 == 0 else {}

    def run(backward_nll, batch):
        m.zero_grad()
        for k, g in held.items():  # gradient left over from an earlier batch
            m.params[k].grad = g.copy()
        nll = backward_nll(batch, scale)
        grads = {k: t.grad for k, t in m.params.items()}
        m.zero_grad()
        return nll, grads

    want_nll, want = run(lambda b, sc: ref.backward_nll(m, b, sc), d.sequences)
    got_nll, got = run(m.backward_nll, m.prepare(d.sequences))
    assert got_nll == want_nll
    assert got.keys() == want.keys()
    for k in want:
        assert np.array_equal(got[k], want[k]), k
    for s in d.sequences:
        mark_t, time_t = ref.ll_terms_t(m, s)
        assert m.log_likelihood_terms(s) == (mark_t.item(), time_t.item())
        assert m.log_likelihood(s) == mark_t.item() + time_t.item()
    want = ref.grad_log_likelihood(m, d.sequences)
    got = m.grad_log_likelihood(d.sequences)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_numpy_surface_matches_the_tape():
    rng = np.random.default_rng(31)
    d = awkward_dataset(rng, 6, 6)
    m = SequenceModel(d.registry.keys, TINY, seed=3)
    for s in d.sequences:
        idx = np.array([d.registry.index(e.account) for e in s.events])
        X_t = ref.featurize_t(m, idx, np.array([e.t for e in s.events]))
        C_t = ref.encode_t(m, X_t)
        assert np.array_equal(m.featurize(s), X_t.data)
        assert np.array_equal(m.encode(X_t.data), C_t.data)
        assert np.array_equal(m.mark_probs(s), tape.softmax(ref.mark_logits_t(m, C_t), axis=1).data)
        log_w, mu, log_s = ref.mixture_t(m, C_t)
        for got, want in zip(m.time_mixture(s), (np.exp(log_w.data), mu.data, np.exp(log_s.data))):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_shorter_position_encodings_are_the_top_rows_of_a_longer_one(dim):
    # prepare slices one table at the batch's longest length
    table = positional_encoding(300, dim)
    for length in range(1, 301):
        assert np.array_equal(positional_encoding(length, dim), table[:length])


def test_batch_gradient_is_sum_of_sequence_gradients():
    rng = np.random.default_rng(4)
    d = random_dataset(rng, n_accounts=4, n_sequences=2)
    m = SequenceModel(d.registry.keys, TINY, seed=0)
    g_all = m.grad_log_likelihood(d.sequences)
    g_a = m.grad_log_likelihood(d.sequences[:1])
    g_b = m.grad_log_likelihood(d.sequences[1:])
    for k in g_all:
        np.testing.assert_allclose(g_all[k], g_a[k] + g_b[k], atol=1e-12)


# ---- training ----

def test_training_loss_non_increasing_smoothed():
    rng = np.random.default_rng(5)
    d = random_dataset(rng, n_accounts=5, n_sequences=20)
    cfg = TrainConfig(epochs=12, batch_size=32, patience=12, seed=0)
    m = train(d, cfg, TINY)
    nll = np.array([h["train_loss"] for h in m.history])
    smooth = np.convolve(nll, np.ones(3) / 3, mode="valid")
    assert np.all(np.diff(smooth) <= 1e-6)


def test_fit_stops_after_patience_and_restores_best_epoch():
    best_epoch, patience = 3, 2
    x = Tensor(np.zeros(2))
    scored = []  # parameter values at each val_fn call; the first is the start

    def batch_loss(batch):
        x.grad = np.array([1.0, -2.0]) * len(batch)
        return float(len(batch))

    def val_fn():
        scored.append(x.data.copy())
        epoch = len(scored) - 2
        return float(epoch if epoch <= best_epoch else 2 * best_epoch - epoch)

    start, best, history = fit(
        {"x": x}, list(range(5)), batch_loss, val_fn, epochs=50, lr=0.1,
        weight_decay=0.0, batch_size=2, patience=patience, rng=np.random.default_rng(0))
    assert [h["epoch"] for h in history] == list(range(best_epoch + 1 + patience))
    assert [h["val"] for h in history] == [0.0, 1.0, 2.0, 3.0, 2.0, 1.0]
    assert all(h["train_loss"] == 1.0 for h in history)
    assert (start, best) == (-1.0, float(best_epoch))
    np.testing.assert_array_equal(x.data, scored[best_epoch + 1])
    assert not np.array_equal(x.data, scored[-1])


@pytest.mark.parametrize("batch_size", [0, -3])
def test_fit_rejects_a_batch_size_below_one(batch_size):
    # range(0, n, -3) is empty: no Adam step would run and nothing would say so
    x = Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="batch_size"):
        fit({"x": x}, [1, 2, 3], lambda batch: 0.0, lambda: 0.0, epochs=2, lr=0.1,
            weight_decay=0.0, batch_size=batch_size, patience=2,
            rng=np.random.default_rng(0))


@pytest.mark.parametrize("epochs,patience", [(0, 2), (-1, 2), (2, 0), (2, -2)])
def test_fit_rejects_epochs_or_patience_below_one(epochs, patience):
    # range(-1) is empty: no epoch would run and nothing would say so
    x = Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="epochs" if patience == 2 else "patience"):
        fit({"x": x}, [1, 2, 3], lambda batch: 0.0, lambda: 0.0, epochs=epochs, lr=0.1,
            weight_decay=0.0, batch_size=2, patience=patience,
            rng=np.random.default_rng(0))


@pytest.mark.parametrize("bad", [{"d_pos": -1}, {"d_time": -1}, {"d_embed": 0}, {"n_mix": 0}])
def test_model_config_rejects_negative_or_empty_widths(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        SeqModelConfig(**bad)


@pytest.mark.parametrize("lr,weight_decay", [(np.nan, 0.0), (0.0, 0.0), (-0.1, 0.0),
                                             (np.inf, 0.0), (0.1, -1.0), (0.1, np.nan)])
def test_fit_rejects_non_finite_or_out_of_range_step_sizes(lr, weight_decay):
    x = Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="lr" if weight_decay == 0.0 else "weight_decay"):
        fit({"x": x}, [1, 2, 3], lambda batch: 0.0, lambda: 0.0, epochs=2, lr=lr,
            weight_decay=weight_decay, batch_size=2, patience=2,
            rng=np.random.default_rng(0))


def test_training_beats_untrained_on_heldout():
    rng = np.random.default_rng(6)
    d = random_dataset(rng, n_accounts=5, n_sequences=24)
    held = Dataset(d.sequences[-4:], d.registry)
    fit_on = Dataset(d.sequences[:-4], d.registry)
    cfg = TrainConfig(epochs=15, batch_size=32, patience=15, seed=0)
    trained = train(fit_on, cfg, TINY)
    untrained = SequenceModel(d.registry.keys, TINY, seed=0)
    ll_trained = sum(trained.log_likelihood(s) for s in held.sequences)
    ll_untrained = sum(untrained.log_likelihood(s) for s in held.sequences)
    assert ll_trained > ll_untrained


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    d = random_dataset(rng, n_accounts=4, n_sequences=8)
    cfg = TrainConfig(epochs=4, batch_size=4, patience=4, seed=11)
    m1 = train(d, cfg, TINY)
    m2 = train(d, cfg, TINY)
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)


@pytest.mark.parametrize("batch_size", [1, 3, 4, 64])
@pytest.mark.parametrize("with_val", [False, True])
def test_training_with_a_helper_is_bit_identical_to_without(forks, monkeypatch, tmp_path,
                                                            batch_size, with_val):
    # 11 training sequences: batches of 1, of 3 (the last of 2), of 4 (the
    # last of 3) and one batch of 11
    d = random_dataset(np.random.default_rng(12), n_accounts=5, n_sequences=16)
    fit_on = Dataset(d.sequences[:11], d.registry)
    val = Dataset(d.sequences[11:], d.registry) if with_val else None
    cfg = TrainConfig(epochs=3, batch_size=batch_size, patience=3, seed=5)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = train(fit_on, cfg, TINY, val=val)
    assert forks == []
    got = train(fit_on, cfg, TINY, val=val)
    assert len(forks) == 1
    for k in want.params:
        assert np.array_equal(got.params[k].data, want.params[k].data), k
    assert got.history == want.history
    want.save(tmp_path / "want.npz")
    got.save(tmp_path / "got.npz")
    assert (tmp_path / "got.npz").read_bytes() == (tmp_path / "want.npz").read_bytes()


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    d = random_dataset(rng, n_accounts=4, n_sequences=4)
    m = SequenceModel(d.registry.keys, TINY, seed=0)
    path = tmp_path / "model.npz"
    m.save(path)
    m2 = SequenceModel.load(path)
    assert m2.accounts == m.accounts
    s = d.sequences[0]
    assert m2.log_likelihood(s) == m.log_likelihood(s)


def legacy_checkpoint(path, m, **changes):
    """Save ``m`` with the config keys an older release stored, then ``changes``."""
    d = m.config.d_feat
    config = {**asdict(m.config), "d_attn": d, "d_context": d, "d_mark_hidden": d,
              "tie_mark_head": True, "first_gap": 1.0, "min_gap": 1e-8,
              "time_density_jacobian": True, "pe_base": 1e4, "time_unit": 1.0, **changes}
    meta = json.dumps({"version": 1, "accounts": m.accounts, "config": config})
    np.savez(path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8),
             **{k: t.data for k, t in m.params.items()})
    return path


def test_checkpoint_with_folded_config_keys_loads_at_their_fixed_values(tmp_path):
    rng = np.random.default_rng(9)
    d = random_dataset(rng, n_accounts=4, n_sequences=3)
    m = SequenceModel(d.registry.keys, TINY, seed=4)
    for i, changes in enumerate([{}, {"d_attn": 0, "d_context": 0, "d_mark_hidden": 0}]):
        m2 = SequenceModel.load(legacy_checkpoint(tmp_path / f"old{i}.npz", m, **changes))
        assert m2.config == m.config
        for s in d.sequences:
            assert m2.log_likelihood(s) == m.log_likelihood(s)


@pytest.mark.parametrize("key,value", [("time_unit", 2.0), ("tie_mark_head", False),
                                       ("time_density_jacobian", False), ("first_gap", 0.5),
                                       ("min_gap", 1e-6), ("pe_base", 100.0),
                                       ("d_attn", 7), ("d_mark_hidden", 3), ("no_such_key", 1)])
def test_checkpoint_with_another_value_of_a_folded_key_is_rejected(tmp_path, key, value):
    m = toy_model()
    path = legacy_checkpoint(tmp_path / "old.npz", m, **{key: value})
    with pytest.raises(ValueError, match=repr(key)):
        SequenceModel.load(path)

def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train(Dataset([], None), TrainConfig(), TINY)
