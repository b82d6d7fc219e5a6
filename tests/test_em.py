import numpy as np

from coact.em import EmConfig, run_em
from coact.events import Dataset, Event, EventSequence
from coact.graph import co_occurrence
from coact.pointprocess import SeqModelConfig, SequenceModel

TINY = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=2,
                      time_scale_min=0.1, time_scale_max=100.0)


def random_dataset(rng, n_accounts=8, n_sequences=12):
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        t = np.sort(rng.uniform(0, 20, int(rng.integers(2, 9))))
        seqs.append(EventSequence(f"s{i}", [
            Event(accounts[int(rng.integers(n_accounts))], float(x)) for x in t
        ]))
    return Dataset.from_sequences(seqs)


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
