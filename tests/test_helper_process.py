"""The helper process that training forks: it never outlives ``fit``, an
exception on either side reaches the caller, and paths without ``fit``
never fork."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from coact import pointprocess
from coact.em import EmConfig, initialize, run_em
from coact.events import Dataset, Event, EventSequence
from coact.graph import co_occurrence
from coact.pointprocess import (
    SeqModelConfig,
    SequenceModel,
    TrainConfig,
    TrainingDiverged,
    train,
)

TINY = SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=2,
                      time_scale_min=0.1, time_scale_max=100.0)
CFG = TrainConfig(epochs=3, batch_size=4, patience=3, seed=1)


def random_dataset(seed=0, n_accounts=6, n_sequences=11):
    rng = np.random.default_rng(seed)
    accounts = [f"u{i}" for i in range(n_accounts)]
    seqs = []
    for i in range(n_sequences):
        t = np.sort(rng.uniform(0, 20, int(rng.integers(2, 9))))
        seqs.append(EventSequence(f"s{i}", [
            Event(accounts[int(rng.integers(n_accounts))], float(x)) for x in t
        ]))
    return Dataset.from_sequences(seqs)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_helper_outlives_training_or_em(forks):
    d = random_dataset()
    model = train(d, CFG, TINY)
    assert len(forks) == 1
    assert_no_child_left()
    run_em(d, co_occurrence(d), model, EmConfig(n_loops=2, m_step_epochs=2, scorer_hidden=5))
    assert len(forks) == 3
    assert_no_child_left()


def test_no_helper_outlives_a_diverged_fit(forks):
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train(random_dataset(), TrainConfig(epochs=5, lr=1e30, batch_size=4, patience=5), TINY)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("where", ["parent", "helper"])
def test_an_exception_in_either_process_reaches_the_caller(forks, monkeypatch, where, exc_type):
    parent, forward, calls = os.getpid(), SequenceModel._forward, []

    def failing(self, seq):
        calls.append(seq)
        # the parent fails in the first minibatch, the helper on its first sequence
        if (os.getpid() != parent) if where == "helper" else len(calls) == 10:
            raise exc_type(f"failed in the {where}")
        return forward(self, seq)

    monkeypatch.setattr(SequenceModel, "_forward", failing)
    with pytest.raises(exc_type, match=f"failed in the {where}") as info:
        train(random_dataset(), CFG, TINY)
    assert len(forks) == 1
    assert_no_child_left()
    if where == "helper":
        assert "in the helper process" in str(info.value.__cause__)


def test_a_helper_that_dies_is_reported_and_reaped(forks, monkeypatch):
    parent, forward = os.getpid(), SequenceModel._forward

    def dying(self, seq):
        if os.getpid() != parent:
            os._exit(3)  # as if the kernel killed it
        return forward(self, seq)

    monkeypatch.setattr(SequenceModel, "_forward", dying)
    with pytest.raises(RuntimeError, match="helper process exited without a result"):
        train(random_dataset(), CFG, TINY)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_helper_whose_task_pipe_is_closed_exits():
    d = random_dataset()
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    helper = pointprocess._Helper(model, model.prepare(d.sequences))
    os.close(helper._task_w)
    deadline = time.monotonic() + 30.0
    while (status := os.waitpid(helper.pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(helper.pid, 9)
            os.waitpid(helper.pid, 0)
            pytest.fail("the helper did not exit")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0
    os.close(helper._free_w)
    os.close(helper._result_r)


def test_paths_without_fit_never_fork(forks, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    d = random_dataset()
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    run_em(d, g, model, EmConfig(estep_only=True, scorer_hidden=5))
    initialize(model, 2, seed=0, graph=g, hidden=5)
    model.grad_log_likelihood(d.sequences)
    model.log_likelihood(d.sequences[0])
    code = ("import os\n"
            "def refuse(): raise AssertionError('forked')\n"
            "os.fork = refuse\n"
            "import coact, coact.cli\n")
    src = str(Path(pointprocess.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_no_helper_on_one_cpu_or_beside_another_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not pointprocess._helper_wanted()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert pointprocess._os_threads() >= 2
        assert not pointprocess._helper_wanted()
    finally:
        stop.set()
        thread.join()
