"""The processes that coact forks: training's helper never outlives ``fit``,
k-means's child never outlives ``kmeans``, ``detect``'s scorer child never
outlives ``detect``, an exception on either side reaches the caller, and
paths without ``fit``, ``kmeans`` or ``detect`` never fork."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from coact import cli, em, pointprocess
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
    assert len(forks) == 4  # the k-means child and one helper per M-step
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
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    model.grad_log_likelihood(d.sequences)
    model.log_likelihood(d.sequences[0])
    code = ("import os\n"
            "def refuse(): raise AssertionError('forked')\n"
            "os.fork = refuse\n"
            "import coact, coact.cli\n")
    src = str(Path(pointprocess.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_estep_only_em_and_initialize_fork_one_kmeans_child_each(forks):
    d = random_dataset()
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    run_em(d, g, model, EmConfig(estep_only=True, scorer_hidden=5))
    assert len(forks) == 1
    assert_no_child_left()
    initialize(model, 2, seed=0, graph=g, hidden=5)
    assert len(forks) == 2
    assert_no_child_left()


# ---- k-means's child ----

POINTS = np.random.default_rng(5).normal(size=(60, 3))


def test_no_kmeans_child_outlives_kmeans(forks):
    labels, _ = em.kmeans(POINTS, 3, seed=0)
    assert len(forks) == 1
    assert_no_child_left()
    assert np.array_equal(np.unique(labels), [0, 1, 2])


@pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("where", ["parent", "child"])
def test_an_exception_in_either_kmeans_process_reaches_the_caller(forks, monkeypatch, where,
                                                                  exc_type):
    parent, lloyd = os.getpid(), em._lloyd

    def failing(*args):
        if (os.getpid() != parent) == (where == "child"):
            raise exc_type(f"failed in the {where}")
        return lloyd(*args)

    monkeypatch.setattr(em, "_lloyd", failing)
    with pytest.raises(exc_type, match=f"failed in the {where}") as info:
        em.kmeans(POINTS, 3, seed=0)
    assert len(forks) == 1
    assert_no_child_left()
    if where == "child":
        assert "in the forked child" in str(info.value.__cause__)


def test_a_kmeans_child_that_dies_is_reported_and_reaped(forks, monkeypatch):
    parent, lloyd = os.getpid(), em._lloyd

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)  # as if the kernel killed it
        return lloyd(*args)

    monkeypatch.setattr(em, "_lloyd", dying)
    with pytest.raises(RuntimeError, match="forked child exited without a result"):
        em.kmeans(POINTS, 3, seed=0)
    assert len(forks) == 1
    assert_no_child_left()


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


# ---- detect's scorer child ----

TRAIN = ["--d-embed", "4", "--d-pos", "4", "--d-time", "4", "--mix-components", "2",
         "--epochs", "2"]
SMALL = [*TRAIN, "--scorer-hidden", "4", "--em-epochs", "1"]


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """A synthetic dataset, its labels and a checkpoint pretrained on it."""
    root = tmp_path_factory.mktemp("synth")
    paths = {k: root / name for k, name in
             [("data", "data.jsonl"), ("labels", "labels.csv"), ("ckpt", "pretrained.npz")]}
    assert cli.main(["synth", "--normal", "8", "--coord", "4", "--sequences", "20", "--seed",
                     "1", "--out", str(paths["data"]), "--labels", str(paths["labels"])]) == 0
    assert cli.main(["pretrain", "--data", str(paths["data"]), *TRAIN,
                     "--out", str(paths["ckpt"])]) == 0
    return paths


def detect_argv(synth, tmp_path, *extra, data=None):
    return ["detect", "--data", str(data or synth["data"]), "--labels", str(synth["labels"]),
            "--checkpoint", str(synth["ckpt"]), *SMALL, *extra,
            "--run-dir", str(tmp_path / "run")]


@pytest.mark.parametrize("case", ["malformed-data", "other-accounts"])
def test_no_scorer_child_outlives_a_failed_detect(forks, synth, tmp_path, capsys, case):
    if case == "malformed-data":
        data = tmp_path / "bad.jsonl"
        data.write_text("{not json\n", encoding="utf-8")
        argv = detect_argv(synth, tmp_path, data=data)
        message = "error: stage 'ingest' failed:"
    else:  # one more account in the data than in the checkpoint
        data = tmp_path / "other.jsonl"
        assert cli.main(["synth", "--normal", "9", "--coord", "4", "--sequences", "20",
                         "--seed", "1", "--out", str(data),
                         "--labels", str(tmp_path / "other.csv")]) == 0
        argv = detect_argv(synth, tmp_path, data=data)
        message = ("error: stage 'load-checkpoint' failed: checkpoint accounts "
                   "do not match the dataset registry")
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert len(forks) == 2  # the k-means child, then the scorer child
    assert_no_child_left()


def test_an_exception_in_the_scorer_child_reaches_detect(forks, synth, tmp_path, capsys,
                                                        monkeypatch):
    parent, fit = os.getpid(), em._fit_unary

    def failing_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            raise ValueError("failed in the scorer child")
        return fit(*args, **kwargs)

    monkeypatch.setattr(em, "_fit_unary", failing_in_the_child)
    argv = detect_argv(synth, tmp_path)
    assert cli.main(argv) == 1
    assert "error: stage 'em' failed: failed in the scorer child" in capsys.readouterr().err
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(cli.StageError) as info:
        cli.run_pipeline(args, tmp_path / "again")
    assert len(forks) == 4  # per detect, the k-means child and the scorer child
    assert_no_child_left()
    child_exc = info.value.__cause__
    assert isinstance(child_exc, ValueError)
    trace = str(child_exc.__cause__)
    assert trace.startswith("in the forked child:")
    assert "failing_in_the_child" in trace and "fit_scorer" in trace


def test_a_child_still_running_is_killed_when_its_context_exits(forks):
    start = time.monotonic()
    with pointprocess._forked(time.sleep, 60.0):
        pass
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    assert_no_child_left()


def test_a_child_dies_with_a_parent_that_is_killed_outright():
    code = ("import os, time\n"
            "from coact import pointprocess\n"
            "pointprocess._helper_wanted = lambda: True\n"
            "fork = os.fork\n"
            "def fork_and_tell():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        print(pid, flush=True)\n"
            "    return pid\n"
            "os.fork = fork_and_tell\n"
            "with pointprocess._forked(time.sleep, 60.0):\n"
            "    time.sleep(60.0)\n")
    src = str(Path(pointprocess.__file__).resolve().parents[1])
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=src))
    child = int(parent.stdout.readline())
    parent.kill()
    parent.wait(timeout=30)
    parent.stdout.close()

    def running():  # a zombie has exited; who reaps it is up to the system
        try:
            return Path(f"/proc/{child}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 30.0
    while running():
        if time.monotonic() > deadline:
            os.kill(child, 9)
            pytest.fail("the child outlived its killed parent")
        time.sleep(0.01)


def test_detect_estep_only_from_a_checkpoint_forks_two_children(forks, synth, tmp_path):
    assert cli.main(detect_argv(synth, tmp_path, "--estep-only")) == 0
    assert len(forks) == 2  # the k-means child, then the scorer child
    assert_no_child_left()


def test_build_graph_pretrain_and_eval_fork_no_scorer_child(forks, synth, tmp_path,
                                                            monkeypatch):
    def refuse(*args):
        raise AssertionError("forked a scorer child")

    monkeypatch.setattr(cli, "_forked", refuse)
    data = ["--data", str(synth["data"])]
    assert cli.main(["pretrain", *data, *TRAIN, "--out", str(tmp_path / "c.npz")]) == 0
    assert len(forks) == 1  # pretraining's helper
    monkeypatch.setattr(os, "fork", refuse)
    assert cli.main(["build-graph", *data, "--out", str(tmp_path / "graph.csv")]) == 0
    result = tmp_path / "result.csv"
    result.write_text("account,score,label,group\nu0,0.9,1,1\nu1,0.1,0,0\n", encoding="utf-8")
    labels = tmp_path / "labels.csv"
    labels.write_text("account,group\nu0,1\nu1,0\n", encoding="utf-8")
    assert cli.main(["eval", "--result", str(result), "--labels", str(labels)]) == 0
