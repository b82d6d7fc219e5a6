"""The processes that coact forks: training's helper never outlives ``fit``,
a closed helper writes nothing, ``detect``'s writer child never outlives
``detect``, a child still running is killed when its context exits,
every child dies with a parent killed outright, an exception on either side
reaches the caller, and paths without ``fit`` or ``detect`` never fork."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from records import dataset

from coact import cli, em, pointprocess
from coact import graph as graph_mod
from coact.em import EmConfig, initialize, run_em
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
        seqs.append((f"s{i}", [
            (accounts[int(rng.integers(n_accounts))], float(x)) for x in t
        ]))
    return dataset(seqs)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_helper_outlives_training_or_em(forks):
    d = random_dataset()
    model = train(d, CFG, TINY)
    assert len(forks) == 1
    assert_no_child_left()
    run_em(d, co_occurrence(d), model, EmConfig(n_loops=2, m_step_epochs=2, scorer_hidden=5))
    assert len(forks) == 2  # one helper for both M-steps
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
        # the parent fails in the validation pass after the first epoch, the
        # helper on its first sequence, with a message longer than a pipe holds
        if (os.getpid() != parent) if where == "helper" else len(calls) == 10:
            raise exc_type(f"failed in the {where}" + "." * (1 << 17))
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


def test_a_helper_still_running_is_killed_when_fit_raises(forks, monkeypatch):
    parent, forward, calls = os.getpid(), SequenceModel._forward, []

    def failing(self, seq):
        if os.getpid() != parent:
            time.sleep(60.0)
        calls.append(seq)
        if len(calls) == 2:  # in the head of the first validation pass
            raise ValueError("failed in the parent")
        return forward(self, seq)

    monkeypatch.setattr(SequenceModel, "_forward", failing)
    start = time.monotonic()
    with pytest.raises(ValueError, match="failed in the parent"):
        train(random_dataset(), CFG, TINY)
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    assert_no_child_left()


def test_a_helper_handed_a_sequence_it_was_not_forked_with_raises(forks):
    d = random_dataset()
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    items = model.prepare(d.sequences)
    with pytest.raises(KeyError), pointprocess._helper(model, items[:4]) as helper:
        model.passes(items, helper=helper)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("g", [None, -0.5])
@pytest.mark.parametrize("n", [2, 3, 7, 11])
def test_a_pass_with_a_helper_is_one_task_and_one_result(forks, monkeypatch, n, g):
    d = random_dataset()
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    items = model.prepare(d.sequences)[:n]
    read, write, calls = pointprocess._read, pointprocess._write, []

    def counted_read(fd, size):
        calls.append(("read", fd))
        return read(fd, size)

    def counted_write(fd, data):
        calls.append(("write", fd))
        return write(fd, data)

    monkeypatch.setattr(pointprocess, "_read", counted_read)
    monkeypatch.setattr(pointprocess, "_write", counted_write)
    with pointprocess._helper(model, items) as helper:
        model.passes(items, g, helper)
        assert calls == [("write", helper._task_w), ("read", helper._result_r)]
    assert len(forks) == 1
    assert_no_child_left()


def test_a_helper_whose_task_pipe_is_closed_exits():
    d = random_dataset()
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    helper = pointprocess._Helper(model, model.prepare(d.sequences))
    os.close(helper._task_w)
    helper._task_w = os.open(os.devnull, os.O_WRONLY)  # for close() to close
    deadline = time.monotonic() + 30.0
    # WNOWAIT leaves the exited helper for close() to reap
    while (info := os.waitid(os.P_PID, helper.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)) is None:
        if time.monotonic() > deadline:
            helper.close()
            pytest.fail("the helper did not exit")
        time.sleep(0.01)
    assert (info.si_code, info.si_status) == (os.CLD_EXITED, 0)
    helper.close()
    assert_no_child_left()


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


def test_a_closed_helper_raises_and_writes_into_no_file_opened_after_it(forks, tmp_path):
    d = random_dataset()
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    items = model.prepare(d.sequences)
    with pointprocess._helper(model, items) as helper:
        pass
    assert_no_child_left()
    # the lowest free fd numbers, the helper's pipes among them
    files = [open(tmp_path / f"f{i}", "wb") for i in range(6)]
    try:
        with pytest.raises(ValueError, match="closed"):
            model.passes(items, None, helper)
    finally:
        for fh in files:
            fh.close()
    assert [(tmp_path / f"f{i}").stat().st_size for i in range(6)] == [0] * 6


def test_estep_only_em_and_initialize_fork_nothing(forks):
    d = random_dataset()
    g = co_occurrence(d)
    model = SequenceModel(d.registry.keys, TINY, seed=0)
    run_em(d, g, model, EmConfig(estep_only=True, scorer_hidden=5))
    initialize(model, 2, seed=0, graph=g, hidden=5)
    em.kmeans(np.random.default_rng(5).normal(size=(60, 3)), 3, seed=0)
    assert forks == []


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


# ---- detect's writer child ----

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


@pytest.mark.parametrize("case", ["malformed-data", "other-accounts", "graph-csv-a-directory",
                                  "em-fails"])
def test_no_writer_child_outlives_a_failed_detect(forks, synth, tmp_path, capsys, monkeypatch,
                                                  case):
    argv = detect_argv(synth, tmp_path)
    if case == "malformed-data":
        data = tmp_path / "bad.jsonl"
        data.write_text("{not json\n", encoding="utf-8")
        argv = detect_argv(synth, tmp_path, data=data)
        message = "error: stage 'ingest' failed:"
    elif case == "other-accounts":  # one more account in the data than in the checkpoint
        data = tmp_path / "other.jsonl"
        assert cli.main(["synth", "--normal", "9", "--coord", "4", "--sequences", "20",
                         "--seed", "1", "--out", str(data),
                         "--labels", str(tmp_path / "other.csv")]) == 0
        argv = detect_argv(synth, tmp_path, data=data)
        message = ("error: stage 'load-checkpoint' failed: checkpoint accounts "
                   "do not match the dataset registry")
    elif case == "graph-csv-a-directory":  # save_graph fails in the child
        (tmp_path / "run" / "graph.csv").mkdir(parents=True)
        message = "error: stage 'build-graph' failed:"
    else:  # EM fails while the child still writes the graph
        parent, save = os.getpid(), graph_mod.save_graph

        def slow_in_the_child(*args):
            if os.getpid() != parent:
                time.sleep(0.5)
            return save(*args)

        def failing(*args, **kwargs):
            raise ValueError("failed in EM")

        monkeypatch.setattr(graph_mod, "save_graph", slow_in_the_child)
        monkeypatch.setattr(em, "initialize", failing)
        message = "error: stage 'em' failed: failed in EM"
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    # the data is read and checked before the graph is built, and the writer
    # child is forked only then; EM's M-step forks its helper beside it
    assert len(forks) == {"graph-csv-a-directory": 2, "em-fails": 1}.get(case, 0)
    assert_no_child_left()
    if case == "em-fails":  # the parent waited for the whole graph
        assert cli.main(["build-graph", "--data", str(synth["data"]),
                         "--out", str(tmp_path / "graph.csv")]) == 0
        assert ((tmp_path / "run" / "graph.csv").read_bytes()
                == (tmp_path / "graph.csv").read_bytes())


@pytest.mark.parametrize("stage", ["build-graph", "pretrain"])
def test_an_exception_in_the_writer_child_reaches_detect(forks, synth, tmp_path, capsys,
                                                         monkeypatch, stage):
    """``save_graph``, or the checkpoint's save when detect pretrains, fails in
    the child; detect names the stage and the cause carries the child's
    traceback."""
    parent = os.getpid()
    owner, name = {"build-graph": (graph_mod, "save_graph"),
                   "pretrain": (SequenceModel, "save")}[stage]
    write = getattr(owner, name)

    def failing_in_the_child(*args):
        if os.getpid() != parent:
            raise ValueError("failed in the writer child")
        return write(*args)

    monkeypatch.setattr(owner, name, failing_in_the_child)
    argv = detect_argv(synth, tmp_path)
    if stage == "pretrain":
        at = argv.index("--checkpoint")
        del argv[at:at + 2]
    assert cli.main(argv) == 1
    assert (f"error: stage '{stage}' failed: failed in the writer child"
            in capsys.readouterr().err)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(cli.StageError, match=f"stage '{stage}' failed") as info:
        cli.run_pipeline(args, tmp_path / "again")
    # per detect: the writer and the M-step's helper, after pretraining's helper
    assert len(forks) == 2 * (2 if stage == "build-graph" else 3)
    assert_no_child_left()
    trace = str(info.value.__cause__)
    assert trace.startswith("in the forked child:")
    assert "failing_in_the_child" in trace and "_save_model_and_graph" in trace


def test_detect_runs_em_here_and_writes_the_graph_in_its_child(forks, synth, tmp_path,
                                                               monkeypatch):
    parent, solve, save = os.getpid(), em.regularized_spectrum, graph_mod.save_graph
    solved_in = []

    def solving(*args):
        solved_in.append(os.getpid())
        return solve(*args)

    def saving(g, path):
        (tmp_path / "saved-in").write_text(str(os.getpid()), encoding="utf-8")
        return save(g, path)

    monkeypatch.setattr(em, "regularized_spectrum", solving)
    monkeypatch.setattr(graph_mod, "save_graph", saving)
    assert cli.main(detect_argv(synth, tmp_path, "--estep-only")) == 0
    assert solved_in == [parent]
    assert int((tmp_path / "saved-in").read_text(encoding="utf-8")) not in (parent, 0)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_child_still_running_is_killed_when_its_context_exits(forks):
    start = time.monotonic()
    with pointprocess._forked(time.sleep, 60.0):
        pass
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    assert_no_child_left()


# the parent's code up to its child's first sleep; the parent writes the
# child's pid, the child writes "asleep" once it sleeps inside the child's work
KILLED_PARENT = """\
import os, time
from coact import pointprocess
pointprocess._helper_wanted = lambda: True
fork = os.fork
def fork_and_tell():
    pid = fork()
    if pid:
        os.write(1, b"%d\\n" % pid)  # one write each, so the lines do not interleave
    return pid
os.fork = fork_and_tell
def nap():
    os.write(1, b"asleep\\n")
    time.sleep(60.0)
"""
IN_THE_CHILD = {
    "_forked": """\
with pointprocess._forked(nap):
    time.sleep(60.0)
""",
    "_helper": """\
from coact.events import Dataset
from coact.pointprocess import SeqModelConfig, SequenceModel, TrainConfig, train
parent, forward = os.getpid(), SequenceModel._forward
def sleepy(self, seq):
    if os.getpid() != parent:
        nap()
    return forward(self, seq)
SequenceModel._forward = sleepy
d = Dataset.from_columns([f"s{i}" for i in range(4)], [i for i in range(4) for _ in "ab"],
                         [0, 1] * 4, [t for i in range(4) for t in (0.0, 1.0 + i)], ["u0", "u1"])
train(d, TrainConfig(epochs=1, batch_size=4),
      SeqModelConfig(d_embed=4, d_pos=4, d_time=4, n_mix=2))
""",
}


@pytest.mark.parametrize("kind", sorted(IN_THE_CHILD))
def test_a_child_dies_with_a_parent_that_is_killed_outright(kind):
    code = KILLED_PARENT + IN_THE_CHILD[kind]
    src = str(Path(pointprocess.__file__).resolve().parents[1])
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=src))
    lines = {parent.stdout.readline().strip() for _ in range(2)}
    lines.remove(b"asleep")
    child = int(lines.pop())
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


def test_detect_estep_only_from_a_checkpoint_forks_one_child(forks, synth, tmp_path):
    assert cli.main(detect_argv(synth, tmp_path, "--estep-only")) == 0
    assert len(forks) == 1  # the writer child
    assert_no_child_left()


def test_build_graph_pretrain_and_eval_fork_no_writer_child(forks, synth, tmp_path,
                                                            monkeypatch):
    def refuse(*args):
        raise AssertionError("forked a writer child")

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
