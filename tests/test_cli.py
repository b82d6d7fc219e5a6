import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from coact import cli
from coact.cli import main
from coact.graph import KnowledgeGraph
from coact.pointprocess import SequenceModel

TRAIN = ["--d-embed", "4", "--d-pos", "4", "--d-time", "4", "--mix-components", "2",
         "--epochs", "2"]
SMALL = [*TRAIN, "--scorer-hidden", "4", "--em-epochs", "1"]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    data, labels = root / "data.jsonl", root / "labels.csv"
    assert main(["synth", "--normal", "8", "--coord", "4", "--sequences", "20",
                 "--seed", "1", "--out", str(data), "--labels", str(labels)]) == 0
    return ["--data", str(data), "--labels", str(labels)]


def detect(tmp_path, name, *argv):
    run_dir = tmp_path / name
    code = main(["detect", *argv, "--run-dir", str(run_dir)])
    return code, run_dir


def config_of(run_dir):
    return json.loads((run_dir / "config.json").read_text(encoding="utf-8"))


def test_detect_reruns_from_its_config_byte_for_byte(tmp_path, data):
    code, first = detect(tmp_path, "first", *data, *SMALL, "--seed", "3")
    assert code == 0
    code, again = detect(tmp_path, "again", data[0], data[1], "--config",
                         str(first / "config.json"))
    assert code == 0
    for name in ("result.csv", "q_matrix.csv", "metrics.csv", "checkpoint.npz"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    want = config_of(first)
    want.update(run_dir=str(again), config=str(first / "config.json"))
    assert config_of(again) == want


def test_detect_warns_of_each_e_step_that_did_not_converge(tmp_path, data, capsys):
    code, _ = detect(tmp_path, "capped", *data, *SMALL, "--estep-iters", "1")
    assert code == 0
    warned = [re.fullmatch(r"warning: the E-step of EM loop (\d) did not converge: "
                           r"residual \S+ after 1 sweep\(s\), --estep-tol 1e-06", line)
              for line in capsys.readouterr().err.splitlines()]
    assert [m and m[1] for m in warned] == ["0", "1"]  # the start and the one loop
    code, run_dir = detect(tmp_path, "converged", *data, *SMALL)
    assert code == 0
    assert capsys.readouterr().err == ""
    assert (run_dir / "result.csv").exists()


def test_command_line_flag_beats_config_file(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "lam": 0.5, "fractions": [0.6, 0.2, 0.2],
                               "no_such_option": 1}), encoding="utf-8")
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, "--config", str(cfg),
                           "--seed", "3")
    assert code == 0
    got = config_of(run_dir)
    assert (got["seed"], got["lam"], got["fractions"]) == (3, 0.5, [0.6, 0.2, 0.2])
    assert "no_such_option" not in got


@pytest.mark.parametrize("form", ["--config={}", "--conf {}"])
def test_config_flag_is_read_in_any_argparse_form(tmp_path, data, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0.25}), encoding="utf-8")
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, *form.format(cfg).split())
    assert code == 0
    assert config_of(run_dir)["lam"] == 0.25


def test_config_without_a_readable_file_is_a_usage_error(tmp_path, data, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", *data, "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err
    code, run_dir = detect(tmp_path, "run", *data, "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not run_dir.exists()


def test_rerun_from_a_config_without_run_dir_leaves_that_run_alone(tmp_path, data, monkeypatch):
    code, first = detect(tmp_path, "R1", *data, *SMALL)
    assert code == 0
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in first.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main(["detect", *data, "--config", str(first / "config.json")]) == 0
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in first.iterdir()} == before
    (rerun,) = (tmp_path / "runs").iterdir()
    assert (rerun / "result.csv").read_bytes() == before["result.csv"][0]
    assert config_of(rerun)["config"] == str(first / "config.json")


def test_detects_in_the_same_second_without_run_dir_each_get_their_own(tmp_path, data,
                                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    made = []
    for seed in ("1", "2"):
        assert main(["detect", *data, *SMALL, "--seed", seed]) == 0
        made.append(capsys.readouterr().out.splitlines()[0])
    first, second = Path("runs/20260101-000000-run"), Path("runs/20260101-000000-run-2")
    assert made == [f"run artifacts -> {first}", f"run artifacts -> {second}"]
    assert sorted((tmp_path / "runs").iterdir()) == [tmp_path / first, tmp_path / second]
    assert [config_of(d)["seed"] for d in (first, second)] == [1, 2]
    assert (first / "result.csv").read_bytes() != (second / "result.csv").read_bytes()


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the flag's value itself
        return exc.code


@pytest.mark.parametrize("bad", [["--groups", "3"], ["--groups", "1"], ["--loops", "0"],
                                 ["--lam", "0"], ["--p", "0.5"], ["--c", "-1"],
                                 ["--estep-tol", "0"], ["--batch-size", "0"],
                                 ["--batch-size", "-3"], ["--estep-iters", "0"],
                                 ["--scorer-hidden", "0"], ["--d-embed", "0"],
                                 ["--mix-components", "0"], ["--max-len", "1"],
                                 ["--max-len", "-1"], ["--lr", "-1"], ["--lr", "0"],
                                 ["--lr", "inf"], ["--weight-decay", "-5"],
                                 ["--weight-decay", "nan"], ["--em-lr", "nan"],
                                 ["--em-lr", "-1"], ["--lam", "inf"], ["--lam", "nan"],
                                 ["--fractions", "0.5,0.5,0.5"], ["--fractions", "0,0,1"],
                                 ["--fractions", "nan,0.1,0.1"], ["--fractions", "inf,0.1,0.1"],
                                 ["--epochs", "-1"], ["--epochs", "0"], ["--em-epochs", "-1"],
                                 ["--em-epochs", "0"], ["--patience", "0"],
                                 ["--patience", "-2"], ["--threshold", "nan"],
                                 ["--threshold", "2"], ["--threshold", "-0.1"],
                                 ["--estep-tol", "inf"], ["--estep-tol", "nan"],
                                 ["--min-account-count", "-3"], ["--d-pos", "-1"],
                                 ["--d-time", "-1"], ["--seed", "-1"]])
def test_bad_detect_config_fails_before_any_stage(tmp_path, data, bad):
    run_dir = tmp_path / "run"
    assert exit_code(["detect", *data, *SMALL, *bad, "--run-dir", str(run_dir)]) == 2
    assert not run_dir.exists()  # so no checkpoint.npz and no graph.csv


@pytest.mark.parametrize("bad", [["--sequences", "-5"], ["--sequences", "0"],
                                 ["--strength", "nan"], ["--strength", "-1"],
                                 ["--horizon", "0"], ["--horizon", "inf"],
                                 ["--normal", "-3"], ["--normal", "-1"], ["--coord", "1"],
                                 ["--seed", "-1"]])
def test_bad_synth_flags_write_nothing(tmp_path, bad):
    out, labels = tmp_path / "data.jsonl", tmp_path / "labels.csv"
    assert exit_code(["synth", "--normal", "4", "--coord", "2", "--sequences", "3", *bad,
                      "--out", str(out), "--labels", str(labels)]) == 2
    assert not out.exists() and not labels.exists()


@pytest.mark.parametrize("bad", [["--threshold", "nan"], ["--threshold", "2"]])
def test_bad_eval_threshold_is_a_usage_error(tmp_path, data, bad):
    assert exit_code(["eval", "--result", str(tmp_path / "result.csv"), "--labels", data[3],
                      *bad]) == 2


@pytest.mark.parametrize("command", ["synth", "ingest"])
def test_a_csv_dataset_out_is_refused_before_anything_is_read(tmp_path, capsys, command):
    # JSON lines under a .csv name would be read back as CSV; the input does
    # not exist, so only a check made before reading gives exit 2
    out, labels = tmp_path / "norm.CSV", tmp_path / "labels.csv"
    argv = (["synth", "--labels", str(labels)] if command == "synth"
            else ["ingest", "--input", str(tmp_path / "missing.jsonl")])
    assert exit_code([*argv, "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_eval_out_with_a_txt_suffix_is_refused_before_anything_is_read(tmp_path, capsys,
                                                                          data):
    # the metrics table is written beside the CSV under a .txt name, so it
    # would overwrite a .txt CSV; the result does not exist, so only a check
    # made before reading gives exit 2
    out = tmp_path / "m.TXT"
    assert exit_code(["eval", "--result", str(tmp_path / "missing.csv"), "--labels", data[3],
                      "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_pretrain_seed_writes_nothing(tmp_path, data):
    out = tmp_path / "checkpoint.npz"
    assert exit_code(["pretrain", data[0], data[1], *TRAIN, "--seed", "-1",
                      "--out", str(out)]) == 2
    assert not out.exists()


def test_pretrain_and_build_graph_write_the_bytes_detect_writes(tmp_path, data):
    graph_flags = ["--filter", "power", "--p", "2"]
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, *graph_flags, "--seed", "3")
    assert code == 0
    ckpt, graph = tmp_path / "pretrained.npz", tmp_path / "graph.csv"
    assert main(["pretrain", data[0], data[1], *TRAIN, "--seed", "3", "--out", str(ckpt)]) == 0
    assert main(["build-graph", data[0], data[1], *graph_flags, "--out", str(graph)]) == 0
    assert ckpt.read_bytes() == (run_dir / "checkpoint.npz").read_bytes()
    assert graph.read_bytes() == (run_dir / "graph.csv").read_bytes()


def test_a_checkpoint_saved_without_the_npz_suffix_is_where_pretrain_says(
        tmp_path, data, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["pretrain", data[0], data[1], *TRAIN, "--out", str(ckpt)]) == 0
    assert capsys.readouterr().out.endswith(f"-> {ckpt}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, "--checkpoint", str(ckpt))
    assert code == 0
    assert (run_dir / "result.csv").exists()


def test_more_than_two_groups_run_with_revealed_accounts(tmp_path, data):
    rows = (Path(data[3]).read_text(encoding="utf-8").splitlines())[1:]
    picked = [r for r in rows if r.endswith(",1")][:2] + [r for r in rows if r.endswith(",0")][:2]
    revealed = tmp_path / "revealed.csv"
    revealed.write_text("account,group\n" + "".join(f"{r}\n" for r in picked), encoding="utf-8")
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, "--groups", "3",
                           "--revealed", str(revealed))
    assert code == 0
    header = (run_dir / "q_matrix.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "account,q_0,q_1,q_2"


@pytest.mark.parametrize("values", [{"p": 0.5}, {"c": -1}, {"groups": 2.5}, {"epochs": "many"},
                                    {"fractions": [0.5, 0.5]}, {"schedule": "random"},
                                    {"filter": "median"}, {"batch_size": 0}, {"max_len": 1},
                                    {"estep_iters": 0}, {"d_embed": 0}, {"lr": -1},
                                    {"weight_decay": -5}, {"em_lr": float("nan")},
                                    {"lam": float("inf")}, {"fractions": [0.5, 0.5, 0.5]},
                                    {"fractions": [0, 0, 1]},
                                    {"fractions": [float("nan"), 0.1, 0.1]},
                                    {"epochs": -1}, {"em_epochs": 0}, {"patience": 0},
                                    {"threshold": float("nan")}, {"threshold": 2},
                                    {"estep_tol": float("inf")}, {"min_account_count": -3},
                                    {"d_pos": -1}, {"d_time": -1}, {"seed": -1}])
def test_config_file_values_are_checked_like_flags(tmp_path, data, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert exit_code(["detect", *data, *SMALL, "--config", str(cfg),
                      "--run-dir", str(run_dir)]) == 2
    assert not run_dir.exists()  # so no checkpoint.npz and no graph.csv


def revealed_file(tmp_path, data, groups):
    """A revealed-labels CSV with two accounts of each truth group in ``groups``,
    which maps that group to the group written for them."""
    rows = [r.split(",") for r in Path(data[3]).read_text(encoding="utf-8").splitlines()[1:]]
    lines = [f"{a},{written}\n" for truth, written in groups.items()
             for a in [a for a, g in rows if g == truth][:2]]
    path = tmp_path / "revealed.csv"
    path.write_text("account,group\n" + "".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("groups,message", [({"0": 0}, "coordinated group 1"),
                                            ({"1": 1, "0": 2}, "outside 0..1")])
def test_bad_revealed_labels_fail_before_pretraining(tmp_path, data, capsys, groups, message):
    revealed = revealed_file(tmp_path, data, groups)
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, "--revealed", str(revealed))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not run_dir.exists()  # so no config.json, checkpoint.npz or graph.csv


@pytest.mark.parametrize("path", ["checkpoint", "pretrain"])
def test_more_groups_than_accounts_fail_before_pretraining(tmp_path, data, capsys, monkeypatch,
                                                           path):
    revealed = revealed_file(tmp_path, data, {"1": 1, "0": 0})
    argv = [*data, *SMALL, "--groups", "20", "--revealed", str(revealed)]
    if path == "checkpoint":
        ckpt = tmp_path / "pretrained.npz"
        assert main(["pretrain", data[0], data[1], *TRAIN, "--out", str(ckpt)]) == 0
        argv += ["--checkpoint", str(ckpt)]

    def refuse(*args):
        raise AssertionError("pretrained or forked")

    monkeypatch.setattr(cli, "_pretrain", refuse)
    monkeypatch.setattr(cli, "_forked", refuse)
    code, run_dir = detect(tmp_path, "run", *argv)
    assert code == 2
    assert "--groups 20 is more than the 12 accounts" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("groups,code", [(None, 1), ({"0": 1, "1": 1}, 2), ({"0": 0}, 2),
                                         ({}, 2)],
                         ids=["unreadable", "no-negative", "no-positive", "none-scored"])
def test_bad_truth_labels_fail_before_pretraining(tmp_path, data, capsys, groups, code):
    """A truth labels file that cannot be read (None), or that has no positive
    or no negative among the dataset's accounts, stops detect before it writes
    anything; ``groups`` maps truth groups to the group written."""
    labels = tmp_path / "truth.csv"
    if groups is not None:
        rows = [r.split(",") for r in Path(data[3]).read_text(encoding="utf-8").splitlines()[1:]]
        labels.write_text("account,group\n" + "".join(f"{a},{groups[g]}\n" for a, g in rows
                                                       if g in groups), encoding="utf-8")
    argv = [data[0], data[1], "--labels", str(labels), *SMALL]
    got, run_dir = detect(tmp_path, "run", *argv)
    assert got == code
    assert str(labels) in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("groups,exclude", [({"0": 1, "1": 1}, ()), ({"0": 0}, ()),
                                            ({"0": 0, "1": 1}, ("1",))],
                         ids=["no-negative", "no-positive", "all-positives-excluded"])
def test_eval_refuses_truth_labels_as_detect_does(tmp_path, data, capsys, groups, exclude):
    """Truth labels with no positive or no negative among the scored accounts
    are a usage error of eval that names the file, as they are of detect;
    ``groups`` maps truth groups to the group written, and ``exclude`` names
    the truth groups whose accounts are excluded."""
    rows = [r.split(",") for r in Path(data[3]).read_text(encoding="utf-8").splitlines()[1:]]
    result, labels = tmp_path / "result.csv", tmp_path / "truth.csv"
    result.write_text("account,score,label,group\n" + "".join(f"{a},0.5,1,1\n" for a, _ in rows),
                      encoding="utf-8")
    labels.write_text("account,group\n" + "".join(f"{a},{groups[g]}\n" for a, g in rows
                                                   if g in groups), encoding="utf-8")
    argv = ["eval", "--result", str(result), "--labels", str(labels)]
    if exclude:
        excluded = tmp_path / "excluded.csv"
        excluded.write_text("account,group\n" + "".join(f"{a},{g}\n" for a, g in rows
                                                         if g in exclude), encoding="utf-8")
        argv += ["--exclude", str(excluded)]
    assert exit_code(argv) == 2
    assert f"--labels {labels}: need at least one positive" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize("flags", [[], ["--estep-only"]])
def test_a_checkpoint_with_a_nan_fails_at_load_and_leaves_the_run_it_names(tmp_path, data,
                                                                            capsys, flags):
    code, earlier = detect(tmp_path, "earlier", *data, *SMALL)
    assert code == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    model = SequenceModel.load(earlier / "checkpoint.npz")
    model.params["E"].data[0, 0] = np.nan
    model.save(tmp_path / "nan.npz")
    capsys.readouterr()
    code, _ = detect(tmp_path, "earlier", *data, *SMALL, *flags,
                     "--checkpoint", str(tmp_path / "nan.npz"))
    assert code == 1
    assert ("stage 'load-checkpoint' failed: checkpoint array 'E' holds a non-finite value"
            in capsys.readouterr().err)
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before


@pytest.mark.parametrize("path", ["checkpoint", "pretrain"])
def test_a_refused_detect_leaves_the_run_it_names_as_it_was(tmp_path, data, path):
    # --groups above the account count, and revealed accounts with none in
    # group 1, are refused once the accounts are known: into an earlier run's
    # directory, or into a new one
    code, earlier = detect(tmp_path, "earlier", *data, *SMALL)
    assert code == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    argv = [*data, "--checkpoint", str(earlier / "checkpoint.npz")] if path == "checkpoint" else data
    for groups, flags in (({"1": 1, "0": 0}, ["--groups", "20"]), ({"0": 0}, [])):
        revealed = revealed_file(tmp_path, data, groups)
        for name in ("earlier", "new"):
            code, _ = detect(tmp_path, name, *argv, *flags, "--revealed", str(revealed))
            assert code == 2
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before
    assert not (tmp_path / "new").exists()


def test_a_checkpoint_for_other_data_leaves_the_run_it_names_as_it_was(tmp_path, data, capsys):
    # the checkpoint's accounts are checked against the data before the run
    # directory and its config.json are written
    code, earlier = detect(tmp_path, "earlier", *data, *SMALL)
    assert code == 0
    other, other_labels = tmp_path / "other.jsonl", tmp_path / "other.csv"
    assert main(["synth", "--normal", "9", "--coord", "4", "--sequences", "20", "--seed", "1",
                 "--out", str(other), "--labels", str(other_labels)]) == 0
    ckpt = tmp_path / "other.npz"
    assert main(["pretrain", "--data", str(other), *TRAIN, "--out", str(ckpt)]) == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    code, _ = detect(tmp_path, "earlier", *data, *SMALL, "--checkpoint", str(ckpt))
    assert code == 1
    assert "checkpoint accounts do not match the dataset registry" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before


def test_valid_revealed_labels_still_run(tmp_path, data):
    revealed = revealed_file(tmp_path, data, {"1": 1, "0": 0})
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, "--revealed", str(revealed))
    assert code == 0
    assert (run_dir / "result.csv").exists()


def test_eval_reproduces_the_metrics_that_detect_wrote(tmp_path, data):
    revealed = revealed_file(tmp_path, data, {"1": 1, "0": 0})
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, "--revealed", str(revealed))
    assert code == 0
    out = tmp_path / "eval" / "metrics.csv"
    assert main(["eval", "--result", str(run_dir / "result.csv"), "--labels", data[3],
                 "--exclude", str(revealed), "--out", str(out)]) == 0
    assert out.read_bytes() == (run_dir / "metrics.csv").read_bytes()
    assert out.with_suffix(".txt").read_bytes() == (run_dir / "metrics.txt").read_bytes()


@pytest.mark.parametrize("flags", [["--filter", "power"],
                                   ["--filter", "tl", "--schedule", "gauss_seidel"]])
def test_detect_and_build_graph_never_form_a_dense_graph_or_the_edge_weights(
        tmp_path, data, monkeypatch, flags):
    def dense(self):
        raise AssertionError("a dense V x V graph array was formed")

    def weights(self):
        raise AssertionError("an (E,) weight array was formed")
    monkeypatch.setattr(KnowledgeGraph, "w", property(dense))
    monkeypatch.setattr(KnowledgeGraph, "coupling", dense)
    monkeypatch.setattr(KnowledgeGraph, "weight", property(weights))
    code, run_dir = detect(tmp_path, "run", *data, *SMALL, *flags)
    assert code == 0
    assert (run_dir / "result.csv").exists()
    assert main(["build-graph", data[0], data[1], *flags[:2],
                 "--out", str(tmp_path / "graph.csv")]) == 0


@pytest.mark.parametrize("path", ["checkpoint", "pretrain"])
def test_detect_writes_the_same_bytes_with_and_without_the_writer_child(
        tmp_path, data, forks, monkeypatch, path):
    # the writer child writes graph.csv, and checkpoint.npz after pretraining,
    # beside EM; with a checkpoint, k-means rounds the --groups 3 split,
    # --revealed aligns it, and two EM loops share one M-step helper
    argv = [*data, *SMALL, "--seed", "2"]
    if path == "checkpoint":
        ckpt = tmp_path / "pretrained.npz"
        assert main(["pretrain", data[0], data[1], *TRAIN, "--out", str(ckpt)]) == 0
        revealed = revealed_file(tmp_path, data, {"1": 1, "0": 2})
        argv += ["--checkpoint", str(ckpt), "--groups", "3", "--revealed", str(revealed),
                 "--loops", "2"]
    forks.clear()
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        code, serial = detect(tmp_path, "serial", *argv)
    assert code == 0
    assert forks == []
    code, forked = detect(tmp_path, "forked", *argv)
    assert code == 0
    # the writer child and the M-step's helper, after pretraining's helper
    assert len(forks) == (2 if path == "checkpoint" else 3)
    names = ["result.csv", "q_matrix.csv", "graph.csv", "metrics.csv"]
    if path == "pretrain":
        names.append("checkpoint.npz")
    for name in names:
        assert (forked / name).read_bytes() == (serial / name).read_bytes(), name
