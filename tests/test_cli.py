import json

import pytest

from coact.cli import main

SMALL = ["--d-embed", "4", "--d-pos", "4", "--d-time", "4", "--mix-components", "2",
         "--scorer-hidden", "4", "--epochs", "2", "--em-epochs", "1"]


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
