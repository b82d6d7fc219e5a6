"""End-to-end benchmark of ``coact detect``, with an optional per-layer trace.

Run from the root of a checkout that holds ``src/coact``::

    python3 perfbench/run.py --workload planted --seed 1 --seconds 32 --trace 0

Every ``detect`` runs in a fresh ``python3 -m coact.cli`` process; wall time
is taken around the process and peak RSS from its own rusage (``os.wait4``).
Each workload runs a fixed panel of datasets, and each round runs every
dataset of the panel once. A further round starts only while it is expected
to end within ``--seconds``; the first always runs.
``--seed`` renames every account to a seeded random key. The detector
indexes accounts by first appearance, so its numbers must not change: the
results on one panel dataset are compared across rounds, seeds and runs.
The panel is fixed rather than drawn from ``--seed`` because detection
quality depends strongly on the dataset: AP on one planted dataset ranges
from 0.12 to 0.75 across data seeds, so a mean over three drawn datasets
would spread far more than any useful bound.

With ``--trace 1`` the run also executes ``perfbench/layers.py`` once per
dataset, which times calls into each module's public functions in a fresh
interpreter, and reports those per-layer metrics instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A record of the run, with machine
information and per-dataset results, is appended to
``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

PATIENCE = ["--patience", "1000"]  # above every epoch cap: the work is fixed

# ``panel``: the data seeds of the workload. ``pretrain``: flags of the
# ``coact pretrain`` run that makes the checkpoint during set-up (untimed).
WORKLOADS = {
    # pretraining ~70% and the M-step ~25% of detect; graph and E-step <1%
    "planted": {
        "data": "planted", "panel": (1, 2, 3), "pretrain": None, "revealed": False,
        "detect": ["--epochs", "20", "--em-epochs", "10", "--filter", "power",
                   "--schedule", "jacobi"],
    },
    # no pretraining timed, so the M-step dominates; clamped rows, the
    # temporal-logic filter and Gauss-Seidel run only here
    "semisup": {
        "data": "planted", "panel": (1, 2, 3), "pretrain": ["--epochs", "20"], "revealed": True,
        "detect": ["--filter", "tl", "--schedule", "gauss_seidel", "--loops", "3",
                   "--em-epochs", "10"],
    },
    # dense V x V graph arrays and em.initialize dominate; no gradient runs;
    # 4000 accounts keeps one detect near 10 s, so a run gets several
    "scale": {
        "data": "scale", "panel": (1,), "pretrain": ["--epochs", "1"], "revealed": False,
        "detect": ["--estep-only", "--filter", "power", "--schedule", "jacobi"],
    },
}
TINY_EPOCHS = ["--epochs", "2", "--em-epochs", "2"]  # appended last, so they win
SETUP_REPEATS = 9
BLAS_THREADS = "1"
RUN_BUDGET_S = 165.0  # measured part of a run; a run must end within 180 s
SETUP_BUDGET_S = 600.0  # one-off input set-up, cached per code version


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # single-threaded BLAS: on a small shared machine, BLAS threads make
    # timings bimodal without making detect faster
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_child(cmd, env, log: Path, deadline: float) -> dict:
    """Run one process, killed at ``deadline`` (``time.monotonic``).

    Returns its exit code, wall time, CPU time and its own peak RSS.
    """
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_sha256(root: Path) -> str:
    """Identity of the program and the benchmark that made the inputs."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "coact").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---- inputs ----

def canonical_inputs(name: str, data_seed: int, cache: Path, root: Path, tiny: bool) -> dict:
    """Data, labels, revealed labels and checkpoint under their generated keys.

    They depend only on the code and the data seed, so they are built once
    per checkout and code version and reused by later runs.
    """
    spec = WORKLOADS[name]
    cache.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-{'tiny-' if tiny else ''}{data_seed}"
    done = cache / f"{tag}.json"
    if done.exists():
        return {k: (cache / v if v else None) for k, v in json.loads(done.read_text()).items()}
    if spec["data"] == "planted":
        sizes = {"n_normal": 12, "n_coord": 4, "n_sequences": 16} if tiny else {}
        data, labels = inputs.write_planted(cache, tag, data_seed, **sizes)
    else:
        sizes = {"n_accounts": 300, "n_sequences": 40} if tiny else {}
        data, labels = inputs.write_scale(cache, tag, data_seed, **sizes)
    paths = {"data": data, "labels": labels, "revealed": None, "checkpoint": None}
    if spec["revealed"]:
        paths["revealed"] = inputs.write_revealed(labels, cache, tag, data_seed)
    if spec["pretrain"]:
        ckpt = cache / f"{tag}.npz"
        cmd = [sys.executable, "-m", "coact.cli", "pretrain",
               *pretrain_argv(spec, data, data_seed, ckpt)]
        res = run_child(cmd, child_env(root), cache / f"{tag}-pretrain.log",
                        time.monotonic() + SETUP_BUDGET_S)
        if res["code"] != 0:
            raise RuntimeError(f"set-up pretrain failed, see {cache / f'{tag}-pretrain.log'}")
        paths["checkpoint"] = ckpt
    done.write_text(json.dumps({k: (v.name if v else None) for k, v in paths.items()}))
    return paths


def renamed_inputs(canon: dict, seed, out: Path) -> dict:
    """The run's own copy of the inputs, with seeded account keys."""
    out.mkdir(parents=True)
    mapping, accounts = inputs.rename_accounts(canon["data"], canon["labels"], out, seed,
                                               canon["revealed"])
    paths = {"data": out / "data.jsonl", "labels": out / "labels.csv",
             "revealed": out / "revealed.csv" if canon["revealed"] else None,
             "checkpoint": None, "accounts": accounts}
    if canon["checkpoint"]:
        from coact import SequenceModel

        model = SequenceModel.load(canon["checkpoint"])
        renamed = SequenceModel([mapping[a] for a in model.accounts], model.config)
        for k, t in model.params.items():
            renamed.params[k].data = t.data
        paths["checkpoint"] = out / "checkpoint.npz"
        renamed.save(paths["checkpoint"])
    return paths


def read_labels(path: Path) -> dict:
    with path.open(encoding="utf-8", newline="") as fh:
        return {row["account"]: int(row["group"]) for row in csv.DictReader(fh)}


def pretrain_argv(spec: dict, data: Path, data_seed: int, out: Path) -> list:
    return ["--data", str(data), *spec["pretrain"], *PATIENCE, "--seed", str(data_seed),
            "--out", str(out)]


def detect_argv(spec: dict, paths: dict, data_seed: int, tiny: bool) -> list:
    argv = ["--data", str(paths["data"]), "--labels", str(paths["labels"]),
            *spec["detect"], *PATIENCE, "--seed", str(data_seed)]
    if paths["checkpoint"]:
        argv += ["--checkpoint", str(paths["checkpoint"])]
    if paths["revealed"]:
        argv += ["--revealed", str(paths["revealed"])]
    return argv + (TINY_EPOCHS if tiny else [])


# ---- output checks ----

def check_run_dir(run_dir: Path, paths: dict) -> tuple:
    """Check one detect's outputs; return (problems, per-run facts)."""
    import numpy as np
    from coact import average_precision, roc_auc

    problems = []
    with (run_dir / "result.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    accounts = [r["account"] for r in rows]
    scores = np.array([float(r["score"]) for r in rows])
    if len(accounts) != len(set(accounts)) or set(accounts) != paths["accounts"]:
        problems.append("result.csv does not hold exactly one row per account")
    if not np.all(np.isfinite(scores)) or np.any(scores < 0) or np.any(scores > 1):
        problems.append("result.csv has a score that is not finite or not in [0, 1]")

    with (run_dir / "q_matrix.csv").open(encoding="utf-8", newline="") as fh:
        q_rows = [[float(x) for x in row[1:]] for row in list(csv.reader(fh))[1:]]
    q = np.array(q_rows)
    if len(q) != len(rows) or np.max(np.abs(q.sum(axis=1) - 1.0)) > 1e-9:
        problems.append("q_matrix.csv rows do not sum to 1")

    truth = read_labels(paths["labels"])
    exclude = set(read_labels(paths["revealed"])) if paths["revealed"] else set()
    keep = [i for i, a in enumerate(accounts) if a in truth and a not in exclude]
    y = np.array([int(truth[accounts[i]] == 1) for i in keep])
    ap = average_precision(scores[keep], y)
    auc = roc_auc(scores[keep], y)
    with (run_dir / "metrics.csv").open(encoding="utf-8", newline="") as fh:
        written = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
    if abs(written["ap"] - ap) > 1e-12 or abs(written["auc"] - auc) > 1e-12:
        problems.append(f"metrics.csv ap/auc {written['ap']}/{written['auc']} "
                        f"!= recomputed {ap}/{auc}")

    # key-free digest: scores, labels and groups in registry order
    numbers = "\n".join(",".join(list(r.values())[1:]) for r in rows)
    with (run_dir / "graph.csv").open("rb") as fh:
        nnz = sum(1 for _ in fh) - 2
    facts = {
        "ap": ap, "auc": auc, "graph.nnz": nnz,
        "result_sha256": file_sha256(run_dir / "result.csv"),
        "scores_sha256": hashlib.sha256(numbers.encode()).hexdigest(),
    }
    return problems, facts


SETUP_CODE = """
import json, sys
import coact
from coact import SequenceModel, load_dataset, split_long_sequences
d = split_long_sequences(load_dataset(sys.argv[1]), 128)
if len(sys.argv) > 2:
    SequenceModel.load(sys.argv[2])
print(json.dumps({"events.n_events": d.n_events(), "events.n_sequences": len(d.sequences),
                  "events.n_accounts": len(d.registry)}))
"""


def measure_setup(paths: dict, env: dict, log: Path, deadline: float) -> tuple:
    """Median wall time of fresh interpreters doing detect's set-up work."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(paths["data"])]
    if paths["checkpoint"]:
        cmd.append(str(paths["checkpoint"]))
    walls, counts = [], None
    for _ in range(SETUP_REPEATS):
        res = run_child(cmd, env, log, deadline)
        if res["code"] != 0:
            raise RuntimeError(f"set-up process failed, see {log}")
        walls.append(res["wall_s"])
        counts = json.loads(log.read_text().strip().splitlines()[-1])
    return statistics.median(walls), counts


# ---- counts that must repeat ----

class RepeatLedger:
    """Facts that must repeat exactly for one code version, across runs."""

    def __init__(self, path: Path, code: str):
        self.path = path
        self.code = code
        state = json.loads(path.read_text()) if path.exists() else {}
        self.state = state if state.get("code") == code else {"code": code, "facts": {}}
        self.problems = []

    def record(self, key: str, facts: dict) -> None:
        known = self.state["facts"].setdefault(key, {})
        for name, value in facts.items():
            if name in known and known[name] != value:
                self.problems.append(f"{key}: {name} was {known[name]!r}, now {value!r}")
            known.setdefault(name, value)

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---- machine info ----

def machine_info(root: Path) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": int(BLAS_THREADS), "git_commit": commit,
    }


# ---- the run ----

def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "coact" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/coact under {root}; run from a checkout's root")
    sys.path.insert(0, str(root / "src"))
    import coact

    if Path(coact.__file__).resolve().parent != (root / "src" / "coact").resolve():
        raise SystemExit(f"error: imported coact from {coact.__file__}, not from {root}/src")

    spec = WORKLOADS[args.workload]
    state_dir = root / ".perfbench"
    code = code_sha256(root)
    work = state_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    cache = state_dir / "cache" / code[:16]
    ledger = RepeatLedger(state_dir / "repeat.json", code)
    problems = []

    panel = spec["panel"][:1] if args.tiny else spec["panel"]
    datasets = []
    for data_seed in panel:
        canon = canonical_inputs(args.workload, data_seed, cache, root, args.tiny)
        paths = renamed_inputs(canon, [data_seed, args.seed % (1 << 63)], work / f"in-{data_seed}")
        datasets.append({"data_seed": data_seed, "paths": paths,
                         "argv": detect_argv(spec, paths, data_seed, args.tiny),
                         "key": f"{args.workload}{'-tiny' if args.tiny else ''}/{data_seed}",
                         "walls": [], "cpus": [], "rss": [], "shas": set()})

    deadline = time.monotonic() + RUN_BUDGET_S
    if not args.trace:
        # the panel's datasets have the same size, so the first stands for all
        setup_s, counts = measure_setup(datasets[0]["paths"], env, work / "setup.log", deadline)
        ledger.record(datasets[0]["key"], counts)

    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        rounds += 1
        for ds in datasets:
            run_dir = work / f"run-{ds['data_seed']}"
            cmd = [sys.executable, "-m", "coact.cli", "detect", *ds["argv"],
                   "--run-dir", str(run_dir)]
            res = run_child(cmd, env, work / f"detect-{ds['data_seed']}.log", deadline)
            attempted += 1
            found = []
            if res["code"] != 0:
                found.append(f"detect exited with {res['code']}")
            else:
                try:
                    found, facts = check_run_dir(run_dir, ds["paths"])
                except (OSError, KeyError, ValueError) as exc:
                    found = [f"unreadable output: {exc!r}"]
            if found:
                failed += 1
                problems += [f"{ds['key']} round {rounds}: {p}" for p in found]
            else:
                ds["walls"].append(res["wall_s"])
                ds["cpus"].append(res["cpu_s"])
                ds["rss"].append(res["rss_mb"])
                ds["shas"].add(facts["result_sha256"])
                ds["facts"] = facts
                ledger.record(ds["key"], {k: v for k, v in facts.items() if k != "result_sha256"})
            shutil.rmtree(run_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if args.trace or elapsed + elapsed / rounds > args.seconds:
            break

    for ds in datasets:
        if len(ds["shas"]) > 1:
            problems.append(f"{ds['key']}: result.csv differs between rounds")
    ok = [ds for ds in datasets if ds["walls"]]
    detect_s = sum(statistics.median(ds["walls"]) for ds in ok)

    layers = {}
    if args.trace:
        layers = trace_layers(spec, datasets, env, work, ledger, problems, deadline)
        layers["trace.detect_s"] = detect_s

    problems += ledger.problems
    ledger.save()

    if args.trace:
        metrics = layers
    else:
        n = len(ok) or 1
        metrics = {
            "detect_s": detect_s,
            "peak_rss_mb": max((max(ds["rss"]) for ds in ok), default=0.0),
            "setup_s": setup_s,
            "ap": sum(ds["facts"]["ap"] for ds in ok) / n,
            "auc": sum(ds["facts"]["auc"] for ds in ok) / n,
            "ok_frac": (attempted - failed) / attempted,
        }
    units = metric_units(root)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "rounds": rounds, "code_sha256": code,
        "machine": machine_info(root), "problems": problems,
        "datasets": [{
            "data_seed": ds["data_seed"], "detect_wall_s": ds["walls"],
            "detect_cpu_s": ds["cpus"], "peak_rss_mb": ds["rss"],
            **{k: ds.get("facts", {}).get(k) for k in
               ("ap", "auc", "graph.nnz", "result_sha256", "scores_sha256")},
        } for ds in datasets],
        **result,
    }
    with (state_dir / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    for d in record["datasets"]:
        print(f"{args.workload} data seed {d['data_seed']}: ap={d['ap']} auc={d['auc']} "
              f"detect_s={d['detect_wall_s']} result.csv sha256={d['result_sha256']}")
    return result


def trace_layers(spec, datasets, env, work, ledger, problems, deadline) -> dict:
    """Per-layer metrics of every panel dataset, summed (times, counts) or pooled."""
    per = []
    for ds in datasets:
        out = work / f"trace-{ds['data_seed']}"
        out.mkdir()
        pretrain = spec["pretrain"] and pretrain_argv(spec, ds["paths"]["data"], ds["data_seed"],
                                                      out / "unused.npz")
        (out / "spec.json").write_text(json.dumps({"detect": ds["argv"], "pretrain": pretrain}))
        cmd = [sys.executable, str(HERE / "layers.py"), str(out)]
        res = run_child(cmd, env, out / "layers.log", deadline)
        if res["code"] != 0:
            problems.append(f"{ds['key']}: traced pipeline exited with {res['code']}, "
                            f"see {out / 'layers.log'}")
            continue
        layer = json.loads((out / "layers.json").read_text())
        sha = layer.pop("result_sha256")
        if "facts" in ds and sha != ds["facts"]["result_sha256"]:
            problems.append(f"{ds['key']}: traced pipeline's result.csv differs from detect's")
        if not layer.pop("checkpoint_reproduced", True):
            problems.append(f"{ds['key']}: retraining did not reproduce the checkpoint")
        ledger.record(ds["key"], {k: layer[k] for k in REPEAT_COUNTS})
        per.append(layer)
        shutil.rmtree(out / "run", ignore_errors=True)
    if not per:
        raise RuntimeError("the traced pipeline failed on every dataset")
    pooled = {}
    for name in per[0]:
        values = [p[name] for p in per]
        if name in MEDIAN_OVER_PANEL:
            pooled[name] = statistics.median(values)
        elif name in MAX_OVER_PANEL:
            pooled[name] = max(values)
        else:
            pooled[name] = sum(values)
    pooled["pointprocess.epoch_s"] = (pooled["pointprocess.train_s"]
                                      / pooled["pointprocess.epochs_run"])
    return pooled


REPEAT_COUNTS = ("events.n_events", "events.n_sequences", "events.n_accounts", "graph.nnz",
                 "pointprocess.epochs_run")
MEDIAN_OVER_PANEL = ("pointprocess.fwd_bwd_us_per_event", "pointprocess.fwd_us_per_event",
                     "autodiff.adam_step_us")
MAX_OVER_PANEL = ("graph.peak_alloc_mb", "graph.max_coupling_rowsum", "crf.estep_sweeps")


def metric_units(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds (harness smoke test)")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
