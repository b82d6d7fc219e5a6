"""Command-line pipeline: synth, ingest, build-graph, pretrain, detect, eval, sweep.

``detect`` chains every stage (pretraining can be skipped by passing a
checkpoint) and writes all artifacts plus the fully resolved configuration
under one run directory, so any run can be reproduced byte-for-byte from
its persisted config and seed. EM's unary scorer start reads only the
sequence model, so as soon as the model exists detect clusters the
embeddings (``em.cluster_labels``, whose k-means runs half its starts in a
forked child), and then a forked child fits the scorer to the clusters
while the parent ingests (with a checkpoint) and builds and writes the
graph; EM takes the fitted scorer from the child. Without a second usable
CPU both run in the same process, the fit where the child would have
joined, and the outputs are the same bytes either way. ``pretrain`` and
``build-graph`` run detect's own stages, so with the same flags they write
the same ``checkpoint.npz`` and ``graph.csv`` bytes. ``sweep`` runs detect
over a grid of EM loop counts and seeds, pretraining once per seed.
``detect`` scores its own ``result.csv`` with ``score_result``, as ``eval``
does, so both write the same metrics bytes.

Flag values are checked by their argparse types, and the EM settings of
every run by ``EmConfig``, before any stage starts: a bad value exits 2 and
writes nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import em as em_mod
from . import graph as graph_mod
from . import metrics as metrics_mod
from .crf import CrfParams
from .events import (
    Dataset,
    _csv_field,
    check_fractions,
    load_dataset,
    load_labels,
    save_dataset,
    save_labels,
    split_long_sequences,
    train_val_test_split,
)
from .hawkes import make_planted_scenario
from .pointprocess import SeqModelConfig, SequenceModel, TrainConfig, _forked, train

METRIC_NAMES = ["ap", "auc", "max_f1", "f1", "precision", "recall", "macro_f1"]


class UsageError(ValueError):
    pass


class StageError(RuntimeError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


# ---- shared pipeline pieces ----

def _load_data(args) -> Dataset:
    d = load_dataset(args.data, min_account_count=args.min_account_count)
    if args.max_len:
        d = split_long_sequences(d, args.max_len)
    return d


def _pretrain(d: Dataset, args) -> SequenceModel:
    tr, va, _ = train_val_test_split(d, args.fractions, args.seed)
    cfg = TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        patience=args.patience,
        seed=args.seed,
    )
    model_cfg = SeqModelConfig(d_embed=args.d_embed, d_pos=args.d_pos, d_time=args.d_time,
                               n_mix=args.mix_components)
    return train(tr if tr.sequences else d, cfg, model_cfg, val=va if va.sequences else None)


def _build_graph(d: Dataset, args) -> graph_mod.KnowledgeGraph:
    if args.filter == "none":
        return graph_mod.co_occurrence(d)
    if args.filter == "power":
        # the counts are this graph's own: raising them in place keeps one
        # weight array alive, not the counts beside their powers
        return graph_mod.filter_power(graph_mod.co_occurrence(d), args.p, in_place=True)
    if args.filter == "tl":
        return graph_mod.filter_temporal_logic(d, args.c)
    raise UsageError(f"unknown filter {args.filter!r}")


def _em_config(args) -> em_mod.EmConfig:
    """EM settings from the flags; a bad value is a usage error."""
    if args.groups != 2 and not args.revealed:
        raise UsageError("--groups other than 2 needs --revealed: without revealed "
                         "accounts the coordinated group is the smaller of two")
    try:
        return em_mod.EmConfig(
            n_groups=args.groups,
            n_loops=args.loops,
            estep_only=args.estep_only,
            m_step_epochs=args.em_epochs,
            m_step_lr=args.em_lr,
            weight_decay=args.weight_decay,
            batch_size=args.batch_size,
            patience=args.patience,
            estep_tol=args.estep_tol,
            estep_max_iter=args.estep_iters,
            estep_schedule=args.schedule,
            lambda_balance=args.lam,
            threshold=args.threshold,
            fractions=tuple(args.fractions),
            scorer_hidden=args.scorer_hidden,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_label_files(args, accounts: list) -> tuple:
    """The ``--revealed`` labels of ``accounts`` and the ``--labels`` truth
    labels (None if not given). Revealed groups EM cannot use, and truth
    labels that leave no positive or no negative to score, are usage errors."""
    revealed = labels = None
    if args.revealed:
        revealed = _stage("read-revealed", load_labels, args.revealed)
        known = set(accounts)
        revealed = {a: g_ for a, g_ in revealed.items() if a in known}
        try:
            em_mod.check_revealed(list(revealed.values()), args.groups)
        except ValueError as exc:
            raise UsageError(f"--revealed {args.revealed}: {exc}") from exc
    if args.labels:
        labels = _stage("read-labels", load_labels, args.labels)
        scored = {labels[a] == 1 for a in accounts
                  if a in labels and a not in (revealed or {})}
        if scored != {False, True}:
            raise UsageError(f"--labels {args.labels}: need at least one positive (group 1) "
                             "and one negative among the scored accounts")
    return revealed, labels


def write_result_csv(result: em_mod.DetectionResult, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("account,score,label,group\n")
        for i, account in enumerate(result.accounts):
            fh.write(
                f"{_csv_field(account)},{_fmt(result.scores[i])},"
                f"{int(result.labels[i])},{int(result.group_of[i])}\n"
            )


def read_result_csv(path):
    rows = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append((rec["account"], float(rec["score"]), int(rec["label"])))
    return rows


def write_q_csv(result: em_mod.DetectionResult, path) -> None:
    M = result.mean_field.n_groups
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("account," + ",".join(f"q_{m}" for m in range(M)) + "\n")
        for i, account in enumerate(result.accounts):
            row = ",".join(_fmt(v) for v in result.mean_field.q[i])
            fh.write(f"{_csv_field(account)},{row}\n")


def evaluate_scores(rows, labels: dict, exclude=(), threshold: float = 0.5) -> dict:
    """Metrics for (account, score, label) rows against truth labels.

    Accounts without a truth label and excluded (revealed) accounts are
    dropped; truth group 1 is the positive (coordinated) class.
    """
    exclude = set(exclude)
    scores, truth = [], []
    for account, score, _ in rows:
        if account in exclude or account not in labels:
            continue
        scores.append(score)
        truth.append(1 if labels[account] == 1 else 0)
    scores = np.asarray(scores)
    truth = np.asarray(truth)
    out = {
        "ap": metrics_mod.average_precision(scores, truth),
        "auc": metrics_mod.roc_auc(scores, truth),
        "max_f1": metrics_mod.max_f1(scores, truth),
    }
    out.update(metrics_mod.thresholded_metrics(scores, truth, threshold))
    return {k: out[k] for k in METRIC_NAMES}


def score_result(result_csv, labels: dict, exclude, threshold: float, out_csv) -> dict:
    """Score a ``result.csv`` against truth ``labels`` (``evaluate_scores``)
    and write the metrics to ``out_csv`` and, as a table, beside it as .txt."""
    metrics = evaluate_scores(read_result_csv(result_csv), labels, exclude, threshold)
    out_csv = Path(out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    with out_csv.open("w", encoding="utf-8", newline="") as fh:
        fh.write("metric,value\n")
        for k in METRIC_NAMES:
            fh.write(f"{k},{_fmt(metrics[k])}\n")
    width = max(len(k) for k in METRIC_NAMES)
    lines = [f"{k:<{width}}  {metrics[k]:.4f}" for k in METRIC_NAMES]
    out_csv.with_suffix(".txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return metrics


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(f"stage '{name}' failed: {exc}") from exc


def run_pipeline(args, run_dir: Path) -> dict | None:
    """detect pipeline; returns the metrics dict when truth labels are given.

    With ``--checkpoint`` the stages run as load-checkpoint, the label files
    (checked against the checkpoint's accounts), then ingest and the check
    that the data has the checkpoint's accounts. Without one they run as
    ingest, the label files and pretrain. Either way the model's embeddings
    are then clustered (``em.cluster_labels``, k-means on two CPUs), and
    ``em.fit_scorer`` is forked off with the clusters. Beside it the parent
    ingests (with a checkpoint) or saves the checkpoint (without one), and
    build-graph writes ``graph.csv``; then EM joins the fit
    (``em.run_em_from``).
    """
    em_config = _em_config(args)  # checked before any stage runs
    run_dir.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    (run_dir / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )

    if args.checkpoint:
        d = None
        model = _stage("load-checkpoint", SequenceModel.load, args.checkpoint)
        revealed, labels = _read_label_files(args, model.accounts)  # checked before the fork
    else:
        d = _stage("ingest", _load_data, args)
        revealed, labels = _read_label_files(args, d.registry.keys)  # checked before pretraining
        model = _stage("pretrain", _pretrain, d, args)

    # the scorer start reads only the model: the clusters first, on both
    # CPUs, then a forked child fits the scorer to them meanwhile
    groups = _stage("em", em_mod.cluster_labels, model, em_config, revealed)
    with _forked(em_mod.fit_scorer, model, em_config, groups) as fitted_scorer:
        if d is None:
            d = _stage("ingest", _load_data, args)
            if model.accounts != d.registry.keys:
                raise StageError("stage 'load-checkpoint' failed: checkpoint accounts "
                                 "do not match the dataset registry")
        else:
            _stage("pretrain", model.save, run_dir / "checkpoint.npz")
        g = _stage("build-graph", _build_graph, d, args)
        _stage("build-graph", graph_mod.save_graph, g, run_dir / "graph.csv")
        crf = CrfParams(_stage("em", fitted_scorer), g)

    result = _stage("em", em_mod.run_em_from, d, crf, model, em_config, revealed)
    _stage("write-result", write_result_csv, result, run_dir / "result.csv")
    _stage("write-result", write_q_csv, result, run_dir / "q_matrix.csv")

    if labels is None:
        return None
    return _stage("eval", score_result, run_dir / "result.csv", labels, revealed or (),
                  args.threshold, run_dir / "metrics.csv")


# ---- subcommands ----

def cmd_synth(args) -> int:
    _, data = make_planted_scenario(
        args.normal, args.coord, args.strength, args.seed,
        n_sequences=args.sequences, horizon=args.horizon,
    )
    save_dataset(data, args.out)
    save_labels(data.labels, args.labels)
    print(f"wrote {len(data.sequences)} sequences, {len(data.registry)} accounts "
          f"-> {args.out}, labels -> {args.labels}")
    return 0


def cmd_ingest(args) -> int:
    d = load_dataset(args.input, format=args.format,
                     min_account_count=args.min_account_count)
    if args.max_len:
        d = split_long_sequences(d, args.max_len)
    save_dataset(d, args.out)
    print(f"wrote {len(d.sequences)} sequences, {len(d.registry)} accounts, "
          f"{d.n_events()} events -> {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    d = _load_data(args)
    g = _build_graph(d, args)
    graph_mod.save_graph(g, args.out)
    print(f"wrote graph [{g.filter_tag}] with {g.n} accounts, {len(g.weight)} edges "
          f"-> {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    d = _load_data(args)
    model = _pretrain(d, args)
    model.save(args.out)
    print(f"wrote checkpoint ({model.n_accounts} accounts) -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    run_dir = Path(args.run_dir) if args.run_dir else (
        Path("runs") / f"{time.strftime('%Y%m%d-%H%M%S')}-{args.tag}"
    )
    metrics = run_pipeline(args, run_dir)
    print(f"run artifacts -> {run_dir}")
    if metrics is not None:
        print((run_dir / "metrics.txt").read_text(), end="")
    return 0


def cmd_eval(args) -> int:
    labels = load_labels(args.labels)
    exclude = load_labels(args.exclude) if args.exclude else ()
    out_csv = Path(args.out) if args.out else Path(args.result).with_name("metrics.csv")
    score_result(args.result, labels, exclude, args.threshold, out_csv)
    print(out_csv.with_suffix(".txt").read_text(), end="")
    return 0


def cmd_sweep(args) -> int:
    if not args.labels:
        raise UsageError("sweep needs --labels to aggregate metrics")
    out_dir = Path(args.out)
    runs = [argparse.Namespace(**{**vars(args), "loops": loops, "seed": seed,
                                  "checkpoint": str(out_dir / f"checkpoint-seed{seed}.npz")})
            for loops in args.loops_grid for seed in args.seeds]
    for sub in runs:
        _em_config(sub)  # fail before any pretraining
    d = _load_data(args)
    _read_label_files(args, d.registry.keys)
    out_dir.mkdir(parents=True, exist_ok=True)

    for sub in runs:  # pretraining depends on the seed only: one checkpoint per seed
        if not Path(sub.checkpoint).exists():
            _pretrain(d, sub).save(sub.checkpoint)

    per_run = []
    for sub in runs:
        metrics = run_pipeline(sub, out_dir / f"loops{sub.loops}-seed{sub.seed}")
        per_run.append((sub.loops, sub.seed, metrics))

    with (out_dir / "summary.csv").open("w", encoding="utf-8", newline="") as fh:
        head = ["loops", "n_runs"]
        for name in METRIC_NAMES:
            head += [f"{name}_mean", f"{name}_std"]
        fh.write(",".join(head) + "\n")
        for loops in args.loops_grid:
            values = [m for lp, _, m in per_run if lp == loops]
            row = [str(loops), str(len(values))]
            for name in METRIC_NAMES:
                xs = np.array([m[name] for m in values])
                row += [_fmt(xs.mean()), _fmt(xs.std())]
            fh.write(",".join(row) + "\n")
    print(f"wrote {len(per_run)} runs -> {out_dir / 'summary.csv'}")
    return 0


# ---- parser ----

def _add_data_opts(p, with_labels=True):
    p.add_argument("--data", required=True, help="dataset file (JSON-lines or CSV)")
    if with_labels:
        p.add_argument("--labels", default=None, help="truth labels CSV (account,group)")
    p.add_argument("--min-account-count", type=_int_at_least(0), default=0,
                   help="drop accounts with fewer events than this (default: off)")
    p.add_argument("--max-len", type=_int_at_least(2, or_zero=True), default=128,
                   help="split sequences longer than this, 0 = do not split (default: 128)")


def _add_train_opts(p):
    p.add_argument("--epochs", type=_int_at_least(1), default=100, help="pretraining epoch cap")
    p.add_argument("--lr", type=_number(0.0, above=True), default=1e-3,
                   help="learning rate (default: 1e-3)")
    p.add_argument("--weight-decay", type=_number(0.0), default=1e-5,
                   help="L2 regularization (default: 1e-5)")
    p.add_argument("--batch-size", type=_int_at_least(1), default=64)
    p.add_argument("--patience", type=_int_at_least(1), default=10,
                   help="early-stopping patience")
    p.add_argument("--d-embed", type=_int_at_least(1), default=64,
                   help="account embedding width")
    p.add_argument("--d-pos", type=_int_at_least(0), default=8)
    p.add_argument("--d-time", type=_int_at_least(0), default=8)
    p.add_argument("--mix-components", type=_int_at_least(1), default=32,
                   help="log-normal mixture size (default: 32)")
    p.add_argument("--fractions", type=_fractions, default=(0.70, 0.15, 0.15),
                   help="train/val/test fractions (default: 0.70,0.15,0.15)")


def _add_graph_opts(p):
    p.add_argument("--filter", choices=["none", "power", "tl"], default="power",
                   help="edge-weight filter (default: power)")
    p.add_argument("--p", type=_number(1.0), default=3.0,
                   help="power-filter exponent, >= 1 (default: 3)")
    p.add_argument("--c", type=_number(0.0), default=43200.0,
                   help="temporal-overlap threshold in seconds (default: 43200 = 12h)")


def _add_em_opts(p):
    p.add_argument("--groups", type=int, default=2, help="group count M (default: 2)")
    p.add_argument("--loops", type=int, default=1,
                   help="EM loops; sweep --loops-grid compares values (default: 1)")
    p.add_argument("--estep-only", action="store_true",
                   help="single E-step as post-processing, no M-step")
    p.add_argument("--em-epochs", type=_int_at_least(1), default=50,
                   help="M-step epoch cap (default: 50, early-stopped)")
    p.add_argument("--em-lr", type=_number(0.0, above=True), default=1e-3)
    p.add_argument("--estep-tol", type=_number(0.0, above=True), default=1e-6)
    p.add_argument("--estep-iters", type=_int_at_least(1), default=10,
                   help="E-step sweep cap (default: 10)")
    p.add_argument("--schedule", choices=["jacobi", "gauss_seidel"], default="jacobi")
    p.add_argument("--lam", type=_number(0.0, above=True), default=1.0,
                   help="weight of the assignment term vs the likelihood (default: 1)")
    p.add_argument("--threshold", type=_number(0.0, at_most=1.0), default=0.5,
                   help="detection threshold on the coordinated score (default: 0.5)")
    p.add_argument("--scorer-hidden", type=_int_at_least(1), default=64)
    p.add_argument("--revealed", default=None,
                   help="labels CSV of revealed accounts (semi-supervised)")


def _number(low: float, above: bool = False, at_most: float = np.inf):
    """An argparse type: a finite float no smaller than ``low``, or above it
    with ``above``, and no larger than ``at_most``."""
    want = f"a finite number {'>' if above else '>='} {low:g}"
    if at_most < np.inf:
        want += f" and <= {at_most:g}"

    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = float("nan")
        if not (np.isfinite(x) and (x > low if above else x >= low) and x <= at_most):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return x
    return parse


def _int_at_least(low: int, or_zero: bool = False):
    """An argparse type: an integer no smaller than ``low``, or 0 with ``or_zero``."""
    want = f"an integer >= {low}" + (" or 0" if or_zero else "")

    def parse(text: str) -> int:
        try:
            x = int(text)
        except ValueError:
            x = None
        if x is None or not (x >= low or (or_zero and x == 0)):
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")
        return x
    return parse


def _int_list(low: int):
    """An argparse type: a comma-separated, non-empty list of integers >= ``low``."""
    item = _int_at_least(low)

    def parse(text: str) -> list:
        items = [x for x in text.split(",") if x.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"expected a list of integers >= {low}, "
                                             f"got {text!r}")
        return [item(x) for x in items]
    return parse


def _fractions(text: str):
    """An argparse type: three comma-separated train/val/test fractions."""
    try:
        return check_fractions(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    """The ``coact`` parser."""
    parser = argparse.ArgumentParser(
        prog="coact",
        description="Coordinated account-group detection from temporal event sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-group synthetic dataset")
    p.add_argument("--normal", type=_int_at_least(0), default=80)
    p.add_argument("--coord", type=_int_at_least(2), default=20)
    p.add_argument("--strength", type=_number(0.0), default=2.0)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--sequences", type=_int_at_least(1), default=150)
    p.add_argument("--horizon", type=_number(0.0, above=True), default=259200.0)
    p.add_argument("--out", default="synth.jsonl")
    p.add_argument("--labels", default="synth_labels.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate and normalize a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--min-account-count", type=_int_at_least(0), default=0)
    p.add_argument("--max-len", type=_int_at_least(2, or_zero=True), default=0,
                   help="split sequences longer than this, 0 = do not split (default: 0)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-graph", help="build the prior co-appearance graph")
    _add_data_opts(p, with_labels=False)
    _add_graph_opts(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("pretrain", help="train the sequence model")
    _add_data_opts(p, with_labels=False)
    _add_train_opts(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("detect", help="full pipeline: pretrain, graph, EM, eval")
    _add_data_opts(p)
    _add_train_opts(p)
    _add_graph_opts(p)
    _add_em_opts(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--checkpoint", default=None, help="skip pretraining, load this")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--tag", default="run")
    p.add_argument("--config", default=None,
                   help="JSON config; flags given on the command line override it")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a result CSV against truth labels")
    p.add_argument("--result", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--exclude", default=None,
                   help="labels CSV of accounts to exclude (e.g. revealed)")
    p.add_argument("--threshold", type=_number(0.0, at_most=1.0), default=0.5)
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid of detect runs with mean/std aggregation")
    _add_data_opts(p)
    _add_train_opts(p)
    _add_graph_opts(p)
    _add_em_opts(p)
    p.add_argument("--loops-grid", type=_int_list(1), default="1,2,3")
    p.add_argument("--seeds", type=_int_list(0), default="0,1,2,3,4")
    p.add_argument("--out", required=True, help="sweep output directory")
    p.set_defaults(func=cmd_sweep)

    return parser


def _config_flags(args) -> list:
    """The keys of the ``--config`` file that detect knows, written as flags.

    They are parsed with the same types and choices as flags typed on the
    command line. A null value leaves the flag alone, and a true or false
    one sets or leaves an on/off flag.
    """
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"--config {args.config} does not hold a JSON object")
    flags = []
    for k, v in config.items():
        # where a run writes is never taken from the file, so re-running from
        # R1/config.json cannot overwrite R1
        if (v is None or k not in vars(args)
                or k in ("command", "config", "func", "run_dir", "tag")):
            continue
        flag = "--" + k.replace("_", "-")
        if isinstance(vars(args)[k], bool) and isinstance(v, bool):
            flags += [flag] if v else []
        elif isinstance(v, list):
            flags.append(f"{flag}={','.join(str(x) for x in v)}")
        else:
            flags.append(f"{flag}={v}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "detect" and args.config:
            # parse again with the file's values as flags before the command
            # line's own, so that those win
            at = argv.index("detect") + 1
            args = build_parser().parse_args(argv[:at] + _config_flags(args) + argv[at:])
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
