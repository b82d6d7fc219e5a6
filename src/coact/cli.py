"""Command-line pipeline: synth, ingest, build-graph, pretrain, detect, eval.

``detect`` chains every stage (pretraining can be skipped by passing a
checkpoint) and writes all artifacts plus the fully resolved configuration
under one run directory, so any run can be reproduced byte-for-byte from
its persisted config and seed. Once the graph is built, detect forks one
child that writes the checkpoint (when it pretrained) and the graph, while
the parent runs EM (``em.run_em``). Without a second usable CPU the parent
writes them itself where the child would have joined, and the outputs are
the same bytes either way. ``pretrain`` and ``build-graph`` run detect's own
stages, so with the same flags they write the same ``checkpoint.npz`` and
``graph.csv`` bytes. ``detect`` scores its own ``result.csv`` with
``score_result``, as ``eval`` does, so both write the same metrics bytes; a
grid over EM loops and seeds is a shell loop over ``detect`` and ``eval``.
``detect`` warns on standard error of each E-step that stopped at
``--estep-iters`` sweeps with its residual not below ``--estep-tol``.

Flag values are checked by their argparse types and the EM settings by
``EmConfig`` before any stage starts, and the label files as soon as the
accounts are known, before the run directory is touched: a bad value exits 2
and writes nothing. ``eval`` checks its truth labels as ``detect`` does.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import em as em_mod
from . import graph as graph_mod
from . import metrics as metrics_mod
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
    return train(tr if tr.seq_ids else d, cfg, model_cfg, val=va if va.seq_ids else None)


def _build_graph(d: Dataset, args) -> graph_mod.KnowledgeGraph:
    if args.filter == "none":
        return graph_mod.co_occurrence(d)
    if args.filter == "power":
        return graph_mod.filter_power(graph_mod.co_occurrence(d), args.p)
    return graph_mod.filter_temporal_logic(d, args.c)  # "tl"


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
    labels (None if not given). More ``--groups`` than ``accounts``, revealed
    groups EM cannot use, and truth labels that leave no positive or no
    negative to score, are usage errors."""
    if args.groups > len(accounts):
        raise UsageError(f"--groups {args.groups} is more than the {len(accounts)} accounts")
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
        _check_truth(labels, accounts, revealed or {}, args.labels)
    return revealed, labels


def _check_truth(labels: dict, accounts, exclude, path) -> None:
    """A usage error unless the truth ``labels`` read from ``path`` leave a
    positive (group 1) and a negative among the ``accounts`` not in
    ``exclude``, the accounts ``evaluate_scores`` scores."""
    scored = {labels[a] == 1 for a in accounts if a in labels and a not in exclude}
    if scored != {False, True}:
        raise UsageError(f"--labels {path}: need at least one positive (group 1) "
                         "and one negative among the scored accounts")


def write_result_csv(result: em_mod.DetectionResult, path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write("account,score,label,group\n")
        for i, account in enumerate(result.accounts):
            fh.write(
                f"{_csv_field(account)},{_fmt(result.scores[i])},"
                f"{int(result.labels[i])},{int(result.group_of[i])}\n"
            )


def read_result_csv(path):
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        return [(rec["account"], float(rec["score"]), int(rec["label"]))
                for rec in csv.DictReader(fh)]


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
    kept = [(a, score) for a, score, _ in rows if a in labels and a not in exclude]
    scores = np.array([score for _, score in kept])
    truth = np.array([1 if labels[a] == 1 else 0 for a, _ in kept])
    out = {
        "ap": metrics_mod.average_precision(scores, truth),
        "auc": metrics_mod.roc_auc(scores, truth),
        "max_f1": metrics_mod.max_f1(scores, truth),
    }
    out.update(metrics_mod.thresholded_metrics(scores, truth, threshold))
    return {k: out[k] for k in METRIC_NAMES}


def score_result(rows, labels: dict, exclude, threshold: float, out_csv) -> dict:
    """Score the ``read_result_csv`` rows of a ``result.csv`` against truth
    ``labels`` (``evaluate_scores``) and write the metrics to ``out_csv`` and,
    as a table, beside it as .txt."""
    metrics = evaluate_scores(rows, labels, exclude, threshold)
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


def run_pipeline(args, run_dir: Path | None) -> tuple:
    """detect pipeline; returns the run directory (``_make_run_dir``), EM's
    ``DetectionResult`` and the metrics dict, None without truth labels.

    With ``--checkpoint`` the stages run as load-checkpoint, the label files
    (checked against the checkpoint's accounts), ingest and the check that
    the data has the checkpoint's accounts. Without one they run as ingest,
    the label files and pretrain. The run directory and its ``config.json``
    are written only once the label files and the checkpoint's accounts
    pass, so a refused run leaves an earlier one there as it was. Then
    build-graph builds the prior graph, and ``_save_model_and_graph`` is
    forked off to save the checkpoint (without one) and write ``graph.csv``,
    while EM runs (``em.run_em``). The parent joins it once EM ends, even if
    EM failed, and a failure to write those files is raised first, as when
    they were written before EM; ``result.csv`` is written after the join.
    """
    em_config = _em_config(args)  # checked before any stage runs
    if args.checkpoint:
        model = _stage("load-checkpoint", SequenceModel.load, args.checkpoint)
        revealed, labels = _read_label_files(args, model.accounts)  # checked before ingest
        d = _stage("ingest", _load_data, args)
        if model.accounts != d.registry.keys:
            raise StageError("stage 'load-checkpoint' failed: checkpoint accounts "
                             "do not match the dataset registry")
        run_dir = _make_run_dir(args, run_dir)
    else:
        d = _stage("ingest", _load_data, args)
        revealed, labels = _read_label_files(args, d.registry.keys)  # checked before pretraining
        run_dir = _make_run_dir(args, run_dir)
        model = _stage("pretrain", _pretrain, d, args)
    g = _stage("build-graph", _build_graph, d, args)

    with _forked(_save_model_and_graph, model, g, run_dir, not args.checkpoint) as saved:
        try:
            result = _stage("em", em_mod.run_em, d, g, model, em_config, revealed)
        finally:  # a failed EM leaves the checkpoint and the graph whole
            saved()
    _stage("write-result", write_result_csv, result, run_dir / "result.csv")
    _stage("write-result", write_q_csv, result, run_dir / "q_matrix.csv")

    if labels is None:
        return run_dir, result, None
    rows = _stage("eval", read_result_csv, run_dir / "result.csv")
    return run_dir, result, _stage("eval", score_result, rows, labels, revealed or (),
                                   args.threshold, run_dir / "metrics.csv")


def _save_model_and_graph(model: SequenceModel, g, run_dir: Path, pretrained: bool) -> None:
    """Save ``model`` to ``run_dir``'s ``checkpoint.npz`` if detect
    ``pretrained`` it, then write ``g`` to its ``graph.csv``; a failure is
    named by the stage that made the file."""
    if pretrained:
        _stage("pretrain", model.save, run_dir / "checkpoint.npz")
    _stage("build-graph", graph_mod.save_graph, g, run_dir / "graph.csv")


def _make_run_dir(args, run_dir: Path | None) -> Path:
    """Make ``run_dir``, or without it the first free ``runs/<stamp>-<tag>``,
    ``<stamp>-<tag>-2``, ..., which no other run can take too; write the
    fully resolved flags to its ``config.json`` and return it."""
    if run_dir is None:
        base = Path("runs") / f"{time.strftime('%Y%m%d-%H%M%S')}-{args.tag}"
        for n in itertools.count(1):
            run_dir = base.with_name(base.name + (f"-{n}" if n > 1 else ""))
            try:
                run_dir.mkdir(parents=True, exist_ok=False)
                break
            except FileExistsError:
                continue
    run_dir.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    (run_dir / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return run_dir


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
    print(f"wrote graph [{g.filter_tag}] with {g.n} accounts, {len(g.u)} edges "
          f"-> {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    d = _load_data(args)
    model = _pretrain(d, args)
    model.save(args.out)
    print(f"wrote checkpoint ({model.n_accounts} accounts) -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    run_dir, result, metrics = run_pipeline(args, Path(args.run_dir) if args.run_dir else None)
    for record in result.history:
        if not record["estep_converged"]:
            print(f"warning: the E-step of EM loop {record['loop']} did not converge: "
                  f"residual {record['estep_residual']:.3g} after {record['estep_iterations']} "
                  f"sweep(s), --estep-tol {args.estep_tol:g}", file=sys.stderr)
    print(f"run artifacts -> {run_dir}")
    if metrics is not None:
        print((run_dir / "metrics.txt").read_text(), end="")
    return 0


def cmd_eval(args) -> int:
    labels = load_labels(args.labels)
    exclude = load_labels(args.exclude) if args.exclude else ()
    rows = read_result_csv(args.result)
    _check_truth(labels, [account for account, _, _ in rows], exclude, args.labels)
    out_csv = Path(args.out) if args.out else Path(args.result).with_name("metrics.csv")
    score_result(rows, labels, exclude, args.threshold, out_csv)
    print(out_csv.with_suffix(".txt").read_text(), end="")
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
    p.add_argument("--loops", type=int, default=1, help="EM loops (default: 1)")
    p.add_argument("--estep-only", action="store_true",
                   help="single E-step as post-processing, no M-step")
    p.add_argument("--em-epochs", type=_int_at_least(1), default=50,
                   help="M-step epoch cap (default: 50, early-stopped)")
    p.add_argument("--em-lr", type=_number(0.0, above=True), default=1e-3)
    p.add_argument("--estep-tol", type=_number(0.0, above=True), default=1e-6)
    p.add_argument("--estep-iters", type=_int_at_least(1), default=10,
                   help="E-step sweep cap (default: 10)")
    p.add_argument("--schedule", choices=em_mod.ESTEP_SCHEDULES, default="jacobi")
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


def _out_without(suffix: str, why: str):
    """An argparse type: an output path whose suffix is not ``suffix``, for ``why``."""
    def parse(text: str) -> str:
        if Path(text).suffix.lower() == suffix:
            raise argparse.ArgumentTypeError(f"{why}, got {text!r}")
        return text
    return parse


# load_dataset would read save_dataset's JSON lines back as CSV from a .csv name,
# and score_result writes its table beside the metrics CSV under a .txt name
_dataset_out = _out_without(".csv", "datasets are written as JSON lines")
_metrics_out = _out_without(".txt", "the metrics table is written beside the CSV as .txt")


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
    p.add_argument("--out", type=_dataset_out, default="synth.jsonl")
    p.add_argument("--labels", default="synth_labels.csv")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate and normalize a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default=None)
    p.add_argument("--out", type=_dataset_out, required=True)
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
    p.add_argument("--out", type=_metrics_out, default=None,
                   help="metrics CSV path; the table goes beside it as .txt")
    p.set_defaults(func=cmd_eval)

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
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
