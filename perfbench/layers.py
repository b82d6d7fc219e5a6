"""Traced ``coact detect``: time the calls into each module, in-process.

    python3 perfbench/layers.py OUT_DIR

``OUT_DIR/spec.json`` holds ``detect``, the detect flags, and ``pretrain``,
the flags of the ``coact pretrain`` run that made the checkpoint (or null).
The flags are parsed with the CLI's own parser. The script runs the same
stages as ``coact detect`` through the modules' public functions and writes
the per-layer metrics to ``OUT_DIR/layers.json`` (times in seconds unless
the name says otherwise).

``trace.layer_sum_s`` sums the stages that make up one detect. The other
timings re-run a piece of work on its own and stay out of the sum. Where a
workload's detect skips a layer, that layer is timed on the same data all
the same: ``pointprocess.train_*`` then time the pretraining that made the
checkpoint, and ``em.m_step_s`` times one M-step epoch of one loop.
``result_sha256`` lets the caller check that this run wrote the same
``result.csv`` as the CLI.
"""

import hashlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

clock = time.perf_counter


def timed(fn, *args, **kwargs):
    start = clock()
    out = fn(*args, **kwargs)
    return out, clock() - start


def pretrain(args, d):
    """``coact pretrain``'s model for the parsed flags; returns (model, seconds)."""
    from coact import events, pointprocess

    start = clock()
    tr, va, _ = events.train_val_test_split(d, args.fractions, args.seed)
    cfg = pointprocess.TrainConfig(epochs=args.epochs, lr=args.lr, weight_decay=args.weight_decay,
                                   batch_size=args.batch_size, patience=args.patience,
                                   seed=args.seed)
    model_cfg = pointprocess.SeqModelConfig(d_embed=args.d_embed, d_pos=args.d_pos,
                                            d_time=args.d_time, n_mix=args.mix_components)
    model = pointprocess.train(tr if tr.sequences else d, cfg, model_cfg,
                               val=va if va.sequences else None)
    return model, clock() - start


def main(out_dir: Path, spec: dict) -> dict:
    m = {}
    start = clock()
    import coact  # noqa: F401
    from coact import autodiff as ad, cli, em, events, graph, metrics, pointprocess
    from coact.crf import estep_converge, softmax_init
    m["cli.import_s"] = clock() - start

    args = cli.build_parser().parse_args(["detect", *spec["detect"]])
    run_dir = out_dir / "run"
    run_dir.mkdir()
    d, m["events.load_dataset_s"] = timed(events.load_dataset, args.data,
                                          min_account_count=args.min_account_count)
    d, m["events.split_long_sequences_s"] = timed(events.split_long_sequences, d, args.max_len)
    m["events.n_events"] = d.n_events()
    m["events.n_sequences"] = len(d.sequences)
    m["events.n_accounts"] = len(d.registry)

    if args.checkpoint:
        model, m["pointprocess.checkpoint_s"] = timed(pointprocess.SequenceModel.load,
                                                      args.checkpoint)
        # off the detect path: the pretraining that made the checkpoint
        pre_args = cli.build_parser().parse_args(["pretrain", *spec["pretrain"]])
        trained, train_s = pretrain(pre_args, d)
        m["checkpoint_reproduced"] = all(
            (trained.params[k].data == t.data).all() for k, t in model.params.items())
    else:
        model, train_s = pretrain(args, d)
        trained = model
        _, m["pointprocess.checkpoint_s"] = timed(model.save, run_dir / "checkpoint.npz")
    m["pointprocess.train_s"] = train_s
    m["pointprocess.epochs_run"] = len(trained.history)
    m["pointprocess.epoch_s"] = train_s / len(trained.history)
    del trained

    def build():
        if args.filter == "tl":
            return graph.filter_temporal_logic(d, args.c)
        raw = graph.co_occurrence(d)
        return graph.filter_power(raw, args.p) if args.filter == "power" else raw

    g, m["graph.build_s"] = timed(build)
    B, m["graph.coupling_s"] = timed(g.coupling)
    _, m["graph.save_graph_s"] = timed(graph.save_graph, g, run_dir / "graph.csv")
    m["graph.nnz"] = int((g.w != 0).sum()) // 2
    m["graph.dense_bytes"] = g.w.nbytes
    m["graph.max_coupling_rowsum"] = float(B.sum(axis=1).max())
    del B
    # a second, untimed build under tracemalloc: its hooks slow Python code
    tracemalloc.start()
    build().coupling()
    m["graph.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    revealed = None
    if args.revealed:
        revealed = {a: k for a, k in events.load_labels(args.revealed).items() if a in d.registry}
    rows = [d.registry.index(a) for a in (revealed or {})]
    groups = [revealed[a] for a in (revealed or {})]
    em_cfg = em.EmConfig(
        n_groups=args.groups, n_loops=args.loops, estep_only=args.estep_only,
        m_step_epochs=args.em_epochs, m_step_lr=args.em_lr, weight_decay=args.weight_decay,
        batch_size=args.batch_size, patience=args.patience, estep_tol=args.estep_tol,
        estep_max_iter=args.estep_iters, estep_schedule=args.schedule,
        lambda_balance=args.lam, threshold=args.threshold, fractions=tuple(args.fractions),
        scorer_hidden=args.scorer_hidden, seed=args.seed,
    )
    E = model.params["E"].data
    _, m["em.kmeans_s"] = timed(em.kmeans, E, em_cfg.n_groups, em_cfg.seed)
    crf, m["em.initialize_s"] = timed(
        em.initialize, model, em_cfg.n_groups, em_cfg.seed, graph=g,
        hidden=em_cfg.scorer_hidden, fit_weight_decay=em_cfg.scorer_weight_decay,
        align_rows=rows, align_groups=groups)
    init = softmax_init(crf, E, rows, groups)
    (_, sweeps), m["crf.estep_s"] = timed(
        estep_converge, crf, E, init, tol=em_cfg.estep_tol, max_iter=em_cfg.estep_max_iter,
        schedule=em_cfg.estep_schedule)
    m["crf.estep_sweeps"] = sweeps

    result, m["em.run_em_s"] = timed(em.run_em, d, g, model, em_cfg, revealed)
    estep_cfg = replace(em_cfg, estep_only=True)
    if em_cfg.estep_only:
        estep_only_s = m["em.run_em_s"]
        _, with_m_step_s = timed(em.run_em, d, g, model,
                                 replace(em_cfg, estep_only=False, n_loops=1, m_step_epochs=1),
                                 revealed)
    else:
        _, estep_only_s = timed(em.run_em, d, g, model, estep_cfg, revealed)
        with_m_step_s = m["em.run_em_s"]
    m["em.m_step_s"] = with_m_step_s - estep_only_s

    start = clock()
    cli.write_result_csv(result, run_dir / "result.csv")
    cli.write_q_csv(result, run_dir / "q_matrix.csv")
    m["cli.write_outputs_s"] = clock() - start

    start = clock()
    labels = events.load_labels(args.labels)
    keep = [i for i, a in enumerate(result.accounts)
            if a in labels and not (revealed and a in revealed)]
    scores = result.scores[keep]
    truth = [int(labels[result.accounts[i]] == 1) for i in keep]
    metrics.average_precision(scores, truth)
    metrics.roc_auc(scores, truth)
    metrics.max_f1(scores, truth)
    metrics.thresholded_metrics(scores, truth, args.threshold)
    m["metrics.eval_s"] = clock() - start

    detect_stages = ["cli.import_s", "events.load_dataset_s", "events.split_long_sequences_s",
                     "pointprocess.checkpoint_s", "graph.build_s", "graph.save_graph_s",
                     "em.run_em_s", "cli.write_outputs_s", "metrics.eval_s"]
    if not args.checkpoint:
        detect_stages.append("pointprocess.train_s")
    m["trace.layer_sum_s"] = sum(m[k] for k in detect_stages)

    # sequence-model cost per event on a fixed batch, off the detect path
    batch = d.sequences[:16]
    n_events = sum(len(s) for s in batch)
    fwd, fwd_bwd, steps = [], [], []
    for _ in range(3):
        _, t = timed(lambda: [model.log_likelihood(s) for s in batch])
        fwd.append(t)
        grads, t = timed(model.grad_log_likelihood, batch)
        fwd_bwd.append(t)
    m["pointprocess.fwd_us_per_event"] = statistics.median(fwd) / n_events * 1e6
    m["pointprocess.fwd_bwd_us_per_event"] = statistics.median(fwd_bwd) / n_events * 1e6
    params = {k: ad.Tensor(t.data.copy()) for k, t in model.params.items()}
    opt = ad.Adam(params, lr=args.lr, weight_decay=args.weight_decay)
    for k, t in params.items():
        t.grad = grads[k]
    for _ in range(20):
        _, t = timed(opt.step)
        steps.append(t)
    m["autodiff.adam_step_us"] = statistics.median(steps) * 1e6

    m["result_sha256"] = hashlib.sha256((run_dir / "result.csv").read_bytes()).hexdigest()
    return m


if __name__ == "__main__":
    out = Path(sys.argv[1])
    layers = main(out, json.loads((out / "spec.json").read_text(encoding="utf-8")))
    (out / "layers.json").write_text(json.dumps(layers, indent=1), encoding="utf-8")
