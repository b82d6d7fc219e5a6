"""Variational EM joining the sequence model and the assignment field.

Starting from a pretrained sequence model, the unary scorer is fitted to
k-means clusters of the account embeddings, in two steps: the clusters
(``cluster_labels``), then the fit to them (``fit_scorer``). ``kmeans``
runs its k-means++ starts in two processes, half in a forked child
(``pointprocess._forked``) and half in the caller, and the result is
bit-identical to running them one after another. Each EM loop then
alternates an E-step (mean-field fixed-point sweeps, with any revealed
accounts clamped to one-hot beliefs) and an M-step that ascends

    sum_S log p(S | E)  +  lambda * sum_u sum_m Q_u(m) log softmax_m(theta_u)

over the embeddings, the encoder/decoder weights and the scorer, with the
beliefs Q held fixed. The second term is the tractable surrogate for the
expected assignment log-probability: the partition function of the full
field is bounded by the best pairwise score (a constant here) plus the
factorized unary partition, so the cross-entropy of the unary softmax
against Q is a valid lower bound up to constants (the tests check the
inequality by enumeration on small instances). A final E-step after the
last M-step produces the beliefs that the detection scores are read from,
so a single loop is genuinely different from the E-step-only
(post-processing) mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .autodiff import Adam
from .crf import CrfParams, MeanField, UnaryScorer, estep_converge, softmax_init
from .events import Dataset, check_fractions, train_val_test_split
from .graph import KnowledgeGraph
from .pointprocess import SequenceModel, _check_step_sizes, _forked, _helper, fit

__all__ = [
    "EmConfig",
    "DetectionResult",
    "kmeans",
    "initialize",
    "cluster_labels",
    "fit_scorer",
    "run_em",
    "run_em_from",
    "check_revealed",
    "identify_coordinated_group",
]


ESTEP_SCHEDULES = ("jacobi", "gauss_seidel")


@dataclass
class EmConfig:
    n_groups: int = 2
    n_loops: int = 1            # `coact sweep --loops-grid` reports each value
    estep_only: bool = False    # single E-step as pure post-processing
    m_step_epochs: int = 50
    m_step_lr: float = 1e-3
    weight_decay: float = 1e-5
    batch_size: int = 64
    patience: int = 8
    estep_tol: float = 1e-6
    estep_max_iter: int = 10
    estep_schedule: str = "jacobi"
    lambda_balance: float = 1.0
    threshold: float = 0.5
    fractions: tuple = (0.70, 0.15, 0.15)
    scorer_hidden: int = 64
    scorer_weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.n_groups < 2:
            raise ValueError("n_groups must be >= 2")
        if self.n_loops < 1:
            raise ValueError("n_loops must be >= 1")
        if not (np.isfinite(self.lambda_balance) and self.lambda_balance > 0):
            raise ValueError("lambda_balance must be finite and positive")
        _check_step_sizes(self.m_step_lr, self.weight_decay)
        if self.m_step_epochs < 1 or self.patience < 1:
            raise ValueError("m_step_epochs and patience must be >= 1")
        if not (np.isfinite(self.estep_tol) and self.estep_tol > 0):
            raise ValueError("estep_tol must be finite and positive")
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must be in [0, 1]")
        if self.estep_max_iter < 1:
            raise ValueError("estep_max_iter must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.estep_schedule not in ESTEP_SCHEDULES:
            raise ValueError(f"estep_schedule must be one of {ESTEP_SCHEDULES}, "
                             f"got {self.estep_schedule!r}")
        check_fractions(self.fractions)
        if self.scorer_hidden < 1:
            raise ValueError("scorer_hidden must be >= 1")
        if not (np.isfinite(self.scorer_weight_decay) and self.scorer_weight_decay >= 0):
            raise ValueError("scorer_weight_decay must be finite and non-negative")


@dataclass
class DetectionResult:
    accounts: list
    mean_field: MeanField
    scores: np.ndarray        # coordinated-group probability per account
    labels: np.ndarray        # scores >= threshold
    group_of: np.ndarray      # argmax group per account
    coordinated_group: int
    history: list = field(default_factory=list)


# ---- clustering ----

def _kpp_seeds(X, k, rng):
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[int(rng.integers(n))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = X[pick]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(X, centers, k, max_iter):
    labels = None
    x2 = (X * X).sum(axis=1)[:, None]
    X2 = 2.0 * X  # doubled once, not in every iteration
    for _ in range(max_iter):
        # x2 - X2 @ centers.T + |centers|^2, the same operations in one array
        d2 = X2 @ centers.T
        np.subtract(x2, d2, out=d2)
        d2 += (centers * centers).sum(axis=1)[None, :]
        new_labels = d2.argmin(axis=1)
        if np.any(np.bincount(new_labels, minlength=k) == 0):
            return None, None, np.inf  # empty cluster: abandon this start
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([np.compress(labels == j, X, axis=0).mean(axis=0)
                            for j in range(k)])
    inertia = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, inertia


def _starts(X, k, seeds) -> list:
    """``_lloyd``'s (labels, centers, inertia) from each of the center ``seeds``."""
    return [_lloyd(X, centers, k, KMEANS_MAX_ITER) for centers in seeds]


KMEANS_MAX_ITER = 300  # Lloyd iterations per start
KMEANS_STARTS = 10     # completed starts, the lowest inertia wins
KMEANS_RESTARTS = 10   # extra starts allowed to replace abandoned ones


def kmeans(X, k, seed: int):
    """Best of KMEANS_STARTS Lloyd runs from k-means++ seeds (lowest inertia,
    the earliest start on a tie).

    Deterministic given ``seed``. A start that produces an empty cluster is
    abandoned and replaced from the continuing random stream, up to
    KMEANS_RESTARTS extra attempts beyond the planned starts.

    The planned starts' seeds are drawn first, in the order one start after
    another would draw them (Lloyd's iterations draw nothing). A child forked
    by ``_forked`` then runs the odd-numbered starts while the caller runs the
    even-numbered ones, or the caller runs both halves where ``_forked`` does
    not fork. Replacements run in the caller, their seeds drawn from the same
    continuing stream. So the result is bit-identical to running the starts
    one after another in one process.
    """
    X = np.asarray(X, dtype=np.float64)
    if not 1 <= k <= len(X):
        raise ValueError(f"cannot place {k} clusters on {len(X)} points")
    rng = np.random.default_rng(seed)
    seeds = [_kpp_seeds(X, k, rng) for _ in range(KMEANS_STARTS)]
    runs = [None] * KMEANS_STARTS
    with _forked(_starts, X, k, seeds[1::2]) as odd:
        runs[0::2] = _starts(X, k, seeds[0::2])
        runs[1::2] = odd()
    replacements = (_lloyd(X, _kpp_seeds(X, k, rng), k, KMEANS_MAX_ITER)
                    for _ in range(KMEANS_RESTARTS))
    best = (None, None, np.inf)
    completed = 0
    for labels, centers, inertia in chain(runs, replacements):
        if labels is None:
            continue
        completed += 1
        if inertia < best[2]:
            best = (labels, centers, inertia)
        if completed >= KMEANS_STARTS:
            break
    if best[0] is None:
        raise RuntimeError("k-means kept producing empty clusters over "
                           f"{KMEANS_STARTS + KMEANS_RESTARTS} starts")
    return best[0], best[1]


# ---- initialization ----

# the scorer fit stops after five epochs in a row that each fail to lower the
# loss by SCORER_FIT_TOL relative (rises count), or after SCORER_FIT_EPOCHS
SCORER_FIT_EPOCHS = 300
SCORER_FIT_TOL = 1e-7


def _align_to_revealed(labels, n_groups, rows, groups):
    """Permute cluster indices to best agree with revealed group labels.

    Cluster numbering out of k-means is arbitrary; when beliefs will be
    clamped to revealed labels the initialization must not fight them. The
    permutation maps cluster c to group perm[c] and maximizes the revealed
    rows it gets right; of the best, it takes the lexicographically first.
    It is found by dynamic programming over the sets of groups taken by
    clusters 0..c-1, in O(2^M M) steps after one count of the (cluster,
    group) agreements.
    """
    hits = np.zeros((n_groups, n_groups), dtype=np.int64)
    rows = np.asarray(rows, dtype=np.intp)
    np.add.at(hits, (labels[rows], np.asarray(groups, dtype=np.intp)), 1)
    hits = hits.tolist()
    full = (1 << n_groups) - 1
    # most[taken]: the most hits clusters c.. can add, c = popcount(taken),
    # given the groups in ``taken`` are used up by clusters 0..c-1
    most = [0] * (full + 1)
    for taken in range(full - 1, -1, -1):
        c = bin(taken).count("1")
        most[taken] = max(hits[c][m] + most[taken | 1 << m]
                          for m in range(n_groups) if not taken >> m & 1)
    perm, taken = [], 0
    for c in range(n_groups):  # the smallest group that keeps the best total
        m = next(m for m in range(n_groups) if not taken >> m & 1
                 and hits[c][m] + most[taken | 1 << m] == most[taken])
        perm.append(m)
        taken |= 1 << m
    return np.asarray(perm, dtype=np.intp)[labels]


def _cluster(E, n_groups: int, seed: int, align_rows=None, align_groups=None) -> np.ndarray:
    """k-means labels of the embeddings ``E``, aligned to revealed accounts."""
    if n_groups < 2:
        raise ValueError("need at least 2 groups")
    labels, _ = kmeans(E, n_groups, seed)
    if align_rows is not None and len(align_rows):
        labels = _align_to_revealed(labels, n_groups, align_rows, align_groups)
    return labels


def _fit_unary(E, labels, n_groups: int, seed: int, hidden: int,
               fit_weight_decay: float) -> UnaryScorer:
    """A unary scorer fitted to the one-hot ``labels`` of the rows of ``E``."""
    scorer = UnaryScorer(E.shape[1], n_groups, hidden=hidden, seed=seed)
    onehot = np.eye(n_groups)[labels]
    opt = Adam(scorer.params, lr=1e-2, weight_decay=fit_weight_decay)
    last = np.inf
    stale = 0
    for _ in range(SCORER_FIT_EPOCHS):
        opt.zero_grad()
        loss = scorer.crossent(E, onehot, -1.0 / len(E))
        opt.step()
        if last - loss < SCORER_FIT_TOL * (1.0 + abs(loss)):
            stale += 1
            if stale >= 5:
                break
        else:
            stale = 0
        last = loss
    return scorer


def initialize(
    pretrained: SequenceModel,
    n_groups: int,
    seed: int,
    graph: KnowledgeGraph | None = None,
    hidden: int = 64,
    fit_weight_decay: float = 1e-3,
    align_rows=None,
    align_groups=None,
) -> CrfParams:
    """Cluster the embeddings and fit the unary scorer to the clusters.

    The two steps are the ones ``cluster_labels`` and ``fit_scorer`` run:
    ``kmeans`` (its starts in two processes, bit-identical to one), with
    ``align_rows``/``align_groups`` relabelling the clusters to agree with
    revealed accounts (semi-supervised runs), then the scorer fit.
    The scorer is trained by Adam on the cross-entropy against the one-hot
    cluster assignment, with L2 weight decay ``fit_weight_decay``, for up to
    SCORER_FIT_EPOCHS full-batch epochs. It stops early once five epochs in a
    row fail to lower the loss by SCORER_FIT_TOL relative: on 100 accounts
    that is where the loss turns up, not a plateau. Every epoch writes the
    scorer's two (V, hidden) arrays, its hidden layer and that layer's
    gradient, into the same two work arrays (``UnaryScorer._work_arrays``),
    so the fit allocates no large temporary: in a freshly forked process
    each such temporary would cost its page faults anew. With ``graph=None``
    the field carries a zero prior graph (unary-only).
    """
    E = pretrained.params["E"].data.copy()
    labels = _cluster(E, n_groups, seed, align_rows, align_groups)
    scorer = _fit_unary(E, labels, n_groups, seed, hidden, fit_weight_decay)
    if graph is None:
        graph = KnowledgeGraph(list(pretrained.accounts), [], [], [], "none")
    return CrfParams(scorer, graph)


# ---- EM driver ----

def _val_objective(model, scorer, val_items, Q, lam) -> float:
    ll = sum(model.log_likelihoods(val_items))
    return ll + lam * scorer.crossent(model.params["E"].data, Q)


def _m_step(model, crf, train_items, val_items, Q, cfg: EmConfig, rng):
    """Ascend the surrogate objective; early stop on the validation version.

    ``train_items`` and ``val_items`` are sequences from ``model.prepare``.
    Returns the validation objective before and after (at the best epoch).
    """
    params = dict(model.params)
    for k, t in crf.scorer.params.items():
        params[f"unary_{k}"] = t

    def batch_loss(batch):
        nll = model.backward_nll(batch)
        # spread the account-level term across the epoch's batches
        ce_weight = cfg.lambda_balance * len(batch) / len(train_items)
        return nll + crf.scorer.crossent(model.params["E"], Q, -ce_weight)

    with _helper(model, train_items, val_items):
        start, best, _ = fit(
            params, train_items, batch_loss,
            lambda: _val_objective(model, crf.scorer, val_items, Q, cfg.lambda_balance),
            epochs=cfg.m_step_epochs, lr=cfg.m_step_lr, weight_decay=cfg.weight_decay,
            batch_size=cfg.batch_size, patience=cfg.patience, rng=rng,
        )
    return start, best


def _clamps(accounts, revealed: dict | None, n_groups: int) -> tuple:
    """Rows in ``accounts`` and groups of the ``revealed`` accounts, checked."""
    revealed = revealed or {}
    index = {a: i for i, a in enumerate(accounts)}
    rows = np.array([index[a] for a in revealed], dtype=np.intp)
    groups = np.array(list(revealed.values()), dtype=np.intp)
    if revealed:
        check_revealed(groups, n_groups)
    return rows, groups


def cluster_labels(pretrained: SequenceModel, cfg: EmConfig,
                   revealed: dict | None = None) -> np.ndarray:
    """The groups EM's unary scorer is fitted to: ``initialize``'s k-means
    clusters of ``pretrained``'s embeddings with ``cfg``'s settings, aligned
    to the ``revealed`` accounts.

    A later initialization that reads the graph would replace only this
    step. ``kmeans`` runs its starts on two CPUs where it can.
    """
    rows, groups = _clamps(pretrained.accounts, revealed, cfg.n_groups)
    return _cluster(pretrained.params["E"].data, cfg.n_groups, cfg.seed, rows, groups)


def fit_scorer(pretrained: SequenceModel, cfg: EmConfig, labels) -> UnaryScorer:
    """The unary scorer EM starts from: ``initialize``'s fit, with ``cfg``'s
    settings, to the groups ``labels`` (from ``cluster_labels``).

    It reads only ``pretrained``'s embeddings, not the data or the graph, so
    ``coact detect`` runs it beside ingest and graph build.
    """
    return _fit_unary(pretrained.params["E"].data.copy(), labels, cfg.n_groups, cfg.seed,
                      cfg.scorer_hidden, cfg.scorer_weight_decay)


def _check_registry(d: Dataset, g: KnowledgeGraph, pretrained: SequenceModel) -> None:
    if g.accounts != d.registry.keys or pretrained.accounts != d.registry.keys:
        raise ValueError("dataset, graph and model must share the account registry")


def run_em(
    d: Dataset,
    g: KnowledgeGraph,
    pretrained: SequenceModel,
    cfg: EmConfig,
    revealed: dict | None = None,
) -> DetectionResult:
    """Full detection: ``cluster_labels`` and ``fit_scorer``, then
    ``run_em_from`` on the fitted field.

    ``revealed`` maps account keys to group indices; those beliefs are
    clamped one-hot through every E-step, and they pick the coordinated
    group (``identify_coordinated_group``).
    """
    _check_registry(d, g, pretrained)  # before the scorer fit
    labels = cluster_labels(pretrained, cfg, revealed)
    crf = CrfParams(fit_scorer(pretrained, cfg, labels), g)
    return run_em_from(d, crf, pretrained, cfg, revealed)


def run_em_from(
    d: Dataset,
    crf: CrfParams,
    pretrained: SequenceModel,
    cfg: EmConfig,
    revealed: dict | None = None,
) -> DetectionResult:
    """Alternate E/M from the fitted field ``crf``, whose graph is the prior
    graph of ``d``, and score the coordinated group (see ``run_em``)."""
    _check_registry(d, crf.graph, pretrained)
    clamp_rows, clamp_groups = _clamps(pretrained.accounts, revealed, cfg.n_groups)
    model = pretrained.copy()

    train_ds, val_ds, _ = train_val_test_split(d, cfg.fractions, cfg.seed)
    train_seqs = train_ds.sequences or d.sequences
    val_seqs = val_ds.sequences or train_seqs

    def estep(init_mf, loop):
        """Run one E-step; returns its beliefs and its history record."""
        mf, iters = estep_converge(
            crf, model.params["E"].data, init_mf,
            tol=cfg.estep_tol, max_iter=cfg.estep_max_iter,
            schedule=cfg.estep_schedule,
        )
        return mf, {
            "loop": loop,
            "estep_iterations": iters,
            "estep_residual": mf.residual,
            "estep_converged": bool(mf.residual < cfg.estep_tol),
        }

    mf = softmax_init(crf, model.params["E"].data, clamp_rows, clamp_groups)
    mf, record = estep(mf, 0)
    history = [record]

    if not cfg.estep_only:
        rng = np.random.default_rng(cfg.seed + 1)
        train_items, val_items = model.prepare(train_seqs), model.prepare(val_seqs)
        for loop in range(1, cfg.n_loops + 1):
            before, after = _m_step(model, crf, train_items, val_items, mf.q, cfg, rng)
            mf, record = estep(mf, loop)  # estep_converge copies its init
            record["val_objective_before"] = before
            record["val_objective_after"] = after
            history.append(record)

    coord = identify_coordinated_group(mf.q, clamp_rows, clamp_groups)
    scores = mf.q[:, coord].copy()
    return DetectionResult(
        accounts=d.registry.keys,
        mean_field=mf,
        scores=scores,
        labels=(scores >= cfg.threshold).astype(np.intp),
        group_of=mf.q.argmax(axis=1),
        coordinated_group=int(coord),
        history=history,
    )


# ---- group identification ----

def check_revealed(groups, n_groups: int) -> None:
    """Raise ``ValueError`` unless the revealed accounts' ``groups`` can be used.

    Every group must be one of the ``n_groups``, and at least one account
    must be in group 1, the coordinated group that
    ``identify_coordinated_group`` looks for.
    """
    groups = {int(g) for g in groups}
    out = sorted(g for g in groups if not 0 <= g < n_groups)
    if out:
        raise ValueError(f"revealed groups {out} are outside 0..{n_groups - 1}")
    if 1 not in groups:
        raise ValueError("no revealed account is in the coordinated group 1")


def identify_coordinated_group(q: np.ndarray, revealed_rows=None, revealed_groups=None) -> int:
    """Map a group index to the coordinated class.

    With revealed accounts, this is the group most often assigned to the
    revealed accounts of group 1. Without them (two groups only), it is the
    group with the smaller expected mass. Exact ties raise.
    """
    q = np.asarray(q, dtype=np.float64)
    if revealed_rows is None or len(revealed_rows) == 0:
        if q.shape[1] != 2:
            raise ValueError("without revealed accounts the groups must be exactly 2")
        masses = q.sum(axis=0)
        if masses[0] == masses[1]:
            raise ValueError("group masses tie exactly; pick the group explicitly")
        return int(masses.argmin())
    rows = np.asarray(revealed_rows, dtype=np.intp)
    groups = np.asarray(revealed_groups, dtype=np.intp)
    coord_rows = rows[groups == 1]
    if len(coord_rows) == 0:
        raise ValueError("no revealed coordinated accounts")
    votes = np.bincount(q[coord_rows].argmax(axis=1), minlength=q.shape[1])
    winners = np.nonzero(votes == votes.max())[0]
    if len(winners) > 1:
        raise ValueError("revealed accounts split evenly; pick the group explicitly")
    return int(winners[0])
