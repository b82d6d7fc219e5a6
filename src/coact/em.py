"""Variational EM joining the sequence model and the assignment field.

EM starts from the prior graph. ``initialize`` splits the accounts by the
leading eigenvectors of the graph's regularised coupling
(``graph.regularized_spectrum``): the exact 2-means of the first one for two
groups, ``kmeans`` of the first M - 1 for more. ``run_em`` has it align the
groups to any revealed accounts, and ``pointprocess.fit`` fits the unary
scorer to them, keeping its best weights, the start's included, on a held-out
fifth of the accounts. Without a graph, or on one without edges, ``kmeans``
of the account embeddings takes the spectral split's place. Each EM loop
then alternates an E-step (mean-field fixed-point sweeps, with any revealed
accounts clamped to one-hot beliefs) and an M-step that ascends

    sum_S log p(S | E)  +  lambda * sum_u sum_m Q_u(m) log softmax_m(theta_u)

over the embeddings, the encoder/decoder weights and the scorer, with the
beliefs Q held fixed. The second term is the tractable surrogate for the
expected assignment log-probability: the partition function of the full
field is bounded by the best pairwise score (a constant here) plus the
factorized unary partition, so the cross-entropy of the unary softmax
against Q is a valid lower bound up to constants (the tests check the
inequality by enumeration on small instances). A final E-step after the
last M-step produces the beliefs that the detection scores are read from.
A single loop differs from the E-step-only (post-processing) mode only if
its M-step beats its start on the validation objective: when no epoch does
(the history's ``val_objective_after`` equals ``val_objective_before``, and
its ``m_step_best_epoch`` is -1), ``fit`` restores the start parameters,
the final E-step continues the first one from its beliefs, and the scores
are the E-step-only ones to within ``estep_tol`` once the first E-step has
converged. The coordinated group is group 1 when accounts are revealed,
since their clamps keep that label, and else the smaller of two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .crf import CrfParams, MeanField, UnaryScorer, estep_converge, softmax_init
from .events import Dataset, check_fractions, train_val_test_split
from .graph import KnowledgeGraph, regularized_spectrum
from .pointprocess import SequenceModel, _check_step_sizes, _helper, fit

__all__ = [
    "EmConfig",
    "DetectionResult",
    "kmeans",
    "initialize",
    "run_em",
    "check_revealed",
    "identify_coordinated_group",
]


ESTEP_SCHEDULES = ("jacobi", "gauss_seidel")


@dataclass
class EmConfig:
    n_groups: int = 2
    n_loops: int = 1
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
        # x2 - X2 @ centers.T + |centers|^2 in one array; a contiguous centers.T is faster
        d2 = X2 @ np.ascontiguousarray(centers.T)
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


KMEANS_MAX_ITER = 300  # Lloyd iterations per start
KMEANS_STARTS = 10     # completed starts, the lowest inertia wins
KMEANS_RESTARTS = 10   # extra starts allowed to replace abandoned ones


def kmeans(X, k, seed: int):
    """Best of KMEANS_STARTS Lloyd runs from k-means++ seeds (lowest inertia,
    the earliest start on a tie).

    Deterministic given ``seed``: the starts run one after another, each
    drawing its seeds from one random stream (Lloyd's iterations draw
    nothing). A start that produces an empty cluster is abandoned and
    replaced by the next start from the continuing stream, up to
    KMEANS_RESTARTS extra attempts beyond the planned starts.
    """
    X = np.asarray(X, dtype=np.float64)
    if not 1 <= k <= len(X):
        raise ValueError(f"cannot place {k} clusters on {len(X)} points")
    rng = np.random.default_rng(seed)
    best = (None, None, np.inf)
    completed = 0
    for _ in range(KMEANS_STARTS + KMEANS_RESTARTS):
        labels, centers, inertia = _lloyd(X, _kpp_seeds(X, k, rng), k, KMEANS_MAX_ITER)
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

def _two_means(x) -> np.ndarray:
    """The exact 2-means of the values ``x``: label 1 above the cut, 0 below.

    The clusters of a 1-D 2-means are the values below and above some cut,
    so one sort and one prefix sum score every cut between distinct values
    by its between-cluster sum of squares, n S_k^2 / (k (n - k)) with S_k
    the sum of the k smallest centred values. The best cut wins; cuts whose
    score is within rounding (1e-10 relative) of the best tie, and the one
    with the fewest values below wins those.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    k = np.arange(1, n)
    between = n * np.cumsum(xs - xs.mean())[:-1] ** 2 / (k * (n - k))
    between[xs[1:] == xs[:-1]] = -np.inf  # equal values stay together
    cut = int(np.flatnonzero(between >= between.max() * (1 - 1e-10))[0]) + 1
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.arange(n) >= cut
    return labels


def _start_labels(E, n_groups: int, seed: int, graph: KnowledgeGraph | None) -> np.ndarray:
    """EM's start groups: the regularised spectral split of ``graph`` (see the
    module docstring), or ``kmeans`` of the embeddings ``E`` without edges."""
    if graph is None or not len(graph.u):
        return kmeans(E, n_groups, seed)[0]
    _, vectors, _ = regularized_spectrum(graph, n_groups - 1)
    if n_groups == 2:
        return _two_means(vectors[:, 0])
    return kmeans(vectors, n_groups, seed)[0]


# the scorer fit holds out a seeded 1/SCORER_HOLDOUT of the accounts (at least
# one), keeps the weights, start included, of the lowest held-out cross-entropy
# and stops SCORER_FIT_PATIENCE epochs after those, or after SCORER_FIT_EPOCHS
SCORER_FIT_EPOCHS = 300
SCORER_FIT_PATIENCE = 10
SCORER_HOLDOUT = 5


def _align_to_revealed(labels, n_groups, rows, groups):
    """Permute cluster indices to best agree with revealed group labels.

    Cluster numbering out of the start split is arbitrary; when beliefs will be
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


def _fit_unary(E, labels, n_groups: int, seed: int, hidden: int,
               fit_weight_decay: float) -> UnaryScorer:
    """A unary scorer fitted to the one-hot ``labels`` of the rows of ``E``.

    ``fit`` runs full-batch Adam on all rows but a seeded fifth (at least
    one), which it scores after each epoch; the scorer keeps the weights,
    its start ones included, of the lowest held-out cross-entropy.
    """
    scorer = UnaryScorer(E.shape[1], n_groups, hidden=hidden, seed=seed)
    onehot = np.eye(n_groups)[labels]
    held = np.zeros(len(E), dtype=bool)
    n_held = max(1, len(E) // SCORER_HOLDOUT)
    held[np.random.default_rng(seed).permutation(len(E))[:n_held]] = True
    E_fit, fit_targets, E_held, held_targets = E[~held], onehot[~held], E[held], onehot[held]
    fit(scorer.params, [E_fit],
        lambda batch: scorer.crossent(batch[0], fit_targets, -1.0 / len(E_fit)),
        lambda: scorer.crossent(E_held, held_targets), epochs=SCORER_FIT_EPOCHS, lr=1e-2,
        weight_decay=fit_weight_decay, batch_size=1, patience=SCORER_FIT_PATIENCE,
        rng=np.random.default_rng(seed))
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
    """Split the accounts into ``n_groups`` and fit the unary scorer to them.

    The groups are the regularised spectral split of ``graph``, or ``kmeans``
    of the embeddings when ``graph`` is None or has no edges
    (``_start_labels``); ``align_rows``/``align_groups`` relabel them to
    agree with revealed accounts (semi-supervised runs). ``run_em`` runs
    this with EM's settings. ``_fit_unary`` fits the scorer to the one-hot
    groups through ``pointprocess.fit``, with L2 weight decay
    ``fit_weight_decay``, start weights included as a candidate; a NaN in
    the embeddings raises ``TrainingDiverged``. With ``graph=None`` the
    field carries a zero prior graph (unary-only).
    """
    if n_groups < 2:
        raise ValueError("need at least 2 groups")
    E = pretrained.params["E"].data.copy()
    labels = _start_labels(E, n_groups, seed, graph)
    if align_rows is not None and len(align_rows):
        labels = _align_to_revealed(labels, n_groups, align_rows, align_groups)
    scorer = _fit_unary(E, labels, n_groups, seed, hidden, fit_weight_decay)
    if graph is None:
        graph = KnowledgeGraph(list(pretrained.accounts), [], [], [], [], "none")
    return CrfParams(scorer, graph)


# ---- EM driver ----

def _val_objective(model, scorer, val_items, Q, lam, helper) -> float:
    ll = sum(model.passes(val_items, helper=helper))
    return ll + lam * scorer.crossent(model.params["E"].data, Q)


def _m_step(model, crf, train_items, val_items, Q, cfg: EmConfig, rng, helper):
    """Ascend the surrogate objective; early stop on the validation version.

    ``train_items`` and ``val_items`` come from ``model.prepare``, and ``helper``
    is ``run_em``'s one ``_helper`` over them (or None). Returns the
    validation objective before and after (at the best epoch), and the best
    epoch, -1 when ``fit`` kept the start.
    """
    params = dict(model.params)
    for k, t in crf.scorer.params.items():
        params[f"unary_{k}"] = t

    def batch_loss(batch):
        nll = -sum(model.passes(batch, -1.0, helper))
        # spread the account-level term across the epoch's batches
        ce_weight = cfg.lambda_balance * len(batch) / len(train_items)
        return nll + crf.scorer.crossent(model.params["E"], Q, -ce_weight)

    start, best, history = fit(
        params, train_items, batch_loss,
        lambda: _val_objective(model, crf.scorer, val_items, Q, cfg.lambda_balance, helper),
        epochs=cfg.m_step_epochs, lr=cfg.m_step_lr, weight_decay=cfg.weight_decay,
        batch_size=cfg.batch_size, patience=cfg.patience, rng=rng,
    )
    if best == start:  # no epoch beat the start, which fit restored
        return start, best, -1
    # fit keeps an epoch only when it beats every earlier one, so the first to reach best
    return start, best, next(h["epoch"] for h in history if h["val"] == best)


def _clamps(accounts, revealed: dict | None, n_groups: int) -> tuple:
    """Rows in ``accounts`` and groups of the ``revealed`` accounts, checked."""
    revealed = revealed or {}
    index = {a: i for i, a in enumerate(accounts)}
    unknown = [a for a in revealed if a not in index]
    if unknown:
        raise ValueError(f"revealed accounts {unknown} are not among the model's accounts")
    rows = np.array([index[a] for a in revealed], dtype=np.intp)
    groups = np.array(list(revealed.values()), dtype=np.intp)
    if revealed:
        check_revealed(groups, n_groups)
    return rows, groups


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
    """Full detection: ``initialize`` on the prior graph ``g`` with ``cfg``'s
    settings, then alternate E/M and score the coordinated group.

    ``revealed`` maps account keys to group indices; the start groups are
    aligned to them, those beliefs are clamped one-hot through every E-step,
    and group 1 is then the coordinated group (without them,
    ``identify_coordinated_group``).
    """
    _check_registry(d, g, pretrained)
    clamp_rows, clamp_groups = _clamps(pretrained.accounts, revealed, cfg.n_groups)
    crf = initialize(pretrained, cfg.n_groups, cfg.seed, graph=g, hidden=cfg.scorer_hidden,
                     fit_weight_decay=cfg.scorer_weight_decay,
                     align_rows=clamp_rows, align_groups=clamp_groups)
    # only the M-step changes the model, and only it reads the split
    model = pretrained if cfg.estep_only else pretrained.copy()

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
        train_ds, val_ds, _ = train_val_test_split(d, cfg.fractions, cfg.seed)
        rng = np.random.default_rng(cfg.seed + 1)
        train_items = model.prepare(train_ds.sequences or d.sequences)
        val_items = model.prepare(val_ds.sequences) if val_ds.seq_ids else train_items
        # one helper for every loop: it waits while the E-steps run here
        with _helper(model, train_items, val_items) as helper:
            for loop in range(1, cfg.n_loops + 1):
                before, after, best_epoch = _m_step(model, crf, train_items, val_items, mf.q,
                                                    cfg, rng, helper)
                mf, record = estep(mf, loop)  # estep_converge copies its init
                record["val_objective_before"] = before
                record["val_objective_after"] = after
                record["m_step_best_epoch"] = best_epoch
                history.append(record)

    # revealed accounts stay clamped one-hot, so their label 1 is the coordinated group
    coord = 1 if len(clamp_rows) else identify_coordinated_group(mf.q)
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
    must be in group 1, the coordinated group of a run with revealed accounts.
    """
    groups = {int(g) for g in groups}
    out = sorted(g for g in groups if not 0 <= g < n_groups)
    if out:
        raise ValueError(f"revealed groups {out} are outside 0..{n_groups - 1}")
    if 1 not in groups:
        raise ValueError("no revealed account is in the coordinated group 1")


def identify_coordinated_group(q: np.ndarray) -> int:
    """Of exactly two groups, the one with the smaller expected mass: the
    coordinated group of a run without revealed accounts. Exact ties raise."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape[1] != 2:
        raise ValueError("without revealed accounts the groups must be exactly 2")
    masses = q.sum(axis=0)
    if masses[0] == masses[1]:
        raise ValueError("group masses tie exactly; pick the group explicitly")
    return int(masses.argmin())
