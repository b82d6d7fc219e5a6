"""Variational EM joining the sequence model and the assignment field.

Starting from a pretrained sequence model, the unary scorer is fitted to
k-means clusters of the account embeddings. Each EM loop then alternates an
E-step (mean-field fixed-point sweeps, with any revealed accounts clamped to
one-hot beliefs) and an M-step that ascends

    sum_S log p(S | E)  +  lambda * sum_u sum_m Q_u(m) log softmax_m(theta_u)

over the embeddings, the encoder/decoder weights and the scorer, with the
beliefs Q held fixed. The second term is the tractable surrogate for the
expected assignment log-probability: the partition function of the full
field is bounded by the best pairwise score (a constant here) plus the
factorized unary partition, so the cross-entropy of the unary softmax
against Q is a valid lower bound up to constants; ``check_prop1_bound``
verifies the inequality numerically on enumerable instances. A final E-step
after the last M-step produces the beliefs that the detection scores are
read from, so a single loop is genuinely different from the E-step-only
(post-processing) mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, logsumexp
from .crf import (
    CrfParams,
    MeanField,
    UnaryScorer,
    _pair_scores,
    enumerate_assignments,
    estep_converge,
    log_partition_bruteforce,
    softmax_init,
)
from .events import Dataset, check_fractions, train_val_test_split
from .graph import KnowledgeGraph
from .pointprocess import SequenceModel, _check_step_sizes, _helper, fit

__all__ = [
    "EmConfig",
    "DetectionResult",
    "kmeans",
    "initialize",
    "check_prop1_bound",
    "run_em",
    "check_revealed",
    "identify_coordinated_group",
]


ESTEP_SCHEDULES = ("jacobi", "gauss_seidel")


@dataclass
class EmConfig:
    n_groups: int = 2
    n_loops: int = 1            # pick from {1, 2, 3} on validation data
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
    for _ in range(max_iter):
        d2 = (
            x2
            - 2.0 * X @ centers.T
            + (centers * centers).sum(axis=1)[None, :]
        )
        new_labels = d2.argmin(axis=1)
        if np.any(np.bincount(new_labels, minlength=k) == 0):
            return None, None, np.inf  # empty cluster: abandon this start
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = np.stack([X[labels == j].mean(axis=0) for j in range(k)])
    inertia = float(((X - centers[labels]) ** 2).sum())
    return labels, centers, inertia


KMEANS_MAX_ITER = 300  # Lloyd iterations per start
KMEANS_STARTS = 10     # completed starts, the lowest inertia wins
KMEANS_RESTARTS = 10   # extra starts allowed to replace abandoned ones


def kmeans(X, k, seed: int):
    """Best of KMEANS_STARTS Lloyd runs from k-means++ seeds (lowest inertia).

    Deterministic given ``seed``. A start that produces an empty cluster is
    abandoned and replaced from the continuing random stream, up to
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

# the scorer fit stops after five epochs in a row that improve the loss by
# less than SCORER_FIT_TOL relative, or after SCORER_FIT_EPOCHS epochs
SCORER_FIT_EPOCHS = 300
SCORER_FIT_TOL = 1e-7


def _align_to_revealed(labels, n_groups, rows, groups):
    """Permute cluster indices to best agree with revealed group labels.

    Cluster numbering out of k-means is arbitrary; when beliefs will be
    clamped to revealed labels the initialization must not fight them.
    """
    from itertools import permutations

    best_perm, best_hits = None, -1
    for perm in permutations(range(n_groups)):
        hits = sum(1 for r, g_ in zip(rows, groups) if perm[labels[r]] == g_)
        if hits > best_hits:
            best_perm, best_hits = perm, hits
    return np.asarray(best_perm, dtype=np.intp)[labels]


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

    The scorer is trained by Adam on the cross-entropy against the one-hot
    k-means assignment, with L2 weight decay ``fit_weight_decay``, for up to
    SCORER_FIT_EPOCHS full-batch epochs; it stops early once the loss has
    plateaued (five epochs in a row improving it by less than SCORER_FIT_TOL
    relative). With ``graph=None`` the field carries a zero prior graph
    (unary-only). ``align_rows``/``align_groups`` relabel the clusters to
    agree with revealed accounts (semi-supervised runs).
    """
    if n_groups < 2:
        raise ValueError("need at least 2 groups")
    E = pretrained.params["E"].data.copy()
    labels, _ = kmeans(E, n_groups, seed)
    if align_rows is not None and len(align_rows):
        labels = _align_to_revealed(labels, n_groups, align_rows, align_groups)
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
    if graph is None:
        graph = KnowledgeGraph(list(pretrained.accounts), [], [], [], "none")
    return CrfParams(scorer, graph)


# ---- M-step objective ----

def check_prop1_bound(crf: CrfParams, E: np.ndarray) -> tuple:
    """Verify log Z <= max_Y pairwise(Y) + sum_u log sum_m exp(theta_u(m)).

    Returns (lhs, rhs) and raises if the inequality fails. Equality holds
    when all pairwise weights vanish.
    """
    lhs = log_partition_bruteforce(crf, E)
    theta = crf.unary(E)
    Y_all = enumerate_assignments(len(theta), crf.n_groups)
    rhs = float(_pair_scores(crf.coupling(), Y_all).max() + logsumexp(theta, axis=1).sum())
    if lhs > rhs + 1e-9:
        raise AssertionError(f"partition-bound violation: {lhs} > {rhs}")
    return lhs, rhs


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


def run_em(
    d: Dataset,
    g: KnowledgeGraph,
    pretrained: SequenceModel,
    cfg: EmConfig,
    revealed: dict | None = None,
) -> DetectionResult:
    """Full detection: initialize, alternate E/M, score the coordinated group.

    ``revealed`` maps account keys to group indices; those beliefs are
    clamped one-hot through every E-step, and they pick the coordinated
    group (``identify_coordinated_group``).
    """
    accounts = d.registry.keys
    if g.accounts != accounts or pretrained.accounts != accounts:
        raise ValueError("dataset, graph and model must share the account registry")

    clamp_rows, clamp_groups = [], []
    if revealed:
        for account, group in revealed.items():
            clamp_rows.append(d.registry.index(account))
            clamp_groups.append(int(group))
    clamp_rows = np.asarray(clamp_rows, dtype=np.intp)
    clamp_groups = np.asarray(clamp_groups, dtype=np.intp)
    if revealed:
        check_revealed(clamp_groups, cfg.n_groups)

    model = pretrained.copy()
    crf = initialize(model, cfg.n_groups, cfg.seed, graph=g, hidden=cfg.scorer_hidden,
                     fit_weight_decay=cfg.scorer_weight_decay,
                     align_rows=clamp_rows, align_groups=clamp_groups)

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
            mf, record = estep(MeanField(mf.q.copy(), mf.clamped.copy()), loop)
            record["val_objective_before"] = before
            record["val_objective_after"] = after
            history.append(record)

    coord = identify_coordinated_group(mf.q, clamp_rows, clamp_groups)
    scores = mf.q[:, coord].copy()
    return DetectionResult(
        accounts=accounts,
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
