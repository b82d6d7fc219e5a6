"""Detection metrics: average precision, ROC AUC, max-F1 and thresholded F1.

Tie conventions: equal scores are grouped into one threshold step for
average precision and max-F1, and tied positive/negative pairs get half
credit in the ROC AUC (the Mann-Whitney convention). The ROC AUC is one
exact count over those tie groups. Degenerate ratios follow 0/0 := 0
throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "average_precision",
    "roc_auc",
    "thresholded_metrics",
    "max_f1",
]


def _validate_scored(scores, truth):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel().astype(np.intp)
    if scores.shape != truth.shape:
        raise ValueError("scores and truth must have equal length")
    if not set(np.unique(truth)) <= {0, 1}:
        raise ValueError("truth labels must be 0/1")
    if truth.sum() == 0 or truth.sum() == len(truth):
        raise ValueError("need at least one positive and one negative")
    return scores, truth


def _tie_grouped_counts(scores, truth):
    """Cumulative (tp, fp) after each distinct descending-score group."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = truth[order]
    boundary = np.nonzero(np.diff(s))[0]  # last index of each tie group but the final
    ends = np.append(boundary, len(s) - 1)
    tp = np.cumsum(y)[ends]
    fp = np.cumsum(1 - y)[ends]
    return tp.astype(np.float64), fp.astype(np.float64)


def average_precision(scores, truth) -> float:
    """Step-wise area under precision-recall, ties grouped into one step."""
    scores, truth = _validate_scored(scores, truth)
    tp, fp = _tie_grouped_counts(scores, truth)
    n_pos = truth.sum()
    recall = tp / n_pos
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def roc_auc(scores, truth) -> float:
    """P(score_pos > score_neg) + 0.5 P(equal), counted exactly.

    Of P positives and N negatives, tie group g (in descending score order)
    holds pos_g positives and neg_g negatives, and fp_g negatives score at
    or above it:
    wins = sum_g pos_g (N - fp_g) + 0.5 sum_g pos_g neg_g. Every term is a
    whole or half count, so below 2**53 pairs the sum is exact and the one
    rounding is the division by P N: the result is the correctly rounded
    pairwise count.
    """
    scores, truth = _validate_scored(scores, truth)
    tp, fp = _tie_grouped_counts(scores, truth)
    pos, neg = np.diff(tp, prepend=0.0), np.diff(fp, prepend=0.0)
    wins = (pos * (fp[-1] - fp)).sum() + 0.5 * (pos * neg).sum()
    return float(wins / (tp[-1] * fp[-1]))


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def thresholded_metrics(scores, truth, threshold: float = 0.5) -> dict:
    """F1/precision/recall at ``score >= threshold`` plus macro-F1 over both classes."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel().astype(np.intp)
    pred = scores >= threshold
    pos = truth == 1
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    precision, recall, f1 = _prf(tp, fp, fn)
    _, _, f1_neg = _prf(tn, fn, fp)  # class 0 treated as the positive class
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_f1": 0.5 * (f1 + f1_neg),
    }


def max_f1(scores, truth) -> float:
    """Maximum F1 over thresholds at the distinct scores (plus +inf)."""
    scores, truth = _validate_scored(scores, truth)
    tp, fp = _tie_grouped_counts(scores, truth)
    n_pos = truth.sum()
    fn = n_pos - tp
    precision = tp / (tp + fp)
    recall = tp / n_pos
    with np.errstate(invalid="ignore"):
        f1 = np.where(
            precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0
        )
    return float(max(f1.max(), 0.0))  # the +inf threshold predicts nothing: F1 = 0

