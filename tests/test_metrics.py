import numpy as np
import pytest

from coact.metrics import average_precision, max_f1, roc_auc, thresholded_metrics


# ---- oracles: definition-level recomputations ----

def ap_oracle(scores, truth):
    """O(n^2): rescan the whole set at every distinct threshold."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(truth)
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        tp = sum(1 for s, y in zip(scores, truth) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, truth) if s >= t and y == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def auc_oracle(scores, truth):
    """All positive-negative pairs with half credit for ties."""
    pos = [s for s, y in zip(scores, truth) if y == 1]
    neg = [s for s, y in zip(scores, truth) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def max_f1_oracle(scores, truth):
    best = 0.0
    for t in list(set(scores)) + [np.inf]:
        tp = sum(1 for s, y in zip(scores, truth) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, truth) if s >= t and y == 0)
        fn = sum(truth) - tp
        denom = 2 * tp + fp + fn
        best = max(best, 2 * tp / denom if denom else 0.0)
    return best


def random_scored(rng, n=200, tie_fraction=0.3):
    scores = rng.uniform(0, 1, n)
    ties = rng.uniform(size=n) < tie_fraction
    scores[ties] = np.round(scores[ties], 1)  # force tie groups
    truth = (rng.uniform(size=n) < 0.3).astype(int)
    if truth.sum() == 0:
        truth[0] = 1
    if truth.sum() == n:
        truth[0] = 0
    return scores, truth


# ---- average precision ----

def test_ap_perfect_ranking():
    scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
    truth = np.array([1, 1, 1, 0, 0])
    assert average_precision(scores, truth) == 1.0


def test_ap_scores_equal_truth():
    truth = np.array([1, 0, 1, 0])
    assert average_precision(truth.astype(float), truth) == 1.0


def test_ap_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores, truth = random_scored(rng)
        assert average_precision(scores, truth) == pytest.approx(
            ap_oracle(list(scores), list(truth)), abs=1e-12)


def test_ap_requires_both_classes():
    with pytest.raises(ValueError):
        average_precision(np.array([0.1, 0.2]), np.array([1, 1]))


# ---- ROC AUC ----

def test_auc_perfect_ranking():
    assert roc_auc(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0


def test_auc_all_ties():
    assert roc_auc(np.full(10, 0.5), np.array([1] * 5 + [0] * 5)) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        scores, truth = random_scored(rng)
        assert roc_auc(scores, truth) == pytest.approx(
            auc_oracle(list(scores), list(truth)), abs=1e-12)


def test_auc_small_and_large_paths_agree():
    rng = np.random.default_rng(2)
    scores, truth = random_scored(rng, n=300)
    from coact import metrics as m
    small = m.roc_auc(scores, truth)
    # force the trapezoid path
    tp, fp = m._tie_grouped_counts(*m._validate_scored(scores, truth))
    tpr = np.concatenate([[0.0], tp / tp[-1]])
    fpr = np.concatenate([[0.0], fp / fp[-1]])
    assert small == pytest.approx(float(np.trapezoid(tpr, fpr)), abs=1e-12)


def test_auc_flip_invariance():
    rng = np.random.default_rng(3)
    scores, truth = random_scored(rng)
    assert roc_auc(scores, truth) == pytest.approx(roc_auc(-scores, 1 - truth), abs=1e-12)


# ---- thresholded metrics ----

def test_thresholded_perfect():
    truth = np.array([1, 0, 1, 0, 0])
    out = thresholded_metrics(truth.astype(float), truth, 0.5)
    assert out["f1"] == 1.0 and out["macro_f1"] == 1.0


def test_thresholded_no_predicted_positives():
    out = thresholded_metrics(np.zeros(4), np.array([1, 0, 1, 0]), 0.5)
    assert out["precision"] == 0.0 and out["f1"] == 0.0


def test_thresholded_matches_confusion_matrix():
    rng = np.random.default_rng(4)
    for _ in range(20):
        scores, truth = random_scored(rng, n=60)
        out = thresholded_metrics(scores, truth, 0.5)
        pred = scores >= 0.5
        tp = int(np.sum(pred & (truth == 1)))
        fp = int(np.sum(pred & (truth == 0)))
        fn = int(np.sum(~pred & (truth == 1)))
        tn = int(np.sum(~pred & (truth == 0)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        prec0 = tn / (tn + fn) if tn + fn else 0.0
        rec0 = tn / (tn + fp) if tn + fp else 0.0
        f10 = 2 * prec0 * rec0 / (prec0 + rec0) if prec0 + rec0 else 0.0
        assert out["precision"] == pytest.approx(prec, abs=1e-12)
        assert out["recall"] == pytest.approx(rec, abs=1e-12)
        assert out["f1"] == pytest.approx(f1, abs=1e-12)
        assert out["macro_f1"] == pytest.approx(0.5 * (f1 + f10), abs=1e-12)
        assert 0.0 <= out["precision"] <= 1.0 and 0.0 <= out["recall"] <= 1.0


# ---- max F1 ----

def test_max_f1_perfect():
    assert max_f1(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0


def test_max_f1_matches_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores, truth = random_scored(rng)
        assert max_f1(scores, truth) == pytest.approx(
            max_f1_oracle(list(scores), list(truth)), abs=1e-12)


def test_max_f1_single_positive_ranked_last():
    scores = np.linspace(1.0, 0.1, 10)
    truth = np.zeros(10, dtype=int)
    truth[-1] = 1
    assert max_f1(scores, truth) == pytest.approx(
        max_f1_oracle(list(scores), list(truth)), abs=1e-12)


# ---- monotone-transform invariance ----

def test_threshold_free_metrics_invariant_to_monotone_transform():
    rng = np.random.default_rng(6)
    scores, truth = random_scored(rng)
    warped = np.exp(3.0 * scores)  # strictly increasing
    assert average_precision(scores, truth) == average_precision(warped, truth)
    assert roc_auc(scores, truth) == roc_auc(warped, truth)
    assert max_f1(scores, truth) == max_f1(warped, truth)

