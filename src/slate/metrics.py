"""Ranking metrics for link prediction: ROC-AUC and average precision."""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetricError


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels as given, once both are known to be usable."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.isfinite(scores).all():
        raise UndefinedMetricError("scores must be finite (got NaN or inf)")
    if scores.shape != labels.shape:
        raise UndefinedMetricError(f"{scores.size} scores but {labels.size} labels")
    if not ((labels == 0) | (labels == 1)).all():
        raise UndefinedMetricError("labels must be 0 or 1")
    return scores, labels


def auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, ties
    counted one half (rank-based Mann-Whitney formulation)."""
    scores, labels = _checked(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both a positive and a negative")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # Each tie group's 1-based ranks run from first + 1 to last; every entry
    # gets their mean, a half-integer, so the rank sum is exact in any order.
    first = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    last = np.append(first[1:], len(ordered))
    ranks = np.repeat((first + 1 + last) / 2.0, last - first)
    pos_rank_sum = ranks[labels[order] == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(scores, labels) -> float:
    """Precision averaged over the ranks of the positives.

    Ties break by stable sort on descending score, then input order; this makes
    the metric a deterministic function of the inputs.
    """
    scores, labels = _checked(scores, labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    hits = (labels[order] == 1).astype(np.float64)
    precision_at = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float((precision_at * hits).sum() / n_pos)
