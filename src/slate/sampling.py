"""Positive/negative pair sampling for training and evaluation.

For every positive edge (u, v_pos) at the prediction snapshot, one negative
partner v_neg is drawn for the same u. Strategies differ in the candidate
pool: anything that is not an edge now (random), former edges that are gone
now (historical), or pairs never seen during training (inductive). A sampled
negative is never a positive edge at the prediction snapshot.

A pool depends on u alone and is built once per source node: a boolean mask
over the N nodes, set and cleared from rows of CSR adjacencies built by
`supra.symmetric_adjacency`: the prediction snapshot's (once per call), the
history's (once per call, historical only) and the training edges' (once per
sampler, inductive only). Each pool is O(N) array work, with no Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dtdg import DynamicGraph
from .errors import ConfigError
from .supra import symmetric_adjacency

STRATEGIES = ("random", "historical", "inductive")


def _union_adjacency(g: DynamicGraph, stop: int) -> sp.csr_array:
    """Adjacency of every edge in snapshots [0, stop); an edge in several
    snapshots is one entry."""
    pairs = np.concatenate([np.empty((0, 2), np.int64)]
                           + [snap.edge_array for snap in g.snapshots[:stop]])
    return symmetric_adjacency(g.num_nodes, pairs)


def _row(adjacency: sp.csr_array, u: int) -> np.ndarray:
    return adjacency.indices[adjacency.indptr[u]:adjacency.indptr[u + 1]]


@dataclass
class NegativeSampler:
    """Strategy plus the adjacency of the training edges, which inductive
    sampling excludes; fallback_count tallies pairs whose strategy pool was
    empty and fell back to a random negative."""

    strategy: str
    train_adjacency: sp.csr_array | None = None
    fallback_count: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown negative sampling strategy {self.strategy!r}")
        if self.strategy == "inductive" and self.train_adjacency is None:
            raise ConfigError("inductive sampling needs the training split")

    @staticmethod
    def for_graph(g: DynamicGraph, strategy: str, train_range: range | None = None) -> "NegativeSampler":
        train_adjacency = None
        if strategy == "inductive" and train_range is not None:
            train_adjacency = _union_adjacency(g, train_range.stop)
        return NegativeSampler(strategy=strategy, train_adjacency=train_adjacency)

    def pool_for(self, u: int, positives: sp.csr_array, history: sp.csr_array | None,
                 num_nodes: int) -> np.ndarray:
        """Ascending candidate v for (u, v) under this strategy; excludes u
        itself and every positive at the prediction snapshot. positives and
        history are adjacencies; history is read by the historical strategy
        only."""
        if self.strategy == "historical":
            mask = np.zeros(num_nodes, dtype=bool)
            mask[_row(history, u)] = True
        else:
            mask = np.ones(num_nodes, dtype=bool)
        mask[u] = False
        mask[_row(positives, u)] = False
        if self.strategy == "inductive":
            mask[_row(self.train_adjacency, u)] = False
        return np.flatnonzero(mask)


_RANDOM_FALLBACK = NegativeSampler(strategy="random")


def sample_pairs(
    sampler: NegativeSampler,
    g: DynamicGraph,
    t_pred: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One (u, v_pos, v_neg) int64 row per positive edge at snapshot t_pred.

    The history pool is every edge strictly before t_pred. Each u's negatives
    are one draw, equal to one draw per edge. Empty strategy pools fall back to
    a random negative (counted on the sampler per pair); a u with no valid
    negative is skipped. A (0, 3) result tells the caller to skip the snapshot.
    A t_pred outside [0, num_snapshots) raises ConfigError.
    """
    if not 0 <= t_pred < g.num_snapshots:
        raise ConfigError(f"prediction snapshot {t_pred} outside [0, {g.num_snapshots})")
    edges = g.snapshots[t_pred].edge_array
    positives = symmetric_adjacency(g.num_nodes, edges)
    history = _union_adjacency(g, t_pred) if sampler.strategy == "historical" else None
    v_neg = np.full(len(edges), -1)  # stays -1 where u saturates the snapshot
    # rows are sorted, so each source's edges are one contiguous run
    sources, starts, counts = np.unique(edges[:, 0], return_index=True, return_counts=True)
    for u, start, count in zip(sources.tolist(), starts.tolist(), counts.tolist()):
        pool = sampler.pool_for(u, positives, history, g.num_nodes)
        if len(pool) == 0 and sampler.strategy != "random":
            sampler.fallback_count += count
            pool = _RANDOM_FALLBACK.pool_for(u, positives, history, g.num_nodes)
        if len(pool):
            v_neg[start:start + count] = pool[rng.integers(len(pool), size=count)]
    return np.column_stack([edges, v_neg])[v_neg >= 0]
