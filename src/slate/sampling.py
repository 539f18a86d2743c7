"""Positive/negative pair sampling for training and evaluation.

For every positive edge (u, v_pos) at the prediction snapshot, one negative
partner v_neg is drawn for the same u. Strategies differ in the candidate
pool: anything that is not an edge now (random), former edges that are gone
now (historical), or pairs never seen during training (inductive). A sampled
negative is never a positive edge at the prediction snapshot.

Pools are boolean masks over the N nodes, set and cleared from CSR neighbour
arrays: the prediction snapshot's (built once per `sample_pairs` call), the
history's (once per call, historical only) and the training edges' (once per
sampler, inductive only). Each pool costs O(N) array work, with no
per-node Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtdg import DynamicGraph, Edge
from .errors import ConfigError

STRATEGIES = ("random", "historical", "inductive")


@dataclass(frozen=True)
class Neighbours:
    """CSR adjacency of an undirected edge set: node u's neighbours are
    indices[indptr[u]:indptr[u + 1]]."""

    indptr: np.ndarray
    indices: np.ndarray

    @staticmethod
    def of(edges: frozenset[Edge], num_nodes: int) -> "Neighbours":
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return Neighbours(indptr, dst[np.argsort(src, kind="stable")])

    def __getitem__(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]


@dataclass
class NegativeSampler:
    """Strategy plus the training edges inductive sampling excludes;
    fallback_count tallies pairs whose strategy pool was empty and fell back
    to a random negative."""

    strategy: str
    train_neighbours: Neighbours | None = None
    fallback_count: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown negative sampling strategy {self.strategy!r}")
        if self.strategy == "inductive" and self.train_neighbours is None:
            raise ConfigError("inductive sampling needs the training split")

    @staticmethod
    def for_graph(g: DynamicGraph, strategy: str, train_range: range | None = None) -> "NegativeSampler":
        train_neighbours = None
        if strategy == "inductive" and train_range is not None:
            train_neighbours = Neighbours.of(g.edge_union(train_range.stop), g.num_nodes)
        return NegativeSampler(strategy=strategy, train_neighbours=train_neighbours)

    def pool_for(self, u: int, positives: Neighbours, history: Neighbours | None,
                 num_nodes: int) -> np.ndarray:
        """Ascending candidate v for (u, v) under this strategy; excludes u
        itself and every positive at the prediction snapshot. history is
        read by the historical strategy only."""
        if self.strategy == "historical":
            mask = np.zeros(num_nodes, dtype=bool)
            mask[history[u]] = True
        else:
            mask = np.ones(num_nodes, dtype=bool)
        mask[u] = False
        mask[positives[u]] = False
        if self.strategy == "inductive":
            mask[self.train_neighbours[u]] = False
        return np.flatnonzero(mask)


def sample_pairs(
    sampler: NegativeSampler,
    g: DynamicGraph,
    t_pred: int,
    rng: np.random.Generator,
) -> list[tuple[int, int, int]]:
    """One (u, v_pos, v_neg) triple per positive edge at snapshot t_pred.

    The history pool is every edge strictly before t_pred. Empty strategy pools
    fall back to a random negative (counted on the sampler); a u with no valid
    negative at all is skipped. Returns [] when the snapshot has no edges or no
    triple can be formed, signalling the caller to skip the snapshot. A t_pred
    outside [0, num_snapshots) raises ConfigError.
    """
    if not 0 <= t_pred < g.num_snapshots:
        raise ConfigError(f"prediction snapshot {t_pred} outside [0, {g.num_snapshots})")
    positives = g.snapshots[t_pred].edges
    if not positives:
        return []
    pos_neighbours = Neighbours.of(positives, g.num_nodes)
    history = None
    if sampler.strategy == "historical":
        history = Neighbours.of(g.edge_union(t_pred), g.num_nodes)
    random_fallback = NegativeSampler(strategy="random")
    triples = []
    for u, v_pos in sorted(positives):
        pool = sampler.pool_for(u, pos_neighbours, history, g.num_nodes)
        if len(pool) == 0 and sampler.strategy != "random":
            sampler.fallback_count += 1
            pool = random_fallback.pool_for(u, pos_neighbours, history, g.num_nodes)
        if len(pool) == 0:
            continue  # u saturates the snapshot; no valid negative exists
        v_neg = int(pool[rng.integers(len(pool))])
        triples.append((u, v_pos, v_neg))
    return triples
