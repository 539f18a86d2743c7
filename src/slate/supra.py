"""Connected multi-layer graphs from snapshot windows.

A window of snapshots becomes one multi-layer graph: per snapshot, rows for its
non-isolated nodes plus one virtual node wired to all of them; consecutive
layers are tied by per-node temporal edges wherever the node is non-isolated at
both times. The construction guarantees a connected result whenever every
consecutive layer pair shares at least one mutually non-isolated node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .dtdg import Snapshot, Window
from .errors import ConnectivityError, DegenerateWindowError

RowKey = tuple[int, int]  # (node id, window-relative time)


@dataclass(frozen=True)
class SupraConfig:
    """vn_fallback_link bridges virtual nodes across layer pairs that share no
    mutually non-isolated node (a deviation from the default wiring, which
    never links two virtual rows); off by default, where such gaps raise."""

    vn_fallback_link: bool = False


@dataclass(frozen=True)
class SupraGraph:
    """Immutable multi-layer graph over one window.

    Rows are grouped by window member ascending, node ids ascending within a
    member, the member's virtual row last. index_map covers exactly the
    non-virtual rows. masks[tau] flags nodes isolated at the tau-th member.
    """

    size: int
    adjacency: sp.csr_array
    index_map: dict[RowKey, int]
    virtual_rows: tuple[int, ...]
    masks: tuple[np.ndarray, ...]
    window: Window
    num_nodes: int

    @property
    def num_members(self) -> int:
        return len(self.masks)

    def row_of(self, u: int, tau: int) -> int | None:
        return self.index_map.get((u, tau))

    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def coordinate_list(self) -> list[tuple[int, int]]:
        """Upper-triangle edge list (i < j) in deterministic order."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return sorted(zip(coo.row.tolist(), coo.col.tolist()))


def _build_from_edges(size, edges, index_map, virtual_rows, masks, window, num_nodes):
    rows = np.fromiter((i for i, _ in edges), dtype=np.int64, count=len(edges))
    cols = np.fromiter((j for _, j in edges), dtype=np.int64, count=len(edges))
    data = np.ones(len(edges), dtype=np.float64)
    adj = sp.coo_array(
        (np.concatenate([data, data]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(size, size),
    ).tocsr()
    adj.data[:] = 1.0  # duplicates would sum; the graph is simple
    return SupraGraph(size, adj, index_map, tuple(virtual_rows), tuple(masks), window, num_nodes)


def build_supra(
    snapshots: list[Snapshot],
    masks: list[np.ndarray],
    cfg: SupraConfig = SupraConfig(),
    window: Window | None = None,
) -> SupraGraph:
    """Assemble the connected multi-layer graph for a window of snapshots.

    Raises DegenerateWindowError when any member snapshot has no edge at all
    (there is nothing meaningful to connect), and ConnectivityError when two
    consecutive members share no mutually non-isolated node and the virtual
    fallback link is disabled.
    """
    if not snapshots:
        raise DegenerateWindowError("empty window")
    n = snapshots[0].num_nodes
    if window is None:
        window = Window(end=len(snapshots) - 1, size=len(snapshots), members=tuple(range(len(snapshots))))
    if all(s.num_edges == 0 for s in snapshots):
        raise DegenerateWindowError("every snapshot in the window is empty")
    for tau, snap in enumerate(snapshots):
        if snap.num_edges == 0:
            raise DegenerateWindowError(
                f"snapshot at window position {tau} (t={window.members[tau]}) has no edges"
            )
        if not np.array_equal(np.asarray(masks[tau], bool), snap.isolation_mask()):
            raise ValueError(f"mask at window position {tau} disagrees with snapshot degrees")

    index_map: dict[RowKey, int] = {}
    virtual_rows: list[int] = []
    row = 0
    for tau, snap in enumerate(snapshots):
        for u in np.flatnonzero(~snap.isolation_mask()):
            index_map[(int(u), tau)] = row
            row += 1
        virtual_rows.append(row)
        row += 1
    size = row

    edges: list[tuple[int, int]] = []
    for tau, snap in enumerate(snapshots):
        for u, v in snap.sorted_edges():
            edges.append((index_map[(u, tau)], index_map[(v, tau)]))
        vn = virtual_rows[tau]
        for u in np.flatnonzero(~snap.isolation_mask()):
            edges.append((index_map[(int(u), tau)], vn))

    gaps: list[int] = []
    for tau in range(len(snapshots) - 1):
        shared = np.flatnonzero(~snapshots[tau].isolation_mask() & ~snapshots[tau + 1].isolation_mask())
        if len(shared) == 0:
            gaps.append(tau)
            continue
        for u in shared:
            edges.append((index_map[(int(u), tau)], index_map[(int(u), tau + 1)]))

    if gaps:
        if not cfg.vn_fallback_link:
            tau = gaps[0]
            raise ConnectivityError(
                f"no node is non-isolated at both window positions {tau} and {tau + 1} "
                f"(t={window.members[tau]}, t={window.members[tau + 1]}); "
                "set vn_fallback_link to bridge virtual nodes across this gap",
                gap=(tau, tau + 1),
            )
        for tau in gaps:
            edges.append((virtual_rows[tau], virtual_rows[tau + 1]))

    sg = _build_from_edges(
        size, edges, index_map, virtual_rows,
        [np.asarray(m, bool) for m in masks], window, n,
    )
    if not verify_connected(sg):
        raise ConnectivityError("multi-layer graph is disconnected despite gap bridging")
    return sg


def build_block_diagonal(snapshots: list[Snapshot], window: Window | None = None) -> SupraGraph:
    """Raw block-diagonal stacking: isolated nodes kept, no virtual nodes, no
    temporal edges. Usually disconnected; used by the no-transformation
    ablation and by before/after spectrum dumps."""
    if not snapshots:
        raise DegenerateWindowError("empty window")
    n = snapshots[0].num_nodes
    if window is None:
        window = Window(end=len(snapshots) - 1, size=len(snapshots), members=tuple(range(len(snapshots))))
    index_map = {(u, tau): tau * n + u for tau in range(len(snapshots)) for u in range(n)}
    edges = [
        (index_map[(u, tau)], index_map[(v, tau)])
        for tau, snap in enumerate(snapshots)
        for u, v in snap.sorted_edges()
    ]
    masks = [snap.isolation_mask() for snap in snapshots]
    return _build_from_edges(n * len(snapshots), edges, index_map, [], masks, window, n)


def verify_connected(sg: SupraGraph) -> bool:
    """True iff the multi-layer graph has exactly one connected component."""
    return count_components(sg.adjacency) == 1


def count_components(adjacency: sp.csr_array) -> int:
    """Connected components of the undirected sparse adjacency."""
    return int(connected_components(adjacency, directed=False)[0])
