"""Connected multi-layer graphs from snapshot windows.

A window of snapshots becomes one multi-layer graph: per snapshot, rows for its
non-isolated nodes plus one virtual node wired to all of them; consecutive
layers are tied by per-node temporal edges wherever the node is non-isolated at
both times. The construction guarantees a connected result whenever every
consecutive layer pair shares at least one mutually non-isolated node.

Rows are indexed by one integer array, rows[tau, u], so every edge list is
built by indexing it with whole arrays of node ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .dtdg import Snapshot, Window
from .errors import ConnectivityError, DegenerateWindowError


@dataclass(frozen=True)
class SupraGraph:
    """Immutable multi-layer graph over one window.

    Rows are grouped by window member ascending, node ids ascending within a
    member, the member's virtual row last. rows[tau, u] is the row of node u at
    the tau-th member, or -1 where that slot has no row; virtual rows appear
    only in virtual_rows. masks[tau] flags nodes isolated at the tau-th member.
    """

    size: int
    adjacency: sp.csr_array
    rows: np.ndarray  # (num_members, num_nodes), int64
    virtual_rows: tuple[int, ...]
    masks: tuple[np.ndarray, ...]

    @property
    def num_members(self) -> int:
        return self.rows.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.rows.shape[1]

    def coordinate_list(self) -> list[tuple[int, int]]:
        """Upper-triangle edge list (i < j) in deterministic order."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return sorted(zip(coo.row.tolist(), coo.col.tolist()))


def symmetric_adjacency(size: int, pairs: np.ndarray) -> sp.csr_array:
    """Unweighted undirected adjacency on size rows with an edge for each
    (i, j) row of pairs, shape (E, 2); canonical CSR whatever their order."""
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj = sp.coo_array((np.ones(len(rows)), (rows, cols)), shape=(size, size)).tocsr()
    adj.data[:] = 1.0  # duplicates would sum; the graph is simple
    return adj


def _layer_edges(snapshots: list[Snapshot], rows: np.ndarray) -> list[np.ndarray]:
    return [rows[tau][snap.edge_array] for tau, snap in enumerate(snapshots)]


def build_supra(
    snapshots: list[Snapshot],
    window: Window | None = None,
    vn_fallback_link: bool = False,
) -> SupraGraph:
    """Assemble the connected multi-layer graph for a window of snapshots.

    Raises DegenerateWindowError when any member snapshot has no edge at all
    (there is nothing meaningful to connect), and ConnectivityError when two
    consecutive members share no mutually non-isolated node and
    vn_fallback_link is off. vn_fallback_link bridges the virtual nodes across
    such a gap, a deviation from the default wiring, which never links two
    virtual rows.
    """
    if not snapshots:
        raise DegenerateWindowError("empty window")
    if window is None:
        window = Window(tuple(range(len(snapshots))))
    if all(s.num_edges == 0 for s in snapshots):
        raise DegenerateWindowError("every snapshot in the window is empty")
    for tau, snap in enumerate(snapshots):
        if snap.num_edges == 0:
            raise DegenerateWindowError(
                f"snapshot at window position {tau} (t={window.members[tau]}) has no edges"
            )

    masks = np.stack([snap.isolation_mask() for snap in snapshots])
    alive = ~masks
    counts = alive.sum(axis=1)
    virtual = np.cumsum(counts + 1) - 1  # each member's rows end with its virtual row
    rows = np.where(alive, (virtual - counts)[:, None] + np.cumsum(alive, axis=1) - 1, -1)

    shared = alive[:-1] & alive[1:]
    gaps = np.flatnonzero(~shared.any(axis=1))
    if len(gaps) and not vn_fallback_link:
        tau = int(gaps[0])
        raise ConnectivityError(
            f"no node is non-isolated at both window positions {tau} and {tau + 1} "
            f"(t={window.members[tau]}, t={window.members[tau + 1]}); "
            "set vn_fallback_link to bridge virtual nodes across this gap",
            gap=(tau, tau + 1),
        )
    member, node = np.nonzero(alive)
    link_tau, link_node = np.nonzero(shared)  # temporal edge from (node, tau) to (node, tau + 1)
    pairs = np.concatenate(_layer_edges(snapshots, rows) + [
        np.stack([rows[member, node], virtual[member]], axis=1),
        np.stack([rows[link_tau, link_node], rows[link_tau + 1, link_node]], axis=1),
        np.stack([virtual[gaps], virtual[gaps + 1]], axis=1),
    ])
    size = int(virtual[-1]) + 1
    sg = SupraGraph(size, symmetric_adjacency(size, pairs), rows,
                    tuple(virtual.tolist()), tuple(masks))
    if not verify_connected(sg):
        raise ConnectivityError("multi-layer graph is disconnected despite gap bridging")
    return sg


def build_block_diagonal(snapshots: list[Snapshot]) -> SupraGraph:
    """Raw block-diagonal stacking: isolated nodes kept, no virtual nodes, no
    temporal edges. Usually disconnected; used by the no-transformation
    ablation and by before/after spectrum dumps."""
    if not snapshots:
        raise DegenerateWindowError("empty window")
    n = snapshots[0].num_nodes
    size = n * len(snapshots)
    rows = np.arange(size).reshape(len(snapshots), n)
    adjacency = symmetric_adjacency(size, np.concatenate(_layer_edges(snapshots, rows)))
    masks = tuple(snap.isolation_mask() for snap in snapshots)
    return SupraGraph(size, adjacency, rows, (), masks)


def verify_connected(sg: SupraGraph) -> bool:
    """True iff the multi-layer graph has exactly one connected component."""
    return count_components(sg.adjacency) == 1


def count_components(adjacency: sp.csr_array) -> int:
    """Connected components of the undirected sparse adjacency."""
    return int(connected_components(adjacency, directed=False)[0])
