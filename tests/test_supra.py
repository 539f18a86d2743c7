import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from slate.dtdg import Snapshot, generate_erdos_renyi, window_of
from slate.errors import ConnectivityError, DegenerateWindowError
from slate.supra import (
    SupraGraph,
    build_block_diagonal,
    build_supra,
    count_components,
    verify_connected,
)


def snap(n, edges):
    return Snapshot.from_edges(n, edges)


def toy_t3():
    """5 nodes, 3 snapshots; node 3 is isolated at the middle step."""
    return [
        snap(5, [(0, 1), (1, 2), (3, 4)]),
        snap(5, [(0, 1)]),
        snap(5, [(0, 1), (1, 2), (2, 3)]),
    ]


def build(snaps, vn_fallback_link=False):
    return build_supra(snaps, vn_fallback_link=vn_fallback_link)


def index_pairs(sg):
    """{(node, tau): row} for every slot that has a row."""
    taus, nodes = np.nonzero(sg.rows >= 0)
    return {(int(u), int(tau)): int(sg.rows[tau, u]) for tau, u in zip(taus, nodes)}


def supra_from_dense(a):
    """Hand-built multi-layer graph for connectivity unit tests."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return SupraGraph(
        size=n,
        adjacency=sp.csr_array(a),
        rows=np.arange(n)[None, :],
        virtual_rows=(),
        masks=(np.zeros(n, dtype=bool),),
    )


class TestBuildSupra:
    def test_single_complete_snapshot(self):
        sg = build([snap(3, [(0, 1), (0, 2), (1, 2)])])
        assert sg.size == 4
        assert sg.adjacency[sg.virtual_rows[0]].sum() == 3
        assert verify_connected(sg)

    def test_toy_t3_matches_hand_construction(self):
        sg = build(toy_t3())
        assert sg.size == 6 + 3 + 5 == 14
        # hand-derived row layout: member-major, nodes ascending, VN last
        rows = {(u, 0): u for u in range(5)} | {(0, 1): 6, (1, 1): 7} | {
            (u, 2): 9 + u for u in range(4)}
        assert index_pairs(sg) == rows
        assert sg.virtual_rows == (5, 8, 13)
        expected = {
            (0, 1), (1, 2), (3, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5),  # layer 0
            (6, 7), (6, 8), (7, 8),                                          # layer 1
            (9, 10), (10, 11), (11, 12), (9, 13), (10, 13), (11, 13), (12, 13),  # layer 2
            (0, 6), (1, 7), (6, 9), (7, 10),                                 # temporal
        }
        assert set(sg.coordinate_list()) == expected
        assert verify_connected(sg)
        # independent oracle for connectivity
        assert connected_components(sg.adjacency, directed=False)[0] == 1

    def test_three_dense_layers(self):
        g = generate_erdos_renyi(10, 0.5, 3, seed=7)
        assert all(not s.isolation_mask().any() for s in g.snapshots)
        sg = build(list(g.snapshots))
        assert sg.size == 33
        for vn in sg.virtual_rows:
            assert sg.adjacency[vn].sum() == 10

    def test_empty_window_rejected(self):
        with pytest.raises(DegenerateWindowError):
            build_supra([])

    def test_all_empty_snapshots_rejected(self):
        snaps = [snap(3, []), snap(3, [])]
        with pytest.raises(DegenerateWindowError):
            build(snaps)

    def test_one_empty_snapshot_rejected(self):
        snaps = [snap(3, [(0, 1)]), snap(3, []), snap(3, [(0, 1)])]
        with pytest.raises(DegenerateWindowError, match="window position 1"):
            build(snaps)

    def test_gap_raises_naming_positions(self):
        snaps = [snap(4, [(0, 1)]), snap(4, [(2, 3)])]
        with pytest.raises(ConnectivityError, match="positions 0 and 1") as err:
            build(snaps)
        assert err.value.gap == (0, 1)

    def test_gap_bridged_by_fallback(self):
        snaps = [snap(4, [(0, 1)]), snap(4, [(2, 3)])]
        sg = build(snaps, vn_fallback_link=True)
        assert verify_connected(sg)
        vn_edges = [
            (i, j) for i, j in sg.coordinate_list()
            if i in sg.virtual_rows and j in sg.virtual_rows
        ]
        assert vn_edges == [(sg.virtual_rows[0], sg.virtual_rows[1])]


class TestVerifyConnected:
    def test_toy_true(self):
        assert verify_connected(build(toy_t3()))

    def test_disjoint_blocks_false(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1
        a[2, 3] = a[3, 2] = 1
        assert not verify_connected(supra_from_dense(a))

    def test_single_row_true(self):
        assert verify_connected(supra_from_dense(np.zeros((1, 1))))

    def test_component_count_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            a = (rng.random((n, n)) < 0.08).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            sg = supra_from_dense(a)
            assert count_components(sg.adjacency) == connected_components(
                sg.adjacency, directed=False)[0]


def random_windowed_cases(count):
    """Deterministic stream of (snapshots, w) with every snapshot non-empty."""
    rng = np.random.default_rng(2024)
    produced = 0
    seed = 0
    while produced < count:
        seed += 1
        n = int(rng.integers(5, 31))
        p = float(rng.uniform(0.05, 0.5))
        w = int(rng.integers(1, 5))
        g = generate_erdos_renyi(n, p, w, seed=seed)
        if any(s.num_edges == 0 for s in g.snapshots):
            continue
        produced += 1
        yield g, w


class TestInvariants:
    def test_connectivity_and_structure_over_100_graphs(self):
        for g, w in random_windowed_cases(100):
            window = window_of(g, w - 1, w)
            snaps = [g.snapshots[t] for t in window.members]
            sg = build_supra(snaps, window=window)
            assert verify_connected(sg)
            # exact row-count formula
            expected = sum((~s.isolation_mask()).sum() + 1 for s in snaps)
            assert sg.size == expected
            # rows is a bijection onto the non-virtual rows
            index_map = index_pairs(sg)
            rows = sorted(index_map.values())
            assert len(set(rows)) == len(rows)
            assert set(rows) | set(sg.virtual_rows) == set(range(sg.size))
            vn = set(sg.virtual_rows)
            row_time = {row: tau for (u, tau), row in index_map.items()}
            row_node = {row: u for (u, tau), row in index_map.items()}
            for i, j in sg.coordinate_list():
                assert not (i in vn and j in vn)  # never links two virtual rows
                if i not in vn and j not in vn and row_time[i] != row_time[j]:
                    # temporal edge: same node, adjacent times, non-isolated at both
                    assert row_node[i] == row_node[j]
                    assert abs(row_time[i] - row_time[j]) == 1
                    u = row_node[i]
                    for tau in (row_time[i], row_time[j]):
                        assert not snaps[tau].isolation_mask()[u]


class TestBlockDiagonal:
    def test_raw_stacking_keeps_everything(self):
        snaps = toy_t3()
        sg = build_block_diagonal(snaps)
        assert sg.size == 15
        assert sg.virtual_rows == ()
        # components: layer 0 has {0,1,2} + {3,4}; layer 1 has {0,1} + 3 isolated;
        # layer 2 has {0,1,2,3} + 1 isolated
        assert count_components(sg.adjacency) == 2 + 4 + 2
        assert count_components(sg.adjacency) == connected_components(
            sg.adjacency, directed=False)[0]


# ---------------------------------------------------------------------------
# Reference construction: a (node, tau) -> row dict and per-row edge loops,
# written out here with no slate.supra call.
# ---------------------------------------------------------------------------


def reference_csr(size, edges):
    i = [a for a, _ in edges]
    j = [b for _, b in edges]
    adj = sp.coo_array((np.ones(2 * len(edges)), (i + j, j + i)), shape=(size, size)).tocsr()
    adj.data[:] = 1.0
    return adj


def reference_supra(snaps, vn_fallback_link=False):
    """({(u, tau): row}, virtual rows, adjacency) of the transformed graph, or
    None where a gap is left unbridged."""
    n = snaps[0].num_nodes
    index_map, virtual_rows, row = {}, [], 0
    for tau, s in enumerate(snaps):
        for u in range(n):
            if s.degree[u] > 0:
                index_map[(u, tau)] = row
                row += 1
        virtual_rows.append(row)
        row += 1
    edges = []
    for tau, s in enumerate(snaps):
        edges += [(index_map[(u, tau)], index_map[(v, tau)]) for u, v in sorted(s.edges)]
        edges += [(index_map[(u, tau)], virtual_rows[tau]) for u in range(n) if (u, tau) in index_map]
    for tau in range(len(snaps) - 1):
        shared = [u for u in range(n) if (u, tau) in index_map and (u, tau + 1) in index_map]
        if not shared:
            if not vn_fallback_link:
                return None
            edges.append((virtual_rows[tau], virtual_rows[tau + 1]))
        edges += [(index_map[(u, tau)], index_map[(u, tau + 1)]) for u in shared]
    return index_map, tuple(virtual_rows), reference_csr(row, edges)


def reference_block_diagonal(snaps):
    n = snaps[0].num_nodes
    index_map = {(u, tau): tau * n + u for tau in range(len(snaps)) for u in range(n)}
    edges = [(index_map[(u, tau)], index_map[(v, tau)])
             for tau, s in enumerate(snaps) for u, v in sorted(s.edges)]
    return index_map, (), reference_csr(n * len(snaps), edges)


def assert_matches_reference(sg, reference):
    index_map, virtual_rows, adjacency = reference
    expected_rows = np.full(sg.rows.shape, -1)
    for (u, tau), row in index_map.items():
        expected_rows[tau, u] = row
    assert np.array_equal(sg.rows, expected_rows)
    assert sg.virtual_rows == virtual_rows
    assert sg.size == adjacency.shape[0]
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sg.adjacency, attr), getattr(adjacency, attr)), attr


def assert_builds_match_reference(snaps):
    reference = reference_supra(snaps)
    if reference is None:
        with pytest.raises(ConnectivityError):
            build(snaps)
    else:
        assert_matches_reference(build(snaps), reference)
    assert_matches_reference(build(snaps, vn_fallback_link=True), reference_supra(snaps, True))
    assert_matches_reference(build_block_diagonal(snaps), reference_block_diagonal(snaps))


REFERENCE_WINDOWS = {
    "one member": [snap(4, [(0, 1), (1, 2), (2, 3), (0, 3)])],
    "isolated nodes": toy_t3(),
    "bridged gap": [snap(6, [(0, 1), (1, 2)]), snap(6, [(3, 4), (4, 5)]), snap(6, [(4, 5)])],
    "every node at every step": [snap(3, [(0, 1), (1, 2)]), snap(3, [(0, 2), (1, 2)])],
}


@st.composite
def small_windows(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_sets = draw(st.lists(st.lists(st.sampled_from(pairs), min_size=1, unique=True),
                              min_size=1, max_size=4))
    return [snap(n, edges) for edges in edge_sets]


class TestAgainstReference:
    @pytest.mark.parametrize("name", REFERENCE_WINDOWS)
    def test_fixed_windows(self, name):
        assert_builds_match_reference(REFERENCE_WINDOWS[name])

    @given(snaps=small_windows())
    @settings(max_examples=80, deadline=None)
    def test_random_small_windows(self, snaps):
        assert_builds_match_reference(snaps)

    def test_generated_windows(self):
        g = generate_erdos_renyi(30, 0.04, 6, seed=11)
        for t in range(g.num_snapshots):
            snaps = [g.snapshots[m] for m in window_of(g, t, 3).members]
            if all(s.num_edges for s in snaps):
                assert_builds_match_reference(snaps)
