import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import subspace_angles
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from slate import spectral
from slate.dtdg import DynamicGraph, Snapshot, generate_erdos_renyi, generate_sbm_churn, window_of
from slate.errors import ConfigError, ConvergenceError
from slate.model import EncodingKind, _snapshot_lap_pe, compute_window_encoding
from slate.spectral import (
    DENSE_CUTOFF,
    canonicalize_signs,
    normalized_laplacian,
    raw_encoding,
    smallest_eigenpairs,
)
from slate.supra import build_block_diagonal, build_supra, symmetric_adjacency

from test_supra import (
    REFERENCE_WINDOWS,
    build,
    index_pairs,
    reference_block_diagonal,
    reference_supra,
    supra_from_dense,
    toy_t3,
)


def dense_oracle_eigenvalues(a):
    """Independent dense route: normalized Laplacian spectrum via numpy on a
    hand-assembled matrix."""
    a = np.asarray(a, dtype=float)
    deg = a.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    lap = np.diag((deg > 0).astype(float)) - a * dinv[:, None] * dinv[None, :]
    return np.linalg.eigvalsh(lap)


def path_graph(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return a


class TestNormalizedLaplacian:
    def test_single_edge_spectrum(self):
        sg = supra_from_dense([[0, 1], [1, 0]])
        lap = normalized_laplacian(sg.adjacency)
        assert np.allclose(lap.matrix.toarray(), [[1, -1], [-1, 1]])
        basis = smallest_eigenpairs(lap, 1)
        assert abs(basis.lambda0) < 1e-12
        assert abs(basis.eigenvalues[0] - 2.0) < 1e-12

    def test_triangle_spectrum(self):
        a = 1.0 - np.eye(3)
        expected = dense_oracle_eigenvalues(a)  # {0, 1.5, 1.5}
        assert np.allclose(expected, [0.0, 1.5, 1.5])
        basis = smallest_eigenpairs(normalized_laplacian(supra_from_dense(a).adjacency), 2)
        assert np.allclose(basis.eigenvalues, [1.5, 1.5], atol=1e-12)

    def test_p4_fiedler_value(self):
        # dense oracle on the 4x4 normalized Laplacian of the path 0-1-2-3
        a = path_graph(4)
        oracle = np.sort(dense_oracle_eigenvalues(a))
        basis = smallest_eigenpairs(normalized_laplacian(supra_from_dense(a).adjacency), 1)
        assert abs(basis.eigenvalues[0] - oracle[1]) < 1e-12
        assert abs(oracle[1] - 0.5) < 1e-12  # frozen oracle value

    def test_toy_t3_spectrum_in_range(self):
        sg = build(toy_t3())
        lap = normalized_laplacian(sg.adjacency)
        dense = lap.matrix.toarray()
        assert np.allclose(dense, dense.T)
        vals = np.linalg.eigvalsh(dense)
        assert vals.min() > -1e-12 and vals.max() < 2.0 + 1e-12
        assert np.allclose(np.diag(dense), 1.0)  # every row has degree > 0

    def test_zero_degree_row_rejected_unless_allowed(self):
        sg = supra_from_dense(np.zeros((2, 2)))
        with pytest.raises(Exception):
            normalized_laplacian(sg.adjacency)
        lap = normalized_laplacian(sg.adjacency, allow_isolated=True)
        assert np.allclose(lap.matrix.toarray(), 0.0)

    def test_matches_two_step_construction(self):
        # the matrix as a unit-diagonal dia_array plus the off-diagonal coo_array
        def two_step(adjacency):
            deg = np.asarray(adjacency.sum(axis=1)).ravel()
            with np.errstate(divide="ignore"):
                dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
            a = adjacency.tocoo()
            off = sp.coo_array(
                (-a.data * dinv_sqrt[a.row] * dinv_sqrt[a.col], (a.row, a.col)), shape=a.shape
            )
            diag = sp.dia_array(((deg > 0).astype(np.float64)[None, :], [0]), shape=a.shape)
            return (diag + off).tocsr()

        churn = list(generate_sbm_churn(60, 3, 0.1, 0.01, 3, seed=2).snapshots)
        for snaps in [*REFERENCE_WINDOWS.values(), churn]:
            for adjacency, allow_isolated in (
                (build(snaps, vn_fallback_link=True).adjacency, False),
                (build_block_diagonal(snaps).adjacency, True),
            ):
                lap = normalized_laplacian(adjacency, allow_isolated).matrix
                expected = two_step(adjacency)
                for field in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(lap, field), getattr(expected, field))


def random_supra(seed, n_lo=5, n_hi=16, w_hi=4, p=0.4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    w = int(rng.integers(1, w_hi + 1))
    for offset in range(200):
        g = generate_erdos_renyi(n, p, w, seed=seed * 1000 + offset)
        if all(s.num_edges > 0 for s in g.snapshots):
            snaps = list(g.snapshots)
            return build(snaps), snaps
    raise AssertionError("no usable random graph")


class TestEigensolvers:
    def test_connected_graphs_have_single_zero(self):
        for seed in range(10):
            sg, _ = random_supra(seed + 1)
            basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 3)
            assert abs(basis.lambda0) < 1e-8
            assert basis.eigenvalues[0] > 1e-8

    def test_eigen_residuals_dense(self):
        for seed in (1, 2, 3):
            sg, _ = random_supra(seed)
            lap = normalized_laplacian(sg.adjacency)
            basis = smallest_eigenpairs(lap, 4, method="dense")
            res = lap.matrix @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
            assert np.linalg.norm(res, axis=0).max() < 1e-8 * lap.size

    def test_lanczos_matches_dense(self):
        checked = 0
        seed = 0
        while checked < 10:
            seed += 1
            sg, _ = random_supra(seed, n_lo=10, n_hi=30, w_hi=4)
            lap = normalized_laplacian(sg.adjacency)
            if lap.size < 14:
                continue
            dense = smallest_eigenpairs(lap, 12, method="dense")
            # keep the compared subspace well separated at its boundary
            full = np.linalg.eigvalsh(lap.matrix.toarray())
            if full[13] - full[12] < 1e-4:
                continue
            lz = smallest_eigenpairs(lap, 12, method="lanczos", tol=1e-10, seed=7)
            checked += 1
            assert np.abs(lz.eigenvalues - dense.eigenvalues).max() < 1e-8
            res = lap.matrix @ lz.eigenvectors - lz.eigenvectors * lz.eigenvalues
            assert np.linalg.norm(res, axis=0).max() < 1e-8 * lap.size
            gram = lz.eigenvectors.T @ lz.eigenvectors
            assert np.abs(gram - np.eye(12)).max() < 1e-6
            angles = subspace_angles(lz.eigenvectors, dense.eigenvectors)
            assert angles.max() < 1e-6

    def test_lanczos_seed_invariance_after_sign_canon(self):
        sg, _ = random_supra(5, n_lo=12, n_hi=20, w_hi=3)
        lap = normalized_laplacian(sg.adjacency)
        full = np.linalg.eigvalsh(lap.matrix.toarray())
        gaps = np.diff(full[:6])
        if np.any(gaps < 1e-6):
            pytest.skip("degenerate spectrum drawn; covered by other seeds")
        a = smallest_eigenpairs(lap, 4, method="lanczos", tol=1e-10, seed=1)
        b = smallest_eigenpairs(lap, 4, method="lanczos", tol=1e-10, seed=2)
        assert np.abs(a.eigenvectors - b.eigenvectors).max() < 1e-6

    def test_sign_canon_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((9, 4))
        v[:, 3] = [0.0, -0.5, 0.5, 0.25, 0.0, -0.5, 0.0, 0.0, 0.0]  # a tie: the lowest row decides
        once = canonicalize_signs(v)
        assert np.array_equal(once, canonicalize_signs(once))
        for j in range(once.shape[1]):
            i = np.argmax(np.abs(once[:, j]))
            assert once[i, j] > 0
            assert np.array_equal(once[:, j], v[:, j] if v[i, j] > 0 else -v[:, j])
        assert once[1, 3] == 0.5

    def test_k_too_large_rejected(self):
        sg = supra_from_dense([[0, 1], [1, 0]])
        with pytest.raises(ConfigError):
            smallest_eigenpairs(normalized_laplacian(sg.adjacency), 2)

    @pytest.mark.parametrize("failure", ["no-convergence", "arpack-error"])
    def test_arpack_errors_become_convergence_errors(self, monkeypatch, failure):
        sg, _ = random_supra(3)
        lap = normalized_laplacian(sg.adjacency)
        partial = np.full((lap.size, 1), 1.0 / np.sqrt(lap.size))
        error = (ArpackNoConvergence("no convergence", np.array([0.5]), partial)
                 if failure == "no-convergence" else ArpackError(-9999))

        def eigsh(*args, **kwargs):
            raise error

        monkeypatch.setattr(spectral, "eigsh", eigsh)
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(lap, 2, method="lanczos")
        if failure == "no-convergence":
            expected = np.linalg.norm(lap.matrix @ partial - 0.5 * partial, axis=0)
            assert np.allclose(info.value.residuals, expected)
        else:
            assert info.value.residuals is None


def disjoint_union(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros((len(a) + len(b),) * 2)
    out[:len(a), :len(a)] = a
    out[len(a):, len(a):] = b
    return out


def star_graph(leaves):
    a = np.zeros((leaves + 1, leaves + 1))
    a[0, 1:] = a[1:, 0] = 1.0
    return a


class TestDenseAgainstFullSolve:
    """The dense path solves only the wanted pairs; np.linalg.eigh of the whole
    matrix is the independent oracle. Eigenvalues that agree to 1e-6 form one
    cluster, and the returned columns of a cluster must lie in the span of the
    oracle's columns for it: on a simple eigenvalue that is the same vector up
    to sign, on a repeated one any basis of (part of) the eigenspace."""

    SPECTRA = {
        "path": path_graph(7),
        "complete": 1.0 - np.eye(6),  # 0, then 6/5 five times
        "star": star_graph(5),  # 0, 1 four times, 2
        "two paths": disjoint_union(path_graph(5), path_graph(5)),  # every eigenvalue twice
        "two stars": disjoint_union(star_graph(3), star_graph(3)),
    }

    @staticmethod
    def check(lap, count):
        vals, vecs = spectral._dense_eigenpairs(lap, count)
        oracle_vals, oracle_vecs = np.linalg.eigh(lap.matrix.toarray())
        assert vals.shape == (count,) and vecs.shape == (lap.size, count)
        assert np.abs(vals - oracle_vals[:count]).max() < 1e-12
        res = np.linalg.norm(lap.matrix @ vecs - vecs * vals, axis=0)
        assert res.max() < 1e-8 * lap.size
        assert np.abs(vecs.T @ vecs - np.eye(count)).max() < 1e-12
        cluster = np.concatenate([[0], np.cumsum(np.diff(oracle_vals) > 1e-6)])
        for c in np.unique(cluster[:count]):
            returned = vecs[:, cluster[:count] == c]
            assert subspace_angles(returned, oracle_vecs[:, cluster == c]).max() < 1e-8

    @pytest.mark.parametrize("name", SPECTRA)
    def test_every_count(self, name):
        lap = normalized_laplacian(sp.csr_array(self.SPECTRA[name]))
        for count in range(1, lap.size + 1):
            self.check(lap, count)

    def test_random_windows(self):
        for seed in range(1, 9):
            sg, snaps = random_supra(seed, n_lo=10, n_hi=30)
            raw = normalized_laplacian(build_block_diagonal(snaps).adjacency, allow_isolated=True)
            for lap in (normalized_laplacian(sg.adjacency), raw):
                for count in (1, 9, lap.size):
                    self.check(lap, count)

    def test_single_row(self):
        lap = normalized_laplacian(sp.csr_array((1, 1)), allow_isolated=True)
        self.check(lap, 1)

    def test_solve_holds_one_dense_copy(self):
        # LAPACK overwrites the Fortran-ordered dense matrix in place; a
        # C-ordered one it would copy first, doubling the peak
        g = generate_erdos_renyi(600, 0.02, 1, seed=3)
        lap = normalized_laplacian(symmetric_adjacency(600, g.snapshots[0].edge_array),
                                   allow_isolated=True)
        tracemalloc.start()
        try:
            smallest_eigenpairs(lap, 8, method="dense")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * lap.size ** 2 * 8, f"peak {peak / (lap.size ** 2 * 8):.2f} x n^2 float64"

    @pytest.mark.parametrize("edges", [[(0, 1)], [(1, 3), (3, 4)], [(0, 2), (2, 4), (4, 1)]])
    def test_lap_pe_small_snapshots(self, edges):
        # 2, 3 and 4 non-isolated nodes of 5, on paths, whose spectra are
        # simple; k runs up to m, so the subset reaches the whole subgraph.
        # Columns are compared up to sign: the paths' symmetric eigenvectors
        # tie in magnitude, which leaves the canonical sign to rounding.
        snap = Snapshot.from_edges(5, edges)
        alive = np.flatnonzero(~snap.isolation_mask())
        m = len(alive)
        a = np.zeros((5, 5))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        a = a[np.ix_(alive, alive)]
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        _, oracle = np.linalg.eigh(np.eye(m) - a * dinv[:, None] * dinv[None, :])
        for k in range(1, m + 1):
            pe, short = _snapshot_lap_pe(snap, k)
            avail = min(k, m - 1)
            assert short == (avail < k)
            assert not pe[snap.isolation_mask()].any() and not pe[:, avail:].any()
            for j in range(avail):
                assert subspace_angles(pe[alive, j:j + 1], oracle[:, j + 1:j + 2]).max() < 1e-8


class TestRawEncoding:
    def test_isolated_rows_are_zero_projection(self):
        snaps = toy_t3()
        sg = build(snaps)
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 2)
        table = raw_encoding(basis, sg)
        # node 3 is isolated at window position 1 but alive at position 0
        assert np.allclose(table.vector(3, 1)[:2], 0.0)
        assert not np.allclose(table.vector(3, 0)[:2], 0.0)
        assert not np.array_equal(table.vector(3, 0), table.vector(3, 1))

    def test_eigenvalue_half_is_global(self):
        sg = build(toy_t3())
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 3)
        table = raw_encoding(basis, sg)
        assert np.allclose(table.matrix[:, :, 3:], basis.eigenvalues)

    def test_isolated_slots_share_one_vector(self):
        sg = build(toy_t3())
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 2)
        table = raw_encoding(basis, sg)
        # nodes 2, 3, 4 are all isolated at window position 1
        assert np.array_equal(table.vector(2, 1), table.vector(3, 1))
        assert np.array_equal(table.vector(3, 1), table.vector(4, 1))

    def test_projection_matches_index_map_lookup(self):
        sg = build(toy_t3())
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 2)
        table = raw_encoding(basis, sg)
        for (u, tau), row in index_pairs(sg).items():
            assert np.array_equal(table.vector(u, tau)[:2], basis.eigenvectors[row])

    def test_node_relabeling_equivariance(self):
        rng = np.random.default_rng(11)
        checked = 0
        seed = 100
        while checked < 5:
            seed += 1
            g = generate_erdos_renyi(8, 0.5, 3, seed=seed)
            if any(s.num_edges == 0 for s in g.snapshots):
                continue
            snaps = list(g.snapshots)
            sg = build(snaps)
            lap = normalized_laplacian(sg.adjacency)
            full = np.linalg.eigvalsh(lap.matrix.toarray())
            if np.any(np.diff(full[:4]) < 1e-6):
                continue  # avoid degenerate spectra; rotation inside an
                # eigenspace would make single vectors incomparable
            basis = smallest_eigenpairs(lap, 2)
            table = raw_encoding(basis, sg)

            perm = rng.permutation(8)
            from slate.dtdg import Snapshot
            psnaps = [
                Snapshot.from_edges(8, [(int(perm[u]), int(perm[v])) for u, v in s.edges])
                for s in snaps
            ]
            psg = build(psnaps)
            pbasis = smallest_eigenpairs(normalized_laplacian(psg.adjacency), 2)
            ptable = raw_encoding(pbasis, psg)

            assert np.allclose(pbasis.eigenvalues, basis.eigenvalues, atol=1e-9)
            for tau in range(3):
                for u in range(8):
                    assert np.allclose(
                        ptable.vector(int(perm[u]), tau), table.vector(u, tau), atol=1e-6
                    )
            checked += 1

    @pytest.mark.parametrize("name", REFERENCE_WINDOWS)
    def test_table_matches_reference_scatter(self, name):
        # the table written out slot by slot from the reference (u, tau) -> row map
        snaps = REFERENCE_WINDOWS[name]
        n, k = snaps[0].num_nodes, 2
        for sg, (index_map, _, _), allow_isolated in (
            (build(snaps, vn_fallback_link=True), reference_supra(snaps, True), False),
            (build_block_diagonal(snaps), reference_block_diagonal(snaps), True),
        ):
            basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency, allow_isolated), k,
                                        discard_trivial=not allow_isolated)
            expected = np.zeros((len(snaps), n, 2 * k))
            expected[:, :, k:] = basis.eigenvalues
            for (u, tau), row in index_map.items():
                expected[tau, u, :k] = basis.eigenvectors[row]
            assert np.array_equal(raw_encoding(basis, sg).matrix, expected)

    def test_fiedler_layer_separation_on_dense_toy(self):
        g = generate_erdos_renyi(10, 0.6, 3, seed=7)
        snaps = list(g.snapshots)
        assert all(not s.isolation_mask().any() for s in snaps)
        sg = build(snaps)
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 1)
        table = raw_encoding(basis, sg)
        layer_means = [table.matrix[tau, :, 0].mean() for tau in range(3)]
        assert max(layer_means) - min(layer_means) > 1e-3


class TestRawVariant:
    def test_zero_multiplicity_counts_components(self):
        snaps = toy_t3()
        sg = build_block_diagonal(snaps)
        lap = normalized_laplacian(sg.adjacency, allow_isolated=True)
        vals = np.linalg.eigvalsh(lap.matrix.toarray())
        assert (np.abs(vals) < 1e-10).sum() == 8  # one zero per component
        basis = smallest_eigenpairs(lap, 4, discard_trivial=False)
        assert basis.lambda0 is None
        assert np.all(np.abs(basis.eigenvalues) < 1e-10)

    def test_every_slot_has_a_row(self):
        snaps = toy_t3()
        sg = build_block_diagonal(snaps)
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency, allow_isolated=True), 3,
                                    discard_trivial=False)
        table = raw_encoding(basis, sg)
        for (u, tau), row in index_pairs(sg).items():
            assert np.array_equal(table.vector(u, tau)[:3], basis.eigenvectors[row])


class TestAboveDenseCutoff:
    """Windows over DENSE_CUTOFF rows go to ARPACK under method="auto"."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_sbm_churn(600, 4, 0.024, 0.0035, 3, seed=0)

    @staticmethod
    def check(lap, vals, vecs, dense_vals):
        assert lap.size > DENSE_CUTOFF
        assert np.abs(vals - dense_vals).max() < 1e-10
        res = np.linalg.norm(lap.matrix @ vecs - vecs * vals, axis=0)
        assert res.max() <= max(1e-8, 1e-8 * lap.size)

    def test_transformed_window(self, graph):
        snaps = [graph.snapshots[t] for t in window_of(graph, 2, 3).members]
        lap = normalized_laplacian(build(snaps).adjacency)
        auto = smallest_eigenpairs(lap, 8, method="auto")
        dense = smallest_eigenpairs(lap, 8, method="dense")
        self.check(lap, auto.eigenvalues, auto.eigenvectors, dense.eigenvalues)
        assert abs(auto.lambda0) < 1e-12
        assert np.abs(auto.eigenvectors.T @ auto.eigenvectors - np.eye(8)).max() < 1e-10

    @pytest.mark.parametrize("n, p", [(600, None), (300, 0.05)])
    def test_untransformed_window(self, graph, n, p):
        # The churn window has one zero eigenvalue per component, far more
        # than k; the dense ER window has fewer than k.
        g = graph if p is None else generate_erdos_renyi(n, p, 2, seed=4)
        window = window_of(g, 2 if p is None else 1, 2)
        lap = normalized_laplacian(
            build_block_diagonal([g.snapshots[t] for t in window.members]).adjacency,
            allow_isolated=True,
        )
        assert lap.size == n * 2
        k = 8
        auto = compute_window_encoding(g, window, EncodingKind.SLATE_NO_TRANSFORM, k).flat()
        dense = compute_window_encoding(g, window, EncodingKind.SLATE_NO_TRANSFORM, k,
                                        eig_method="dense").flat()
        # the untransformed table has one row per supra row, in row order
        self.check(lap, auto[0, k:], auto[:, :k], dense[0, k:])
        assert np.abs(auto.T[:k] @ auto[:, :k] - np.eye(k)).max() < 1e-10
        zeros = int((np.abs(dense[0, k:]) < 1e-10).sum())
        assert (zeros == k) if p is None else (1 < zeros < k)


def lap_pe_laplacian(snap):
    """The normalized Laplacian of a snapshot's non-isolated subgraph."""
    alive = ~snap.isolation_mask()
    position = np.cumsum(alive) - 1
    return normalized_laplacian(symmetric_adjacency(int(alive.sum()), position[snap.edge_array]))


def sparse_windows():
    """Windows of sparse random graphs: isolated nodes, and snapshots of one
    to several components, so the null space is degenerate in most of them."""
    graphs = [generate_erdos_renyi(n, p, 3, seed=seed)
              for seed, (n, p) in enumerate([(20, 0.08), (30, 0.07), (40, 0.05), (24, 0.12)])]
    graphs += [generate_sbm_churn(48, 2, 0.2, 0.02, 4, seed=seed) for seed in range(3)]
    graphs.append(DynamicGraph(12, (
        Snapshot.from_edges(12, [(0, 3), (3, 5), (5, 7), (7, 9), (9, 1), (2, 4), (4, 6), (6, 8),
                                 (10, 11), (8, 2)]),
        Snapshot.from_edges(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (8, 9)]),
    )))
    for g in graphs:
        for t in range(g.num_snapshots):
            yield g, window_of(g, t, 2)


class TestNullSpace:
    """The null space is written down, one D^{1/2} 1 per component, so the
    encodings that read it do not depend on the solver or its basis."""

    KINDS = (EncodingKind.SLATE_NO_TRANSFORM, EncodingKind.LAPPE_TIME)
    K = 4

    @staticmethod
    def simple_above_null(lap, count):
        # eigenvalues above the null space among the count + 1 smallest are
        # simple, so any solver returns their vectors up to sign
        vals = np.linalg.eigvalsh(lap.matrix.toarray())[:count + 1]
        return bool(np.all(np.diff(vals[vals > 1e-9]) > 1e-6))

    def test_tables_agree_across_methods(self):
        # up to the sign of a column whose largest entries tie in magnitude,
        # which sign canonicalization leaves to rounding
        def max_diff(a, b):
            vecs = np.minimum(np.abs(a - b), np.abs(a + b))[..., :self.K].max(axis=1)
            return max(vecs.max(), np.abs(a - b)[..., self.K:].max())

        checked = 0
        for g, window in sparse_windows():
            snaps = [g.snapshots[t] for t in window.members]
            raw = normalized_laplacian(build_block_diagonal(snaps).adjacency, allow_isolated=True)
            laps = [lap_pe_laplacian(s) for s in snaps if s.num_edges]
            if not all(self.simple_above_null(lap, min(self.K + 1, lap.size))
                       for lap in (raw, *laps)):
                continue
            for kind in self.KINDS:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # zero-padded LapPE columns
                    dense, lanczos = (compute_window_encoding(g, window, kind, self.K, eig_method=m).matrix
                                      for m in ("dense", "lanczos"))
                assert max_diff(dense, lanczos) < 1e-12
            checked += 1
        assert checked >= 12

    def test_tables_ignore_the_dense_null_basis(self, monkeypatch):
        rng = np.random.default_rng(0)
        solve = spectral._dense_eigenpairs
        rotated = []

        def rotating(lap, count):
            vals, vecs = solve(lap, count)
            zeros = int((vals < 1e-9).sum())
            q, _ = np.linalg.qr(rng.standard_normal((zeros, zeros)))
            vecs[:, :zeros] = vecs[:, :zeros] @ q
            rotated.append(zeros)
            return vals, vecs

        for g, window in sparse_windows():
            for kind in self.KINDS:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    expected = compute_window_encoding(g, window, kind, self.K, eig_method="dense").matrix
                    with monkeypatch.context() as patch:
                        patch.setattr(spectral, "_dense_eigenpairs", rotating)
                        table = compute_window_encoding(g, window, kind, self.K, eig_method="dense").matrix
                assert np.abs(table - expected).max() < 1e-12
        assert sum(zeros > 1 for zeros in rotated) >= 5  # a degenerate null space was solved

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_lap_pe_columns_are_component_indicators(self, method):
        # six components among the alive nodes, more than k + 1 = 3, in order
        # of lowest node: path 0-3-6-9, star centred on 4, edge 2-5, and so on
        edges = [(0, 3), (3, 6), (6, 9), (1, 4), (4, 7), (4, 10), (2, 5), (8, 11), (11, 12),
                 (12, 8), (13, 14), (16, 17)]
        g = DynamicGraph(19, (Snapshot.from_edges(19, edges),))
        table = compute_window_encoding(g, window_of(g, 0, 1), EncodingKind.LAPPE_TIME, 2,
                                        eig_method=method)
        pe = table.matrix[0, :, :2]
        star = np.zeros(19)
        star[[1, 4, 7, 10]] = np.sqrt(np.array([1.0, 3.0, 1.0, 1.0]) / 6.0)
        pair = np.zeros(19)
        pair[[2, 5]] = np.sqrt(0.5)
        assert np.abs(pe - np.stack([star, pair], axis=1)).max() < 1e-15


class TestMethodSelection:
    def test_auto_matches_dense_on_small_input(self):
        sg, _ = random_supra(3)
        lap = normalized_laplacian(sg.adjacency)
        auto = smallest_eigenpairs(lap, 3, method="auto")
        dense = smallest_eigenpairs(lap, 3, method="dense")
        assert np.array_equal(auto.eigenvalues, dense.eigenvalues)
        assert np.array_equal(auto.eigenvectors, dense.eigenvectors)

    def test_unknown_method_rejected(self):
        sg, _ = random_supra(3)
        with pytest.raises(ConfigError):
            smallest_eigenpairs(normalized_laplacian(sg.adjacency), 2, method="magic")
