import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from slate import spectral
from slate.dtdg import generate_erdos_renyi, generate_sbm_churn, window_of
from slate.errors import ConfigError, ConvergenceError
from slate.model import EncodingKind, compute_window_encoding
from slate.spectral import (
    DENSE_CUTOFF,
    canonicalize_signs,
    normalized_laplacian,
    raw_encoding,
    smallest_eigenpairs,
)
from slate.supra import build_block_diagonal, build_supra

from test_supra import build, supra_from_dense, toy_t3


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
        lap = normalized_laplacian(sg)
        assert np.allclose(lap.matrix.toarray(), [[1, -1], [-1, 1]])
        basis = smallest_eigenpairs(lap, 1)
        assert abs(basis.lambda0) < 1e-12
        assert abs(basis.eigenvalues[0] - 2.0) < 1e-12

    def test_triangle_spectrum(self):
        a = 1.0 - np.eye(3)
        expected = dense_oracle_eigenvalues(a)  # {0, 1.5, 1.5}
        assert np.allclose(expected, [0.0, 1.5, 1.5])
        basis = smallest_eigenpairs(normalized_laplacian(supra_from_dense(a)), 2)
        assert np.allclose(basis.eigenvalues, [1.5, 1.5], atol=1e-12)

    def test_p4_fiedler_value(self):
        # dense oracle on the 4x4 normalized Laplacian of the path 0-1-2-3
        a = path_graph(4)
        oracle = np.sort(dense_oracle_eigenvalues(a))
        basis = smallest_eigenpairs(normalized_laplacian(supra_from_dense(a)), 1)
        assert abs(basis.eigenvalues[0] - oracle[1]) < 1e-12
        assert abs(oracle[1] - 0.5) < 1e-12  # frozen oracle value

    def test_toy_t3_spectrum_in_range(self):
        sg = build(toy_t3())
        lap = normalized_laplacian(sg)
        dense = lap.matrix.toarray()
        assert np.allclose(dense, dense.T)
        vals = np.linalg.eigvalsh(dense)
        assert vals.min() > -1e-12 and vals.max() < 2.0 + 1e-12
        assert np.allclose(np.diag(dense), 1.0)  # every row has degree > 0

    def test_zero_degree_row_rejected_unless_allowed(self):
        sg = supra_from_dense(np.zeros((2, 2)))
        with pytest.raises(Exception):
            normalized_laplacian(sg)
        lap = normalized_laplacian(sg, allow_isolated=True)
        assert np.allclose(lap.matrix.toarray(), 0.0)


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
            basis = smallest_eigenpairs(normalized_laplacian(sg), 3)
            assert abs(basis.lambda0) < 1e-8
            assert basis.eigenvalues[0] > 1e-8

    def test_eigen_residuals_dense(self):
        for seed in (1, 2, 3):
            sg, _ = random_supra(seed)
            lap = normalized_laplacian(sg)
            basis = smallest_eigenpairs(lap, 4, method="dense")
            res = lap.matrix @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
            assert np.linalg.norm(res, axis=0).max() < 1e-8 * lap.size

    def test_lanczos_matches_dense(self):
        checked = 0
        seed = 0
        while checked < 10:
            seed += 1
            sg, _ = random_supra(seed, n_lo=10, n_hi=30, w_hi=4)
            lap = normalized_laplacian(sg)
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
        lap = normalized_laplacian(sg)
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
        once = canonicalize_signs(v)
        assert np.array_equal(once, canonicalize_signs(once))
        for j in range(once.shape[1]):
            i = np.argmax(np.abs(once[:, j]))
            assert once[i, j] > 0

    def test_k_too_large_rejected(self):
        sg = supra_from_dense([[0, 1], [1, 0]])
        with pytest.raises(ConfigError):
            smallest_eigenpairs(normalized_laplacian(sg), 2)

    @pytest.mark.parametrize("failure", ["no-convergence", "arpack-error"])
    def test_arpack_errors_become_convergence_errors(self, monkeypatch, failure):
        sg, _ = random_supra(3)
        lap = normalized_laplacian(sg)
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


class TestRawEncoding:
    def test_isolated_rows_are_zero_projection(self):
        snaps = toy_t3()
        sg = build(snaps)
        basis = smallest_eigenpairs(normalized_laplacian(sg), 2)
        table = raw_encoding(basis, sg, 5)
        # node 3 is isolated at window position 1 but alive at position 0
        assert np.allclose(table.vector(3, 1)[:2], 0.0)
        assert not np.allclose(table.vector(3, 0)[:2], 0.0)
        assert not np.array_equal(table.vector(3, 0), table.vector(3, 1))

    def test_eigenvalue_half_is_global(self):
        sg = build(toy_t3())
        basis = smallest_eigenpairs(normalized_laplacian(sg), 3)
        table = raw_encoding(basis, sg, 5)
        assert np.allclose(table.matrix[:, :, 3:], basis.eigenvalues)

    def test_isolated_slots_share_one_vector(self):
        sg = build(toy_t3())
        basis = smallest_eigenpairs(normalized_laplacian(sg), 2)
        table = raw_encoding(basis, sg, 5)
        # nodes 2, 3, 4 are all isolated at window position 1
        assert np.array_equal(table.vector(2, 1), table.vector(3, 1))
        assert np.array_equal(table.vector(3, 1), table.vector(4, 1))

    def test_projection_matches_index_map_lookup(self):
        sg = build(toy_t3())
        basis = smallest_eigenpairs(normalized_laplacian(sg), 2)
        table = raw_encoding(basis, sg, 5)
        for (u, tau), row in sg.index_map.items():
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
            lap = normalized_laplacian(sg)
            full = np.linalg.eigvalsh(lap.matrix.toarray())
            if np.any(np.diff(full[:4]) < 1e-6):
                continue  # avoid degenerate spectra; rotation inside an
                # eigenspace would make single vectors incomparable
            basis = smallest_eigenpairs(lap, 2)
            table = raw_encoding(basis, sg, 8)

            perm = rng.permutation(8)
            from slate.dtdg import Snapshot
            psnaps = [
                Snapshot.from_edges(8, [(int(perm[u]), int(perm[v])) for u, v in s.edges])
                for s in snaps
            ]
            psg = build(psnaps)
            pbasis = smallest_eigenpairs(normalized_laplacian(psg), 2)
            ptable = raw_encoding(pbasis, psg, 8)

            assert np.allclose(pbasis.eigenvalues, basis.eigenvalues, atol=1e-9)
            for tau in range(3):
                for u in range(8):
                    assert np.allclose(
                        ptable.vector(int(perm[u]), tau), table.vector(u, tau), atol=1e-6
                    )
            checked += 1

    def test_fiedler_layer_separation_on_dense_toy(self):
        g = generate_erdos_renyi(10, 0.6, 3, seed=7)
        snaps = list(g.snapshots)
        assert all(not s.isolation_mask().any() for s in snaps)
        sg = build(snaps)
        basis = smallest_eigenpairs(normalized_laplacian(sg), 1)
        table = raw_encoding(basis, sg, 10)
        layer_means = [table.matrix[tau, :, 0].mean() for tau in range(3)]
        assert max(layer_means) - min(layer_means) > 1e-3


class TestRawVariant:
    def test_zero_multiplicity_counts_components(self):
        snaps = toy_t3()
        sg = build_block_diagonal(snaps)
        lap = normalized_laplacian(sg, allow_isolated=True)
        vals = np.linalg.eigvalsh(lap.matrix.toarray())
        assert (np.abs(vals) < 1e-10).sum() == 8  # one zero per component
        basis = smallest_eigenpairs(lap, 4, discard_trivial=False)
        assert basis.lambda0 is None
        assert np.all(np.abs(basis.eigenvalues) < 1e-10)

    def test_every_slot_has_a_row(self):
        snaps = toy_t3()
        sg = build_block_diagonal(snaps)
        basis = smallest_eigenpairs(normalized_laplacian(sg, allow_isolated=True), 3,
                                    discard_trivial=False)
        table = raw_encoding(basis, sg, 5)
        for (u, tau), row in sg.index_map.items():
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
        lap = normalized_laplacian(build(snaps))
        auto = smallest_eigenpairs(lap, 8, method="auto")
        dense = smallest_eigenpairs(lap, 8, method="dense")
        self.check(lap, auto.eigenvalues, auto.eigenvectors, dense.eigenvalues)
        assert abs(auto.lambda0) < 1e-12
        assert np.abs(auto.eigenvectors.T @ auto.eigenvectors - np.eye(8)).max() < 1e-10

    @pytest.mark.parametrize("n, p", [(600, None), (300, 0.05)])
    def test_untransformed_window(self, graph, n, p):
        # The churn window has one zero eigenvalue per component, far more
        # than k, and an arbitrary basis for them: only eigenvalues and
        # residuals are compared. The dense ER window has fewer than k.
        g = graph if p is None else generate_erdos_renyi(n, p, 2, seed=4)
        window = window_of(g, 2 if p is None else 1, 2)
        lap = normalized_laplacian(
            build_block_diagonal([g.snapshots[t] for t in window.members]), allow_isolated=True
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


class TestMethodSelection:
    def test_auto_matches_dense_on_small_input(self):
        sg, _ = random_supra(3)
        lap = normalized_laplacian(sg)
        auto = smallest_eigenpairs(lap, 3, method="auto")
        dense = smallest_eigenpairs(lap, 3, method="dense")
        assert np.array_equal(auto.eigenvalues, dense.eigenvalues)
        assert np.array_equal(auto.eigenvectors, dense.eigenvectors)

    def test_unknown_method_rejected(self):
        sg, _ = random_supra(3)
        with pytest.raises(ConfigError):
            smallest_eigenpairs(normalized_laplacian(sg), 2, method="magic")
