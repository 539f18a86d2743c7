"""Spectrum of the normalized multi-layer Laplacian and per-(node,time) features.

The symmetric-normalized Laplacian of the multi-layer graph has its spectrum in
[0, 2]; for a connected graph exactly one eigenvalue is (numerically) zero and
the next one is strictly positive. The k smallest non-trivial eigenpairs give
every (node, time) slot a feature vector: its k eigenvector entries followed by
the k eigenvalues, with a zero projection half for slots that were isolated and
therefore have no row in the graph (rows[tau, u] == -1). normalized_laplacian
takes a bare adjacency, so the per-snapshot LapPE baseline builds its Laplacian
here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigError, ConvergenceError, SlateError
from .supra import SupraGraph

DENSE_CUTOFF = 512  # auto: dense up to here; ?syevr vs ARPACK: 11 vs 20 ms at ~410 rows, 34 vs 26 ms at ~600


@dataclass(frozen=True)
class NormalizedSupraLaplacian:
    """I - D^{-1/2} A D^{-1/2} with per-row degrees kept for diagnostics."""

    matrix: sp.csr_array
    degree: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralBasis:
    """k smallest non-trivial eigenpairs, unit-norm and sign-canonical.

    lambda0 is the discarded trivial eigenvalue (None when nothing was
    discarded, as in the raw disconnected variant).
    """

    eigenvalues: np.ndarray  # (k,), ascending
    eigenvectors: np.ndarray  # (size, k), orthonormal columns
    lambda0: float | None

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def normalized_laplacian(adjacency: sp.csr_array, allow_isolated: bool = False) -> NormalizedSupraLaplacian:
    """Symmetric-normalized Laplacian of an undirected adjacency: a multi-layer
    graph's, or one snapshot's non-isolated subgraph for the LapPE baseline.

    Zero-degree rows are an upstream construction bug for the transformed
    graph; allow_isolated admits them (raw block-diagonal variant) with the
    convention that their diagonal entry is 0, so each isolated row contributes
    one zero eigenvalue, like any other connected component.
    """
    deg = np.asarray(adjacency.sum(axis=1)).ravel()
    if not allow_isolated and np.any(deg == 0):
        raise SlateError("zero-degree row in a transformed multi-layer graph (construction bug)")
    with np.errstate(divide="ignore"):
        dinv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    a = adjacency.tocoo()
    alive = np.flatnonzero(deg > 0)
    data = np.concatenate([-a.data * dinv_sqrt[a.row] * dinv_sqrt[a.col], np.ones(len(alive))])
    row = np.concatenate([a.row, alive])
    col = np.concatenate([a.col, alive])
    lap = sp.coo_array((data, (row, col)), shape=a.shape).tocsr()
    return NormalizedSupraLaplacian(matrix=lap, degree=deg)


def canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Ties resolve to the lowest row index, which argmax already guarantees.
    Idempotent; makes bases independent of eigensolver-internal sign choices.
    """
    out = vectors.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def _dense_eigenpairs(lap: NormalizedSupraLaplacian, count: int) -> tuple[np.ndarray, np.ndarray]:
    return scipy.linalg.eigh(lap.matrix.toarray(), subset_by_index=[0, count - 1], driver="evr",
                             overwrite_a=True)


def _arpack_eigenpairs(
    lap: NormalizedSupraLaplacian, count: int, tol: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Null space from the components, the rest from scipy eigsh; see
    smallest_eigenpairs for the rules."""
    n = lap.size
    # One zero eigenvalue per component, with eigenvector D^{1/2} 1 on it (e_i
    # on an isolated row). A Krylov method finds only one copy of a repeated
    # eigenvalue reliably, so the null space is written down instead of solved.
    num_comp, labels = connected_components(lap.matrix, directed=False)
    z = np.where(lap.degree > 0, np.sqrt(lap.degree), 1.0)
    z /= np.sqrt(np.bincount(labels, weights=z * z))[labels]
    zeros = min(num_comp, count)
    null_vecs = np.zeros((n, zeros))
    rows = np.flatnonzero(labels < zeros)
    null_vecs[rows, labels[rows]] = z[rows]
    if zeros == count:
        return np.zeros(count), null_vecs

    def shifted(v):  # L + 3 Z Z^T: the null space moves above the spectrum [0, 2]
        v = v.ravel()
        return lap.matrix @ v + 3.0 * z * np.bincount(labels, weights=z * v, minlength=num_comp)[labels]

    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=shifted, dtype=np.float64),
                           k=count - zeros, which="SA", v0=v0, tol=0)
    except ArpackNoConvergence as exc:
        residuals = _residuals(lap, exc.eigenvalues, exc.eigenvectors)
        raise ConvergenceError(f"ARPACK did not converge: {exc}", residuals=residuals) from exc
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from exc
    order = np.argsort(vals)
    vals = np.concatenate([np.zeros(zeros), vals[order]])
    vecs = np.hstack([null_vecs, vecs[:, order]])
    residuals = _residuals(lap, vals, vecs)
    if np.any(residuals > max(tol, 1e-8 * n)):
        raise ConvergenceError(
            f"ARPACK eigenpairs above tolerance (max residual {residuals.max():.3e}, tol {tol:.1e})",
            residuals=residuals,
        )
    return vals, vecs


def _residuals(lap: NormalizedSupraLaplacian, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return np.linalg.norm(lap.matrix @ vecs - vecs * vals, axis=0)


def smallest_eigenpairs(
    lap: NormalizedSupraLaplacian,
    k: int,
    method: str = "auto",
    tol: float = 1e-8,
    seed: int = 0,
    discard_trivial: bool = True,
) -> SpectralBasis:
    """k smallest non-trivial eigenpairs: computes k+1, discards the trivial one.

    method "dense" is the exact path: LAPACK ?syevr (scipy.linalg.eigh with
    subset_by_index) on the dense matrix, which computes only the k+1 wanted
    pairs (k with discard_trivial=False), not the whole spectrum.
    "lanczos" writes the null space down, one vector D^{1/2} 1 per connected
    component in order of its lowest row, and gets the remaining pairs from
    ARPACK's implicitly restarted Lanczos (scipy eigsh, smallest algebraic) on
    L with that null space shifted above the spectrum, from a start vector
    drawn from seed and converged to machine precision. Its pairs are accepted
    only if every residual ||L v - lambda v|| is at most max(tol, 1e-8 * size);
    otherwise, or when ARPACK fails, it raises ConvergenceError. Like any
    single-vector Krylov method it may miss a copy of a repeated non-zero
    eigenvalue. "auto" picks dense up to DENSE_CUTOFF rows, lanczos above.

    With discard_trivial=False the k smallest are returned as they are and
    lambda0 is None. The raw disconnected stacking has one zero eigenvalue per
    component, often far more than k; any orthonormal basis of that null space
    is then a valid answer, the dense path returns an arbitrary one, and sign
    canonicalization cannot undo a rotation inside it.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    count = k + 1 if discard_trivial else k
    if count > lap.size:
        raise ConfigError(f"k = {k} needs {count} eigenpairs, matrix size is {lap.size}")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    if method == "auto":
        method = "dense" if lap.size <= DENSE_CUTOFF else "lanczos"
    if method == "dense":
        vals, vecs = _dense_eigenpairs(lap, count)
    elif method == "lanczos":
        vals, vecs = _arpack_eigenpairs(lap, count, tol, seed)
    else:
        raise ConfigError(f"unknown eigensolver method {method!r}")
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    if not discard_trivial:
        return SpectralBasis(eigenvalues=vals.copy(), eigenvectors=canonicalize_signs(vecs), lambda0=None)
    return SpectralBasis(
        eigenvalues=vals[1:].copy(),
        eigenvectors=canonicalize_signs(vecs[:, 1:]),
        lambda0=float(vals[0]),
    )


def smallest_eigenpairs_raw(
    lap: NormalizedSupraLaplacian, k: int, method: str = "auto", tol: float = 1e-8, seed: int = 0
) -> SpectralBasis:
    """smallest_eigenpairs(..., discard_trivial=False) under its former name,
    which bench/spans.py still looks up in slate.model to trace it."""
    return smallest_eigenpairs(lap, k, method, tol, seed, discard_trivial=False)


@dataclass(frozen=True)
class RawEncodingTable:
    """Feature vector for every (node, window position): k eigenvector entries
    (zero when the slot has no row) followed by the k shared eigenvalues."""

    matrix: np.ndarray  # (num_members, num_nodes, 2k)
    k: int

    @property
    def num_members(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[1]

    def vector(self, u: int, tau: int) -> np.ndarray:
        return self.matrix[tau, u]

    def flat(self) -> np.ndarray:
        """(num_members * num_nodes, 2k), window position major, node minor."""
        return self.matrix.reshape(-1, 2 * self.k)


def raw_encoding(basis: SpectralBasis, sg: SupraGraph) -> RawEncodingTable:
    """Scatter eigenvector rows into the (node, window position) table through
    sg.rows.

    Slots without a row (isolated at that time) keep a zero projection half;
    virtual rows never contribute. The eigenvalue half is shared by all slots.
    """
    k = basis.k
    table = np.zeros((sg.num_members, sg.num_nodes, 2 * k))
    table[:, :, k:] = basis.eigenvalues
    has_row = sg.rows >= 0
    table[has_row, :k] = basis.eigenvectors[sg.rows[has_row]]
    return RawEncodingTable(matrix=table, k=k)


def projection_csv_lines(table: RawEncodingTable, window_members) -> list[str]:
    """Rows `node,tau,lambda_index,eigenvalue,projection` for external plotting."""
    lines = ["node,tau,lambda_index,eigenvalue,projection"]
    k = table.k
    for tau_rel in range(table.num_members):
        t = window_members[tau_rel]
        for u in range(table.num_nodes):
            vec = table.matrix[tau_rel, u]
            for i in range(k):
                lines.append(f"{u},{t},{i + 1},{vec[k + i]:.12g},{vec[i]:.12g}")
    return lines
