"""Spectrum of the normalized multi-layer Laplacian and per-(node,time) features.

The symmetric-normalized Laplacian of the multi-layer graph has its spectrum in
[0, 2], with one zero eigenvalue per connected component. That null space is
never solved for: its basis is written down, one vector D^{1/2} 1 per component
in order of the component's lowest row, with eigenvalue exactly 0.0, so every
solver returns the same one. The k smallest non-trivial eigenpairs give every
(node, time) slot a feature vector: its k eigenvector entries followed by the k
eigenvalues, with a zero projection half for slots that were isolated and
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

    lambda0 is the discarded trivial eigenvalue, 0.0 (None when nothing was
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

    Idempotent. Among computed magnitudes that tie exactly, argmax takes the
    lowest row. But entries that tie in exact arithmetic (a symmetric
    eigenvector, e.g. of a path or of two mirrored branches) differ by
    rounding, which then picks the entry, so the dense solver and ARPACK can
    still return such an eigenvector with opposite signs.
    """
    rows = np.argmax(np.abs(vectors), axis=0)
    return np.where(vectors[rows, np.arange(vectors.shape[1])] < 0, -vectors, vectors)


def _null_space(lap: NormalizedSupraLaplacian, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Null vectors of the first min(components, count) components, and every
    row's component label and weight z, which span the whole null space."""
    num_comp, labels = connected_components(lap.matrix, directed=False)
    z = np.where(lap.degree > 0, np.sqrt(lap.degree), 1.0)
    z /= np.sqrt(np.bincount(labels, weights=z * z))[labels]
    null_vecs = np.zeros((lap.size, min(num_comp, count)))
    rows = np.flatnonzero(labels < null_vecs.shape[1])
    null_vecs[rows, labels[rows]] = z[rows]
    return null_vecs, labels, z


def _dense_eigenpairs(lap: NormalizedSupraLaplacian, count: int) -> tuple[np.ndarray, np.ndarray]:
    return scipy.linalg.eigh(lap.matrix.toarray(), subset_by_index=[0, count - 1], driver="evr",
                             overwrite_a=True)


def _arpack_eigenpairs(lap: NormalizedSupraLaplacian, count: int, labels: np.ndarray, z: np.ndarray,
                       tol: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The count smallest eigenpairs above the null space that labels and z
    span, from scipy eigsh; see smallest_eigenpairs for the rules."""
    n = lap.size

    def shifted(v):  # L + 3 Z Z^T: the null space moves above the spectrum [0, 2]
        v = v.ravel()
        return lap.matrix @ v + 3.0 * z * np.bincount(labels, weights=z * v)[labels]

    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=shifted, dtype=np.float64),
                           k=count, which="SA", v0=v0, tol=0)
    except ArpackNoConvergence as exc:
        residuals = _residuals(lap, exc.eigenvalues, exc.eigenvectors)
        raise ConvergenceError(f"ARPACK did not converge: {exc}", residuals=residuals) from exc
    except ArpackError as exc:
        raise ConvergenceError(f"ARPACK failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
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
    """k smallest non-trivial eigenpairs: computes k+1 (k with
    discard_trivial=False, which keeps them all and sets lambda0 to None).

    The null space is written down, not solved: one eigenvalue of exactly 0.0
    per connected component, with eigenvector D^{1/2} 1 on it (e_i on an
    isolated row), in order of the component's lowest row. Any orthonormal
    basis of it is valid and sign canonicalization cannot undo a rotation
    inside it, so this one rule makes the features the same for every solver.
    Nothing is solved when it covers every wanted pair. Otherwise "dense" runs
    LAPACK ?syevr (scipy.linalg.eigh with subset_by_index) for the wanted pairs
    only and puts the null vectors in its first columns; "lanczos" gets the
    pairs above the null space from ARPACK (scipy eigsh, smallest algebraic) on
    L with the null space shifted above the spectrum, from a start vector drawn
    from seed, to machine precision. Its pairs are accepted only if every
    residual ||L v - lambda v|| is at most max(tol, 1e-8 * size); otherwise, or
    when ARPACK fails, it raises ConvergenceError. Like any single-vector
    Krylov method it may miss a copy of a repeated non-zero eigenvalue. "auto"
    picks dense up to DENSE_CUTOFF rows, lanczos above.
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
    if method not in ("dense", "lanczos"):
        raise ConfigError(f"unknown eigensolver method {method!r}")
    null_vecs, labels, z = _null_space(lap, count)
    zeros = null_vecs.shape[1]
    if zeros == count:
        vals, vecs = np.zeros(count), null_vecs
    elif method == "dense":
        vals, vecs = _dense_eigenpairs(lap, count)
        vals[:zeros], vecs[:, :zeros] = 0.0, null_vecs
    else:
        vals, vecs = _arpack_eigenpairs(lap, count - zeros, labels, z, tol, seed)
        vals, vecs = np.concatenate([np.zeros(zeros), vals]), np.hstack([null_vecs, vecs])
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    lead = int(discard_trivial)
    return SpectralBasis(eigenvalues=vals[lead:].copy(), eigenvectors=canonicalize_signs(vecs[:, lead:]),
                         lambda0=float(vals[0]) if discard_trivial else None)


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
