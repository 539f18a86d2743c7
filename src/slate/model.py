"""The link-prediction model: learned encodings, one encoder block, edge scoring.

Tokens pair a learned per-node embedding with a learned projection of the
spectral features; a single fully-connected encoder layer mixes all (node,
time) tokens of the window; a cross-attention block between the two temporal
sequences of a node pair, time-pooled and fed to a small MLP, yields the link
logit. A naive per-snapshot Laplacian + sinusoidal-time encoding is provided as
an ablation baseline, as is the raw disconnected-stacking encoding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn
from .dtdg import DynamicGraph, Snapshot, Window
from .errors import ConfigError
from .nn import ParameterStore, Tensor
from .spectral import (
    canonicalize_signs,
    normalized_laplacian,
    raw_encoding,
    smallest_eigenpairs,
    smallest_eigenpairs_raw,  # noqa: F401  (bench/spans.py traces it under this name)
)
from .supra import SupraConfig, build_block_diagonal, build_supra


class EncodingKind(str, Enum):
    SLATE = "slate"
    LAPPE_TIME = "lappe-time"
    SLATE_NO_TRANSFORM = "slate-notransform"


@dataclass(frozen=True)
class PoolingSpec:
    """Time pooling over the final last_k positions of the pairwise sequence."""

    kind: str = "mean"  # "mean" | "max"
    last_k: int = 3

    def __post_init__(self):
        if self.kind not in ("mean", "max"):
            raise ConfigError(f"unknown pooling kind {self.kind!r}")
        if self.last_k < 1:
            raise ConfigError("pooling last_k must be >= 1")


@dataclass(frozen=True)
class BaselineEncodingTable:
    """Per-(node, window position) features for the naive baseline encoding:
    k per-snapshot eigenvector entries followed by a sinusoidal time code."""

    matrix: np.ndarray  # (num_members, num_nodes, k + d_time)

    def flat(self) -> np.ndarray:
        return self.matrix.reshape(self.matrix.shape[0] * self.matrix.shape[1], -1)


class SlateModel:
    """Parameter bundle and forward passes for dynamic link prediction.

    Token dimension d splits exactly into (d - k) embedding dims and k encoding
    dims. All parameters live in one seed-deterministic store. w, encoding, k,
    d_time and vn_fallback_link also fix how every window is encoded.
    """

    def __init__(
        self,
        num_nodes: int,
        d: int = 128,
        k: int = 8,
        w: int = 3,
        heads: int = 2,
        nhead_xa: int = 2,
        ffn_dim: int = 128,
        norm_first: bool = True,
        pooling: PoolingSpec = PoolingSpec(),
        encoding: EncodingKind = EncodingKind.SLATE,
        d_time: int = 8,
        use_edge_module: bool = True,
        symmetrize: bool = False,
        vn_fallback_link: bool = False,
        seed: int = 0,
    ):
        if k >= d:
            raise ConfigError(f"need k < d, got k={k}, d={d}")
        if w < 1:
            raise ConfigError("window size must be >= 1")
        self.num_nodes = num_nodes
        self.d = d
        self.k = k
        self.w = w
        self.nhead_xa = nhead_xa
        self.pooling = pooling
        self.encoding = EncodingKind(encoding)
        self.d_time = d_time
        self.use_edge_module = use_edge_module
        self.symmetrize = symmetrize
        self.vn_fallback_link = vn_fallback_link

        feat = d - k
        st_in = k + d_time if self.encoding == EncodingKind.LAPPE_TIME else 2 * k
        self.st_in = st_in
        store = ParameterStore(seed)
        self.embed_table = store.embedding("embed.table", num_nodes, feat)
        self.ge_w = store.weight("embed.proj.w", feat, feat)
        self.ge_b = store.zeros("embed.proj.b", feat)
        self.st_w = store.weight("st.proj.w", st_in, k)
        self.st_b = store.zeros("st.proj.b", k)
        self.encoder = nn.init_encoder_layer(store, "encoder", d, heads, ffn_dim, norm_first)
        if use_edge_module:
            self.xa = nn.init_attention(store, "xa", d)
            self.xa_ln_g = store.ones("xa.ln.gamma", d)
            self.xa_ln_b = store.zeros("xa.ln.beta", d)
            head_in = d
        else:
            head_in = 2 * d
        self.head_w1 = store.weight("head.w1", head_in, d)
        self.head_b1 = store.zeros("head.b1", d)
        self.head_w2 = store.weight("head.w2", d, 1)
        self.head_b2 = store.zeros("head.b2", 1)
        self.store = store

    def param_groups(self) -> dict[str, list[str]]:
        names = list(self.store.parameters())
        return {
            "embed": [n for n in names if n.startswith("embed.")],
            "st": [n for n in names if n.startswith("st.")],
            "encoder": [n for n in names if n.startswith("encoder.")],
            "xa": [n for n in names if n.startswith("xa.")],
            "head": [n for n in names if n.startswith("head.")],
        }

    # -- forward passes ------------------------------------------------------

    def token_sequence(self, raw, num_members: int) -> Tensor:
        """Stack per-(node, time) tokens: embedding projection next to encoding
        projection. Row order is window position major, node id minor."""
        raw_t = raw if isinstance(raw, Tensor) else Tensor(raw.flat())
        expected = (num_members * self.num_nodes, self.st_in)
        if raw_t.shape != expected:
            raise ConfigError(f"encoding table shape {raw_t.shape}, expected {expected}")
        emb = nn.linear(self.embed_table, self.ge_w, self.ge_b)
        emb = nn.repeat_rows(emb, num_members)
        enc = nn.linear(raw_t, self.st_w, self.st_b)
        return nn.concat_last([emb, enc])

    def encode(self, z: Tensor, return_weights: bool = False):
        """One encoder layer of dense self-attention over all tokens of the
        window. With return_weights, also returns that layer's detached
        attention probabilities, shape (heads, tokens, tokens)."""
        return nn.encoder_layer(z, self.encoder, return_weights=return_weights)

    def _sequence_indices(self, nodes: np.ndarray, num_members: int) -> np.ndarray:
        return np.arange(num_members)[None, :] * self.num_nodes + np.asarray(nodes)[:, None]

    def _pool(self, seq: Tensor, pool: PoolingSpec) -> Tensor:
        length = seq.shape[1]
        last = min(pool.last_k, length)
        sliced = nn.slice_axis1(seq, length - last, length)
        return nn.mean_axis(sliced, 1) if pool.kind == "mean" else nn.max_axis(sliced, 1)

    def _pair_logits(self, zt: Tensor, pairs: np.ndarray, pool: PoolingSpec) -> Tensor:
        num_members = zt.shape[0] // self.num_nodes
        seq_u = nn.gather_rows(zt, self._sequence_indices(pairs[:, 0], num_members))
        seq_v = nn.gather_rows(zt, self._sequence_indices(pairs[:, 1], num_members))
        if self.use_edge_module:
            att = nn.multi_head_attention(seq_u, seq_v, self.nhead_xa, self.xa)
            e = nn.layer_norm(nn.add(seq_u, att), self.xa_ln_g, self.xa_ln_b)
            pooled = self._pool(e, pool)
        else:
            pooled = nn.concat_last([self._pool(seq_u, pool), self._pool(seq_v, pool)])
        h = nn.relu(nn.linear(pooled, self.head_w1, self.head_b1))
        return nn.reshape(nn.linear(h, self.head_w2, self.head_b2), (len(pairs),))

    def edge_logits(self, zt: Tensor, pairs: np.ndarray, pool: PoolingSpec | None = None) -> Tensor:
        """Link logits for an array of ordered (u, v) pairs, shape (B,)."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("edge scoring needs two distinct nodes")
        if pairs.min(initial=0) < 0 or pairs.max(initial=0) >= self.num_nodes:
            raise ValueError(f"node id outside [0,{self.num_nodes})")
        pool = self.pooling if pool is None else pool
        logits = self._pair_logits(zt, pairs, pool)
        if self.symmetrize:
            flipped = self._pair_logits(zt, pairs[:, ::-1], pool)
            logits = nn.mul_scalar(nn.add(logits, flipped), 0.5)
        return logits

    def edge_probability(self, zt: Tensor, u: int, v: int, pool: PoolingSpec | None = None):
        """Logit tensor and link probability for one node pair."""
        logits = self.edge_logits(zt, np.array([[u, v]]), pool)
        logit = nn.reshape(logits, ())
        return logit, float(nn._sigmoid(logit.data))


# ---------------------------------------------------------------------------
# Window encodings
# ---------------------------------------------------------------------------


def time_encoding(t: int, d_time: int) -> np.ndarray:
    """Sinusoidal code of the snapshot index: even dims sin(t / 10000^(2j/d)),
    odd dims cos(t / 10000^((2j+1)/d))."""
    j = np.arange(d_time)
    expo = np.where(j % 2 == 0, 2.0 * j, 2.0 * j + 1.0) / d_time
    angle = t / np.power(10000.0, expo)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle))


def _snapshot_lap_pe(snap: Snapshot, k: int) -> tuple[np.ndarray, bool]:
    """First k non-trivial eigenvector entries of the snapshot's normalized
    Laplacian, computed on its non-isolated subgraph; zero rows for isolated
    nodes, zero-padded columns when the subgraph is too small."""
    out = np.zeros((snap.num_nodes, k))
    alive = np.flatnonzero(~snap.isolation_mask())
    m = len(alive)
    if m == 0:
        return out, True
    pos = {int(u): i for i, u in enumerate(alive)}
    a = np.zeros((m, m))
    for u, v in snap.edges:
        a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
    deg = a.sum(axis=1)
    dinv = 1.0 / np.sqrt(deg)  # alive nodes have degree >= 1
    lap = np.eye(m) - a * dinv[:, None] * dinv[None, :]
    vals, vecs = np.linalg.eigh(lap)
    avail = min(k, m - 1)
    if avail > 0:
        out[alive, :avail] = canonicalize_signs(vecs[:, 1:1 + avail])
    return out, avail < k


def lap_pe_time_encoding(
    snapshots: list[Snapshot], k: int, d_time: int, members
) -> BaselineEncodingTable:
    """Naive baseline: per-snapshot Laplacian eigenvector entries next to a
    sinusoidal code of the snapshot's absolute index."""
    n = snapshots[0].num_nodes
    table = np.zeros((len(snapshots), n, k + d_time))
    padded = 0
    for tau, snap in enumerate(snapshots):
        pe, short = _snapshot_lap_pe(snap, k)
        padded += int(short)
        table[tau, :, :k] = pe
        table[tau, :, k:] = time_encoding(int(members[tau]), d_time)
    if padded:
        warnings.warn(
            f"zero-padded eigenvector entries for {padded} snapshot(s) with fewer than "
            f"k+1 non-isolated nodes", stacklevel=2,
        )
    return BaselineEncodingTable(matrix=table)


def compute_window_encoding(
    g: DynamicGraph,
    window: Window,
    kind: EncodingKind,
    k: int,
    d_time: int = 8,
    supra_cfg: SupraConfig = SupraConfig(),
    eig_method: str = "auto",
    eig_tol: float = 1e-8,
    eig_seed: int = 0,
):
    """Per-(node, window position) features for one window, by encoding kind."""
    snapshots = [g.snapshots[t] for t in window.members]
    kind = EncodingKind(kind)
    if kind == EncodingKind.SLATE:
        masks = [s.isolation_mask() for s in snapshots]
        sg = build_supra(snapshots, masks, supra_cfg, window)
        lap = normalized_laplacian(sg)
        basis = smallest_eigenpairs(lap, k, method=eig_method, tol=eig_tol, seed=eig_seed)
        return raw_encoding(basis, sg, g.num_nodes)
    if kind == EncodingKind.SLATE_NO_TRANSFORM:
        sg = build_block_diagonal(snapshots, window)
        lap = normalized_laplacian(sg, allow_isolated=True)
        basis = smallest_eigenpairs(lap, k, method=eig_method, tol=eig_tol, seed=eig_seed,
                                    discard_trivial=False)
        return raw_encoding(basis, sg, g.num_nodes)
    if kind == EncodingKind.LAPPE_TIME:
        return lap_pe_time_encoding(snapshots, k, d_time, window.members)
    raise ConfigError(f"unknown encoding kind {kind!r}")
