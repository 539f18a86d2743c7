"""The link-prediction model: learned encodings, one encoder block, edge scoring.

Tokens pair a learned per-node embedding with a learned projection of the
spectral features; a single fully-connected encoder layer mixes all (node,
time) tokens of the window; a cross-attention block between the two temporal
sequences of a node pair, time-pooled and fed to a small MLP, yields the link
logit. The block projects the encoder's token table once per call and gathers
each pair's query, key and value rows from the projections, so pairs that share
a node share its projected rows. A naive per-snapshot Laplacian +
sinusoidal-time encoding is provided as an ablation baseline, as is the raw
disconnected-stacking encoding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .dtdg import DynamicGraph, Snapshot, Window
from .errors import ConfigError, NodeBoundsError
from .nn import ParameterStore, Tensor
from .spectral import (
    SpectralBasis,
    normalized_laplacian,
    raw_encoding,
    smallest_eigenpairs,
    smallest_eigenpairs_raw,  # noqa: F401  (bench/spans.py traces it under this name)
)
from .supra import SupraGraph, build_block_diagonal, build_supra, symmetric_adjacency

if TYPE_CHECKING:
    from .training import TrainConfig


class EncodingKind(str, Enum):
    SLATE = "slate"
    LAPPE_TIME = "lappe-time"
    SLATE_NO_TRANSFORM = "slate-notransform"


def encoding_kind(name: str) -> EncodingKind:
    """The EncodingKind named by name; ConfigError for an unknown name."""
    try:
        return EncodingKind(name)
    except ValueError:
        known = ", ".join(kind.value for kind in EncodingKind)
        raise ConfigError(f"unknown encoding {name!r}; expected one of {known}") from None


@dataclass(frozen=True)
class BaselineEncodingTable:
    """Per-(node, window position) features for the naive baseline encoding:
    k per-snapshot eigenvector entries followed by a sinusoidal time code."""

    matrix: np.ndarray  # (num_members, num_nodes, k + d_time)

    def flat(self) -> np.ndarray:
        return self.matrix.reshape(self.matrix.shape[0] * self.matrix.shape[1], -1)


class SlateModel:
    """Parameter bundle and forward passes for dynamic link prediction.

    cfg (a training.TrainConfig) holds every setting. Token dimension d splits
    exactly into (d - k) embedding dims and k encoding dims. All parameters live
    in one store seeded by cfg.seed. cfg's w, encoding, k, d_time and
    vn_fallback_link also fix how every window is encoded.
    """

    def __init__(self, num_nodes: int, cfg: TrainConfig, symmetrize: bool = False):
        self.num_nodes = num_nodes
        self.cfg = cfg
        self.symmetrize = symmetrize

        d, k = cfg.d, cfg.k
        feat = d - k
        self.st_in = k + cfg.d_time if cfg.encoding == EncodingKind.LAPPE_TIME else 2 * k
        store = ParameterStore(cfg.seed)
        self.embed_table = store.embedding("embed.table", num_nodes, feat)
        self.ge_w = store.weight("embed.proj.w", feat, feat)
        self.ge_b = store.zeros("embed.proj.b", feat)
        self.st_w = store.weight("st.proj.w", self.st_in, k)
        self.st_b = store.zeros("st.proj.b", k)
        self.encoder = nn.init_encoder_layer(store, "encoder", d, cfg.heads, cfg.ffn_dim,
                                             cfg.norm_first)
        if cfg.use_edge_module:
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

    def encode(self, z: Tensor) -> Tensor:
        """One encoder layer of dense self-attention over all tokens of the
        window. Equal tokens, such as one node's isolated slots, are computed
        once, exactly (see nn.encoder_layer)."""
        return nn.encoder_layer(z, self.encoder)

    def _sequence_indices(self, nodes: np.ndarray, num_members: int) -> np.ndarray:
        return np.arange(num_members)[None, :] * self.num_nodes + np.asarray(nodes)[:, None]

    def _pool(self, seq: Tensor) -> Tensor:
        """Time pooling over the last cfg.pool_last_k positions of the sequence;
        the whole sequence, not a copy of it, when it has no more positions."""
        length = seq.shape[1]
        sliced = seq
        if self.cfg.pool_last_k < length:
            sliced = nn.slice_axis1(seq, length - self.cfg.pool_last_k, length)
        return nn.mean_axis(sliced, 1) if self.cfg.pooling == "mean" else nn.max_axis(sliced, 1)

    def _pair_logits(self, zt: Tensor, pairs: np.ndarray) -> Tensor:
        num_members = zt.shape[0] // self.num_nodes
        rows_u = self._sequence_indices(pairs[:, 0], num_members)
        rows_v = self._sequence_indices(pairs[:, 1], num_members)
        seq_u = nn.gather_rows(zt, rows_u)
        if self.cfg.use_edge_module:
            att = nn.multi_head_attention(zt, zt, self.cfg.nhead_xa, self.xa, rows=(rows_u, rows_v))
            e = nn.layer_norm(nn.add(seq_u, att), self.xa_ln_g, self.xa_ln_b)
            pooled = self._pool(e)
        else:
            seq_v = nn.gather_rows(zt, rows_v)
            pooled = nn.concat_last([self._pool(seq_u), self._pool(seq_v)])
        h = nn.relu(nn.linear(pooled, self.head_w1, self.head_b1))
        return nn.reshape(nn.linear(h, self.head_w2, self.head_b2), (len(pairs),))

    def edge_logits(self, zt: Tensor, pairs: np.ndarray) -> Tensor:
        """Link logits for an array of ordered (u, v) pairs, shape (B,)."""
        pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ConfigError("edge scoring needs two distinct nodes")
        if pairs.min(initial=0) < 0 or pairs.max(initial=0) >= self.num_nodes:
            raise NodeBoundsError(f"node id outside [0,{self.num_nodes})")
        logits = self._pair_logits(zt, pairs)
        if self.symmetrize:
            flipped = self._pair_logits(zt, pairs[:, ::-1])
            logits = nn.mul_scalar(nn.add(logits, flipped), 0.5)
        return logits


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


def _snapshot_lap_pe(snap: Snapshot, k: int, eig_method: str = "auto") -> tuple[np.ndarray, bool]:
    """First k non-trivial eigenvector entries of the snapshot's normalized
    Laplacian, computed on its non-isolated subgraph; zero rows for isolated
    nodes, zero-padded columns when the subgraph is too small. On a subgraph
    with several components the first columns are the components' null
    vectors (see smallest_eigenpairs)."""
    out = np.zeros((snap.num_nodes, k))
    alive = ~snap.isolation_mask()
    m = int(alive.sum())
    if m == 0:
        return out, True
    position = np.cumsum(alive) - 1  # row of each alive node in the subgraph
    lap = normalized_laplacian(symmetric_adjacency(m, position[snap.edge_array]))
    avail = min(k, m - 1)
    out[alive, :avail] = smallest_eigenpairs(lap, avail, method=eig_method).eigenvectors
    return out, avail < k


def lap_pe_time_encoding(
    snapshots: list[Snapshot], k: int, d_time: int, members, eig_method: str = "auto"
) -> BaselineEncodingTable:
    """Naive baseline: per-snapshot Laplacian eigenvector entries next to a
    sinusoidal code of the snapshot's absolute index."""
    n = snapshots[0].num_nodes
    table = np.zeros((len(snapshots), n, k + d_time))
    padded = 0
    for tau, snap in enumerate(snapshots):
        pe, short = _snapshot_lap_pe(snap, k, eig_method)
        padded += int(short)
        table[tau, :, :k] = pe
        table[tau, :, k:] = time_encoding(int(members[tau]), d_time)
    if padded:
        warnings.warn(
            f"zero-padded eigenvector entries for {padded} snapshot(s) with fewer than "
            f"k+1 non-isolated nodes", stacklevel=2,
        )
    return BaselineEncodingTable(matrix=table)


def window_spectrum(
    g: DynamicGraph,
    window: Window,
    kind: EncodingKind,
    k: int,
    eig_method: str = "auto",
    vn_fallback_link: bool = False,
) -> tuple[SupraGraph, SpectralBasis]:
    """One window's multi-layer graph and the k smallest eigenpairs of its
    normalized Laplacian: for slate the connected graph of build_supra (its
    trivial pair discarded; vn_fallback_link as there), for slate-notransform
    the raw block-diagonal stacking, every pair kept. eig_method is passed to
    the eigensolve."""
    snapshots = [g.snapshots[t] for t in window.members]
    kind = encoding_kind(kind)
    if kind == EncodingKind.SLATE:
        sg = build_supra(snapshots, window, vn_fallback_link=vn_fallback_link)
        return sg, smallest_eigenpairs(normalized_laplacian(sg.adjacency), k, method=eig_method)
    if kind == EncodingKind.SLATE_NO_TRANSFORM:
        sg = build_block_diagonal(snapshots)
        lap = normalized_laplacian(sg.adjacency, allow_isolated=True)
        return sg, smallest_eigenpairs(lap, k, method=eig_method, discard_trivial=False)
    raise ConfigError(f"encoding {kind.value} has no multi-layer graph")


def compute_window_encoding(
    g: DynamicGraph,
    window: Window,
    kind: EncodingKind,
    k: int,
    d_time: int = 8,
    eig_method: str = "auto",
    vn_fallback_link: bool = False,
):
    """Per-(node, window position) features for one window, by encoding kind:
    raw_encoding of window_spectrum, or the LapPE baseline, which alone reads
    d_time. eig_method is passed to every eigensolve."""
    if encoding_kind(kind) == EncodingKind.LAPPE_TIME:
        snapshots = [g.snapshots[t] for t in window.members]
        return lap_pe_time_encoding(snapshots, k, d_time, window.members, eig_method)
    sg, basis = window_spectrum(g, window, kind, k, eig_method, vn_fallback_link)
    return raw_encoding(basis, sg)
