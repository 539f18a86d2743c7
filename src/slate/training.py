"""Training over rolling windows and the evaluation protocol.

Each training step targets one snapshot t+1: the window ending at t is encoded,
all tokens pass through the encoder once, and the 1:1 positive/negative pairs
of t+1 are scored in one batch under the binary cross-entropy objective.
Windows for validation and test predictions may reach back across split
boundaries; only the predicted snapshot's edges are held out. Training always
samples random negatives; historical/inductive strategies are evaluation-time
choices.

A window's encoding depends on the graph alone, so train() and evaluate() memoize
each table on the graph (`DynamicGraph._encodings`) under (encoding, w, k,
d_time, vn_fallback_link, t_end), for the graph's lifetime: every call on one
graph, and every cell of `slate ablate`, encodes a window once. Memoized tables
are read-only; each holds w*N*2k float64, about 3.8 MB at N=10,000, w=3, k=8.
Racing scorers may encode a window twice, never differently.
`compute_window_encoding` itself is not memoized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .dtdg import DynamicGraph, window_of
from .errors import ConfigError, SlateError, TrainingError
from .metrics import auc, average_precision
from .model import SlateModel, compute_window_encoding, encoding_kind
from .sampling import NegativeSampler, sample_pairs


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings, checked on construction (ConfigError). lr,
    weight_decay, epochs and patience drive the optimizer, and seed its negative
    draws; SlateModel reads every other field, seed included, so the model built
    from a config owns how windows are encoded. pooling ("mean" or "max") pools
    the last pool_last_k positions of a pair's sequence."""

    lr: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 200
    patience: int = 20
    w: int = 3
    k: int = 8
    d: int = 128
    heads: int = 2
    nhead_xa: int = 2
    ffn_dim: int = 128
    norm_first: bool = True
    pooling: str = "mean"
    pool_last_k: int = 3
    encoding: str = "slate"
    d_time: int = 8
    use_edge_module: bool = True
    vn_fallback_link: bool = False
    seed: int = 0

    def __post_init__(self):
        encoding_kind(self.encoding)
        if self.pooling not in ("mean", "max"):
            raise ConfigError(f"unknown pooling kind {self.pooling!r}")
        if self.pool_last_k < 1:
            raise ConfigError("pool_last_k must be >= 1")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k >= self.d:
            raise ConfigError(f"need k < d, got k={self.k}, d={self.d}")
        if self.ffn_dim < 1:
            raise ConfigError("ffn_dim must be >= 1")
        if self.heads < 1 or self.d % self.heads:
            raise ConfigError(f"heads must be >= 1 and divide d, got heads={self.heads}, d={self.d}")
        if self.use_edge_module and (self.nhead_xa < 1 or self.d % self.nhead_xa):
            raise ConfigError(
                f"nhead_xa must be >= 1 and divide d, got nhead_xa={self.nhead_xa}, d={self.d}")
        if self.w < 1:
            raise ConfigError("window size must be >= 1")
        if self.d_time < 0:
            raise ConfigError("d_time must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr", "weight_decay"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def build_model(self, num_nodes: int) -> SlateModel:
        return SlateModel(num_nodes, self)


@dataclass
class TrainHistory:
    losses: list[float] = field(default_factory=list)
    val_ap: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_ap: float = float("nan")
    stopped_early: bool = False


@dataclass
class SnapshotEval:
    t: int
    auc: float
    ap: float
    n_pairs: int


@dataclass
class EvalReport:
    strategy: str
    per_snapshot: list[SnapshotEval]
    aggregate_auc: float
    aggregate_ap: float
    n_pairs: int
    fallback_count: int
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "strategy": self.strategy,
            "per_snapshot": [
                {"t": s.t, "auc": s.auc, "ap": s.ap, "n_pairs": s.n_pairs}
                for s in self.per_snapshot
            ],
            "aggregate": {"auc": self.aggregate_auc, "ap": self.aggregate_ap,
                          "n_pairs": self.n_pairs},
            "warnings": {"negative_pool_fallbacks": self.fallback_count},
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _window_and_table(g: DynamicGraph, cfg: TrainConfig, t_end: int):
    """The window of cfg.w snapshots ending at t_end and its encoding table,
    memoized on g (see the module docstring). A call that raises stores nothing."""
    window = window_of(g, t_end, cfg.w)
    key = (cfg.encoding, cfg.w, cfg.k, cfg.d_time, cfg.vn_fallback_link, t_end)
    table = g._encodings.get(key)
    if table is None:
        table = compute_window_encoding(g, window, cfg.encoding, cfg.k, d_time=cfg.d_time,
                                        vn_fallback_link=cfg.vn_fallback_link)
        table.matrix.flags.writeable = False
        g._encodings[key] = table
    return window, table


def _pairs_and_labels(sampler: NegativeSampler, g: DynamicGraph, t_pred: int, seed: int):
    """Snapshot t_pred's (u, v_pos) rows then (u, v_neg) rows, labelled 1 and 0;
    the negatives are drawn from a generator seeded by (seed, t_pred)."""
    triples = sample_pairs(sampler, g, t_pred, np.random.default_rng([seed, t_pred]))
    return np.concatenate([triples[:, :2], triples[:, ::2]]), np.repeat([1.0, 0.0], len(triples))


def _forward_scores(model: SlateModel, g: DynamicGraph, t_pred: int, pairs: np.ndarray):
    window, table = _window_and_table(g, model.cfg, t_pred - 1)
    tokens = model.token_sequence(table, len(window))
    encoded = model.encode(tokens)
    return model.edge_logits(encoded, pairs)


def train(
    model: SlateModel,
    g: DynamicGraph,
    cfg: TrainConfig,
    train_range: range,
    val_range: range,
) -> TrainHistory:
    """SGD over rolling windows with early stopping on validation AP.

    One optimizer step per (epoch, target snapshot), on a batch built once per
    target before the first epoch. Negative draws depend on (seed, target
    snapshot) only, so an lr=0 run has a constant loss trace and reruns are
    bit-reproducible. Restores the best-validation parameters. cfg must be the
    model's own config: its lr, weight_decay, epochs and patience drive the
    optimizer and its seed the negative draws. A non-finite loss raises
    TrainingError.
    """
    if len(train_range) < 2:
        raise ConfigError("training needs at least 2 snapshots (a window plus its target)")

    sampler = NegativeSampler.for_graph(g, "random")
    targets = [t for t in train_range if t >= 1]
    batches = {t: _pairs_and_labels(sampler, g, t, cfg.seed) for t in targets}
    targets = [t for t in targets if len(batches[t][1])]
    if not targets:
        raise ConfigError("no training snapshot has a usable positive/negative pair")

    history = TrainHistory()
    best_state = model.store.state()
    bad_epochs = 0
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        for t_pred in targets:
            pairs, labels = batches[t_pred]
            try:
                with nn.Tape() as tape:
                    logits = _forward_scores(model, g, t_pred, pairs)
                    loss = nn.mean_all(nn.bce_with_logits(logits, labels))
                    if not np.isfinite(loss.item()):
                        raise TrainingError(f"non-finite loss {loss.item()}")
                    tape.backward(loss)
                nn.sgd_step(model.store, cfg.lr, cfg.weight_decay)
            except SlateError as exc:
                exc.args = (f"epoch {epoch}, target snapshot {t_pred}: {exc}",)
                raise
            epoch_loss += loss.item()
        history.losses.append(epoch_loss / len(targets))

        if len(val_range) > 0:
            val = evaluate(model, g, val_range, strategy="random", seed=cfg.seed)
            history.val_ap.append(val.aggregate_ap)
            if history.best_epoch < 0 or val.aggregate_ap > history.best_val_ap:
                history.best_epoch = epoch
                history.best_val_ap = val.aggregate_ap
                best_state = model.store.state()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > cfg.patience:
                    history.stopped_early = True
                    break
        else:
            history.best_epoch = epoch
            best_state = model.store.state()

    model.store.load_state(best_state)
    return history


def evaluate(
    model: SlateModel,
    g: DynamicGraph,
    split_range,
    strategy: str = "random",
    train_range: range | None = None,
    seed: int = 0,
) -> EvalReport:
    """Score every snapshot of the range (window ending just before it) and
    report per-snapshot plus pooled AUC/AP over 1:1 sampled pairs.

    Negative draws are seeded per (seed, snapshot), so snapshots could be
    scored concurrently over a frozen model without changing any result.
    Window encodings are read from, or stored read-only in, g's memo for g's
    lifetime, keyed by the model's (encoding, w, k, d_time, vn_fallback_link)
    and the window's last snapshot. Non-finite logits raise TrainingError
    naming the snapshot."""
    if len(split_range) == 0:
        raise ConfigError("evaluation range is empty")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    sampler = NegativeSampler.for_graph(g, strategy, train_range)
    per_snapshot: list[SnapshotEval] = []
    all_scores: list[np.ndarray] = []
    all_labels: list[np.ndarray] = []
    for t_pred in split_range:
        if t_pred < 1:
            continue
        pairs, labels = _pairs_and_labels(sampler, g, t_pred, seed)
        if not len(labels):
            continue
        logits = _forward_scores(model, g, t_pred, pairs)
        if not np.isfinite(logits.data).all():
            raise TrainingError(f"non-finite logits at snapshot {t_pred}")
        scores = logits.data  # ranked as logits: a float64 sigmoid ties them above ~37
        per_snapshot.append(SnapshotEval(
            t=t_pred, auc=auc(scores, labels), ap=average_precision(scores, labels),
            n_pairs=len(pairs),
        ))
        all_scores.append(scores)
        all_labels.append(labels)
    if not per_snapshot:
        raise ConfigError("no snapshot in the range produced scoreable pairs")
    pooled_scores = np.concatenate(all_scores)
    pooled_labels = np.concatenate(all_labels)
    return EvalReport(
        strategy=strategy,
        per_snapshot=per_snapshot,
        aggregate_auc=auc(pooled_scores, pooled_labels),
        aggregate_ap=average_precision(pooled_scores, pooled_labels),
        n_pairs=len(pooled_scores),
        fallback_count=sampler.fallback_count,
    )
