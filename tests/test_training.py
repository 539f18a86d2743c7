import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slate import training
from slate.dtdg import DynamicGraph, Snapshot, generate_erdos_renyi, generate_sbm
from slate.errors import (ConfigError, ConnectivityError, ConvergenceError, TrainingError,
                          UndefinedMetricError)
from slate.metrics import auc, average_precision
from slate.sampling import STRATEGIES, NegativeSampler, sample_pairs
from slate.supra import symmetric_adjacency
from slate.training import EvalReport, TrainConfig, evaluate, train


def brute_force_auc(scores, labels):
    """O(n^2) pairwise comparison oracle, ties counted one half."""
    scores = np.asarray(scores, float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def brute_force_ap(scores, labels):
    """Precision/recall curve integration oracle with the same stable ordering."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = int((labels == 1).sum())
    ap, hits = 0.0, 0
    prev_recall = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            recall = hits / n_pos
            ap += (recall - prev_recall) * (hits / rank)
            prev_recall = recall
    return ap


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_tie_counts_half(self):
        assert auc([0.5, 0.5], [1, 0]) == 0.5

    def test_reversed_ranking(self):
        assert auc([0.1, 0.9], [1, 0]) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc([0.3, 0.4], [1, 1])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) < 1e-12


class TestAveragePrecision:
    def test_all_positives_first(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_positive_ranked_second(self):
        assert average_precision([0.9, 0.1], [0, 1]) == 0.5

    def test_zero_positives_rejected(self):
        with pytest.raises(UndefinedMetricError):
            average_precision([0.3], [0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            labels = rng.integers(0, 2, size=n)
            if not labels.any():
                labels[0] = 1
            scores = np.round(rng.random(n), 1)
            assert abs(
                average_precision(scores, labels) - brute_force_ap(scores, labels)
            ) < 1e-12


def graph_from_edge_lists(n, per_snapshot):
    return DynamicGraph(n, tuple(Snapshot.from_edges(n, e) for e in per_snapshot))


class TestSamplePairs:
    def test_complete_snapshot_skips(self):
        full = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = graph_from_edge_lists(4, [full, full])
        sampler = NegativeSampler.for_graph(g, "random")
        triples = sample_pairs(sampler, g, 1, np.random.default_rng(0))
        assert triples.shape == (0, 3) and triples.dtype == np.int64

    def test_empty_positive_set_skips(self):
        g = graph_from_edge_lists(4, [[(0, 1)], []])
        sampler = NegativeSampler.for_graph(g, "random")
        triples = sample_pairs(sampler, g, 1, np.random.default_rng(0))
        assert triples.shape == (0, 3) and triples.dtype == np.int64

    def test_negative_never_positive_now(self):
        g = graph_from_edge_lists(6, [[(0, 1), (2, 3)], [(0, 1), (0, 2), (4, 5)]])
        sampler = NegativeSampler.for_graph(g, "random")
        for _ in range(50):
            for u, v_pos, v_neg in sample_pairs(sampler, g, 1, np.random.default_rng(_)):
                assert (min(u, v_pos), max(u, v_pos)) in g.snapshots[1].edges
                assert (min(u, v_neg), max(u, v_neg)) not in g.snapshots[1].edges
                assert v_neg != u

    def test_historical_pool_set_arithmetic(self):
        # history {01, 02}, current {01}: the only historical negative for u=0 is 2
        g = graph_from_edge_lists(4, [[(0, 1), (0, 2)], [(0, 1)]])
        sampler = NegativeSampler.for_graph(g, "historical")
        for seed in range(20):
            triples = sample_pairs(sampler, g, 1, np.random.default_rng(seed))
            assert triples.tolist() == [[0, 1, 2]]
        assert sampler.fallback_count == 0

    def test_historical_empty_history_falls_back(self):
        g = graph_from_edge_lists(4, [[], [(0, 1), (2, 3)]])
        sampler = NegativeSampler.for_graph(g, "historical")
        triples = sample_pairs(sampler, g, 1, np.random.default_rng(0))
        assert len(triples) == 2
        assert sampler.fallback_count == 2  # counted fallback to random

    def test_inductive_excludes_train_edges(self):
        g = graph_from_edge_lists(5, [[(0, 1), (0, 2)], [(0, 3)], [(0, 1)]])
        sampler = NegativeSampler.for_graph(g, "inductive", train_range=range(0, 2))
        # train edges {01,02,03}; predicting t=2, positives {(0,1)};
        # inductive pool for u=0 excludes 1,2,3 -> only node 4
        for seed in range(10):
            assert sample_pairs(sampler, g, 2, np.random.default_rng(seed)).tolist() == [[0, 1, 4]]

    def test_uniform_within_pool(self):
        g = graph_from_edge_lists(6, [[(0, 1)], [(0, 1)]])
        sampler = NegativeSampler.for_graph(g, "random")
        counts = {v: 0 for v in (2, 3, 4, 5)}
        for seed in range(2000):
            (_, _, v_neg), = sample_pairs(sampler, g, 1, np.random.default_rng(seed))
            counts[v_neg] += 1
        freqs = np.array(list(counts.values())) / 2000
        assert np.abs(freqs - 0.25).max() < 0.05

    def test_validity_against_exhaustive_oracles(self):
        g = generate_erdos_renyi(12, 0.3, 6, seed=4)
        train_range = range(0, 4)
        for strategy in ("random", "historical", "inductive"):
            sampler = NegativeSampler.for_graph(g, strategy, train_range)
            for t_pred in range(1, 6):
                positives = g.snapshots[t_pred].edges
                history = g.edge_union(t_pred)
                train_edges = g.edge_union(train_range.stop)
                for rep in range(30):
                    rng = np.random.default_rng([t_pred, rep])
                    before = sampler.fallback_count
                    triples = sample_pairs(sampler, g, t_pred, rng)
                    fell_back = sampler.fallback_count - before
                    for u, v_pos, v_neg in triples:
                        e_neg = (min(u, v_neg), max(u, v_neg))
                        assert e_neg not in positives
                        if strategy == "historical" and fell_back == 0:
                            assert e_neg in history
                        if strategy == "inductive":
                            assert e_neg not in train_edges

    @pytest.mark.parametrize("strategy", ["historical", "inductive"])
    def test_fallback_counts_every_pair_of_a_source(self, strategy):
        n, snapshots, train_stop = FIXED_GRAPHS["source with empty strategy pools"]
        g = graph_from_edge_lists(n, snapshots)
        sampler = NegativeSampler.for_graph(g, strategy, range(0, train_stop))
        triples = sample_pairs(sampler, g, 1, np.random.default_rng(0))
        # u=0's three pairs fall back to random; u=1's five fall back and are
        # skipped, since u=1 saturates the snapshot; u=4's pair draws normally
        assert sampler.fallback_count == 3 + 5
        assert triples[:, :2].tolist() == [[0, 1], [0, 2], [0, 3], [4, 5]]
        assert set(triples[:3, 2].tolist()) <= {4, 5, 6}

    @pytest.mark.parametrize("strategy, calls", [("random", 3), ("historical", 5), ("inductive", 5)])
    def test_one_pool_per_source(self, monkeypatch, strategy, calls):
        n, snapshots, train_stop = FIXED_GRAPHS["source with empty strategy pools"]
        g = graph_from_edge_lists(n, snapshots)
        sampler = NegativeSampler.for_graph(g, strategy, range(0, train_stop))
        sources = []
        pool_for = NegativeSampler.pool_for
        monkeypatch.setattr(NegativeSampler, "pool_for",
                            lambda self, u, *args: sources.append(u) or pool_for(self, u, *args))
        sample_pairs(sampler, g, 1, np.random.default_rng(0))
        # sources 0, 1 and 4, then the random fallback for 0 and 1 when the strategy has one
        assert len(sources) == calls and set(sources) == {0, 1, 4}

    @pytest.mark.parametrize("t_pred", [-1, 2])
    def test_out_of_range_snapshot_rejected(self, t_pred):
        g = graph_from_edge_lists(4, [[(0, 1)], [(1, 2)]])
        sampler = NegativeSampler.for_graph(g, "historical")
        with pytest.raises(ConfigError, match=r"prediction snapshot -?\d+ outside \[0, 2\)"):
            sample_pairs(sampler, g, t_pred, np.random.default_rng(0))


def reference_pool(strategy, u, positives, history, train_edges, num_nodes):
    """The candidate pool as set arithmetic over canonical edges: ascending
    v != u, not a positive now; historical draws only from u's past partners,
    inductive drops u's training partners."""
    def canon(v):
        return (min(u, v), max(u, v))

    if strategy == "historical":
        cands = sorted({x if y == u else y for x, y in history if u in (x, y)})
    else:
        cands = range(num_nodes)
    return [v for v in cands if v != u and canon(v) not in positives
            and not (strategy == "inductive" and canon(v) in train_edges)]


def reference_sample_pairs(strategy, g, t_pred, train_edges, rng):
    """sample_pairs over reference_pool; returns (triples, fallback count)."""
    positives = g.snapshots[t_pred].edges
    history = g.edge_union(t_pred)
    triples, fallbacks = [], 0
    for u, v_pos in sorted(positives):
        pool = reference_pool(strategy, u, positives, history, train_edges, g.num_nodes)
        if not pool and strategy != "random":
            fallbacks += 1
            pool = reference_pool("random", u, positives, history, train_edges, g.num_nodes)
        if pool:
            triples.append((u, v_pos, pool[rng.integers(len(pool))]))
    return triples, fallbacks


def adjacency(edges, n):
    """The CSR adjacency of an edge set, as pool_for reads it."""
    return symmetric_adjacency(n, np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))


def assert_sampler_matches_reference(g, train_stop, seeds=range(3)):
    n = g.num_nodes
    train_edges = g.edge_union(train_stop)
    for strategy in STRATEGIES:
        sampler = NegativeSampler.for_graph(g, strategy, range(0, train_stop))
        for t in range(g.num_snapshots):
            positives, history = g.snapshots[t].edges, g.edge_union(t)
            pos_adjacency, history_adjacency = adjacency(positives, n), adjacency(history, n)
            for u in range(n):
                pool = sampler.pool_for(u, pos_adjacency, history_adjacency, n)
                assert pool.dtype == np.int64
                assert pool.tolist() == reference_pool(strategy, u, positives, history, train_edges, n)
            for seed in seeds:
                before = sampler.fallback_count
                triples = sample_pairs(sampler, g, t, np.random.default_rng([seed, t]))
                expected, fallbacks = reference_sample_pairs(
                    strategy, g, t, train_edges, np.random.default_rng([seed, t]))
                assert triples.dtype == np.int64 and triples.shape == (len(expected), 3)
                assert triples.tolist() == [list(triple) for triple in expected]
                assert sampler.fallback_count - before == fallbacks


ALL_PAIRS_6 = [(u, v) for u in range(6) for v in range(u + 1, 6)]
FIXED_GRAPHS = {
    # t=1 has no history at all: every historical pool falls back
    "empty history": (5, [[], [(0, 1), (2, 3)], [(1, 2)]], 1),
    # u=0 is a positive of every other node at t=1: skipped under every strategy
    "saturating u": (5, [[(1, 2)], [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3)], [(0, 4)]], 1),
    "empty snapshot": (5, [[(0, 1), (2, 3)], [], [(1, 2), (0, 3)]], 2),
    # training covers all pairs but (0, 5) and (1, 4): inductive pools are empty
    # (fallback) or hold the one partner u never met in training
    "inductive train covers most pairs": (
        6, [[p for p in ALL_PAIRS_6 if p not in {(0, 5), (1, 4)}], [(0, 1), (2, 3)],
         [(0, 2), (1, 3), (4, 5)]], 2),
    # at t=1, u=0 has three positives and empty historical and inductive pools
    # (its past partners are positives now, and training covers all its pairs);
    # u=1 saturates the snapshot, and u=4's pools are ordinary
    "source with empty strategy pools": (
        7, [[(0, 1), (0, 2), (4, 6)],
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (4, 5)],
            [(0, 4), (0, 5), (0, 6)]], 3),
}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    snapshots = draw(st.lists(st.lists(st.sampled_from(pairs), unique=True), min_size=1, max_size=4))
    return graph_from_edge_lists(n, snapshots), draw(st.integers(1, len(snapshots)))


class TestSamplerReference:
    @pytest.mark.parametrize("name", FIXED_GRAPHS)
    def test_fixed_graphs(self, name):
        n, snapshots, train_stop = FIXED_GRAPHS[name]
        assert_sampler_matches_reference(graph_from_edge_lists(n, snapshots), train_stop)

    @given(graph=small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_small_graphs(self, graph):
        assert_sampler_matches_reference(*graph)

    def test_generated_graph(self):
        assert_sampler_matches_reference(generate_sbm(30, 3, 0.4, 0.05, 5, seed=7), 3)


class TestTrainLoop:
    def small_setup(self, lr=0.1, epochs=3, patience=50, **kw):
        g = generate_sbm(12, 2, 0.6, 0.1, 6, seed=2)
        cfg = TrainConfig(lr=lr, epochs=epochs, patience=patience, w=2, k=2, d=16, heads=2,
                          nhead_xa=1, ffn_dim=32, seed=0, **kw)
        model = cfg.build_model(g.num_nodes)
        return g, cfg, model

    def test_lr_zero_keeps_parameters_and_constant_trace(self):
        g, cfg, model = self.small_setup(lr=0.0, epochs=4)
        before = model.store.state()
        history = train(model, g, cfg, range(0, 4), range(4, 5))
        for name, data in model.store.state().items():
            assert np.array_equal(data, before[name])
        assert len(set(np.round(history.losses, 15))) == 1
        assert len(set(np.round(history.val_ap, 15))) == 1

    def test_deterministic_loss_traces(self):
        g, cfg, model = self.small_setup(epochs=3)
        h1 = train(model, g, cfg, range(0, 4), range(4, 5))
        model2 = cfg.build_model(g.num_nodes)
        h2 = train(model2, g, cfg, range(0, 4), range(4, 5))
        assert h1.losses == h2.losses
        assert h1.val_ap == h2.val_ap
        for name, p in model.store.parameters().items():
            assert np.array_equal(p.data, model2.store.parameters()[name].data)

    def test_loss_decreases_on_sbm(self):
        g = generate_sbm(50, 2, 0.5, 0.05, 10, seed=1)
        decreasing = False
        for lr in (0.1, 0.01):
            cfg = TrainConfig(lr=lr, epochs=6, patience=50, w=3, k=4, d=32, heads=2,
                              nhead_xa=1, ffn_dim=64, norm_first=False, seed=0)
            model = cfg.build_model(g.num_nodes)
            history = train(model, g, cfg, range(0, 7), range(7, 8))
            diffs = np.diff(history.losses[:6])
            if (diffs < 0).all():
                decreasing = True
                break
        assert decreasing

    def test_too_few_train_snapshots_rejected(self):
        g, cfg, model = self.small_setup()
        with pytest.raises(ConfigError):
            train(model, g, cfg, range(0, 1), range(1, 2))

    def test_early_stopping_restores_best(self):
        g, cfg, model = self.small_setup(epochs=8, patience=1)
        history = train(model, g, cfg, range(0, 4), range(4, 5))
        assert history.best_epoch >= 0
        assert history.best_val_ap == max(history.val_ap)
        if history.stopped_early:
            assert len(history.losses) < cfg.epochs


class TestEvaluate:
    def test_zeroed_head_gives_tied_scores_auc_half(self):
        g = generate_sbm(12, 2, 0.6, 0.1, 6, seed=2)
        cfg = TrainConfig(w=2, k=2, d=16, heads=2, nhead_xa=1, ffn_dim=32, seed=0)
        model = cfg.build_model(g.num_nodes)
        model.head_w2.data[...] = 0.0
        model.head_b2.data[...] = 0.0
        report = evaluate(model, g, range(4, 6), strategy="random", seed=0)
        assert report.aggregate_auc == 0.5
        for snap_eval in report.per_snapshot:
            assert snap_eval.auc == 0.5

    def test_constant_logit_shift_keeps_metrics(self):
        # a float64 sigmoid rounds every logit above ~37 to 1.0; ranked as
        # logits, a shift of the head's bias cannot move AUC or AP
        g = generate_sbm(12, 2, 0.6, 0.1, 6, seed=2)
        cfg = TrainConfig(w=2, k=2, d=16, heads=2, nhead_xa=1, ffn_dim=32, seed=0)
        model = cfg.build_model(g.num_nodes)
        before = evaluate(model, g, range(3, 6), seed=0)
        model.head_b2.data[...] += 60.0
        after = evaluate(model, g, range(3, 6), seed=0)
        assert before.aggregate_auc != 0.5
        assert (after.aggregate_auc, after.aggregate_ap) == (before.aggregate_auc, before.aggregate_ap)
        assert [(s.auc, s.ap) for s in after.per_snapshot] == [(s.auc, s.ap) for s in before.per_snapshot]

    def test_one_row_per_nonempty_test_snapshot(self):
        # the final snapshot has no positives: skipped before its window is built
        g = graph_from_edge_lists(
            6, [[(0, 1), (2, 3)], [(0, 1)], [(1, 2)], [(0, 2), (3, 4)], []]
        )
        cfg = TrainConfig(w=1, k=1, d=8, heads=1, nhead_xa=1, ffn_dim=16, seed=0)
        model = cfg.build_model(6)
        report = evaluate(model, g, range(2, 5), strategy="random", seed=0)
        assert [s.t for s in report.per_snapshot] == [2, 3]

    def test_report_json_shape(self):
        g = generate_sbm(12, 2, 0.6, 0.1, 6, seed=2)
        cfg = TrainConfig(w=2, k=2, d=16, heads=2, nhead_xa=1, ffn_dim=32, seed=0)
        model = cfg.build_model(g.num_nodes)
        report = evaluate(model, g, range(4, 6), strategy="historical",
                          train_range=range(0, 4), seed=0)
        payload = json.loads(report.to_json())
        assert set(payload) == {"config", "strategy", "per_snapshot", "aggregate", "warnings"}
        assert payload["strategy"] == "historical"
        assert 0.0 <= payload["aggregate"]["auc"] <= 1.0
        assert 0.0 <= payload["aggregate"]["ap"] <= 1.0
        assert all(set(row) == {"t", "auc", "ap", "n_pairs"} for row in payload["per_snapshot"])

    def test_windows_reach_back_across_split(self):
        # predicting the first test snapshot uses train/val snapshots as context
        g = generate_sbm(12, 2, 0.6, 0.1, 6, seed=2)
        cfg = TrainConfig(w=3, k=2, d=16, heads=2, nhead_xa=1, ffn_dim=32, seed=0)
        model = cfg.build_model(g.num_nodes)
        report = evaluate(model, g, range(4, 5), strategy="random", seed=0)
        assert report.per_snapshot[0].t == 4  # window {1,2,3} crosses the split


def alternating_groups_graph():
    """10 nodes; even snapshots use nodes 0-4, odd ones 5-9, so every two-layer
    window has a gap that only the virtual-node bridge closes."""
    paths = ([(0, 1), (1, 2), (2, 3), (3, 4)], [(5, 6), (6, 7), (7, 8), (8, 9)])
    return graph_from_edge_lists(10, [paths[t % 2] for t in range(8)])


class TestTrainConfig:
    @pytest.mark.parametrize("setting, message", [
        (dict(pooling="median"), "unknown pooling kind 'median'"),
        (dict(pool_last_k=0), "pool_last_k must be >= 1"),
        (dict(encoding="bogus"), "unknown encoding 'bogus'"),
        (dict(k=16, d=16), "need k < d"),
        (dict(w=0), "window size must be >= 1"),
        (dict(k=0), "k must be >= 1"),
        (dict(ffn_dim=0), "ffn_dim must be >= 1"),
        (dict(heads=0), "heads must be >= 1 and divide d, got heads=0, d=128"),
        (dict(heads=-2), "heads must be >= 1 and divide d, got heads=-2"),
        (dict(heads=3), "heads must be >= 1 and divide d, got heads=3"),
        (dict(nhead_xa=0), "nhead_xa must be >= 1 and divide d, got nhead_xa=0"),
        (dict(nhead_xa=5), "nhead_xa must be >= 1 and divide d, got nhead_xa=5"),
        (dict(epochs=0), "epochs must be >= 1"),
        (dict(patience=-1), "patience must be >= 0"),
        (dict(d_time=-1), "d_time must be >= 0"),
        (dict(lr=-0.1), "lr must be finite and >= 0, got -0.1"),
        (dict(lr=float("nan")), "lr must be finite and >= 0, got nan"),
        (dict(lr=float("inf")), "lr must be finite and >= 0, got inf"),
        (dict(weight_decay=-1e-4), "weight_decay must be finite and >= 0, got -0.0001"),
        (dict(weight_decay=float("nan")), "weight_decay must be finite and >= 0, got nan"),
    ], ids=["pooling", "pool-last-k", "encoding", "k-not-below-d", "window", "k-zero", "ffn-zero",
            "heads-zero", "heads-negative", "heads-not-dividing", "nhead-xa-zero", "nhead-xa-not-dividing",
            "epochs-zero", "patience-negative", "d-time-negative", "lr-negative", "lr-nan", "lr-inf",
            "weight-decay-negative", "weight-decay-nan"])
    def test_bad_setting_raises_config_error(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**setting)

    def test_edge_values_are_valid(self):
        cfg = TrainConfig(lr=0.0, weight_decay=0.0, epochs=1, patience=0, d_time=0)
        assert (cfg.lr, cfg.epochs, cfg.patience, cfg.d_time) == (0.0, 1, 0, 0)

    def test_cross_attention_heads_unchecked_without_edge_module(self):
        cfg = TrainConfig(w=2, k=2, d=16, heads=2, nhead_xa=0, ffn_dim=32, use_edge_module=False)
        model = cfg.build_model(6)
        assert not any(name.startswith("xa.") for name in model.store.parameters())


def gap_config(**kw):
    return TrainConfig(w=2, k=2, d=16, heads=2, nhead_xa=1, ffn_dim=32, epochs=2, seed=0, **kw)


class TestConfigDrift:
    def test_evaluate_without_cache_keeps_the_bridge(self):
        g = alternating_groups_graph()
        cfg = gap_config(vn_fallback_link=True)
        model = cfg.build_model(g.num_nodes)
        train(model, g, cfg, range(0, 5), range(5, 6))
        report = evaluate(model, g, range(6, 8))
        assert [s.t for s in report.per_snapshot] == [6, 7]

    def test_reraise_keeps_typed_fields(self):
        g = alternating_groups_graph()
        cfg = gap_config()
        with pytest.raises(ConnectivityError, match=r"epoch 0, target snapshot 2") as info:
            train(cfg.build_model(g.num_nodes), g, cfg, range(0, 5), range(5, 6))
        assert info.value.gap == (0, 1)


class TestEncodingMemo:
    CFG = TrainConfig(lr=0.1, epochs=2, patience=50, w=2, k=2, d=16, heads=2, nhead_xa=1,
                      ffn_dim=32, seed=0)

    @staticmethod
    def graph():
        return generate_sbm(12, 2, 0.6, 0.1, 7, seed=2)

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The (kind, window members) of every real encoding, in call order."""
        calls = []
        original = training.compute_window_encoding

        def counting(g, window, kind, k, **kwargs):
            calls.append((kind, window.members))
            return original(g, window, kind, k, **kwargs)

        monkeypatch.setattr(training, "compute_window_encoding", counting)
        return calls

    def test_train_then_every_evaluate_encodes_each_window_once(self, encoded):
        g, cfg = self.graph(), self.CFG
        model = cfg.build_model(g.num_nodes)
        train(model, g, cfg, range(0, 4), range(4, 5))
        for _ in range(2):
            for strategy in STRATEGIES:
                evaluate(model, g, range(5, 7), strategy=strategy, train_range=range(0, 4))
        # targets 1..6 read the windows ending at 0..5
        assert sorted(encoded) == [("slate", tuple(range(max(0, t - 1), t + 1))) for t in range(6)]

    @pytest.mark.parametrize("change, encodes_again", [
        (dict(encoding="slate-notransform"), True),
        (dict(w=3), True),
        (dict(k=3), True),
        (dict(d_time=4), True),
        (dict(vn_fallback_link=True), True),
        (dict(lr=0.5), False),
        (dict(seed=7), False),
        (dict(heads=4), False),
        (dict(pooling="max"), False),
        (dict(use_edge_module=False), False),
    ], ids=lambda v: "-".join(v) if isinstance(v, dict) else str(v))
    def test_memo_key_is_the_encoding_settings(self, encoded, change, encodes_again):
        g = self.graph()
        for cfg in (self.CFG, replace(self.CFG, **change)):
            evaluate(cfg.build_model(g.num_nodes), g, range(5, 7))
        assert len(encoded) == (4 if encodes_again else 2)

    def test_memoized_matrix_is_read_only(self):
        g, cfg = self.graph(), self.CFG
        evaluate(cfg.build_model(g.num_nodes), g, range(5, 6))
        (table,) = g._encodings.values()
        with pytest.raises(ValueError):
            table.matrix[0, 0, 0] = 1.0

    def test_window_whose_encoding_raised_is_tried_again(self, monkeypatch, encoded):
        g, cfg = self.graph(), self.CFG
        model = cfg.build_model(g.num_nodes)
        counting = training.compute_window_encoding

        def fails_once(*args, **kwargs):
            monkeypatch.setattr(training, "compute_window_encoding", counting)
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(training, "compute_window_encoding", fails_once)
        with pytest.raises(ConvergenceError):
            evaluate(model, g, range(5, 6))
        assert g._encodings == {}
        evaluate(model, g, range(5, 6))
        assert encoded == [("slate", (3, 4))]
        assert len(g._encodings) == 1

    def test_concurrent_scorers_fill_one_memo_with_the_serial_results(self):
        g, cfg = self.graph(), self.CFG
        model = cfg.build_model(g.num_nodes)
        expected = evaluate(model, DynamicGraph(g.num_nodes, g.snapshots), range(1, 7))
        reports = []
        threads = [threading.Thread(target=lambda: reports.append(evaluate(model, g, range(1, 7))))
                   for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert reports == [expected] * len(threads)
        assert len(g._encodings) == 6

    def test_filled_memo_gives_the_results_of_a_fresh_graph(self):
        def run(g):
            model = self.CFG.build_model(g.num_nodes)
            history = train(model, g, self.CFG, range(0, 4), range(4, 5))
            reports = [evaluate(model, g, range(5, 7), strategy=s, train_range=range(0, 4))
                       for s in STRATEGIES]
            return model.store.state(), history, reports

        g = self.graph()
        run(g)
        assert g._encodings
        state, history, reports = run(g)
        fresh_state, fresh_history, fresh_reports = run(DynamicGraph(g.num_nodes, g.snapshots))
        assert state.keys() == fresh_state.keys()
        assert all(np.array_equal(state[name], fresh_state[name]) for name in state)
        assert history == fresh_history
        assert reports == fresh_reports


class TestNonFinite:
    def nan_model(self):
        g = generate_sbm(12, 2, 0.6, 0.1, 6, seed=2)
        cfg = TrainConfig(w=2, k=2, d=16, heads=2, nhead_xa=1, ffn_dim=32, epochs=3, seed=0)
        model = cfg.build_model(g.num_nodes)
        model.head_b2.data[...] = np.nan
        return g, cfg, model

    def test_train_raises_on_nan_loss(self):
        g, cfg, model = self.nan_model()
        with pytest.raises(TrainingError, match=r"epoch 0, target snapshot \d+: non-finite loss"):
            train(model, g, cfg, range(0, 4), range(4, 5))

    def test_evaluate_raises_on_nan_logits(self):
        g, _, model = self.nan_model()
        with pytest.raises(TrainingError, match=r"non-finite logits at snapshot 4"):
            evaluate(model, g, range(4, 6), seed=0)


def test_train_errors_carry_epoch_context():
    # a window with an empty snapshot aborts with (epoch, target) context
    g = graph_from_edge_lists(5, [[(0, 1)], [], [(0, 1), (2, 3)], [(1, 2)]])
    cfg = TrainConfig(w=2, k=1, d=8, heads=1, nhead_xa=1, ffn_dim=16, epochs=2, seed=0)
    model = cfg.build_model(5)
    with pytest.raises(Exception, match=r"epoch 0, target snapshot 2"):
        train(model, g, cfg, range(0, 3), range(3, 4))
