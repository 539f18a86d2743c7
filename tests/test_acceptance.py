"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 is implemented
faithfully but encodes a target above the information ceiling of the i.i.d.
block-model toy it is defined on; it is expected to fail red, and its failure
message carries both the measured score and the computed ceiling of the data.
"""

import time

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from slate import nn
from slate.dtdg import SplitSpec, generate_erdos_renyi, generate_sbm, generate_sbm_churn, split_chronological, window_of
from slate.metrics import auc, average_precision
from slate.model import EncodingKind, compute_window_encoding
from slate.nn import Tape, Tensor
from slate.sampling import NegativeSampler, sample_pairs
from slate.spectral import normalized_laplacian, raw_encoding, smallest_eigenpairs
from slate.supra import build_block_diagonal, build_supra, count_components, verify_connected
from slate.training import TrainConfig, evaluate, train

from test_nn import assert_grads_match
from test_training import brute_force_ap


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def seeded_windowed_graphs(count, n_range, p_range, w_range, master_seed=2024):
    """Deterministic stream of (graph, window size) with non-empty snapshots and
    a temporal bridge between consecutive snapshots (the connectivity
    guarantee's precondition; gap realizations raise by specification)."""
    rng = np.random.default_rng(master_seed)
    produced, attempt = 0, 0
    while produced < count:
        attempt += 1
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*p_range))
        w = int(rng.integers(w_range[0], w_range[1] + 1))
        g = generate_erdos_renyi(n, p, w, seed=master_seed * 10_000 + attempt)
        if any(s.num_edges == 0 for s in g.snapshots):
            continue
        masks = [s.isolation_mask() for s in g.snapshots]
        if any((~masks[i] & ~masks[i + 1]).sum() == 0 for i in range(w - 1)):
            continue
        produced += 1
        yield g, w


def build_window(g, w):
    window = window_of(g, w - 1, w)
    snaps = [g.snapshots[t] for t in window.members]
    return build_supra(snaps, window=window)


def test_c1_connectivity_guarantee():
    """100 random DTDGs: transformed graph BFS-connected, lambda0 ~ 0 < lambda1."""
    start = time.time()
    for g, w in seeded_windowed_graphs(100, (5, 30), (0.05, 0.5), (1, 4)):
        sg = build_window(g, w)
        assert verify_connected(sg)
        basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 1)
        assert abs(basis.lambda0) < 1e-8
        assert basis.eigenvalues[0] > 1e-8
    elapsed = time.time() - start
    ok = elapsed < 60
    report("C1 connectivity guarantee", ok, f"100 graphs connected, {elapsed:.1f}s (< 60s)")
    assert ok


def test_c2_eigensolver_oracle_equivalence():
    """Lanczos matches the dense path on 50 graphs with N' <= 200, k = 12."""
    start = time.time()
    k = 12
    checked = 0
    stream = seeded_windowed_graphs(500, (10, 30), (0.15, 0.5), (2, 4), master_seed=77)
    worst_dl, worst_res = 0.0, 0.0
    for g, w in stream:
        if checked == 50:
            break
        sg = build_window(g, w)
        if not (k + 2 <= sg.size <= 200):
            continue
        lap = normalized_laplacian(sg.adjacency)
        full = np.linalg.eigvalsh(lap.matrix.toarray())
        if np.diff(full[: k + 2]).min() < 1e-8:
            continue  # exact multiplicity: one Krylov sequence cannot see both copies
        dense = smallest_eigenpairs(lap, k, method="dense")
        lz = smallest_eigenpairs(lap, k, method="lanczos", tol=1e-10, seed=5)
        dl = np.abs(lz.eigenvalues - dense.eigenvalues).max()
        res = max(
            np.linalg.norm(lap.matrix @ b.eigenvectors - b.eigenvectors * b.eigenvalues, axis=0).max()
            for b in (dense, lz)
        )
        gram = lz.eigenvectors.T @ lz.eigenvectors
        assert dl < 1e-8
        assert res < 1e-8 * lap.size
        assert np.abs(gram - np.eye(k)).max() < 1e-6
        worst_dl, worst_res = max(worst_dl, dl), max(worst_res, res)
        checked += 1
    elapsed = time.time() - start
    ok = checked == 50 and elapsed < 120
    report("C2 eigensolver equivalence", ok,
           f"50 graphs, max |dlambda| {worst_dl:.1e}, max residual {worst_res:.1e}, "
           f"{elapsed:.1f}s (< 120s)")
    assert ok


def test_c3_gradient_correctness():
    """Finite differences agree with the tape for every layer and the full model."""
    start = time.time()
    rng = np.random.default_rng(31)

    # layers in isolation
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    assert_grads_match(lambda: nn.mean_all(nn.linear(x, w, b)), [x, w, b])

    store = nn.ParameterStore(1)
    attn = nn.init_attention(store, "a", 8)
    q = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    kv = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    assert_grads_match(
        lambda: nn.mean_all(nn.multi_head_attention(q, kv, 2, attn)),
        [q, kv, attn.wq, attn.bq, attn.wk, attn.wv, attn.bv, attn.wo, attn.bo],
    )

    for norm_first in (True, False):
        store2 = nn.ParameterStore(2 + norm_first)
        enc = nn.init_encoder_layer(store2, "e", 16, 2, 32, norm_first)
        z = Tensor(rng.standard_normal((6, 16)), requires_grad=True)
        assert_grads_match(
            lambda: nn.mean_all(nn.relu(nn.encoder_layer(z, enc))),
            [z, enc.attn.wq, enc.attn.wo, enc.ln1_g, enc.ln1_b, enc.ln2_g, enc.w1, enc.b1,
             enc.w2, enc.b2],
        )

    g_ = Tensor(rng.standard_normal(8), requires_grad=True)
    b_ = Tensor(rng.standard_normal(8), requires_grad=True)
    xn = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    assert_grads_match(lambda: nn.mean_all(nn.layer_norm(xn, g_, b_)), [xn, g_, b_])

    logits = Tensor(rng.standard_normal(12) * 2, requires_grad=True)
    targets = rng.integers(0, 2, size=12).astype(float)
    assert_grads_match(lambda: nn.mean_all(nn.bce_with_logits(logits, targets)), [logits])

    # full pipeline on the 6-node, w=2, k=2, d=16 model, every parameter
    g = generate_erdos_renyi(6, 0.6, 4, seed=3)
    model = TrainConfig(d=16, k=2, w=2, heads=2, nhead_xa=2, ffn_dim=32, seed=1).build_model(6)
    window = window_of(g, 2, 2)
    table = compute_window_encoding(g, window, EncodingKind.SLATE, 2)
    pairs = np.array([[0, 1], [2, 5], [3, 4], [1, 2]])
    labels = np.array([1.0, 0.0, 1.0, 0.0])

    def forward():
        zt = model.encode(model.token_sequence(table, len(window)))
        return nn.mean_all(nn.bce_with_logits(model.edge_logits(zt, pairs), labels))

    with Tape() as tape:
        tape.backward(forward())
    h = 1e-5
    worst = {grp: 0.0 for grp in model.param_groups()}
    for grp, names in model.param_groups().items():
        assert names
        for name in names:
            p = model.store[name]
            flat, an = p.data.ravel(), p.grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = forward().item()
                flat[i] = orig - h
                fm = forward().item()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                if max(abs(fd), abs(an[i])) < 1e-7:
                    continue  # identically-zero gradient, FD is rounding noise
                worst[grp] = max(worst[grp], abs(fd - an[i]) / max(abs(fd), abs(an[i]), 1e-8))
    elapsed = time.time() - start
    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 120
    report("C3 gradient correctness", ok,
           "worst rel err per group "
           + ", ".join(f"{grp} {v:.1e}" for grp, v in worst.items())
           + f", {elapsed:.1f}s (< 120s)")
    assert ok


def test_c4_metric_oracles():
    """auc and average_precision equal brute-force oracles on 1000 instances each."""
    start = time.time()
    rng = np.random.default_rng(4)
    worst_auc = worst_ap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # coarse grid provokes ties
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        worst_auc = max(worst_auc, abs(auc(scores, labels) - wins / (len(pos) * len(neg))))
        worst_ap = max(worst_ap, abs(average_precision(scores, labels) - brute_force_ap(scores, labels)))
    elapsed = time.time() - start
    ok = worst_auc < 1e-12 and worst_ap < 1e-12 and elapsed < 30
    report("C4 metric oracles", ok,
           f"max |dAUC| {worst_auc:.1e}, max |dAP| {worst_ap:.1e}, {elapsed:.1f}s (< 30s)")
    assert ok


def test_c5_negative_sampler_validity():
    """10^4 samples per strategy with zero invariant violations vs set oracles."""
    graphs = [
        generate_erdos_renyi(12, 0.3, 6, seed=4),
        generate_sbm(14, 2, 0.6, 0.1, 6, seed=9),
        generate_sbm_churn(16, 2, 0.7, 0.1, 6, seed=11, active_prob=0.6, flip_prob=0.2),
    ]
    counts = {}
    for strategy in ("random", "historical", "inductive"):
        sampled = 0
        violations = 0
        rep = 0
        while sampled < 10_000:
            rep += 1
            for gi, g in enumerate(graphs):
                train_range = range(0, 4)
                sampler = NegativeSampler.for_graph(g, strategy, train_range)
                for t_pred in range(1, g.num_snapshots):
                    positives = g.snapshots[t_pred].edges
                    history = g.edge_union(t_pred)
                    train_edges = g.edge_union(train_range.stop)
                    before = sampler.fallback_count
                    triples = sample_pairs(
                        sampler, g, t_pred, np.random.default_rng([strategy == "random", gi, t_pred, rep])
                    )
                    fell_back = sampler.fallback_count > before
                    for u, v_pos, v_neg in triples:
                        sampled += 1
                        e_pos = (min(u, v_pos), max(u, v_pos))
                        e_neg = (min(u, v_neg), max(u, v_neg))
                        if e_pos not in positives or v_neg == u or e_neg in positives:
                            violations += 1
                        elif strategy == "historical" and not fell_back and e_neg not in history:
                            violations += 1
                        elif strategy == "inductive" and e_neg in train_edges:
                            violations += 1
        counts[strategy] = (sampled, violations)
        assert violations == 0
    report("C5 negative-sampler validity", True,
           ", ".join(f"{s}: {c[0]} samples, {c[1]} violations" for s, c in counts.items()))


def _order_block_ceiling(g, test_targets, eval_seed=0):
    """Empirical AUC ceiling of (block, pair-orientation) bins, fit on the test
    labels themselves: an upper bound for any scorer using those features."""
    block = np.arange(g.num_nodes) // (g.num_nodes // 2)
    sampler = NegativeSampler.for_graph(g, "random")
    us, vs, ys = [], [], []
    for t_pred in test_targets:
        for u, vp, vn in sample_pairs(sampler, g, t_pred, np.random.default_rng([eval_seed, t_pred])):
            us += [u, u]
            vs += [vp, vn]
            ys += [1, 0]
    u, v, y = np.array(us), np.array(vs), np.array(ys)
    intra, asc = (block[u] == block[v]), (v > u)
    score = np.zeros(len(y))
    for i in (False, True):
        for a in (False, True):
            m = (intra == i) & (asc == a)
            if m.any():
                score[m] = y[m].mean()
    return auc(score, y)


@pytest.mark.slow
def test_c6_learning_signal():
    """Faithful run of the stated criterion: default-scale model, SGD with the
    published learning-rate sweep, <= 200 epochs, random negatives, on the
    i.i.d. block-model toy. The 0.90 bar sits above that generator's
    information ceiling; this test is expected to fail red.
    """
    budget = 15 * 60
    start = time.time()
    g = generate_sbm(50, 2, 0.5, 0.05, 10, seed=1)
    train_range, val_range, test_range = split_chronological(g, SplitSpec.ratio(0.7, 0.15, 0.15))
    results = {}
    for lr in (0.1, 0.01, 0.001, 0.0001):
        if time.time() - start > budget - 90:
            break
        cfg = TrainConfig(lr=lr, epochs=200, patience=20, w=3, k=12, d=128, heads=2,
                          ffn_dim=128, norm_first=False, seed=0)
        model = cfg.build_model(g.num_nodes)
        train(model, g, cfg, train_range, val_range)
        rep = evaluate(model, g, test_range, strategy="random", train_range=train_range, seed=0)
        results[lr] = rep.aggregate_auc
        if rep.aggregate_auc >= 0.90:
            break
    best = max(results.values())
    elapsed = time.time() - start
    ceiling = _order_block_ceiling(g, test_range)
    ok = best >= 0.90 and elapsed < budget
    report("C6 learning signal", ok,
           f"best test AUC {best:.4f} over lr sweep {sorted(results)} "
           f"(target 0.90; (block, orientation) ceiling of this data {ceiling:.4f}), "
           f"{elapsed:.0f}s (< 900s)")
    assert ok, (
        f"test AUC {best:.4f} < 0.90 after the full learning-rate sweep {results}; "
        f"the i.i.d. generator's own (block, orientation)-bin ceiling on these test "
        f"snapshots is {ceiling:.4f}, so the stated target exceeds the information "
        f"content of the specified dataset."
    )


# Isolation-heavy block-model variant (degenerate equal block probabilities on
# purpose: static block structure is learnable from the embeddings alone and
# would mask the encoding comparison; the signal lives in activity churn and
# edge persistence, which only the window encodings can read).
C7_DATASET = dict(n=50, num_blocks=2, p_in=0.35, p_out=0.35, t=14, seed=3,
                  active_prob=0.5, flip_prob=0.05, drift_prob=0.0, edge_persist=0.6)


def _c7_run(g, splits, encoding, use_edge, seed):
    cfg = TrainConfig(lr=0.1, norm_first=False, epochs=120, patience=120, w=3, k=8,
                      d=32, heads=2, nhead_xa=1, ffn_dim=64, encoding=encoding,
                      use_edge_module=use_edge, seed=seed)
    model = cfg.build_model(g.num_nodes)
    train(model, g, cfg, splits[0], splits[1])
    return evaluate(model, g, splits[2], strategy="random", train_range=splits[0],
                    seed=seed).aggregate_auc


@pytest.mark.slow
def test_c7_ablation_directions():
    """Over 5 seeds on an isolation-heavy block model: transformed encoding beats
    the raw disconnected stacking, and the edge module does not hurt."""
    g = generate_sbm_churn(**C7_DATASET)
    iso = [s.isolation_mask().mean() for s in g.snapshots]
    assert np.mean(iso) >= 0.30
    splits = split_chronological(g, SplitSpec.ratio(0.7, 0.15, 0.15))
    slate_edge, slate_noedge, notrsf = [], [], []
    for seed in range(5):
        slate_edge.append(_c7_run(g, splits, EncodingKind.SLATE, True, seed))
        slate_noedge.append(_c7_run(g, splits, EncodingKind.SLATE, False, seed))
        notrsf.append(_c7_run(g, splits, EncodingKind.SLATE_NO_TRANSFORM, True, seed))
    m_se, m_sn, m_nt = np.mean(slate_edge), np.mean(slate_noedge), np.mean(notrsf)
    ok = m_se > m_nt and m_se >= m_sn
    report("C7 ablation directions", ok,
           f"mean AUC over 5 seeds: slate+edge {m_se:.4f} > no-transform {m_nt:.4f}: "
           f"{m_se > m_nt}; slate+edge {m_se:.4f} >= slate w/o edge {m_sn:.4f}: {m_se >= m_sn} "
           f"(isolated fraction {np.mean(iso):.2f})")
    assert m_se > m_nt, f"transformation ablation inverted: {m_se:.4f} <= {m_nt:.4f}"
    assert m_se >= m_sn, f"edge-module ablation inverted: {m_se:.4f} < {m_sn:.4f}"


def test_c8_qualitative_spectrum(tmp_path):
    """Dense 3-layer toy separates layers in the Fiedler projection; the raw
    variant's reported component count matches an independent oracle."""
    g = generate_erdos_renyi(10, 0.6, 3, seed=7)
    snaps = list(g.snapshots)
    assert all(not s.isolation_mask().any() for s in snaps)
    window = window_of(g, 2, 3)
    sg = build_supra(snaps, window=window)
    basis = smallest_eigenpairs(normalized_laplacian(sg.adjacency), 1)
    table = raw_encoding(basis, sg)
    means = [table.matrix[tau, :, 0].mean() for tau in range(3)]
    separation = max(means) - min(means)

    from slate.cli import main
    data_dir = tmp_path / "toy"
    assert main(["generate", "--kind", "er", "--n", "10", "--p", "0.6", "--t", "3",
                 "--seed", "7", "--out", str(data_dir)]) == 0
    out = tmp_path / "ins"
    assert main(["inspect", "--data", str(data_dir / "dataset"), "--t", "2", "--w", "3",
                 "--k", "1", "--out", str(out)]) == 0
    import json
    summary = json.loads((out / "summary.json").read_text())
    raw_sg = build_block_diagonal(snaps)
    oracle_components = connected_components(raw_sg.adjacency, directed=False)[0]
    reported = summary["untransformed"]["components"]

    ok = separation > 1e-3 and reported == oracle_components
    report("C8 qualitative spectrum", ok,
           f"layer-mean separation {separation:.4f} (> 1e-3); untransformed components "
           f"reported {reported} == oracle {oracle_components}")
    assert ok


def test_c9_determinism(tmp_path):
    """Re-running commands with identical configs yields bit-identical outputs."""
    from slate.cli import main

    data_dir = tmp_path / "data"
    gen_args = ["generate", "--kind", "sbm", "--n", "12", "--blocks", "2", "--p-in", "0.6",
                "--p-out", "0.1", "--t", "6", "--seed", "2", "--out", str(data_dir)]
    assert main(gen_args) == 0
    first_edges = (data_dir / "dataset.edges").read_bytes()
    assert main(gen_args) == 0
    assert (data_dir / "dataset.edges").read_bytes() == first_edges

    run_dir, ev_dir = tmp_path / "run", tmp_path / "ev"
    train_args = ["train", "--data", str(data_dir / "dataset"), "--out", str(run_dir),
                  "--w", "2", "--k", "2", "--d", "16", "--heads", "2", "--nhead-xa", "1",
                  "--ffn-dim", "32", "--epochs", "3", "--seed", "0"]
    eval_args = ["eval", "--run", str(run_dir), "--out", str(ev_dir), "--seed", "0"]
    assert main(train_args) == 0 and main(eval_args) == 0
    snapshot = {
        p: p.read_bytes()
        for p in (run_dir / "history.json", run_dir / "model.ckpt", ev_dir / "eval_random.json")
    }
    assert main(train_args) == 0 and main(eval_args) == 0
    same = all(p.read_bytes() == content for p, content in snapshot.items())
    report("C9 determinism", same, "generate/train/eval reruns bit-identical")
    assert same
