import math

import numpy as np
import pytest

from slate import nn
from slate.dtdg import Snapshot, generate_erdos_renyi, generate_sbm_churn, window_of
from slate.errors import ConfigError, NodeBoundsError
from slate.model import (
    BaselineEncodingTable,
    EncodingKind,
    SlateModel,
    _snapshot_lap_pe,
    compute_window_encoding,
    lap_pe_time_encoding,
    time_encoding,
    window_spectrum,
)
from slate.nn import Tape, Tensor
from slate.spectral import canonicalize_signs
from slate.training import TrainConfig


def toy_setup(seed=0, n=6, w=2, k=2, d=16, symmetrize=False, **kwargs):
    g = generate_erdos_renyi(n, 0.6, 4, seed=3)
    assert all(s.num_edges > 0 for s in g.snapshots)
    cfg = TrainConfig(d=d, k=k, w=w, heads=2, nhead_xa=2, ffn_dim=32, seed=seed, **kwargs)
    model = SlateModel(n, cfg, symmetrize=symmetrize)
    window = window_of(g, 2, w)
    table = compute_window_encoding(g, window, EncodingKind.SLATE, k)
    return g, model, window, table


class TestTokenSequence:
    def test_shape_is_nodes_times_members_by_d(self):
        g = generate_erdos_renyi(10, 0.6, 4, seed=7)
        model = TrainConfig(d=128, k=8, w=3, seed=0).build_model(10)
        window = window_of(g, 3, 3)
        table = compute_window_encoding(g, window, EncodingKind.SLATE, 8)
        z = model.token_sequence(table, len(window))
        assert z.shape == (10 * 3, 128)

    def test_row_ordering_window_position_major(self):
        g, model, window, table = toy_setup()
        z = model.token_sequence(table, len(window))
        emb = model.embed_table.data @ model.ge_w.data + model.ge_b.data
        enc = table.flat() @ model.st_w.data + model.st_b.data
        for tau in range(len(window)):
            for u in range(6):
                row = z.data[tau * 6 + u]
                assert np.allclose(row[:14], emb[u])
                assert np.allclose(row[14:], enc[tau * 6 + u])

    def test_identical_inputs_give_identical_tokens(self):
        g, model, window, table = toy_setup()
        mat = table.matrix.copy()
        mat[0, 1] = mat[0, 0]
        model.embed_table.data[1] = model.embed_table.data[0]
        z = model.token_sequence(
            Tensor(mat.reshape(-1, mat.shape[-1])), len(window))
        assert np.array_equal(z.data[0], z.data[1])

    def test_zeroed_encoding_projection_repeats_embeddings(self):
        g, model, window, table = toy_setup()
        model.st_w.data[...] = 0.0
        model.st_b.data[...] = 0.0
        z = model.token_sequence(table, len(window))
        assert np.array_equal(z.data[:6], z.data[6:12])  # same for every position


class TestEncode:
    def test_shape_preserved(self):
        g, model, window, table = toy_setup()
        z = model.token_sequence(table, len(window))
        assert model.encode(z).shape == z.shape

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        g, model, window, table = toy_setup()
        z = model.token_sequence(table, len(window))
        out = model.encode(z).data
        perm = rng.permutation(z.shape[0])
        out_perm = model.encode(Tensor(z.data[perm])).data
        assert np.abs(out_perm - out[perm]).max() < 1e-10

    def test_attention_is_dense_over_all_tokens(self):
        # softmax without masking: one token's change reaches every output row;
        # a random change, since the layer norm would remove a constant shift
        g, model, window, table = toy_setup()
        z = model.token_sequence(table, len(window))
        out = model.encode(z).data
        moved = z.data.copy()
        moved[-1] += np.random.default_rng(3).standard_normal(z.shape[1])
        delta = np.abs(model.encode(Tensor(moved)).data - out).max(axis=-1)
        assert delta.shape == (6 * len(window),)
        assert (delta > 1e-9).all()


class TestEdgeScoring:
    def test_single_matches_batched(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        pairs = np.array([[0, 1], [3, 2], [4, 5]])
        batched = model.edge_logits(zt, pairs).data
        for i, pair in enumerate(pairs):
            single = model.edge_logits(zt, pair[None]).data
            assert single.shape == (1,)
            assert abs(batched[i] - single[0]) < 1e-12

    def test_self_pair_rejected(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        with pytest.raises(ConfigError):
            model.edge_logits(zt, [[2, 2]])

    def test_window_of_one_makes_pooling_identity(self):
        g, mean_model, window, table = toy_setup(w=1, pooling="mean", pool_last_k=3)
        _, max_model, _, _ = toy_setup(w=1, pooling="max", pool_last_k=1)
        zm = mean_model.encode(mean_model.token_sequence(table, len(window)))
        zx = max_model.encode(max_model.token_sequence(table, len(window)))
        lm = mean_model.edge_logits(zm, [[0, 1]]).data
        lx = max_model.edge_logits(zx, [[0, 1]]).data
        assert np.allclose(lm, lx)

    def test_mean_pool_of_equal_rows_is_that_row(self):
        rng = np.random.default_rng(2)
        g, model, window, table = toy_setup()
        row = rng.standard_normal(16)
        seq = Tensor(np.tile(row, (1, len(window), 1)))
        assert model.cfg.pooling == "mean" and model.cfg.pool_last_k >= len(window)
        pooled = model._pool(seq)
        assert np.allclose(pooled.data[0], row)

    @pytest.mark.parametrize("pooling", ["mean", "max"])
    @pytest.mark.parametrize("pool_last_k, sliced", [(1, True), (2, False), (5, False)])
    def test_pool_slices_only_a_shorter_tail(self, pooling, pool_last_k, sliced):
        # a sequence of 2 positions: pool_last_k >= 2 pools all of it, uncopied
        g, model, window, table = toy_setup(pooling=pooling, pool_last_k=pool_last_k)
        seq = Tensor(np.random.default_rng(3).standard_normal((4, 2, 16)), requires_grad=True)
        with Tape() as tape:
            pooled = model._pool(seq)
        ops = [fn.__qualname__.split(".")[0] for _, fn in tape._records]
        assert ops == (["slice_axis1"] if sliced else []) + [f"{pooling}_axis"]
        reduce = np.mean if pooling == "mean" else np.max
        assert np.array_equal(pooled.data, reduce(seq.data[:, -pool_last_k:], axis=1))

    def test_symmetrize_flag(self):
        g, model, window, table = toy_setup(symmetrize=True)
        zt = model.encode(model.token_sequence(table, len(window)))
        a = model.edge_logits(zt, [[1, 4]]).data
        b = model.edge_logits(zt, [[4, 1]]).data
        assert np.allclose(a, b)

    def test_logit_invariant_under_relabeling_of_bystanders(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        base = model.edge_logits(zt, [[0, 1]])

        relabel = np.array([0, 1, 3, 4, 2, 5])  # fixes 0 and 1, shuffles the rest
        permuted = model.cfg.build_model(6)
        permuted.store.load_state(model.store.state())
        permuted.embed_table.data[relabel] = model.embed_table.data
        mat = np.zeros_like(table.matrix)
        mat[:, relabel] = table.matrix
        zt2 = permuted.encode(permuted.token_sequence(
            Tensor(mat.reshape(-1, mat.shape[-1])), len(window)))
        moved = permuted.edge_logits(zt2, [[0, 1]])
        assert abs(base.data - moved.data).max() < 1e-8

    def test_encoding_reaches_the_logit(self):
        g, model, window, table = toy_setup()
        raw = Tensor(table.flat().copy(), requires_grad=True)
        with Tape() as tape:
            zt = model.encode(model.token_sequence(raw, len(window)))
            tape.backward(model.edge_logits(zt, [[0, 1]]))
        assert np.abs(raw.grad).max() > 0.0

    def test_no_edge_module_variant(self):
        g, model, window, table = toy_setup(use_edge_module=False)
        assert not any(n.startswith("xa.") for n in model.store.parameters())
        zt = model.encode(model.token_sequence(table, len(window)))
        logits = model.edge_logits(zt, [[0, 1], [2, 3]])
        assert logits.shape == (2,)


def _gather_then_project_logits(model, zt, pairs):
    """The edge module written the direct way: gather both nodes' sequences
    from zt, then cross-attend from the u sequence to the v sequence."""
    members = zt.shape[0] // model.num_nodes

    def rows(nodes):
        return np.arange(members)[None, :] * model.num_nodes + nodes[:, None]

    def logits(pairs):
        seq_u = nn.gather_rows(zt, rows(pairs[:, 0]))
        seq_v = nn.gather_rows(zt, rows(pairs[:, 1]))
        att = nn.multi_head_attention(seq_u, seq_v, model.cfg.nhead_xa, model.xa)
        e = nn.layer_norm(nn.add(seq_u, att), model.xa_ln_g, model.xa_ln_b)
        h = nn.relu(nn.linear(model._pool(e), model.head_w1, model.head_b1))
        return nn.reshape(nn.linear(h, model.head_w2, model.head_b2), (len(pairs),))

    out = logits(pairs)
    if model.symmetrize:
        out = nn.mul_scalar(nn.add(out, logits(pairs[:, ::-1])), 0.5)
    return out


class TestGatheredProjection:
    @pytest.mark.parametrize("w, symmetrize, pairs", [
        (2, False, [[0, 1], [0, 1], [1, 0], [3, 0], [0, 3]]),
        (2, False, [[4, 1]]),
        (1, False, [[2, 5], [5, 2], [2, 3]]),
        (3, True, [[1, 4], [4, 1], [0, 2]]),
    ], ids=["repeated-nodes", "one-pair", "one-member-window", "symmetrize"])
    def test_matches_gather_then_project(self, w, symmetrize, pairs):
        from test_nn import assert_rel_close, weighted_sum

        _, model, _, _ = toy_setup(w=w, symmetrize=symmetrize)
        rng = np.random.default_rng(w)
        for name in model.param_groups()["xa"]:
            model.store[name].data[...] += 0.1 * rng.standard_normal(model.store[name].shape)
        pairs = np.array(pairs)
        zt = Tensor(rng.standard_normal((6 * w, 16)), requires_grad=True)
        g_out = rng.standard_normal(len(pairs))
        tensors = {"zt": zt, **{n: model.store[n] for n in model.param_groups()["xa"]}}

        def run(forward):
            for t in tensors.values():
                t.grad = None
            with Tape() as tape:
                logits = forward(zt, pairs)
                tape.backward(weighted_sum(logits, g_out))
            return logits.data, {n: t.grad.copy() for n, t in tensors.items()}

        logits, grads = run(model.edge_logits)
        ref_logits, ref_grads = run(lambda z, p: _gather_then_project_logits(model, z, p))
        assert_rel_close(logits, ref_logits)
        for name, ref in ref_grads.items():
            # the softmax cancels a key bias, so its gradient is rounding noise
            scale = np.abs(ref_grads["zt"]).max() if name == "xa.bk" else None
            try:
                assert_rel_close(grads[name], ref, scale=scale)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from exc

    def test_projections_run_on_the_token_table(self, monkeypatch):
        # wq, wk and wv project the (N*w, d) table once, not the (B, w, d)
        # gathered pair sequences
        _, model, window, table = toy_setup(w=2)
        zt = model.encode(model.token_sequence(table, len(window)))
        names = {id(p): n for n, p in model.store.parameters().items()}
        seen = {}
        linear = nn.linear

        def recording_linear(x, weight, bias):
            seen.setdefault(names.get(id(weight)), []).append(x.shape)
            return linear(x, weight, bias)

        monkeypatch.setattr(nn, "linear", recording_linear)
        model.edge_logits(zt, [[0, 1], [2, 3], [0, 4], [5, 1]])
        for name in ("xa.wq", "xa.wk", "xa.wv"):
            assert seen[name] == [(6 * 2, 16)], name
        assert seen["xa.wo"] == [(4, 2, 16)]


class TestEndToEndGradients:
    def test_every_parameter_group(self):
        from test_nn import fd_gradient

        g, model, window, table = toy_setup()
        pairs = np.array([[0, 1], [2, 5], [3, 4]])
        labels = np.array([1.0, 0.0, 1.0])

        def forward():
            zt = model.encode(model.token_sequence(table, len(window)))
            logits = model.edge_logits(zt, pairs)
            return nn.mean_all(nn.bce_with_logits(logits, labels))

        with Tape() as tape:
            tape.backward(forward())

        rng = np.random.default_rng(0)
        groups = model.param_groups()
        assert set(groups) == {"embed", "st", "encoder", "xa", "head"}
        for group, names in groups.items():
            assert names, group
            worst = 0.0
            for name in names:
                p = model.store[name]
                an = p.grad
                flat = p.data.ravel()
                picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
                for i in picks:
                    orig = flat[i]
                    flat[i] = orig + 1e-5
                    fp = forward().item()
                    flat[i] = orig - 1e-5
                    fm = forward().item()
                    flat[i] = orig
                    fd = (fp - fm) / 2e-5
                    if max(abs(fd), abs(an.ravel()[i])) < 1e-7:  # vanishing gradient
                        continue
                    rel = abs(fd - an.ravel()[i]) / max(abs(fd), abs(an.ravel()[i]), 1e-8)
                    worst = max(worst, rel)
            assert worst < 1e-4, f"{group}: rel err {worst:.2e}"


class TestBaselineEncoding:
    def test_time_encoding_values(self):
        assert time_encoding(0, 4)[0] == 0.0  # sin(0)
        assert abs(time_encoding(1, 4)[0] - math.sin(1.0)) < 1e-12
        # odd dim uses cosine
        assert abs(time_encoding(0, 4)[1] - 1.0) < 1e-12
        expected = math.cos(1.0 / 10000 ** (3.0 / 4.0))
        assert abs(time_encoding(1, 4)[1] - expected) < 1e-12

    def test_isolated_nodes_share_vectors(self):
        snaps = [Snapshot.from_edges(5, [(0, 1)])]
        with pytest.warns(UserWarning):  # 2 alive nodes cannot fill k=2 columns
            table = lap_pe_time_encoding(snaps, k=2, d_time=4, members=[3])
        assert isinstance(table, BaselineEncodingTable)
        assert np.array_equal(table.matrix[0, 2], table.matrix[0, 3])
        assert np.allclose(table.matrix[0, 2, :2], 0.0)
        assert np.allclose(table.matrix[0, :, 2:], time_encoding(3, 4))

    def test_small_snapshot_zero_pads_with_warning(self):
        snaps = [Snapshot.from_edges(4, [(0, 1)])]  # 2 alive nodes, k needs 3
        with pytest.warns(UserWarning, match="zero-padded"):
            table = lap_pe_time_encoding(snaps, k=3, d_time=2, members=[0])
        assert np.allclose(table.matrix[0, :, 1:3], 0.0)

    def test_snapshot_lap_pe_matches_reference(self):
        # Oracle: the dense Laplacian of the non-isolated subgraph built edge by
        # edge, its full np.linalg.eigh, and a null space written down by hand:
        # one unit vector sqrt(deg) per component, found by a search from each
        # lowest unvisited node. Solved columns are compared up to sign, since
        # symmetric eigenvectors can tie in magnitude.
        def reference(snap, k):
            out = np.zeros((snap.num_nodes, k))
            alive = np.flatnonzero(~snap.isolation_mask())
            m = len(alive)
            if m == 0:
                return out, True, 0
            pos = {int(u): i for i, u in enumerate(alive)}
            a = np.zeros((m, m))
            for u, v in snap.edges:
                a[pos[u], pos[v]] = a[pos[v], pos[u]] = 1.0
            deg = a.sum(axis=1)
            components, seen = [], set()
            for start in range(m):
                if start not in seen:
                    stack, members = [start], []
                    seen.add(start)
                    while stack:
                        i = stack.pop()
                        members.append(i)
                        for j in np.flatnonzero(a[i]):
                            if int(j) not in seen:
                                seen.add(int(j))
                                stack.append(int(j))
                    components.append(members)
            vals, vecs = np.linalg.eigh(np.eye(m) - a / np.sqrt(np.outer(deg, deg)))
            avail = min(k, m - 1)
            zeros = min(len(components), avail + 1)
            basis = vecs[:, :avail + 1].copy()
            for c in range(zeros):
                basis[:, c] = 0.0
                basis[components[c], c] = np.sqrt(deg[components[c]] / deg[components[c]].sum())
            # the solved columns are simple eigenvalues above the null space
            assert np.all(np.diff(vals[len(components) - 1:avail + 2]) > 1e-6)
            out[alive, :avail] = canonicalize_signs(basis[:, 1:])
            return out, avail < k, zeros - 1

        g = generate_sbm_churn(40, 2, 0.2, 0.02, 6, seed=1)
        snaps = [*g.snapshots, Snapshot.from_edges(5, [(0, 1)]), Snapshot.from_edges(4, []),
                 Snapshot.from_edges(11, [(0, 3), (3, 5), (5, 7), (7, 9), (9, 1), (2, 4), (4, 6), (6, 8)])]
        indicator_columns = 0
        for snap in snaps:
            for k in (1, 4):
                pe, short = _snapshot_lap_pe(snap, k)
                expected, expected_short, written = reference(snap, k)
                assert short == expected_short
                indicator_columns += written
                assert np.abs(pe[:, :written] - expected[:, :written]).max(initial=0.0) < 1e-12
                for j in range(written, k):
                    assert min(np.abs(pe[:, j] - expected[:, j]).max(),
                               np.abs(pe[:, j] + expected[:, j]).max()) < 1e-8
        assert indicator_columns > 0  # some snapshot is disconnected

    def test_lap_pe_model_end_to_end(self):
        g = generate_erdos_renyi(6, 0.6, 4, seed=3)
        model = TrainConfig(d=16, k=2, w=2, heads=2, nhead_xa=1, ffn_dim=32,
                            encoding="lappe-time", d_time=4, seed=0).build_model(6)
        window = window_of(g, 2, 2)
        table = compute_window_encoding(g, window, EncodingKind.LAPPE_TIME, 2, d_time=4)
        assert table.matrix.shape == (2, 6, 6)
        zt = model.encode(model.token_sequence(table, len(window)))
        logits = model.edge_logits(zt, [[0, 1]])
        assert logits.shape == (1,)

    def test_no_transform_encoding_uses_raw_stacking(self):
        g = generate_erdos_renyi(6, 0.6, 4, seed=3)
        window = window_of(g, 2, 2)
        table = compute_window_encoding(g, window, EncodingKind.SLATE_NO_TRANSFORM, 2)
        assert table.matrix.shape == (2, 6, 4)
        # raw variant keeps a projection row for every slot, isolated or not
        assert (np.abs(table.matrix[:, :, :2]).sum(axis=2) > 0).any()


class TestSpecDetails:
    def test_unknown_encoding_raises_config_error(self):
        g = generate_erdos_renyi(6, 0.6, 4, seed=3)
        with pytest.raises(ConfigError, match="unknown encoding 'bogus'"):
            compute_window_encoding(g, window_of(g, 2, 2), "bogus", 2)

    def test_lappe_time_has_no_window_spectrum(self):
        g = generate_erdos_renyi(6, 0.6, 4, seed=3)
        with pytest.raises(ConfigError, match="lappe-time has no multi-layer graph"):
            window_spectrum(g, window_of(g, 2, 2), EncodingKind.LAPPE_TIME, 2)

    def test_cross_attention_is_directional(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        a = model.edge_logits(zt, [[1, 4]]).data
        b = model.edge_logits(zt, [[4, 1]]).data
        assert not np.allclose(a, b)  # queries come from the first node only

    def test_invalid_node_ids_rejected(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        with pytest.raises(NodeBoundsError):
            model.edge_logits(zt, [[0, 99]])
