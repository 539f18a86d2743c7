import math

import numpy as np
import pytest

from slate import nn
from slate.dtdg import Snapshot, generate_erdos_renyi, window_of
from slate.model import (
    BaselineEncodingTable,
    EncodingKind,
    PoolingSpec,
    SlateModel,
    compute_window_encoding,
    lap_pe_time_encoding,
    time_encoding,
)
from slate.nn import Tape, Tensor


def toy_setup(seed=0, n=6, w=2, k=2, d=16, **kwargs):
    g = generate_erdos_renyi(n, 0.6, 4, seed=3)
    assert all(s.num_edges > 0 for s in g.snapshots)
    model = SlateModel(num_nodes=n, d=d, k=k, w=w, heads=2, nhead_xa=2, ffn_dim=32,
                       seed=seed, **kwargs)
    window = window_of(g, 2, w)
    table = compute_window_encoding(g, window, EncodingKind.SLATE, k)
    return g, model, window, table


class TestTokenSequence:
    def test_shape_is_nodes_times_members_by_d(self):
        g = generate_erdos_renyi(10, 0.6, 4, seed=7)
        model = SlateModel(num_nodes=10, d=128, k=8, w=3, seed=0)
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
        g, model, window, table = toy_setup()
        z = model.token_sequence(table, len(window))
        _, weights = model.encode(z, return_weights=True)
        m = 6 * len(window)
        assert weights.shape == (model.encoder.heads, m, m)
        assert (weights > 0).all()  # softmax without masking touches every token

    def test_return_weights_leaves_the_output_unchanged(self):
        g, model, window, table = toy_setup()
        z = model.token_sequence(table, len(window))
        out, _ = model.encode(z, return_weights=True)
        assert np.array_equal(out.data, model.encode(z).data)


class TestEdgeScoring:
    def test_single_matches_batched(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        pairs = np.array([[0, 1], [3, 2], [4, 5]])
        batched = model.edge_logits(zt, pairs).data
        for i, (u, v) in enumerate(pairs):
            logit, prob = model.edge_probability(zt, int(u), int(v))
            assert abs(batched[i] - logit.data) < 1e-12
            assert abs(prob - 1.0 / (1.0 + math.exp(-float(logit.data)))) < 1e-12

    def test_self_pair_rejected(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        with pytest.raises(ValueError):
            model.edge_probability(zt, 2, 2)

    def test_window_of_one_makes_pooling_identity(self):
        g, model, window, table = toy_setup(w=1)
        zt = model.encode(model.token_sequence(table, len(window)))
        lm = model.edge_logits(zt, [[0, 1]], PoolingSpec("mean", 3)).data
        lx = model.edge_logits(zt, [[0, 1]], PoolingSpec("max", 1)).data
        assert np.allclose(lm, lx)

    def test_mean_pool_of_equal_rows_is_that_row(self):
        rng = np.random.default_rng(2)
        g, model, window, table = toy_setup()
        row = rng.standard_normal(16)
        seq = Tensor(np.tile(row, (1, len(window), 1)))
        pooled = model._pool(seq, PoolingSpec("mean", len(window)))
        assert np.allclose(pooled.data[0], row)

    def test_symmetrize_flag(self):
        g, model, window, table = toy_setup(symmetrize=True)
        zt = model.encode(model.token_sequence(table, len(window)))
        a = model.edge_logits(zt, [[1, 4]]).data
        b = model.edge_logits(zt, [[4, 1]]).data
        assert np.allclose(a, b)

    def test_logit_invariant_under_relabeling_of_bystanders(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        base, _ = model.edge_probability(zt, 0, 1)

        relabel = np.array([0, 1, 3, 4, 2, 5])  # fixes 0 and 1, shuffles the rest
        permuted = SlateModel(num_nodes=6, d=16, k=2, w=2, heads=2, nhead_xa=2,
                              ffn_dim=32, seed=0)
        permuted.store.load_state(model.store.state())
        permuted.embed_table.data[relabel] = model.embed_table.data
        mat = np.zeros_like(table.matrix)
        mat[:, relabel] = table.matrix
        zt2 = permuted.encode(permuted.token_sequence(
            Tensor(mat.reshape(-1, mat.shape[-1])), len(window)))
        moved, _ = permuted.edge_probability(zt2, 0, 1)
        assert abs(base.data - moved.data) < 1e-8

    def test_encoding_reaches_the_logit(self):
        g, model, window, table = toy_setup()
        raw = Tensor(table.flat().copy(), requires_grad=True)
        with Tape() as tape:
            zt = model.encode(model.token_sequence(raw, len(window)))
            logit, _ = model.edge_probability(zt, 0, 1)
            tape.backward(logit)
        assert np.abs(raw.grad).max() > 0.0

    def test_no_edge_module_variant(self):
        g, model, window, table = toy_setup(use_edge_module=False)
        assert not any(n.startswith("xa.") for n in model.store.parameters())
        zt = model.encode(model.token_sequence(table, len(window)))
        logits = model.edge_logits(zt, [[0, 1], [2, 3]])
        assert logits.shape == (2,)


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

    def test_lap_pe_model_end_to_end(self):
        g = generate_erdos_renyi(6, 0.6, 4, seed=3)
        model = SlateModel(num_nodes=6, d=16, k=2, w=2, heads=2, nhead_xa=1,
                           ffn_dim=32, encoding=EncodingKind.LAPPE_TIME, d_time=4, seed=0)
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
    def test_pooling_spec_validation(self):
        from slate.errors import ConfigError
        with pytest.raises(ConfigError):
            PoolingSpec("median", 3)
        with pytest.raises(ConfigError):
            PoolingSpec("mean", 0)

    def test_cross_attention_is_directional(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        a = model.edge_logits(zt, [[1, 4]]).data
        b = model.edge_logits(zt, [[4, 1]]).data
        assert not np.allclose(a, b)  # queries come from the first node only

    def test_invalid_node_ids_rejected(self):
        g, model, window, table = toy_setup()
        zt = model.encode(model.token_sequence(table, len(window)))
        with pytest.raises(ValueError):
            model.edge_logits(zt, [[0, 99]])
