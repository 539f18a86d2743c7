import math
import threading

import numpy as np
import pytest

from slate import nn
from slate.errors import ConfigError, ShapeError, TrainingError
from slate.nn import ParameterStore, Tape, Tensor


def fd_gradient(scalar_fn, x: Tensor, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one tensor."""
    grad = np.zeros_like(x.data)
    flat, gflat = x.data.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = scalar_fn()
        flat[i] = orig - h
        fm = scalar_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def assert_grads_match(build_loss, params, tol=1e-4):
    """build_loss() runs a fresh forward returning the scalar loss Tensor."""
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    analytic = {id(p): p.grad.copy() for p in params}
    for p in params:
        fd = fd_gradient(lambda: build_loss().item(), p)
        an = analytic[id(p)]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-8)
        rel = np.abs(fd - an) / denom
        # identically-zero gradients: central differences return rounding noise
        rel[np.maximum(np.abs(fd), np.abs(an)) < 1e-7] = 0.0
        assert rel.max() < tol, f"rel err {rel.max():.2e}"


class TestLinear:
    def test_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = nn.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_scalar_affine(self):
        out = nn.linear(Tensor([[2.0]]), Tensor([[3.0]]), Tensor([1.0]))
        assert out.data.tolist() == [[7.0]]

    def test_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\)"):
            nn.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)

        def build():
            return nn.mean_all(nn.linear(x, w, b))

        assert_grads_match(build, [x, w, b], tol=1e-6)


class TestAttention:
    def _params(self, d, seed=0):
        store = ParameterStore(seed)
        return store, nn.init_attention(store, "attn", d)

    def test_single_token_weight_is_one(self):
        store, params = self._params(4)
        kv = Tensor(np.random.default_rng(1).standard_normal((1, 4)))
        out, weights = nn.multi_head_attention(kv, kv, 2, params, return_weights=True)
        assert weights.shape == (2, 1, 1)
        assert np.allclose(weights, 1.0)
        # output is the value projection chain of the single token
        expected = (kv.data @ params.wv.data + params.bv.data) @ params.wo.data + params.bo.data
        assert np.allclose(out.data, expected)

    def test_rows_sum_to_one(self):
        store, params = self._params(8)
        rng = np.random.default_rng(2)
        q = Tensor(rng.standard_normal((5, 8)))
        kv = Tensor(rng.standard_normal((7, 8)))
        _, weights = nn.multi_head_attention(q, kv, 2, params, return_weights=True)
        assert weights.shape == (2, 5, 7)
        assert np.abs(weights.sum(axis=-1) - 1.0).max() < 1e-12

    def test_divisibility_enforced(self):
        store, params = self._params(6)
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(ConfigError):
            nn.multi_head_attention(x, x, 4, params)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        store, params = self._params(8, seed=5)
        q = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        kv = Tensor(rng.standard_normal((4, 8)), requires_grad=True)

        def build():
            return nn.mean_all(nn.multi_head_attention(q, kv, 2, params))

        tensors = [q, kv, params.wq, params.wk, params.wv, params.wo, params.bq, params.bo]
        assert_grads_match(build, tensors, tol=1e-5)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        store, params = self._params(8)
        q = rng.standard_normal((3, 4, 8))
        kv = rng.standard_normal((3, 6, 8))
        batched = nn.multi_head_attention(Tensor(q), Tensor(kv), 2, params)
        for b in range(3):
            single = nn.multi_head_attention(Tensor(q[b]), Tensor(kv[b]), 2, params)
            assert np.allclose(batched.data[b], single.data, atol=1e-12)

    @staticmethod
    def _reference(q, kv, heads, params):
        """Per-head NumPy attention: slice Q, K and V, softmax each head's
        scaled scores, concatenate the heads, project."""
        Q = q @ params.wq.data + params.bq.data
        K = kv @ params.wk.data + params.bk.data
        V = kv @ params.wv.data + params.bv.data
        dh = q.shape[-1] // heads
        outs, weights = [], []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = Q[..., cols] @ np.swapaxes(K[..., cols], -1, -2) / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            att = e / e.sum(axis=-1, keepdims=True)
            outs.append(att @ V[..., cols])
            weights.append(att)
        out = np.concatenate(outs, axis=-1) @ params.wo.data + params.bo.data
        return out, np.stack(weights, axis=-3)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_per_head_reference(self, heads, batch):
        rng = np.random.default_rng(heads)
        store, params = self._params(8, seed=6)
        for p in (params.bq, params.bk, params.bv, params.bo):
            p.data[...] = rng.standard_normal(p.shape)
        q = rng.standard_normal((*batch, 5, 8))
        kv = rng.standard_normal((*batch, 7, 8))
        out, weights = nn.multi_head_attention(Tensor(q), Tensor(kv), heads, params,
                                               return_weights=True)
        ref_out, ref_weights = self._reference(q, kv, heads, params)
        assert weights.shape == (*batch, heads, 5, 7)
        assert np.abs(out.data - ref_out).max() < 1e-12
        assert np.abs(weights - ref_weights).max() < 1e-12

    def test_tape_length_independent_of_heads(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
        lengths = []
        for heads in (1, 4):
            store, params = self._params(8)
            with Tape() as tape:
                nn.multi_head_attention(x, x, heads, params)
            lengths.append(len(tape._records))
        assert lengths[0] == lengths[1]

    def test_leading_axes_must_match(self):
        store, params = self._params(4)
        with pytest.raises(ShapeError):
            nn.multi_head_attention(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4))), 2, params)


class TestEncoderLayer:
    def test_residual_identity_at_zeroed_projections(self):
        store = ParameterStore(0)
        params = nn.init_encoder_layer(store, "enc", 8, 2, 16, norm_first=True)
        params.attn.wo.data[...] = 0.0
        params.attn.bo.data[...] = 0.0
        params.w2.data[...] = 0.0
        params.b2.data[...] = 0.0
        x = Tensor(np.random.default_rng(5).standard_normal((6, 8)))
        out = nn.encoder_layer(x, params)
        assert np.allclose(out.data, x.data)

    def test_shape_preserved(self):
        for norm_first in (True, False):
            store = ParameterStore(1)
            params = nn.init_encoder_layer(store, "enc", 16, 4, 32, norm_first)
            x = Tensor(np.random.default_rng(6).standard_normal((9, 16)))
            assert nn.encoder_layer(x, params).shape == (9, 16)

    @pytest.mark.parametrize("norm_first", [True, False])
    def test_gradient_matches_finite_differences(self, norm_first):
        store = ParameterStore(7)
        params = nn.init_encoder_layer(store, "enc", 16, 2, 32, norm_first)
        x = Tensor(np.random.default_rng(8).standard_normal((6, 16)), requires_grad=True)

        def build():
            # relu readout: the raw mean of a layer-normalized output is constant
            return nn.mean_all(nn.relu(nn.encoder_layer(x, params)))

        tensors = [x, params.attn.wq, params.attn.wo, params.ln1_g, params.ln2_b,
                   params.w1, params.b1, params.w2]
        assert_grads_match(build, tensors, tol=1e-5)


class TestBce:
    def test_logit_zero(self):
        logits = Tensor(np.array([0.0]), requires_grad=True)
        with Tape() as tape:
            loss = nn.mean_all(nn.bce_with_logits(logits, np.array([1.0])))
            tape.backward(loss)
        assert abs(loss.item() - math.log(2)) < 1e-12
        assert abs(logits.grad[0] + 0.5) < 1e-12

    def test_large_logit_stays_finite(self):
        loss = nn.bce_with_logits(Tensor(np.array([20.0])), np.array([1.0]))
        expected = math.log1p(math.exp(-20.0))  # softplus(-20) ~ 2.06e-9
        assert abs(loss.data[0] - expected) < 1e-15
        assert np.isfinite(loss.data).all()
        loss = nn.bce_with_logits(Tensor(np.array([-40.0])), np.array([0.0]))
        assert np.isfinite(loss.data).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal(20) * 3, requires_grad=True)
        targets = rng.integers(0, 2, size=20).astype(float)

        def build():
            return nn.mean_all(nn.bce_with_logits(logits, targets))

        assert_grads_match(build, [logits], tol=1e-6)


class TestSgd:
    def test_lr_zero_keeps_parameters(self):
        store = ParameterStore(0)
        w = store.weight("w", 3, 3)
        before = w.data.copy()
        w.ensure_grad()[...] = 1.0
        nn.sgd_step(store, lr=0.0)
        assert np.array_equal(w.data, before)

    def test_scalar_arithmetic(self):
        store = ParameterStore(0)
        p = store.zeros("p", 1)
        p.data[...] = 1.0
        p.ensure_grad()[...] = 2.0
        nn.sgd_step(store, lr=0.1)
        assert np.allclose(p.data, 0.8)
        assert np.all(p.grad == 0.0)

    def test_weight_decay_only(self):
        store = ParameterStore(0)
        p = store.zeros("p", 1)
        p.data[...] = 1.0
        p.ensure_grad()[...] = 0.0
        nn.sgd_step(store, lr=0.1, weight_decay=0.5)
        assert np.allclose(p.data, 0.95)

    def test_missing_grad_rejected(self):
        store = ParameterStore(0)
        store.weight("w", 2, 2)
        with pytest.raises(TrainingError):
            nn.sgd_step(store, lr=0.1)


class TestLayerNorm:
    def test_pre_affine_statistics(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((12, 32)) * 2 + 1)
        out = nn.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
        g = Tensor(rng.standard_normal(8), requires_grad=True)
        b = Tensor(rng.standard_normal(8), requires_grad=True)

        def build():
            return nn.mean_all(nn.layer_norm(x, g, b))

        assert_grads_match(build, [x, g, b], tol=1e-5)


class TestElementwiseOps:
    def test_all_primitive_gradients(self):
        rng = np.random.default_rng(12)
        a2 = Tensor(rng.standard_normal((3, 4)) + 0.3, requires_grad=True)
        b2 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        a3 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b3 = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        idx = np.array([[0, 2], [1, 1]])
        a4 = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)  # batch x heads
        b4 = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)

        cases = {
            "add": (lambda: nn.mean_all(nn.add(a2, b2)), [a2, b2]),
            "mul_scalar": (lambda: nn.mean_all(nn.mul_scalar(a2, -1.7)), [a2]),
            "matmul2": (lambda: nn.mean_all(nn.matmul(a2, w)), [a2, w]),
            "matmul3_3": (lambda: nn.mean_all(nn.matmul(a3, b3)), [a3, b3]),
            "matmul4_4": (lambda: nn.mean_all(nn.matmul(a4, b4)), [a4, b4]),
            # a max readout puts the gradient where the permutation says
            "permute": (lambda: nn.mean_all(nn.max_axis(nn.permute(a3, (2, 0, 1)), 1)), [a3]),
            "reshape": (lambda: nn.mean_all(nn.mul_scalar(nn.reshape(a3, (6, 4)), 2.0)), [a3]),
            "concat": (lambda: nn.mean_all(nn.relu(nn.concat_last([a2, b2]))), [a2, b2]),
            "slice_axis1": (lambda: nn.mean_all(nn.relu(nn.slice_axis1(a3, 1, 3))), [a3]),
            "gather": (lambda: nn.mean_all(nn.relu(nn.gather_rows(a2, idx))), [a2]),
            "repeat": (lambda: nn.mean_all(nn.relu(nn.repeat_rows(a2, 3))), [a2]),
            "relu": (lambda: nn.mean_all(nn.relu(a2)), [a2]),
            # read out through a matmul; the raw mean of a softmax is constant
            "softmax": (lambda: nn.mean_all(nn.matmul(nn.softmax_last(a2), w)), [a2]),
            "mean_axis": (lambda: nn.mean_all(nn.relu(nn.mean_axis(a3, 1))), [a3]),
            "max_axis": (lambda: nn.mean_all(nn.max_axis(a3, 1)), [a3]),
        }
        for name, (build, params) in cases.items():
            for p in params:
                p.grad = None
            try:
                assert_grads_match(build, params, tol=1e-4)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from exc

    def test_matmul_rejects_unequal_rank(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\) @ \(4, 5\)"):
            nn.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))

    def test_gradients_accumulate_over_reuse(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            out = nn.mean_all(nn.add(x, x))
            tape.backward(out)
        assert np.allclose(x.grad, [1.0, 1.0])  # d/dx mean(2x) = 1

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = nn.relu(x)
            with pytest.raises(ShapeError):
                tape.backward(y)


class TestTape:
    def test_active_tape_is_per_thread(self):
        # an op in another thread must not record onto this thread's open tape
        x = Tensor(np.ones(3), requires_grad=True)
        out = []
        with Tape() as tape:
            worker = threading.Thread(target=lambda: out.append(nn.mean_all(x)))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            assert tape._records == []
        assert len(out) == 1 and not out[0].requires_grad


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            store = ParameterStore(123)
            params = nn.init_encoder_layer(store, "enc", 16, 2, 32, True)
            x = Tensor(np.random.default_rng(7).standard_normal((5, 16)))
            return nn.encoder_layer(x, params).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_init_deterministic_in_seed(self):
        a = ParameterStore(9).weight("w", 8, 8)
        b = ParameterStore(9).weight("w", 8, 8)
        c = ParameterStore(10).weight("w", 8, 8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_init_bounds(self):
        w = ParameterStore(0).weight("w", 16, 4)
        assert np.abs(w.data).max() <= 1.0 / 4.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = ParameterStore(3)
        store.weight("layer.w", 4, 6)
        store.zeros("layer.b", 6)
        store.embedding("table", 5, 4)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(store, path)
        loaded = nn.load_checkpoint(path)
        assert set(loaded) == {"layer.w", "layer.b", "table"}
        for name, p in store.parameters().items():
            assert np.array_equal(loaded[name], p.data)
        other = ParameterStore(99)
        other.weight("layer.w", 4, 6)
        other.zeros("layer.b", 6)
        other.embedding("table", 5, 4)
        other.load_state(loaded)
        assert np.array_equal(other["layer.w"].data, store["layer.w"].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError):
            nn.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        store = ParameterStore(3)
        store.weight("layer.w", 4, 6)
        store.zeros("layer.b", 6)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(store, path)
        blob = path.read_bytes()
        # every cut: inside the header, a name, a shape and a payload
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigError):
                nn.load_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        store = ParameterStore(3)
        store.zeros("b", 1)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[16] = 0xFF  # first byte of the parameter name
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="not UTF-8"):
            nn.load_checkpoint(path)

    def test_duplicate_name_rejected(self):
        store = ParameterStore(0)
        store.zeros("p", 1)
        with pytest.raises(ConfigError):
            store.zeros("p", 1)
