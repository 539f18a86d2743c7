import io
import math
import multiprocessing
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import zipfile

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
        assert an.shape == p.shape, f"gradient shape {an.shape} for a tensor of shape {p.shape}"
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-8)
        rel = np.abs(fd - an) / denom
        # identically-zero gradients: central differences return rounding noise
        rel[np.maximum(np.abs(fd), np.abs(an)) < 1e-7] = 0.0
        assert rel.max() < tol, f"rel err {rel.max():.2e}"


def assert_rel_close(actual, expected, tol=1e-12, scale=None):
    """Agreement to tol relative to scale, by default the largest entry of the
    reference."""
    if scale is None:
        scale = max(np.abs(expected).max(initial=0.0), 1e-300)
    err = np.abs(np.asarray(actual) - expected).max(initial=0.0) / scale
    assert err <= tol, f"rel err {err:.2e}"


def weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    """Scalar sum(out * weights): its gradient w.r.t. out is weights."""
    flat = nn.reshape(out, (1, out.data.size))
    return nn.reshape(nn.linear(flat, Tensor(weights.reshape(-1, 1)), Tensor(np.zeros(1))), ())


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

    @pytest.mark.parametrize("lead", [(5,), (3, 4), (2, 3, 2)], ids=["2d", "3d", "4d"])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_folded_matches_per_slice_reference(self, lead, x_grad):
        rng = np.random.default_rng(len(lead))
        x = Tensor(rng.standard_normal((*lead, 6)), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        g_out = rng.standard_normal((*lead, 4))
        with Tape() as tape:
            out = nn.linear(x, w, b)
            tape.backward(weighted_sum(out, g_out))
        # reference: one 2-D product per row of the leading axes
        rows_x = x.data.reshape(-1, 6)
        rows_g = g_out.reshape(-1, 4)
        ref_out = np.stack([r @ w.data + b.data for r in rows_x]).reshape(*lead, 4)
        ref_dx = np.stack([g @ w.data.T for g in rows_g]).reshape(x.shape)
        ref_dw = sum(np.outer(r, g) for r, g in zip(rows_x, rows_g))
        ref_db = rows_g.sum(axis=0)
        assert out.shape == (*lead, 4)
        assert_rel_close(out.data, ref_out)
        assert_rel_close(w.grad, ref_dw)
        assert_rel_close(b.grad, ref_db)
        if x_grad:
            assert_rel_close(x.grad, ref_dx)
        else:
            assert x.grad is None


class TestGatherRows:
    @pytest.mark.parametrize("idx_shape", [(40,), (8, 5), (2, 4, 5)], ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held-grad"])
    def test_backward_matches_add_at(self, idx_shape, held):
        rng = np.random.default_rng(len(idx_shape))
        a = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        idx = rng.choice([0, 0, 0, 2, 5], size=idx_shape)  # heavy repeats; rows 1, 3, 4 unused
        start = rng.standard_normal(a.shape) if held else np.zeros(a.shape)
        a.grad = start.copy() if held else None
        g_out = rng.standard_normal((*idx_shape, 3))
        with Tape() as tape:
            out = nn.gather_rows(a, idx)
            tape.backward(weighted_sum(out, g_out))
        ref = start.copy()
        np.add.at(ref, idx, g_out)
        assert np.array_equal(out.data, a.data[idx])
        assert_rel_close(a.grad, ref)
        assert np.array_equal(a.grad[[1, 3, 4]], start[[1, 3, 4]])


class TestAttention:
    def _params(self, d, seed=0):
        store = ParameterStore(seed)
        return store, nn.init_attention(store, "attn", d)

    def test_single_token_weight_is_one(self):
        store, params = self._params(4)
        kv = Tensor(np.random.default_rng(1).standard_normal((1, 4)))
        out = nn.multi_head_attention(kv, kv, 2, params)
        # output is the value projection chain of the single token
        expected = (kv.data @ params.wv.data + params.bv.data) @ params.wo.data + params.bo.data
        assert np.allclose(out.data, expected)

    def test_rows_sum_to_one(self):
        # every key carries the same value c, so each output row is its
        # weights' sum times c, projected
        store, params = self._params(8)
        rng = np.random.default_rng(2)
        params.wv.data[...] = 0.0
        params.bv.data[...] = rng.standard_normal(8)
        q = Tensor(rng.standard_normal((5, 8)))
        kv = Tensor(rng.standard_normal((7, 8)))
        out = nn.multi_head_attention(q, kv, 2, params)
        expected = params.bv.data @ params.wo.data + params.bo.data
        assert out.shape == (5, 8)
        assert_rel_close(out.data, np.broadcast_to(expected, (5, 8)))

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
        outs = []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = Q[..., cols] @ np.swapaxes(K[..., cols], -1, -2) / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            outs.append(e / e.sum(axis=-1, keepdims=True) @ V[..., cols])
        return np.concatenate(outs, axis=-1) @ params.wo.data + params.bo.data

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_matches_per_head_reference(self, heads, batch):
        rng = np.random.default_rng(heads)
        store, params = self._params(8, seed=6)
        for p in (params.bq, params.bk, params.bv, params.bo):
            p.data[...] = rng.standard_normal(p.shape)
        q = rng.standard_normal((*batch, 5, 8))
        kv = rng.standard_normal((*batch, 7, 8))
        out = nn.multi_head_attention(Tensor(q), Tensor(kv), heads, params)
        ref_out = self._reference(q, kv, heads, params)
        assert out.shape == (*batch, 5, 8)
        assert np.abs(out.data - ref_out).max() < 1e-12

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

    @pytest.mark.parametrize("q_rows, kv_rows", [
        ([[0, 4, 4], [2, 2, 2], [0, 4, 4]], [[1, 1, 3], [5, 0, 5], [1, 1, 3]]),  # repeats
        ([[3, 1]], [[2, 2]]),  # one sequence
        ([[0], [5]], [[5], [0]]),  # one-member sequences
    ], ids=["repeated", "one-pair", "one-member"])
    def test_row_indexed_matches_gather_then_project(self, q_rows, kv_rows):
        rng = np.random.default_rng(len(q_rows))
        store, params = self._params(8, seed=9)
        for p in (params.bq, params.bk, params.bv, params.bo):
            p.data[...] = rng.standard_normal(p.shape)
        table = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
        q_rows, kv_rows = np.array(q_rows), np.array(kv_rows)
        g_out = rng.standard_normal((*q_rows.shape, 8))
        tensors = [table, *vars(params).values()]

        def run(indexed):
            for t in tensors:
                t.grad = None
            with Tape() as tape:
                if indexed:
                    out = nn.multi_head_attention(table, table, 2, params, rows=(q_rows, kv_rows))
                else:  # the reference: project the gathered sequences
                    out = nn.multi_head_attention(nn.gather_rows(table, q_rows),
                                                  nn.gather_rows(table, kv_rows), 2, params)
                tape.backward(weighted_sum(out, g_out))
            return out.data, [t.grad.copy() for t in tensors]

        out, grads = run(indexed=True)
        ref_out, ref_grads = run(indexed=False)
        assert out.shape == ref_out.shape == (*q_rows.shape, 8)
        assert_rel_close(out, ref_out)
        for name, grad, ref in zip(["table", *vars(params)], grads, ref_grads):
            # the softmax cancels a key bias, so its gradient is rounding noise
            scale = np.abs(ref_grads[0]).max() if name == "bk" else None
            try:
                assert_rel_close(grad, ref, scale=scale)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from exc

    @pytest.mark.parametrize("q_rows, kv_rows", [
        (np.zeros((2, 3), int), np.zeros((3, 3), int)),  # different sequence counts
        (np.zeros((2, 3), int), np.zeros(3, int)),  # different rank
        (np.array(0), np.array(1)),  # no sequence axis
    ], ids=["count", "rank", "scalar"])
    def test_row_indices_must_share_leading_axes(self, q_rows, kv_rows):
        store, params = self._params(4)
        table = Tensor(np.zeros((5, 4)))
        with pytest.raises(ShapeError):
            nn.multi_head_attention(table, table, 2, params, rows=(q_rows, kv_rows))

    def test_row_indices_need_2d_tables(self):
        store, params = self._params(4)
        batched = Tensor(np.zeros((2, 5, 4)))
        with pytest.raises(ShapeError):
            nn.multi_head_attention(batched, batched, 2, params,
                                    rows=(np.zeros((2, 3), int), np.zeros((2, 3), int)))


@pytest.fixture
def handoffs(monkeypatch):
    """The part count of every call that hands attention's parts to threads."""
    calls = []

    class RecordingExecutor(nn.ThreadPoolExecutor):
        def map(self, fn, parts, **kwargs):
            calls.append(len(parts))
            return super().map(fn, parts, **kwargs)

    monkeypatch.setattr(nn, "ThreadPoolExecutor", RecordingExecutor)
    return calls


class TestAttentionKernel:
    @staticmethod
    def _inputs(seed, lead=(3, 2), m=11, n=7, dh=4, dv=5):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.standard_normal((*lead, rows, cols)), requires_grad=True)
                for rows, cols in ((m, dh), (n, dh), (n, dv))]

    @staticmethod
    def _run(q, k, v, g_out):
        for t in (q, k, v):
            t.grad = None
        with Tape() as tape:
            out = nn.attention(q, k, v)
            tape.backward(weighted_sum(out, g_out))
        return out.data, [t.grad.copy() for t in (q, k, v)]

    @pytest.mark.parametrize("block_rows", [1, 2, 4, 10])
    def test_blocked_matches_single_block(self, monkeypatch, block_rows):
        q, k, v = self._inputs(block_rows)
        g_out = np.random.default_rng(20).standard_normal((3, 2, 11, 5))
        out, grads = self._run(q, k, v, g_out)
        monkeypatch.setattr(nn, "ATTENTION_BLOCK", block_rows * 6 * 7)  # lead 3 x 2, 7 keys
        b_out, b_grads = self._run(q, k, v, g_out)
        assert_rel_close(b_out, out)
        for name, grad, ref in zip("qkv", b_grads, grads):
            try:
                assert_rel_close(grad, ref)
            except AssertionError as exc:
                raise AssertionError(f"d{name}: {exc}") from exc

    @pytest.mark.parametrize("block", [None, 3 * 6 * 7], ids=["one-block", "blocked"])
    def test_weights_are_the_dense_softmax(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(nn, "ATTENTION_BLOCK", block)
        q, k, v = self._inputs(5)
        out = nn.attention(q, k, v)
        scores = q.data @ np.swapaxes(k.data, -1, -2)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        dense = e / e.sum(axis=-1, keepdims=True)
        assert out.shape == (3, 2, 11, 5)
        assert_rel_close(out.data, dense @ v.data)

    def test_gradients_add_to_held_ones(self):
        q, k, v = self._inputs(6)
        g_out = np.random.default_rng(21).standard_normal((3, 2, 11, 5))
        _, fresh = self._run(q, k, v, g_out)
        held = [np.full(t.shape, 0.5) for t in (q, k, v)]
        for t, start in zip((q, k, v), held):
            t.grad = start.copy()
        with Tape() as tape:
            tape.backward(weighted_sum(nn.attention(q, k, v), g_out))
        for t, start, grad in zip((q, k, v), held, fresh):
            assert_rel_close(t.grad, start + grad)

    def test_memory_stays_below_one_score_array(self, monkeypatch):
        # 2,000 tokens and 2 heads: one (2, 2000, 2000) float64 array is 61 MiB;
        # each head runs on its own thread of two
        monkeypatch.setattr(nn, "_workers", lambda: 2)
        rng = np.random.default_rng(22)
        store = ParameterStore(0)
        params = nn.init_attention(store, "attn", 8)
        x = Tensor(rng.standard_normal((2000, 8)), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                tape.backward(nn.mean_all(nn.multi_head_attention(x, x, 2, params)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and np.isfinite(x.grad).all()
        assert peak < 2 * 2000 * 2000 * 8, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("lead, m, n, workers, block, pooled", [
        ((2,), 40, 30, 2, 2 * 30 * 7, True),  # one head per worker, 6 blocks
        ((3,), 23, 17, 2, 3 * 17 * 4, True),  # uneven: 1 and 2 heads
        ((5, 2), 9, 6, 2, 10 * 6 * 2, True),
        ((5, 2), 9, 6, 3, 10 * 6 * 2, True),  # parts of 1, 2 and 2
        ((3,), 9, 50, 2, 10, True),  # one query row per block
        ((4,), 1, 300, 3, 1000, True),  # one block of one row, above the block size
        ((1,), 11, 7, 2, 10, False),  # leading axis 0 has one entry
        ((), 11, 7, 2, 10, False),  # 2-D inputs
        ((3, 2), 11, 7, 2, None, False),  # one block
    ], ids=["heads", "uneven", "lead-5x2", "lead-5x2-3-workers", "row-blocks", "one-row",
            "lead-1", "2-d", "one-block"])
    def test_pooled_is_bit_identical_to_one_worker(self, monkeypatch, handoffs, lead, m, n, workers,
                                                   block, pooled):
        if block is not None:
            monkeypatch.setattr(nn, "ATTENTION_BLOCK", block)
        q, k, v = self._inputs(len(lead) + m, lead=lead, m=m, n=n)
        g_out = np.random.default_rng(23).standard_normal((*lead, m, 5))
        runs = []
        for count in (1, workers):
            monkeypatch.setattr(nn, "_workers", lambda: count)
            handoffs.clear()
            runs.append(self._run(q, k, v, g_out))
            # one call for the forward and one for the backward, or none at all
            assert handoffs == ([min(count, lead[0])] * 2 if pooled and count > 1 else [])
        (out, grads), (p_out, p_grads) = runs
        assert np.array_equal(p_out, out)
        for name, grad, ref in zip("qkv", p_grads, grads):
            assert np.array_equal(grad, ref), f"d{name}"

    @pytest.mark.parametrize("block, workers", [(None, 1), (3 * 4 * 7, 1), (3 * 4 * 7, 2)],
                             ids=["one-block", "blocked", "pooled"])
    def test_results_follow_permuted_inputs(self, monkeypatch, block, workers):
        # q, k, v as multi_head_attention passes them: (lead, heads, rows, dh)
        # views of (lead, rows, heads, dh) arrays
        if block is not None:
            monkeypatch.setattr(nn, "ATTENTION_BLOCK", block)
        monkeypatch.setattr(nn, "_workers", lambda: workers)
        rng = np.random.default_rng(24)
        to_heads = (0, 2, 1, 3)
        views = [np.transpose(rng.standard_normal((3, rows, 4, cols)), to_heads)
                 for rows, cols in ((11, 6), (7, 6), (7, 5))]
        g_out = rng.standard_normal((3, 4, 11, 5))
        permuted = [Tensor(a, requires_grad=True) for a in views]
        contiguous = [Tensor(np.ascontiguousarray(a), requires_grad=True) for a in views]
        out, grads = self._run(*permuted, g_out)
        ref_out, ref_grads = self._run(*contiguous, g_out)
        assert np.array_equal(out, ref_out)
        assert np.transpose(out, to_heads).flags.c_contiguous
        for name, t, ref in zip("qkv", permuted, ref_grads):
            assert np.array_equal(t.grad, ref), f"d{name}"
            assert np.transpose(t.grad, to_heads).flags.c_contiguous, f"d{name}"

    def test_import_starts_no_thread(self):
        code = "import threading, slate, slate.nn; print(threading.active_count())"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]

    def test_import_loads_no_scipy_stats(self):
        # scipy.stats alone costs a process about 39 MiB and 0.6 s to import
        code = "import sys, slate, slate.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_no_thread_outlives_the_call(self, monkeypatch, handoffs):
        monkeypatch.setattr(nn, "ATTENTION_BLOCK", 6 * 7 * 2)
        monkeypatch.setattr(nn, "_workers", lambda: 2)
        q, k, v = self._inputs(9)
        self._run(q, k, v, np.ones((3, 2, 11, 5)))
        assert handoffs == [2, 2]  # the forward and the backward ran on threads
        alive = [t.name for t in threading.enumerate() if t.name.startswith("slate-attention")]
        assert alive == []

    def test_forked_child_runs_pooled_attention(self, monkeypatch):
        # the parent has run threads before the fork; the child starts its own
        monkeypatch.setattr(nn, "ATTENTION_BLOCK", 6 * 7 * 2)
        monkeypatch.setattr(nn, "_workers", lambda: 2)
        q, k, v = self._inputs(8)
        g_out = np.ones((3, 2, 11, 5))
        out, grads = self._run(q, k, v, g_out)

        def child():
            c_out, c_grads = self._run(q, k, v, g_out)
            same = np.array_equal(c_out, out) and all(map(np.array_equal, c_grads, grads))
            os._exit(0 if same else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("forked child hung in pooled attention")
        assert proc.exitcode == 0

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (3, 5, 4), (3, 5, 4)),  # leading axes differ
        ((3, 4), (2, 5, 4), (2, 5, 4)),  # rank differs
        ((3, 4), (5, 4), (6, 4)),  # k and v have different n
        ((3, 4), (5, 3), (5, 4)),  # q and k have different dh
    ], ids=["lead", "rank", "n", "dh"])
    def test_shape_errors(self, shapes):
        q, k, v = (Tensor(np.zeros(shape)) for shape in shapes)
        with pytest.raises(ShapeError, match="attention"):
            nn.attention(q, k, v)


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
        w.grad = np.ones(w.shape)
        nn.sgd_step(store, lr=0.0)
        assert np.array_equal(w.data, before)

    def test_scalar_arithmetic(self):
        store = ParameterStore(0)
        p = store.zeros("p", 1)
        p.data[...] = 1.0
        p.grad = np.full(1, 2.0)
        nn.sgd_step(store, lr=0.1)
        assert np.allclose(p.data, 0.8)
        assert p.grad is None

    def test_weight_decay_only(self):
        store = ParameterStore(0)
        p = store.zeros("p", 1)
        p.data[...] = 1.0
        p.grad = np.zeros(1)
        nn.sgd_step(store, lr=0.1, weight_decay=0.5)
        assert np.allclose(p.data, 0.95)

    def test_missing_grad_rejected(self):
        store = ParameterStore(0)
        store.weight("w", 2, 2)
        with pytest.raises(TrainingError):
            nn.sgd_step(store, lr=0.1)

    def test_second_step_without_backward_rejected(self):
        store = ParameterStore(0)
        p = store.zeros("p", 1)
        p.data[...] = 1.0
        p.grad = np.full(1, 2.0)
        nn.sgd_step(store, lr=0.1, weight_decay=0.5)
        with pytest.raises(TrainingError):
            nn.sgd_step(store, lr=0.1, weight_decay=0.5)
        assert np.allclose(p.data, 1.0 - 0.1 * (2.0 + 0.5))  # decay applied once only


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


def old_layer_norm_grads(x, gamma, g, eps=nn.LAYER_NORM_EPS):
    """layer_norm's gradients as formed out of place, from a kept x̂:
    (dx, dgamma, dbeta)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    dxhat = g * gamma
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0), g.reshape(-1, x.shape[-1]).sum(axis=0)


class TestInPlaceGradients:
    """relu, mul_scalar and layer_norm build their input's gradient in their
    output's gradient buffer; the bits must be those of the out-of-place
    formulas."""

    @staticmethod
    def _data(seed, shape=(5, 3, 8)):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * 1.5 + 0.2
        x[0, 0, :3] = 0.0  # relu's kink: the gradient there is 0
        return x, rng.standard_normal(shape)

    def test_relu(self):
        x_data, g = self._data(30)
        x = Tensor(x_data, requires_grad=True)
        with Tape() as tape:
            out = nn.relu(x)
            tape.backward(weighted_sum(out, g))
        assert np.array_equal(x.grad, g * (x_data > 0.0))
        assert np.shares_memory(x.grad, out.grad)

    @pytest.mark.parametrize("c", [-1.7, 0.125, 1.0 / 3.0])
    def test_mul_scalar(self, c):
        x_data, g = self._data(31)
        x = Tensor(x_data, requires_grad=True)
        with Tape() as tape:
            out = nn.mul_scalar(x, c)
            tape.backward(weighted_sum(out, g))
        assert np.array_equal(x.grad, c * g)
        assert np.shares_memory(x.grad, out.grad)

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_layer_norm(self, x_grad):
        x_data, g = self._data(32)
        rng = np.random.default_rng(33)
        x = Tensor(x_data, requires_grad=x_grad)
        gamma = Tensor(rng.standard_normal(8), requires_grad=True)
        beta = Tensor(rng.standard_normal(8), requires_grad=True)
        with Tape() as tape:
            out = nn.layer_norm(x, gamma, beta)
            tape.backward(weighted_sum(out, g))
        dx, dgamma, dbeta = old_layer_norm_grads(x_data, gamma.data, g)
        assert np.array_equal(gamma.grad, dgamma)
        assert np.array_equal(beta.grad, dbeta)
        if x_grad:
            assert np.array_equal(x.grad, dx)
            assert np.shares_memory(x.grad, out.grad)
        else:
            assert x.grad is None
            assert np.array_equal(out.grad, g.reshape(out.shape))  # left as it came

    def test_fan_out_into_in_place_closures(self):
        # x feeds relu, mul_scalar and layer_norm; each closure rewrites its own
        # output's gradient, and x's gradient sums them in reverse tape order
        x_data, g = self._data(34)
        rng = np.random.default_rng(35)
        g1, g2 = rng.standard_normal((2, *x_data.shape))
        x = Tensor(x_data, requires_grad=True)
        gamma, beta = Tensor(rng.standard_normal(8)), Tensor(rng.standard_normal(8))
        with Tape() as tape:
            r, s, n = nn.relu(x), nn.mul_scalar(x, -0.7), nn.layer_norm(x, gamma, beta)
            loss = nn.add(nn.add(weighted_sum(r, g), weighted_sum(s, g1)), weighted_sum(n, g2))
            tape.backward(loss)
        dx_norm, _, _ = old_layer_norm_grads(x_data, gamma.data, g2)
        assert np.array_equal(x.grad, dx_norm + -0.7 * g1 + g * (x_data > 0.0))


class TestElementwiseOps:
    def test_all_primitive_gradients(self, monkeypatch):
        # 3 query rows per attention block at 2 leading rows and 4 keys
        monkeypatch.setattr(nn, "ATTENTION_BLOCK", 24)
        rng = np.random.default_rng(12)
        a2 = Tensor(rng.standard_normal((3, 4)) + 0.3, requires_grad=True)
        b2 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        a3 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        idx = np.array([[0, 2], [1, 1]])
        attn = nn.init_attention(ParameterStore(13), "attn", 4)
        for p in (attn.bq, attn.bk, attn.bv):
            p.data[...] = rng.standard_normal(4)
        kv_idx = np.array([[2, 0, 2], [1, 1, 0]])
        q3 = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
        q7 = Tensor(rng.standard_normal((2, 7, 3)), requires_grad=True)
        k4 = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        v4 = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)

        cases = {
            "add": (lambda: nn.mean_all(nn.add(a2, b2)), [a2, b2]),
            "mul_scalar": (lambda: nn.mean_all(nn.mul_scalar(a2, -1.7)), [a2]),
            # a max readout puts the gradient where the permutation says
            "permute": (lambda: nn.mean_all(nn.max_axis(nn.permute(a3, (2, 0, 1)), 1)), [a3]),
            "reshape": (lambda: nn.mean_all(nn.mul_scalar(nn.reshape(a3, (6, 4)), 2.0)), [a3]),
            "concat": (lambda: nn.mean_all(nn.relu(nn.concat_last([a2, b2]))), [a2, b2]),
            "slice_axis1": (lambda: nn.mean_all(nn.relu(nn.slice_axis1(a3, 1, 3))), [a3]),
            "gather": (lambda: nn.mean_all(nn.relu(nn.gather_rows(a2, idx))), [a2]),
            "gather_attention": (lambda: nn.mean_all(nn.multi_head_attention(
                a2, a2, 2, attn, rows=(idx, kv_idx))), [a2, attn.wq, attn.bq, attn.wk, attn.wv]),
            "repeat": (lambda: nn.mean_all(nn.relu(nn.repeat_rows(a2, 3))), [a2]),
            "relu": (lambda: nn.mean_all(nn.relu(a2)), [a2]),
            "attention": (lambda: nn.mean_all(nn.attention(q3, k4, v4)), [q3, k4, v4]),
            "attention_blocks": (lambda: nn.mean_all(nn.attention(q7, k4, v4)), [q7, k4, v4]),
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

    def test_add_gives_each_input_its_own_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        with Tape() as tape:
            m = nn.mul_scalar(a, 3.0)
            z = nn.add(a, b)
            tape.backward(nn.mean_all(nn.add(m, z)))
        # one array handed to both inputs of add would read 2.0 here, after
        # mul_scalar's closure adds into a.grad
        assert np.array_equal(b.grad, [0.5, 0.5])
        assert np.array_equal(a.grad, [2.0, 2.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_unused_branch_leaves_its_inputs_without_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            unused = nn.relu(nn.add(x, y))  # tracked, but the loss does not read it
            tape.backward(nn.mean_all(nn.mul_scalar(x, 2.0)))
        assert unused.grad is None and y.grad is None
        assert np.allclose(x.grad, 2.0 / 3.0)


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


def two_parameter_checkpoint(path) -> ParameterStore:
    store = ParameterStore(3)
    store.weight("layer.w", 4, 6)
    store.zeros("layer.b", 6)
    nn.save_checkpoint(store, path)
    return store


def forged_name_length(path) -> None:
    """A saved archive whose first member's name-length field reads 0xFFFF."""
    two_parameter_checkpoint(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<H", blob, 26, 0xFFFF)  # offset 26 of the member's local header
    path.write_bytes(bytes(blob))


def forged_array_header(shape):
    """An archive whose one member's .npy header declares float64 `shape` in
    front of only 64 payload bytes."""
    def forge(path) -> None:
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("p.npy", buf.getvalue() + bytes(64))
    return forge


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = ParameterStore(3)
        store.weight("layer.w", 4, 6)
        store.zeros("layer.b", 6)
        store.embedding("table", 5, 4)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(store, path)
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]  # no .npz suffix
        loaded = nn.load_checkpoint(path)
        assert set(loaded) == {"layer.w", "layer.b", "table"}
        for name, p in store.parameters().items():
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], p.data)
        other = ParameterStore(99)
        other.weight("layer.w", 4, 6)
        other.zeros("layer.b", 6)
        other.embedding("table", 5, 4)
        other.load_state(loaded)
        assert np.array_equal(other["layer.w"].data, store["layer.w"].data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        # junk, and one parameter 'p' of shape (1,) in the flat binary format
        # used before .npz archives
        for content in (b"NOPE" + b"\x00" * 16,
                        b"SLCP" + struct.pack("<III", 1, 1, 1) + b"p"
                        + struct.pack("<IQ", 1, 1) + bytes(8)):
            path.write_bytes(content)
            with pytest.raises(ConfigError, match="unreadable checkpoint"):
                nn.load_checkpoint(path)

    def test_plain_npy_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(ConfigError, match="not a checkpoint archive"):
            nn.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        two_parameter_checkpoint(path)
        blob = path.read_bytes()
        # every cut: inside a member's zip header, name, .npy header and
        # payload, and inside the central directory
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigError):
                nn.load_checkpoint(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        two_parameter_checkpoint(path)
        blob = bytearray(path.read_bytes())
        assert blob[30:41] == b"layer.w.npy"  # the first member's name in its local header
        blob[30] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="BadZipFile"):
            nn.load_checkpoint(path)

    def test_flipped_payload_bit_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        store = two_parameter_checkpoint(path)
        blob = bytearray(path.read_bytes())
        blob[blob.index(store["layer.w"].data.tobytes()) + 100] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="BadZipFile"):  # zip's CRC-32
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("forge", [
        forged_name_length,
        forged_array_header((2**40,)),
        forged_array_header((2**32, 2**32)),
        forged_array_header((2,) * 64),  # 2**64 items: 0 in int64 arithmetic
        # 2**63 is out of int64's range, which numpy's reader warns about
        pytest.param(forged_array_header((0, 2**63)), marks=pytest.mark.filterwarnings(
            "ignore:invalid value encountered in reduce:RuntimeWarning")),
    ], ids=["name-length", "dimension", "dims-overflow-int64", "items-overflow-int64",
            "empty-with-huge-dimension"])
    def test_length_field_beyond_the_file_rejected(self, tmp_path, forge):
        path = tmp_path / "model.ckpt"
        forge(path)
        with pytest.raises(ConfigError, match="unreadable checkpoint"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float32], ids=["complex128", "float32"])
    def test_non_float64_member_rejected(self, tmp_path, dtype):
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as fh:
            np.savez(fh, **{"layer.b": np.zeros(6), "layer.w": np.zeros((4, 6), dtype=dtype)})
        with pytest.raises(ConfigError, match="'layer.w' is not a float64 array"):
            nn.load_checkpoint(path)

    def test_duplicate_name_rejected(self):
        store = ParameterStore(0)
        store.zeros("p", 1)
        with pytest.raises(ConfigError):
            store.zeros("p", 1)
