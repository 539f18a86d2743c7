"""Minimal deterministic tensor kernel with reverse-mode differentiation.

Just enough machinery for one encoder layer, a cross-attention block, and a
logit-space binary cross-entropy: float64 row-major tensors, a tape recording
each op's output with its backward closure in execution order, and SGD. Every
closure hands each input's gradient to `_accumulate`, and the tape skips the
closure of an output that received no gradient. Attention runs its heads as one
array axis through one `attention` primitive: exact softmax(q kᵀ) v computed a
block of query rows at a time, whose backward pass recomputes each block's
probabilities from the kept row max and row sum, so no step holds the
(heads, n, n) scores. `permute` is the one primitive that moves axes.
`linear` folds leading axes into one 2-D GEMM. Attention can take row indices
into 2-D token tables: it then projects each table once and gathers the
sequences from the projections, whose gradients `gather_rows` scatters back
with one sparse matrix product. The encoder layer computes the bitwise-equal
rows of its input once. Its keys and values come from one row per group of c
equal rows, biased in `attention` by log c, which gives that row the softmax
weight of its c copies. With no tape recording the whole layer runs on one row
per group; under a tape the queries keep one row per input row and
`merge_rows` hands each copy 1/c of its key row's gradient. A forward/backward
pass with its tape belongs to one thread: the active tape is per thread, so
no-grad forwards over frozen parameters are safe to run concurrently with
training.

A primitive keeps for its backward pass only what that pass reads, and
copies nothing a view can stand for. Attention's output and gradients follow
their inputs' memory layout, so the heads split and merge through views. Layer norm keeps each row's mean and
inverse deviation and recomputes x̂ in its backward pass. relu, mul_scalar
and layer_norm build their input's gradient in their output's gradient
buffer, which no other tensor still needs (see `Tape`).

Attention is the one primitive that runs on several threads. When its scores
exceed one block, it cuts leading axis 0 (the heads, for the encoder) into one
contiguous part per CPU in the process's affinity mask, read on each call, and
runs each part's block loop on a thread that starts and finishes inside the
call; the calling thread allocates every array those threads write. Every
entry of its results depends on one index of that axis only, so the bits do
not depend on the number of threads.
"""

from __future__ import annotations

import contextvars
import math
import os
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ShapeError, TrainingError


class Tensor:
    """Dense float64 array with an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: contextvars.ContextVar[Tape | None] = contextvars.ContextVar("tape", default=None)


class Tape:
    """(output, backward closure) records in execution order; backward replays
    them reversed.

    Single-threaded construction is a valid topological order, so reverse
    execution order is a correct reverse-mode sweep: an output's gradient is
    complete when its closure runs. backward seeds the loss gradient with ones
    and runs a closure only if its output received a gradient, so a branch the
    loss does not use leaves its inputs' .grad as None. Gradients accumulate
    additively into Tensor.grad through `_accumulate`. An intermediate's .grad
    may be handed on to an input and added into after its closure ran, so
    after backward only a leaf's .grad is its gradient. For the same reason a
    closure may overwrite its own output's .grad in place (relu, mul_scalar
    and layer_norm build their input's gradient there): no other tensor whose
    gradient is still being summed holds that buffer.
    """

    def __init__(self):
        self._records: list = []

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn()


def _track(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(x.requires_grad for x in inputs):
        out.requires_grad = True
        tape._records.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add the gradient g to t.grad; with no gradient yet, g becomes t.grad.

    g must have t's shape, and no other tensor whose gradient is still being
    summed may hold it, since a later call adds into it in place. The output
    whose closure computed g is complete, so g may be (a view of) its .grad,
    and that closure may have built g in place in its .grad; `add`, which
    hands one gradient to two inputs, copies it for the second.
    """
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward():
        if a.requires_grad:
            _accumulate(a, out.grad)
        if b.requires_grad:
            _accumulate(b, out.grad.copy() if a.requires_grad else out.grad)

    return _track(out, (a, b), backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def backward():
        if a.requires_grad:
            out.grad *= c
            _accumulate(a, out.grad)

    return _track(out, (a,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias, the bias broadcast over all leading axes.

    The leading axes are folded into one, so forward and backward each run
    plain 2-D GEMMs rather than numpy's batched matmul; the bias is added in
    place into the GEMM's output."""
    if weight.data.ndim != 2 or x.shape[-1] != weight.shape[0] or bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: x{x.shape} @ W{weight.shape} + b{bias.shape}")
    x2 = x.data.reshape(-1, weight.shape[0])
    y = x2 @ weight.data
    y += bias.data
    out = Tensor(y.reshape(*x.shape[:-1], weight.shape[1]))

    def backward():
        g = out.grad.reshape(-1, weight.shape[1])
        if x.requires_grad:
            _accumulate(x, (g @ weight.data.T).reshape(x.shape))
        if weight.requires_grad:
            _accumulate(weight, x2.T @ g)
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    return _track(out, (x, weight, bias), backward)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder the axes of a, as np.transpose(a, axes)."""
    out = Tensor(np.transpose(a.data, axes))
    inverse = np.argsort(axes)

    def backward():
        if a.requires_grad:
            _accumulate(a, np.transpose(out.grad, inverse))

    return _track(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward():
        if a.requires_grad:
            _accumulate(a, out.grad.reshape(a.shape))

    return _track(out, (a,), backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def backward():
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, out.grad[..., lo:hi])

    return _track(out, tuple(parts), backward)


def slice_axis1(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[:, start:stop].copy())

    def backward():
        if a.requires_grad:
            g = np.zeros(a.shape)
            g[:, start:stop] = out.grad
            _accumulate(a, g)

    return _track(out, (a,), backward)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of a 2D tensor; idx may have any shape.

    The backward pass scatters the output gradient back with one sparse
    (rows, idx.size) 0/1 matrix product, summing repeated rows."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])

    def backward():
        if a.requires_grad:
            flat = idx.ravel()
            order = np.argsort(flat, kind="stable")
            indptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=a.shape[0]))))
            scatter = sp.csr_matrix((np.ones(flat.size), order, indptr), shape=(a.shape[0], flat.size))
            _accumulate(a, scatter @ out.grad.reshape(flat.size, a.shape[1]))

    return _track(out, (a,), backward)


def repeat_rows(a: Tensor, reps: int) -> Tensor:
    """Stack `reps` copies of a 2D tensor along axis 0."""
    out = Tensor(np.tile(a.data, (reps, 1)))

    def backward():
        if a.requires_grad:
            _accumulate(a, out.grad.reshape(reps, *a.shape).sum(axis=0))

    return _track(out, (a,), backward)


def merge_rows(a: Tensor, first: np.ndarray, inverse: np.ndarray, counts: np.ndarray) -> Tensor:
    """One row per group of equal rows of a 2-D tensor: row j is a[first[j]],
    which equals the counts[j] rows i with inverse[i] == j.

    Since a group's rows are equal, its row is also their mean, and the
    backward pass is the mean's adjoint: each row of a group gets 1/c of the
    group's gradient, c its row count."""
    out = Tensor(a.data[first])

    def backward():
        if a.requires_grad:
            _accumulate(a, (out.grad / counts[:, None])[inverse])

    return _track(out, (a,), backward)


def _row_groups(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The groups of bitwise-equal rows of a 2-D array, as (first, inverse,
    counts) in order of first appearance: first[j] is group j's first row,
    inverse[i] is row i's group, counts[j] is group j's row count, so
    x[first][inverse] is x. None when x is not 2-D or has no repeated row.
    Rows that differ only in a zero's sign are not equal."""
    if x.ndim != 2:
        return None
    rows = np.ascontiguousarray(x).view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(rows, return_index=True, return_inverse=True,
                                          return_counts=True)
    if len(first) == len(rows):
        return None
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse], counts[order]


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward():
        if a.requires_grad:
            out.grad *= a.data > 0.0
            _accumulate(a, out.grad)

    return _track(out, (a,), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    pos = z >= 0
    out = np.empty_like(z)
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Score entries one attention block may hold: its query rows are chosen so
# that (leading axes) x rows x keys stays within this many float64 values.
ATTENTION_BLOCK = 1 << 20


def _workers() -> int:
    """CPUs in the process's affinity mask, read on each call."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _first(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading prod(shape) entries of the contiguous array buf, as a
    contiguous array of that shape."""
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _add_matmul(total: np.ndarray, a: np.ndarray, b: np.ndarray, product) -> None:
    """total = a @ b when product is None, else total += a @ b, a @ b put in the
    array product."""
    if product is None:
        np.matmul(a, b, out=total)
    else:
        np.add(total, np.matmul(a, b, out=product), out=total)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """softmax(q kᵀ + bias) v over the last two axes: q (..., m, dh), k (..., n,
    dh), v (..., n, dv), equal leading axes; no scaling and no masking. bias,
    a constant of shape (n,), is added to every query's scores.

    A key biased by log c gets exactly the softmax weight of c copies of it, so
    attention over the distinct rows of a key table, each biased by the log of
    its copy count, equals attention over the whole table; its key and value
    gradients are the sums of the copies' ones.

    Query rows are taken in blocks of at most ATTENTION_BLOCK score entries.
    A block holds whole rows against every key, so each row's softmax is exact
    within its block. Only the output and each row's max and sum are kept: the
    backward pass recomputes every block's probabilities p, bit for bit, and
    forms dV = pᵀ dO, dS = p (dO vᵀ - D), dQ = dS k and dK = dSᵀ q, where
    D = rowsum(dO O). No (..., m, n) array outlives a block.

    The output takes q's memory layout (its axis order, with v's last axis)
    and each input's gradient takes that input's, so a caller that passes
    permuted views gets results that the inverse permutation makes
    C-contiguous again; `multi_head_attention` then reshapes them as views.

    When the scores exceed one block and leading axis 0 has several entries,
    that axis is cut into min(_workers(), lead[0]) contiguous parts, and the
    forward and the backward each run every part's block loop on its own
    thread, started and joined inside that pass. A part keeps the block rows
    of the whole leading shape, and every entry of the results depends only
    on its own index along axis 0, so each is formed by the same operations
    in the same order whatever the part count: bit-identical to one thread.
    The calling thread allocates every array a part writes, at full leading
    shape, and each part writes its [part] view with out=, so no large buffer
    is freed on a worker thread, whose allocator arena would keep it.
    """
    if (q.data.ndim < 2 or not q.data.ndim == k.data.ndim == v.data.ndim
            or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
            or k.shape[-2] != v.shape[-2] or q.shape[-1] != k.shape[-1]
            or (bias is not None and np.shape(bias) != k.shape[-2:-1])):
        raise ShapeError(f"attention: q{q.shape}, k{k.shape}, v{v.shape}, "
                         f"bias{None if bias is None else np.shape(bias)}")
    lead, m, n = q.shape[:-2], q.shape[-2], k.shape[-2]
    rows = min(m, max(1, ATTENTION_BLOCK // max(1, math.prod(lead) * n)))
    blocks = [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]
    parts = [Ellipsis]  # each part indexes its share of every (*lead, ...) array
    if lead and lead[0] > 1 and math.prod(lead) * m * n > ATTENTION_BLOCK:
        count = min(_workers(), lead[0])
        cuts = [lead[0] * i // count for i in range(count + 1)]
        parts = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]

    def run(fn) -> None:
        """fn(part) for every part: here when there is one, else one thread each."""
        if len(parts) == 1:
            fn(parts[0])
        else:
            with ThreadPoolExecutor(len(parts), thread_name_prefix="slate-attention") as pool:
                list(pool.map(fn, parts))

    kt = np.swapaxes(k.data, -1, -2)
    row_max = np.empty((*lead, m, 1))
    row_sum = np.empty((*lead, m, 1))
    out = Tensor(np.empty_like(q.data, shape=(*lead, m, v.shape[-1])))

    def scores(part, b: slice, buf: np.ndarray) -> np.ndarray:
        qb = q.data[part][..., b, :]
        s = np.matmul(qb, kt[part], out=_first(buf[part], (*qb.shape[:-1], n)))
        if bias is not None:
            s += bias
        return s

    s_buf = np.empty((*lead, rows, n))

    def forward(part) -> None:
        mx, sm = row_max[part], row_sum[part]
        for b in blocks:
            s = scores(part, b, s_buf)
            np.max(s, axis=-1, keepdims=True, out=mx[..., b, :])
            s -= mx[..., b, :]
            np.exp(s, out=s)
            np.sum(s, axis=-1, keepdims=True, out=sm[..., b, :])
            s /= sm[..., b, :]
            np.matmul(s, v.data[part], out=out.data[part][..., b, :])

    run(forward)

    def backward():
        g = out.grad
        need_scores = q.requires_grad or k.requires_grad
        d = np.sum(g * out.data, axis=-1, keepdims=True) if need_scores else None
        vt = np.swapaxes(v.data, -1, -2)
        gq, gk, gv = (np.empty_like(t.data) if t.requires_grad else None for t in (q, k, v))
        several = len(blocks) > 1
        p_buf = np.empty((*lead, rows, n))
        ds_buf = np.empty_like(p_buf) if need_scores else None
        gk_buf = np.empty((*lead, n, k.shape[-1])) if gk is not None and several else None
        gv_buf = np.empty((*lead, n, v.shape[-1])) if gv is not None and several else None

        def part_backward(part) -> None:
            for i, b in enumerate(blocks):
                p = scores(part, b, p_buf)  # the forward's probabilities, recomputed
                p -= row_max[part][..., b, :]
                np.exp(p, out=p)
                p /= row_sum[part][..., b, :]
                gb = g[part][..., b, :]
                if gv is not None:
                    _add_matmul(gv[part], np.swapaxes(p, -1, -2), gb, gv_buf[part] if i else None)
                if not need_scores:
                    continue
                ds = np.matmul(gb, vt[part], out=_first(ds_buf[part], p.shape))
                ds -= d[part][..., b, :]
                ds *= p
                if gq is not None:
                    np.matmul(ds, k.data[part], out=gq[part][..., b, :])
                if gk is not None:
                    _add_matmul(gk[part], np.swapaxes(ds, -1, -2), q.data[part][..., b, :],
                                gk_buf[part] if i else None)

        run(part_backward)
        for t, grad in ((q, gq), (k, gk), (v, gv)):
            if grad is not None:
                _accumulate(t, grad)

    return _track(out, (q, k, v), backward)


LAYER_NORM_EPS = 1e-12


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; then affine."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(f"layer_norm: x{x.shape}, gamma{gamma.shape}, beta{beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = Tensor(gamma.data * xhat + beta.data)

    def backward():
        g = out.grad
        xhat = x.data - mu  # the forward's x̂, bit for bit
        xhat *= inv
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, x.shape[-1]).sum(axis=0))
        if x.requires_grad:
            # dx = inv (dx̂ - mean(dx̂) - x̂ mean(dx̂ x̂)), dx̂ = g gamma, in g's buffer
            g *= gamma.data
            dxhat_mean = g.mean(axis=-1, keepdims=True)
            xhat *= (g * xhat).mean(axis=-1, keepdims=True)
            g -= dxhat_mean
            g -= xhat
            g *= inv
            _accumulate(x, g)

    return _track(out, (x, gamma, beta), backward)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]
    out = Tensor(a.data.mean(axis=axis))

    def backward():
        if a.requires_grad:
            _accumulate(a, np.repeat(np.expand_dims(out.grad, axis) / n, n, axis=axis))

    return _track(out, (a,), backward)


def max_axis(a: Tensor, axis: int) -> Tensor:
    idx = np.argmax(a.data, axis=axis)
    out = Tensor(np.max(a.data, axis=axis))

    def backward():
        if a.requires_grad:
            scatter = np.zeros_like(a.data)
            np.put_along_axis(scatter, np.expand_dims(idx, axis), np.expand_dims(out.grad, axis), axis)
            _accumulate(a, scatter)

    return _track(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())

    def backward():
        if a.requires_grad:
            _accumulate(a, np.full(a.shape, out.grad / a.data.size))

    return _track(out, (a,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy computed in logit space.

    loss = max(z,0) - z*y + log1p(exp(-|z|)); the gradient w.r.t. the logit is
    sigmoid(z) - y. Never evaluates log(0).
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.shape} vs targets {y.shape}")
    z = logits.data
    out = Tensor(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))

    def backward():
        if logits.requires_grad:
            _accumulate(logits, out.grad * (_sigmoid(z) - y))

    return _track(out, (logits,), backward)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParameterStore:
    """Named gradient-enabled tensors with seed-deterministic initialization."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Tensor(data, requires_grad=True)
        self._params[name] = p
        return p

    def weight(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self._register(name, self._rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def embedding(self, name: str, count: int, dim: int) -> Tensor:
        bound = 1.0 / np.sqrt(dim)
        return self._register(name, self._rng.uniform(-bound, bound, size=(count, dim)))

    def zeros(self, name: str, *shape: int) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, *shape: int) -> Tensor:
        return self._register(name, np.ones(shape))

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            if name not in state:
                raise ConfigError(f"state is missing parameter {name!r}")
            if state[name].shape != p.data.shape:
                raise ConfigError(f"shape mismatch for {name!r}: {state[name].shape} vs {p.data.shape}")
            p.data[...] = state[name]


def sgd_step(store: ParameterStore, lr: float, weight_decay: float = 0.0) -> None:
    """p <- p - lr * (grad + weight_decay * p), then drop the gradients, so a
    second step needs a new backward."""
    for name, p in store.parameters().items():
        if p.grad is None:
            raise TrainingError(f"parameter {name!r} has no gradient; run backward first")
        p.data -= lr * (p.grad + weight_decay * p.data)
        p.grad = None


# ---------------------------------------------------------------------------
# Attention / encoder blocks
# ---------------------------------------------------------------------------


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def init_attention(store: ParameterStore, prefix: str, dim: int) -> AttentionParams:
    return AttentionParams(
        wq=store.weight(f"{prefix}.wq", dim, dim), bq=store.zeros(f"{prefix}.bq", dim),
        wk=store.weight(f"{prefix}.wk", dim, dim), bk=store.zeros(f"{prefix}.bk", dim),
        wv=store.weight(f"{prefix}.wv", dim, dim), bv=store.zeros(f"{prefix}.bv", dim),
        wo=store.weight(f"{prefix}.wo", dim, dim), bo=store.zeros(f"{prefix}.bo", dim),
    )


def multi_head_attention(
    q: Tensor,
    kv: Tensor,
    heads: int,
    params: AttentionParams,
    rows: tuple[np.ndarray, np.ndarray] | None = None,
    bias: np.ndarray | None = None,
) -> Tensor:
    """Scaled dot-product attention, no masking, optional leading batch axis.

    Queries come from q, keys and values from kv; self-attention is q is kv.
    The heads are one array axis: each projection is split to (..., heads, m,
    dh) and one `attention` call runs every head, a block of query rows at a
    time, recomputing each block's probabilities in the backward pass, so no
    (..., heads, m, n) array is kept on the tape. Per-head scale is
    1/sqrt(dh), applied to the query projection.

    With rows = (q_rows, kv_rows), q and kv are 2-D token tables and the
    sequences are gathered from them: q_rows (..., m) and kv_rows (..., n)
    index table rows and share their leading axes. The projections run once
    on each table and the rows are gathered from the projected tables, which
    equals projecting the gathered rows, since a linear map commutes with a
    row gather; the output has shape (..., m, dim).

    bias, of shape (n,), is passed to `attention`: every head adds it to every
    query's scores. A key row that stands for c equal rows of a longer key
    table, biased by log c, gives the attention over that table.
    """
    dim = q.shape[-1]
    if dim % heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by heads {heads}")
    q_shape, kv_shape = q.shape, kv.shape
    q_rows = kv_rows = None
    if rows is not None:
        q_rows, kv_rows = (np.asarray(r, dtype=np.intp) for r in rows)
        if (q.data.ndim != 2 or kv.data.ndim != 2 or min(q_rows.ndim, kv_rows.ndim) < 1
                or q_rows.shape[:-1] != kv_rows.shape[:-1]):
            raise ShapeError(f"attention rows: q{q.shape}[{q_rows.shape}] vs "
                             f"kv{kv.shape}[{kv_rows.shape}]")
        q_shape, kv_shape = (*q_rows.shape, dim), (*kv_rows.shape, kv.shape[-1])
    if kv_shape[-1] != dim or kv_shape[:-2] != q_shape[:-2]:
        raise ShapeError(f"attention: q{q_shape} vs kv{kv_shape}")
    dh = dim // heads
    nb = len(q_shape) - 2
    to_heads = (*range(nb), nb + 1, nb, nb + 2)  # (..., m, heads, dh) <-> (..., heads, m, dh)

    def split(x: Tensor, idx) -> Tensor:
        if idx is not None:
            x = gather_rows(x, idx)
        return permute(reshape(x, (*x.shape[:-1], heads, dh)), to_heads)

    Q = split(mul_scalar(linear(q, params.wq, params.bq), 1.0 / np.sqrt(dh)), q_rows)
    K = split(linear(kv, params.wk, params.bk), kv_rows)
    V = split(linear(kv, params.wv, params.bv), kv_rows)
    core = attention(Q, K, V, bias)
    return linear(reshape(permute(core, to_heads), q_shape), params.wo, params.bo)


@dataclass
class EncoderLayerParams:
    heads: int
    norm_first: bool
    attn: AttentionParams
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def init_encoder_layer(
    store: ParameterStore, prefix: str, dim: int, heads: int, ffn_dim: int, norm_first: bool
) -> EncoderLayerParams:
    if dim % heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by heads {heads}")
    return EncoderLayerParams(
        heads=heads,
        norm_first=norm_first,
        attn=init_attention(store, f"{prefix}.attn", dim),
        ln1_g=store.ones(f"{prefix}.ln1.gamma", dim), ln1_b=store.zeros(f"{prefix}.ln1.beta", dim),
        ln2_g=store.ones(f"{prefix}.ln2.gamma", dim), ln2_b=store.zeros(f"{prefix}.ln2.beta", dim),
        w1=store.weight(f"{prefix}.ffn.w1", dim, ffn_dim), b1=store.zeros(f"{prefix}.ffn.b1", ffn_dim),
        w2=store.weight(f"{prefix}.ffn.w2", ffn_dim, dim), b2=store.zeros(f"{prefix}.ffn.b2", dim),
    )


def encoder_layer(z: Tensor, params: EncoderLayerParams) -> Tensor:
    """One transformer encoder block: attention + feed-forward with residuals,
    pre-norm or post-norm per params.norm_first.

    Bitwise-equal rows of a 2-D z are found once per call and computed once.
    Keys and values are projected from one row per group of equal rows, and
    `attention` biases each such key by log c, c its group's row count, which
    gives it the softmax weight of its c copies. With no tape recording, the
    whole block runs on one row per group and its output rows are copied back
    to every row of the group: every other step works row by row. Under a
    tape, queries, residuals, norms and the feed-forward keep one row per
    input row, since each copy has its own gradient; `merge_rows` hands each
    copy 1/c of its key row's gradient, which is exact because equal keys
    have equal key and value gradients. A z with no repeated row runs the
    plain block, with no bias.
    """
    groups = _row_groups(z.data)
    if groups is None:
        return _encoder_block(z, params)
    first, inverse, counts = groups
    bias = np.log(counts)
    if _ACTIVE_TAPE.get() is None:
        return Tensor(_encoder_block(Tensor(z.data[first]), params, bias).data[inverse])
    return _encoder_block(z, params, bias, groups)


def _encoder_block(z: Tensor, params: EncoderLayerParams, bias=None, groups=None) -> Tensor:
    """encoder_layer on z, its keys biased by bias; with groups, the
    (first, inverse, counts) of z's equal rows, keys and values come from one
    row per group."""

    def ffn(x):
        return linear(relu(linear(x, params.w1, params.b1)), params.w2, params.b2)

    a = layer_norm(z, params.ln1_g, params.ln1_b) if params.norm_first else z
    kv = a if groups is None else merge_rows(a, *groups)
    att = multi_head_attention(a, kv, params.heads, params.attn, bias=bias)
    if params.norm_first:
        h = add(z, att)
        return add(h, ffn(layer_norm(h, params.ln2_g, params.ln2_b)))
    h = layer_norm(add(z, att), params.ln1_g, params.ln1_b)
    return layer_norm(add(h, ffn(h)), params.ln2_g, params.ln2_b)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(store: ParameterStore, path) -> None:
    """An uncompressed .npz archive with one float64 member per parameter.
    Written through a file handle, so np.savez adds no .npz suffix to path."""
    with open(path, "wb") as fh:
        np.savez(fh, **{name: p.data for name, p in store.parameters().items()})


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """The parameters of a save_checkpoint file. A file that is not an .npz
    archive, a truncated or corrupt one (zip's CRC-32 covers every member),
    a forged array header, or a member that is not float64 raises
    ConfigError."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ConfigError(f"{path}: not a checkpoint archive")
        with archive:
            out = {name: archive[name] for name in archive.files}
    except (zipfile.BadZipFile, ValueError, EOFError, OSError, MemoryError) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint ({type(exc).__name__})") from exc
    for name, value in out.items():
        if not isinstance(value, np.ndarray) or value.dtype != np.float64:
            raise ConfigError(f"{path}: parameter {name!r} is not a float64 array")
    return out
