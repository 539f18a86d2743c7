"""Minimal deterministic tensor kernel with reverse-mode differentiation.

Just enough machinery for one encoder layer, a cross-attention block, and a
logit-space binary cross-entropy: float64 row-major tensors, a tape recording
backward closures in execution order, and SGD. Attention runs its heads as one
array axis through batched matmuls; `permute` is the one primitive that moves
axes. A forward/backward pass with its tape belongs to one thread: the active
tape is per thread, so no-grad forwards over frozen parameters are safe to run
concurrently with training.
"""

from __future__ import annotations

import contextvars
import struct
from dataclasses import dataclass

import numpy as np

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

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_ACTIVE_TAPE: contextvars.ContextVar[Tape | None] = contextvars.ContextVar("tape", default=None)


class Tape:
    """Backward closures in execution order; backward replays them reversed.

    Single-threaded construction is a valid topological order, so reverse
    execution order is a correct reverse-mode sweep. Gradients accumulate
    additively into Tensor.grad.
    """

    def __init__(self):
        self._records: list = []

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    def record(self, fn) -> None:
        self._records.append(fn)

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.ensure_grad()[...] = 1.0
        for fn in reversed(self._records):
            fn()


def _track(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(x.requires_grad for x in inputs):
        out.requires_grad = True
        tape.record(backward_fn)
    return out


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += out.grad
        if b.requires_grad:
            b.ensure_grad()[...] += out.grad

    return _track(out, (a, b), backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += c * out.grad

    return _track(out, (a,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias, the bias broadcast over all leading axes."""
    if weight.data.ndim != 2 or x.shape[-1] != weight.shape[0] or bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear: x{x.shape} @ W{weight.shape} + b{bias.shape}")
    out = Tensor(x.data @ weight.data + bias.data)

    def backward():
        if out.grad is None:
            return
        g = out.grad
        if x.requires_grad:
            x.ensure_grad()[...] += g @ weight.data.T
        if weight.requires_grad:
            weight.ensure_grad()[...] += x.data.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        if bias.requires_grad:
            bias.ensure_grad()[...] += g.reshape(-1, g.shape[-1]).sum(axis=0)

    return _track(out, (x, weight, bias), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched a @ b over equal leading axes: (..., m, k) @ (..., k, n)."""
    if (a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def backward():
        if out.grad is None:
            return
        g = out.grad
        if a.requires_grad:
            a.ensure_grad()[...] += np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            b.ensure_grad()[...] += np.matmul(np.swapaxes(a.data, -1, -2), g)

    return _track(out, (a, b), backward)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder the axes of a, as np.transpose(a, axes)."""
    out = Tensor(np.transpose(a.data, axes))
    inverse = np.argsort(axes)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += np.transpose(out.grad, inverse)

    return _track(out, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += out.grad.reshape(a.shape)

    return _track(out, (a,), backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    offsets = np.cumsum([0] + [p.shape[-1] for p in parts])

    def backward():
        if out.grad is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.ensure_grad()[...] += out.grad[..., lo:hi]

    return _track(out, tuple(parts), backward)


def slice_axis1(a: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(a.data[:, start:stop].copy())

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[:, start:stop] += out.grad

    return _track(out, (a,), backward)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of a 2D tensor; idx may have any shape."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            np.add.at(a.ensure_grad(), idx, out.grad)

    return _track(out, (a,), backward)


def repeat_rows(a: Tensor, reps: int) -> Tensor:
    """Stack `reps` copies of a 2D tensor along axis 0."""
    out = Tensor(np.tile(a.data, (reps, 1)))

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += out.grad.reshape(reps, *a.shape).sum(axis=0)

    return _track(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += out.grad * (a.data > 0.0)

    return _track(out, (a,), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    pos = z >= 0
    out = np.empty_like(z)
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax_last(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            g = out.grad
            a.ensure_grad()[...] += y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _track(out, (a,), backward)


LAYER_NORM_EPS = 1e-12


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; then affine."""
    if gamma.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise ShapeError(f"layer_norm: x{x.shape}, gamma{gamma.shape}, beta{beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(gamma.data * xhat + beta.data)

    def backward():
        if out.grad is None:
            return
        g = out.grad
        if gamma.requires_grad:
            gamma.ensure_grad()[...] += (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0)
        if beta.requires_grad:
            beta.ensure_grad()[...] += g.reshape(-1, x.shape[-1]).sum(axis=0)
        if x.requires_grad:
            dxhat = g * gamma.data
            x.ensure_grad()[...] += inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )

    return _track(out, (x, gamma, beta), backward)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]
    out = Tensor(a.data.mean(axis=axis))

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += np.expand_dims(out.grad, axis) / n

    return _track(out, (a,), backward)


def max_axis(a: Tensor, axis: int) -> Tensor:
    idx = np.argmax(a.data, axis=axis)
    out = Tensor(np.max(a.data, axis=axis))

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            scatter = np.zeros_like(a.data)
            np.put_along_axis(scatter, np.expand_dims(idx, axis), np.expand_dims(out.grad, axis), axis)
            a.ensure_grad()[...] += scatter

    return _track(out, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean())

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            a.ensure_grad()[...] += out.grad / a.data.size

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
        if out.grad is None:
            return
        if logits.requires_grad:
            logits.ensure_grad()[...] += out.grad * (_sigmoid(z) - y)

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
    """p <- p - lr * (grad + weight_decay * p), then zero the gradients."""
    for name, p in store.parameters().items():
        if p.grad is None:
            raise TrainingError(f"parameter {name!r} has no gradient; run backward first")
        p.data -= lr * (p.grad + weight_decay * p.data)
        p.zero_grad()


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
    return_weights: bool = False,
):
    """Scaled dot-product attention, no masking, optional leading batch axis.

    Queries come from q, keys and values from kv; self-attention is q is kv.
    The heads are one array axis: each projection is split to (..., heads, m,
    dh) and every head's scores come from one batched matmul. Per-head scale
    is 1/sqrt(dh), applied to the query projection. With return_weights, also
    returns the detached attention probabilities, shape (..., heads, m, n).
    """
    dim = q.shape[-1]
    if dim % heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by heads {heads}")
    if kv.shape[-1] != dim or kv.shape[:-2] != q.shape[:-2]:
        raise ShapeError(f"attention: q{q.shape} vs kv{kv.shape}")
    dh = dim // heads
    nb = q.data.ndim - 2
    lead = tuple(range(nb))
    to_heads = (*lead, nb + 1, nb, nb + 2)  # (..., m, heads, dh) <-> (..., heads, m, dh)
    to_heads_t = (*lead, nb + 1, nb + 2, nb)  # (..., n, heads, dh) -> (..., heads, dh, n)

    def split(x: Tensor, axes) -> Tensor:
        return permute(reshape(x, (*x.shape[:-1], heads, dh)), axes)

    Q = split(mul_scalar(linear(q, params.wq, params.bq), 1.0 / np.sqrt(dh)), to_heads)
    K = split(linear(kv, params.wk, params.bk), to_heads_t)
    V = split(linear(kv, params.wv, params.bv), to_heads)
    att = softmax_last(matmul(Q, K))
    merged = reshape(permute(matmul(att, V), to_heads), q.shape)
    out = linear(merged, params.wo, params.bo)
    if return_weights:
        return out, att.data.copy()
    return out


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


def encoder_layer(z: Tensor, params: EncoderLayerParams, return_weights: bool = False):
    """One transformer encoder block: attention + feed-forward with residuals,
    pre-norm or post-norm per params.norm_first. With return_weights, also
    returns the block's detached attention probabilities, shape (..., heads,
    m, m)."""

    def ffn(x):
        return linear(relu(linear(x, params.w1, params.b1)), params.w2, params.b2)

    a = layer_norm(z, params.ln1_g, params.ln1_b) if params.norm_first else z
    att = multi_head_attention(a, a, params.heads, params.attn, return_weights=return_weights)
    att, weights = att if return_weights else (att, None)
    if params.norm_first:
        h = add(z, att)
        out = add(h, ffn(layer_norm(h, params.ln2_g, params.ln2_b)))
    else:
        h = layer_norm(add(z, att), params.ln1_g, params.ln1_b)
        out = layer_norm(add(h, ffn(h)), params.ln2_g, params.ln2_b)
    return (out, weights) if return_weights else out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SLCP"
CHECKPOINT_VERSION = 1


def save_checkpoint(store: ParameterStore, path) -> None:
    """Flat little-endian binary: magic, version, count; then per parameter,
    name (u32 length + utf-8), shape (u32 rank + u64 dims), float64 payload."""
    params = store.parameters()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(params)))
        for name, p in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(struct.pack(f"<{p.data.ndim}Q", *p.data.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        def read(size: int) -> bytes:
            data = fh.read(size)
            if len(data) != size:
                raise ConfigError(f"{path}: truncated checkpoint")
            return data

        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file")
        version, count = struct.unpack("<II", read(8))
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(4))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: parameter name is not UTF-8") from exc
            (rank,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{rank}Q", read(8 * rank)) if rank else ()
            n_items = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(8 * n_items), dtype="<f8").reshape(shape)
            out[name] = data.astype(np.float64)
    return out
