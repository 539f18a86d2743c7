"""Outside-in tracing: spans around calls into slate's public functions.

A `Tracer` replaces public names where their callers look them up (a module
global such as `slate.training.sample_pairs`, or a class attribute such as
`SlateModel.encode`) with wrappers that record one span per call: name,
start, end, parent and self time. Spans stay in memory; `write` puts them out
as JSON lines when the run ends. `uninstall` restores every replaced name.

`layer_metrics` turns the spans into the per-layer metrics of BENCHMARK.json.
The program is single-threaded, so a span's self time (its duration minus the
time its child spans cover) is the time that layer was busy.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# Spans that score held-out pairs: nn calls inside them are not training work.
EVAL_SPANS = frozenset({"training.evaluate", "bench.eval"})
# Public functions of slate.nn that are not tensor primitives.
NN_NOT_PRIMITIVE = frozenset({
    "tensor", "init_attention", "init_encoder_layer", "save_checkpoint",
    "load_checkpoint", "sgd_step", "multi_head_attention", "encoder_layer",
})


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    self_s: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a Tracer in untraced runs: bench spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records nested spans and per-call observations for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.softmax_peak_bytes = 0
        self.max_residual = 0.0
        self.residual_cases: list[tuple] = []  # (matrix, basis, tolerance), checked after the run
        self.samplers: dict[int, object] = {}  # every NegativeSampler seen, for its fallback tally
        self.missing: list[str] = []  # names the program no longer has
        self._open: list[int] = []
        self._child_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        self._child_s.append(0.0)

    def end(self, error: str | None = None) -> None:
        span = self.spans[self._open.pop()]
        span.end = time.perf_counter()
        span.self_s = span.duration - self._child_s.pop()
        span.error = error
        if self._child_s:
            self._child_s[-1] += span.duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        except BaseException as exc:
            self.end(type(exc).__name__)
            raise
        self.end()

    # -- instrumentation -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr with a spanned wrapper. observe(result, error,
        arguments) runs after the span has closed; arguments() binds the call's
        arguments by name, defaults included."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        signature = inspect.signature(orig) if observe else None
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.end(type(exc).__name__)
                if observe is not None:
                    observe(None, exc, lambda: _bind(signature, args, kwargs))
                raise
            tracer.end()
            if observe is not None:
                observe(out, None, lambda: _bind(signature, args, kwargs))
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        """Wrap the public functions of every traced layer of slate."""
        from slate import dtdg, metrics, model, nn, sampling, spectral, supra, training

        self.missing = []
        w = self.wrap
        # dtdg
        w(dtdg, "generate_sbm", "dtdg.generate")
        w(dtdg, "generate_sbm_churn", "dtdg.generate")
        w(dtdg.DynamicGraph, "edge_union", "dtdg.edge_union")
        # supra: build_* are looked up in slate.model, verify_connected in slate.supra
        w(model, "build_supra", "supra.build", self._observe_build)
        w(model, "build_block_diagonal", "supra.build", self._observe_build)
        w(supra, "verify_connected", "supra.verify_connected")
        # spectral
        w(model, "normalized_laplacian", "spectral.normalized_laplacian")
        observe_eig = functools.partial(self._observe_eig, spectral)
        w(model, "smallest_eigenpairs", "spectral.eigenpairs", observe_eig)
        w(model, "smallest_eigenpairs_raw", "spectral.eigenpairs", observe_eig)
        w(model, "raw_encoding", "spectral.raw_encoding")
        # model
        w(model.SlateModel, "token_sequence", "model.token_sequence")
        w(model.SlateModel, "encode", "model.encode")
        w(model.SlateModel, "edge_logits", "model.edge_logits")
        w(model, "lap_pe_time_encoding", "model.lap_pe_time_encoding")
        for owner in (model, training):
            w(owner, "compute_window_encoding", "model.compute_window_encoding")
        # nn: every public primitive, the two composite blocks, backward and SGD
        for attr, fn in list(vars(nn).items()):
            if (inspect.isfunction(fn) and fn.__module__ == nn.__name__
                    and not attr.startswith("_") and attr not in NN_NOT_PRIMITIVE):
                observe = self._observe_softmax if attr == "softmax_last" else None
                w(nn, attr, f"nn.{attr}", observe)
        w(nn, "multi_head_attention", "nn.multi_head_attention")
        w(nn, "encoder_layer", "nn.encoder_layer")
        w(nn, "sgd_step", "nn.sgd_step")
        w(nn.Tape, "backward", "nn.backward")
        # sampling
        for owner in (sampling, training):
            w(owner, "sample_pairs", "sampling.sample_pairs", self._observe_sample)
        w(sampling.NegativeSampler, "pool_for", "sampling.pool_for", self._observe_pool)
        # metrics
        for owner in (metrics, training):
            w(owner, "auc", "metrics.auc")
            w(owner, "average_precision", "metrics.average_precision")
        # training
        w(training, "train", "training.train")
        w(training, "evaluate", "training.evaluate")

    # -- observations (run after the span closed, so they cost no layer time) --

    def _observe_build(self, out, error, arguments):
        if error is None:
            self.counts["supra.rows"] += out.size

    def _observe_eig(self, spectral, out, error, arguments):
        args = arguments()
        lap, method = args["lap"], args["method"]
        cutoff = getattr(spectral, "DENSE_CUTOFF", None)
        dense = method == "dense" or (method == "auto" and cutoff is not None and lap.size <= cutoff)
        self.counts["spectral.eig_dense_calls" if dense else "spectral.eig_iterative_calls"] += 1
        if error is not None:
            self.counts["spectral.eig_failed"] += 1
            return
        tolerance = max(args["tol"], 1e-8 * lap.size)
        self.residual_cases.append((lap.matrix, out, tolerance))

    def _observe_softmax(self, out, error, arguments):
        if error is None:
            self.softmax_peak_bytes = max(self.softmax_peak_bytes, out.data.nbytes)

    def _observe_sample(self, out, error, arguments):
        if error is None:
            self.counts["sampling.pairs"] += len(out)
        sampler = arguments()["sampler"]
        self.samplers[id(sampler)] = sampler

    def _observe_pool(self, out, error, arguments):
        if error is None:
            self.counts["sampling.candidates"] += len(out)

    # -- after the run ---------------------------------------------------------

    def check_residuals(self) -> list[str]:
        """||L v - lambda v|| of every returned basis, against the solver's own
        acceptance tolerance; returns one message per basis that exceeds it and
        sets max_residual."""
        problems = []
        for matrix, basis, tolerance in self.residual_cases:
            vecs, vals = basis.eigenvectors, basis.eigenvalues
            residual = float(np.linalg.norm(matrix @ vecs - vecs * vals, axis=0).max(initial=0.0))
            self.max_residual = max(self.max_residual, residual)
            if not residual <= tolerance:
                problems.append(f"eigenpair residual {residual:.3e} above tolerance "
                                f"{tolerance:.1e} at {matrix.shape[0]} rows")
        return problems

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "self_s": s.self_s, "error": s.error}) + "\n")


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one spanned call adds to a plain one, timed on a no-op: the
    tracer's own cost, free of the run-to-run noise in the traced phase's
    wall time."""
    def noop():
        pass

    holder = SimpleNamespace(noop=noop)
    Tracer().wrap(holder, "noop", "noop")
    wall = []
    for fn in (noop, holder.noop):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        wall.append(time.perf_counter() - t0)
    return (wall[1] - wall[0]) / calls


def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and observations."""
    spans = tracer.spans
    count: Counter = Counter()
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    evaluate_s: Counter = Counter()
    in_eval = [False] * len(spans)
    in_train = [False] * len(spans)
    attention_core = 0.0
    train_op_calls = 0
    for i, s in enumerate(spans):
        parent = spans[s.parent] if s.parent >= 0 else None
        if parent is not None:
            in_eval[i] = in_eval[s.parent] or parent.name in EVAL_SPANS
            in_train[i] = in_train[s.parent] or parent.name == "training.train"
        count[s.name] += 1
        self_s[s.name] += s.self_s
        incl_s[s.name] += s.duration
        if s.name == "training.evaluate":
            evaluate_s["validation" if in_train[i] else "eval"] += s.duration
        is_primitive = s.name.startswith("nn.") and s.name[3:] not in NN_NOT_PRIMITIVE \
            and s.name != "nn.backward"
        if is_primitive and not in_eval[i]:
            train_op_calls += 1
        if parent is not None and parent.name == "nn.multi_head_attention" and s.name != "nn.linear":
            attention_core += s.self_s
    steps = count["nn.sgd_step"]
    fallbacks = sum(sampler.fallback_count for sampler in tracer.samplers.values())
    windows = sum(1 for s in spans if s.name == "model.compute_window_encoding" and s.error is None)
    return {
        "nn.linear_fwd_s": self_s["nn.linear"],
        "nn.linear_calls": count["nn.linear"],
        "nn.attention_fwd_s": self_s["nn.multi_head_attention"] + attention_core,
        "nn.attention_calls": count["nn.multi_head_attention"],
        "nn.op_calls": train_op_calls / steps if steps else 0.0,
        "nn.backward_s": incl_s["nn.backward"],
        "nn.sgd_s": incl_s["nn.sgd_step"],
        "nn.steps": steps,
        "nn.softmax_peak_mb": tracer.softmax_peak_bytes / 2**20,
        "model.token_s": incl_s["model.token_sequence"],
        "model.encode_fwd_s": incl_s["model.encode"],
        "model.edge_fwd_s": incl_s["model.edge_logits"],
        "model.window_encoding_s": incl_s["model.compute_window_encoding"],
        "model.window_encodings": windows,
        "model.lappe_s": incl_s["model.lap_pe_time_encoding"],
        "supra.build_s": self_s["supra.build"],
        "supra.verify_s": incl_s["supra.verify_connected"],
        "supra.builds": count["supra.build"],
        "supra.rows": tracer.counts["supra.rows"],
        "spectral.laplacian_s": incl_s["spectral.normalized_laplacian"],
        "spectral.eig_s": incl_s["spectral.eigenpairs"],
        "spectral.eig_calls": count["spectral.eigenpairs"],
        "spectral.eig_dense_calls": tracer.counts["spectral.eig_dense_calls"],
        "spectral.eig_iterative_calls": tracer.counts["spectral.eig_iterative_calls"],
        "spectral.eig_failed": tracer.counts["spectral.eig_failed"],
        "spectral.max_residual": tracer.max_residual,
        "spectral.raw_encoding_s": incl_s["spectral.raw_encoding"],
        "sampling.sample_s": incl_s["sampling.sample_pairs"],
        "sampling.pool_s": incl_s["sampling.pool_for"],
        "sampling.pool_calls": count["sampling.pool_for"],
        "sampling.candidates": tracer.counts["sampling.candidates"],
        "sampling.pairs": tracer.counts["sampling.pairs"],
        "sampling.fallbacks": fallbacks,
        "dtdg.generate_s": incl_s["dtdg.generate"],
        "dtdg.edge_union_s": incl_s["dtdg.edge_union"],
        "dtdg.edge_union_calls": count["dtdg.edge_union"],
        "metrics.auc_s": incl_s["metrics.auc"],
        "metrics.ap_s": incl_s["metrics.average_precision"],
        "training.train_s": incl_s["training.train"],
        "training.validation_s": evaluate_s["validation"],
        "training.eval_s": evaluate_s["eval"],
        "trace.spans": len(spans),
    }
