"""The benchmark's workloads: inputs from a seed, a timed phase, and checks.

Each workload has a `setup(seed)` that builds everything the timed phase needs
(the runner times it as setup_s), an untimed `warm_up`, a `phase` that does the
timed work and returns its samples, and a `check` that verifies the program's
outputs. The runner reports the median of the samples: `unit` holds seconds
per unit of work (named by the workload's `unit`), `items` the rate of
successful outputs per second (named by its `items`).

`phase` repeats one round until its time budget is spent, but at least a
minimum number of times; with no budget (traced runs) it runs exactly one
round, so the traced work, and every count in it, is fixed. A round of the
training workloads trains and then scores, so both medians draw on samples
from the whole run, not from one end of it.

Only SlateError counts as a failed operation; any other exception is a defect
of the program or the benchmark and ends the run. An error that the workload
recovers from, as a user would, is counted by type as recovered, and the
recovery's time is part of the operation's.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from slate import dtdg, metrics, model, nn, sampling, spectral, training
from slate.errors import ConvergenceError, SlateError
from slate.model import EncodingKind
from slate.training import TrainConfig

EIG_TOL = 1e-9  # slack on the [0, 2] spectrum range and eigenvalue order


class Tally:
    """Operations attempted, failed and recovered (by exception type), and
    failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter = Counter()
        self.recovered: Counter = Counter()
        self.check_failures: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, exc: SlateError, ops: int = 1) -> None:
        self.failures[type(exc).__name__] += ops

    def recover(self, exc: SlateError) -> None:
        self.recovered[type(exc).__name__] += 1

    def check(self, ok, what: str) -> None:
        if not ok:
            self.check_failures.append(what)


def rounds(fn, deadline: float | None, minimum: int) -> list:
    """Call fn until the perf_counter deadline has passed, at least `minimum`
    times; exactly once when there is no deadline."""
    out = [fn()]
    if deadline is None:
        return out
    while len(out) < minimum or time.perf_counter() < deadline:
        out.append(fn())
    return out


def successes(values, what: str) -> list:
    values = [v for v in values if v is not None]
    if not values:
        raise RuntimeError(f"no successful {what} to measure")
    return values


# ---------------------------------------------------------------------------
# Correctness checks shared by the workloads
# ---------------------------------------------------------------------------


def check_triples(tally: Tally, g, t_pred: int, triples, where: str) -> None:
    """Every negative differs from u and is not an edge at t_pred; every
    positive is one."""
    edges = g.snapshots[t_pred].edges
    bad = [
        (u, v_pos, v_neg) for u, v_pos, v_neg in triples
        if v_neg == u or not 0 <= v_neg < g.num_nodes
        or (min(u, v_neg), max(u, v_neg)) in edges or (min(u, v_pos), max(u, v_pos)) not in edges
    ]
    tally.check(not bad, f"{where}, t={t_pred}: invalid sampled pairs {bad[:3]}")


def check_table(tally: Tally, table, where: str) -> None:
    """Finite features; for spectral tables, an eigenvalue half that is
    ascending and inside [0, 2]. The lappe-time table has no eigenvalue half."""
    m = table.matrix
    tally.check(np.isfinite(m).all(), f"{where}: non-finite encoding")
    if isinstance(table, spectral.RawEncodingTable):
        lam = m.reshape(-1, 2 * table.k)[:, table.k:]
        tally.check(np.all(np.diff(lam, axis=1) >= -EIG_TOL), f"{where}: eigenvalues not ascending")
        tally.check(lam.min() >= -EIG_TOL and lam.max() <= 2 + EIG_TOL,
                    f"{where}: eigenvalues outside [0, 2]")


def check_score(tally: Tally, value: float, where: str) -> None:
    tally.check(np.isfinite(value) and 0.0 <= value <= 1.0, f"{where}: {value} not in [0, 1]")


def check_report(tally: Tally, report, where: str) -> None:
    check_score(tally, report.aggregate_auc, f"{where} AUC")
    check_score(tally, report.aggregate_ap, f"{where} AP")
    for s in report.per_snapshot:
        check_score(tally, s.auc, f"{where} t={s.t} AUC")
        check_score(tally, s.ap, f"{where} t={s.t} AP")


def pairs_and_labels(triples) -> tuple[np.ndarray, np.ndarray]:
    """Positives then negatives, as train() and evaluate() order them."""
    pos = [(u, v) for u, v, _ in triples]
    neg = [(u, v) for u, _, v in triples]
    return np.asarray(pos + neg, dtype=np.intp), np.r_[np.ones(len(pos)), np.zeros(len(neg))]


# ---------------------------------------------------------------------------
# c6-train: the paper-scale configuration through train() and evaluate()
# ---------------------------------------------------------------------------


@dataclass
class C6Context:
    g: object
    cfg: TrainConfig
    model: object
    splits: tuple
    targets: list
    histories: list = field(default_factory=list)
    reports: list = field(default_factory=list)


@dataclass(frozen=True)
class C6Train:
    """C6 data and TrainConfig. A round is one timed train() call from a
    fresh model, `config.epochs` epochs with patience equal to the epoch
    count, so no call stops early; then `evals_per_round` times evaluate() on
    the test range under all three negative-sampling strategies."""

    name = "c6-train"
    unit = "training epoch: train() wall time / epochs, validation included"
    items = "test pairs scored by evaluate() under random, historical and inductive negatives"
    n: int = 50
    blocks: int = 2
    p_in: float = 0.5
    p_out: float = 0.05
    snapshots: int = 10
    config: TrainConfig = TrainConfig(lr=0.1, epochs=3, patience=3, w=3, k=12, d=128, heads=2,
                                      ffn_dim=128, norm_first=False)
    min_setups: int = 5
    min_rounds: int = 3
    evals_per_round: int = 2

    def setup(self, seed: int) -> C6Context:
        g = dtdg.generate_sbm(self.n, self.blocks, self.p_in, self.p_out, self.snapshots, seed)
        splits = dtdg.split_chronological(g, dtdg.SplitSpec.ratio(0.7, 0.15, 0.15))
        cfg = replace(self.config, seed=seed)
        targets = [t for t in splits[0] if t >= 1 and g.snapshots[t].num_edges]
        return C6Context(g, cfg, cfg.build_model(g.num_nodes), splits, targets)

    def warm_up(self, ctx: C6Context) -> None:
        pass  # the first train() call fills no cache that later calls reuse

    def phase(self, ctx: C6Context, tally: Tally, tracer, budget_s: float | None) -> dict:
        g, cfg = ctx.g, ctx.cfg
        train_range, val_range, test_range = ctx.splits
        start = time.perf_counter()

        def train_call():
            m = ctx.model if not ctx.histories else cfg.build_model(g.num_nodes)
            steps = cfg.epochs * len(ctx.targets)
            tally.attempted += steps
            with tracer.span("bench.train_call"):
                t0 = time.perf_counter()
                try:
                    history = training.train(m, g, cfg, train_range, val_range)
                except SlateError as exc:
                    tally.fail(exc, steps)
                    return None
                elapsed = time.perf_counter() - t0
            ctx.model = m
            ctx.histories.append(history)
            return elapsed / len(history.losses)

        def eval_round():
            pairs = 0
            t0 = time.perf_counter()
            for strategy in sampling.STRATEGIES:
                tally.attempted += len(test_range)
                try:
                    report = training.evaluate(ctx.model, g, test_range, strategy=strategy,
                                               train_range=train_range, seed=cfg.seed)
                except SlateError as exc:
                    tally.fail(exc, len(test_range))
                    continue
                pairs += report.n_pairs
                ctx.reports.append(report)
            return pairs / (time.perf_counter() - t0) if pairs else None

        def round_():
            return train_call(), [eval_round() for _ in range(self.evals_per_round)]

        done = rounds(round_, None if budget_s is None else start + budget_s, self.min_rounds)
        epoch_s = successes([epoch for epoch, _ in done], "train() call")
        pairs_per_s = successes([rate for _, rates in done for rate in rates], "evaluation")
        last = {r.strategy: {"auc": r.aggregate_auc, "ap": r.aggregate_ap} for r in ctx.reports[-3:]}
        return {
            "unit": epoch_s,
            "items": pairs_per_s,
            "detail": {"epoch_s": statistics.median(epoch_s),
                       "eval_pairs_per_s": statistics.median(pairs_per_s),
                       "epochs_per_call": cfg.epochs, "steps_per_epoch": len(ctx.targets),
                       "test": last},
        }

    def check(self, ctx: C6Context, tally: Tally) -> None:
        g, cfg = ctx.g, ctx.cfg
        train_range, _, test_range = ctx.splits
        for h in ctx.histories:
            tally.check(all(np.isfinite(h.losses)), f"non-finite training loss {h.losses}")
            tally.check(h.losses[-1] < h.losses[0], f"last epoch loss not below the first {h.losses}")
        for r in ctx.reports:
            check_report(tally, r, f"test {r.strategy}")
        # The draws train() and evaluate() make: seeded by (seed, target snapshot).
        random_sampler = sampling.NegativeSampler.for_graph(g, "random")
        for t in ctx.targets:
            triples = sampling.sample_pairs(random_sampler, g, t, np.random.default_rng([cfg.seed, t]))
            check_triples(tally, g, t, triples, "training negatives")
        for strategy in sampling.STRATEGIES:
            sampler = sampling.NegativeSampler.for_graph(g, strategy, train_range)
            for t in test_range:
                triples = sampling.sample_pairs(sampler, g, t, np.random.default_rng([cfg.seed, t]))
                check_triples(tally, g, t, triples, f"{strategy} test negatives")
        for t_end in range(g.num_snapshots - 1):
            window = dtdg.window_of(g, t_end, cfg.w)
            table = model.compute_window_encoding(g, window, cfg.encoding, cfg.k, d_time=cfg.d_time)
            check_table(tally, table, f"window ending {t_end}")


# ---------------------------------------------------------------------------
# scale-train: N*w = 3,000 tokens, the calls of train()'s step made directly
# ---------------------------------------------------------------------------


@dataclass
class ScaleContext:
    g: object
    cfg: TrainConfig
    model: object
    tables: dict  # target snapshot -> encoding of the window ending just before it
    triples: dict = field(default_factory=dict)
    losses: list = field(default_factory=list)
    scores: list = field(default_factory=list)


@dataclass(frozen=True)
class ScaleTrain:
    """Churn block model at N=1,000 with about 1,000 edges per snapshot.

    Set-up encodes every window the phase needs with the dense solver (the
    default solver raises above 512 rows; encode-grid measures that). The
    phase draws random negatives once per training target, as train() does.
    A round is one epoch of optimizer steps over the targets, then
    `evals_per_round` forward-only scoring passes over the held-out
    targets."""

    name = "scale-train"
    unit = "optimizer step: token build, encoder, edge module, loss, backward, SGD"
    items = "held-out pairs scored per second: negative sampling, forward, AUC and AP"
    n: int = 1000
    blocks: int = 4
    p_in: float = 0.016
    p_out: float = 0.002
    snapshots: int = 7
    config: TrainConfig = TrainConfig(lr=0.1, w=3, k=8, d=64)
    train_targets: tuple = (3, 4, 5)
    eval_targets: tuple = (6,)
    min_setups: int = 3
    min_rounds: int = 3
    evals_per_round: int = 3

    def setup(self, seed: int) -> ScaleContext:
        g = dtdg.generate_sbm_churn(self.n, self.blocks, self.p_in, self.p_out, self.snapshots, seed)
        cfg = replace(self.config, seed=seed)
        tables = {
            t: model.compute_window_encoding(g, dtdg.window_of(g, t - 1, cfg.w), cfg.encoding, cfg.k,
                                             d_time=cfg.d_time, eig_method="dense")
            for t in self.train_targets + self.eval_targets
        }
        return ScaleContext(g, cfg, cfg.build_model(g.num_nodes), tables)

    def warm_up(self, ctx: ScaleContext) -> None:
        pass  # the median step absorbs the first step's page faults

    def _logits(self, ctx: ScaleContext, t: int, pairs):
        m = ctx.model
        tokens = m.token_sequence(ctx.tables[t], len(dtdg.window_of(ctx.g, t - 1, ctx.cfg.w)))
        return m.edge_logits(m.encode(tokens), pairs)

    def phase(self, ctx: ScaleContext, tally: Tally, tracer, budget_s: float | None) -> dict:
        g, cfg = ctx.g, ctx.cfg
        start = time.perf_counter()
        sampler = sampling.NegativeSampler.for_graph(g, "random")
        batches = {}
        for t in self.train_targets:  # once per target, before the first epoch, as train() does
            ctx.triples[t] = sampling.sample_pairs(sampler, g, t, np.random.default_rng([cfg.seed, t]))
            batches[t] = pairs_and_labels(ctx.triples[t])

        def step(t):
            pairs, labels = batches[t]
            tally.attempted += 1
            with tracer.span("bench.step"):
                t0 = time.perf_counter()
                try:
                    with nn.Tape() as tape:
                        loss = nn.mean_all(nn.bce_with_logits(self._logits(ctx, t, pairs), labels))
                        tape.backward(loss)
                    nn.sgd_step(ctx.model.store, cfg.lr, cfg.weight_decay)
                except SlateError as exc:
                    tally.fail(exc)
                    return None
                elapsed = time.perf_counter() - t0
            ctx.losses.append(loss.item())
            return elapsed

        def eval_pass():
            pairs_scored = 0
            t0 = time.perf_counter()
            with tracer.span("bench.eval"):
                for t in self.eval_targets:
                    tally.attempted += 1
                    try:
                        triples = sampling.sample_pairs(sampler, g, t, np.random.default_rng([cfg.seed, t]))
                        pairs, labels = pairs_and_labels(triples)
                        logits = self._logits(ctx, t, pairs).data
                        scores = (metrics.auc(logits, labels), metrics.average_precision(logits, labels))
                    except SlateError as exc:
                        tally.fail(exc)
                        continue
                    ctx.triples[t] = triples
                    ctx.scores.append(scores)
                    pairs_scored += len(pairs)
            return pairs_scored / (time.perf_counter() - t0) if pairs_scored else None

        def round_():
            return ([step(t) for t in self.train_targets],
                    [eval_pass() for _ in range(self.evals_per_round)])

        done = rounds(round_, None if budget_s is None else start + budget_s, self.min_rounds)
        step_s = successes([s for steps, _ in done for s in steps], "optimizer step")
        pairs_per_s = successes([rate for _, rates in done for rate in rates], "evaluation")
        return {
            "unit": step_s,
            "items": pairs_per_s,
            "detail": {"step_s": statistics.median(step_s),
                       "eval_pairs_per_s": statistics.median(pairs_per_s),
                       "tokens": g.num_nodes * cfg.w,
                       "pairs_per_step": {t: len(b[0]) for t, b in batches.items()},
                       "test": {"auc": ctx.scores[-1][0], "ap": ctx.scores[-1][1]}},
        }

    def check(self, ctx: ScaleContext, tally: Tally) -> None:
        tally.check(all(np.isfinite(ctx.losses)), f"non-finite training loss {ctx.losses}")
        for auc, ap in ctx.scores:
            check_score(tally, auc, "held-out AUC")
            check_score(tally, ap, "held-out AP")
        for t, triples in ctx.triples.items():
            check_triples(tally, ctx.g, t, triples, "sampled pairs")
        for t, table in ctx.tables.items():
            check_table(tally, table, f"window ending {t - 1}")


# ---------------------------------------------------------------------------
# encode-grid: window encodings only, across the dense/iterative cutoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodeGrid:
    """Every window of a churn block model at N=400, under every encoding kind
    and window size, through compute_window_encoding's default arguments: the
    encoding stage of `slate ablate` and train()'s cache fill. With about 210
    non-isolated nodes per snapshot, transformed windows of one or two
    snapshots stay under the 512-row dense cutoff and three-snapshot windows
    go over it; the untransformed stacking has N*w rows.

    Above the cutoff the default iterative solver raises ConvergenceError
    (ROADMAP item 3). The call is then made again with the dense solver, which
    is what a user has to do today, and the error is counted as recovered. So
    the failed iterative attempt and the dense solve are both in the
    encoding's time, and a solver that converges shows as a gain."""

    name = "encode-grid"
    unit = "grid pass: every encoding call of the grid, dense retries included"
    items = "window encodings per second of encoding time"
    n: int = 400
    blocks: int = 4
    p_in: float = 0.024
    p_out: float = 0.0035
    snapshots: int = 10
    kinds: tuple = (EncodingKind.SLATE, EncodingKind.SLATE_NO_TRANSFORM, EncodingKind.LAPPE_TIME)
    window_sizes: tuple = (1, 2, 3)
    k: int = 8
    min_setups: int = 5
    min_passes: int = 3

    def setup(self, seed: int):
        """The context is the graph itself."""
        return dtdg.generate_sbm_churn(self.n, self.blocks, self.p_in, self.p_out, self.snapshots, seed)

    def cells(self, g):
        for kind in self.kinds:
            for w in self.window_sizes:
                for t in range(g.num_snapshots):
                    yield kind, dtdg.window_of(g, t, w)

    def encode(self, g, window, kind, tally: Tally | None):
        """One window encoding with the default solver, retried with the dense
        one when the default does not converge."""
        try:
            return model.compute_window_encoding(g, window, kind, self.k)
        except ConvergenceError as exc:
            if tally is not None:
                tally.recover(exc)
            return model.compute_window_encoding(g, window, kind, self.k, eig_method="dense")

    def warm_up(self, g) -> None:
        """One call per (kind, window size): loads the solvers' lazy imports and
        thread pools before timing."""
        for kind in self.kinds:
            for w in self.window_sizes:
                try:
                    self.encode(g, dtdg.window_of(g, g.num_snapshots - 1, w), kind, None)
                except SlateError:
                    pass

    def phase(self, g, tally: Tally, tracer, budget_s: float | None) -> dict:
        """The pass time is the sum over the grid's calls of each call's median
        time across passes, so a slow stretch of the host during one pass
        moves it less than it moves that pass's total."""
        start = time.perf_counter()

        def grid_pass():
            times, encoded = [], 0
            for kind, window in self.cells(g):
                tally.attempted += 1
                t0 = time.perf_counter()
                try:
                    table = self.encode(g, window, kind, tally)
                except SlateError as exc:
                    tally.fail(exc)
                    table = None
                times.append(time.perf_counter() - t0)
                if table is not None:
                    encoded += 1
                    check_table(tally, table, f"{kind.value} window {window.members}")
            return times, encoded

        deadline = None if budget_s is None else start + budget_s
        passes = rounds(grid_pass, deadline, self.min_passes)
        encoded = passes[0][1]
        if not encoded:
            raise RuntimeError("no successful window encoding to measure")
        pass_s = sum(statistics.median(call) for call in zip(*(times for times, _ in passes)))
        return {
            "unit": [pass_s],
            "items": [encoded / pass_s],
            "detail": {"windows_per_s": encoded / pass_s,
                       "pass_s": [sum(times) for times, _ in passes],
                       "calls_per_pass": len(self.kinds) * len(self.window_sizes) * g.num_snapshots,
                       "encoded_per_pass": encoded},
        }

    def check(self, g, tally: Tally) -> None:
        pass  # every table is checked in the phase, outside the timed calls


WORKLOADS = {w.name: w for w in (C6Train(), ScaleTrain(), EncodeGrid())}
