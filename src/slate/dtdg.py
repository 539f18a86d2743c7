"""Discrete-time dynamic graphs: data model, loaders, generators, splits, windows.

A dynamic graph is a fixed node set observed over T snapshots. Snapshots are
undirected, unweighted, simple (no self-loops). All types are immutable after
construction and safe to share across threads for reading, with one exception:
`DynamicGraph._encodings`, the memo in which `slate.training` keeps each
window's encoding table once it has computed it.

The package reads a snapshot's edges through `Snapshot.edge_array` only. The
frozenset `Snapshot.edges` and `DynamicGraph.edge_union` stay because the
tests' set-arithmetic oracles and the benchmark's output checks read them, and
the benchmark's tracer wraps `edge_union`; removing either is a benchmark change.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import read_kv_file, write_echo
from .errors import ConfigError, EdgeListParseError, NodeBoundsError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Snapshot:
    """One static graph observed at a single time step. edge_array holds the
    edges as a read-only (E, 2) int64 array: u < v, rows ascending."""

    num_nodes: int
    edges: frozenset[Edge]
    degree: np.ndarray = field(compare=False)
    edge_array: np.ndarray = field(compare=False)

    @staticmethod
    def from_edges(num_nodes: int, edges) -> "Snapshot":
        """The snapshot of edges, (u, v) pairs or an (E, 2) integer array;
        an edge given twice, in either orientation, counts once."""
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64,
                           order="C")  # np.sort keeps its input's layout
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        pairs = np.sort(pairs.reshape(-1, 2), axis=1)  # a copy, each row (lo, hi)
        lo, hi = pairs.T
        if np.any(lo == hi):
            i = np.argmax(lo == hi)
            raise ValueError(f"self-loop ({lo[i]},{hi[i]}) not allowed in a snapshot")
        if np.any((lo < 0) | (hi >= num_nodes)):
            i = np.argmax((lo < 0) | (hi >= num_nodes))
            raise NodeBoundsError(f"edge ({lo[i]},{hi[i]}) outside [0,{num_nodes})")
        canon = frozenset(zip(lo.tolist(), hi.tolist()))
        key = lo * num_nodes + hi
        if np.any(key[1:] <= key[:-1]):  # rows not strictly ascending: sort, drop repeats
            pairs = np.stack(np.divmod(np.unique(key), num_nodes), axis=1)
            lo, hi = pairs.T
        deg = np.bincount(lo, minlength=num_nodes) + np.bincount(hi, minlength=num_nodes)
        deg.flags.writeable = pairs.flags.writeable = False
        return Snapshot(num_nodes, canon, deg, pairs)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def isolation_mask(self) -> np.ndarray:
        """Boolean vector, true where the node has no incident edge here."""
        return self.degree == 0


@dataclass(frozen=True)
class DynamicGraph:
    """Ordered snapshots over a fixed node set. _encodings is slate.training's
    memo of window encodings; it takes no part in equality, hashing or repr."""

    num_nodes: int
    snapshots: tuple[Snapshot, ...]
    _encodings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_snapshots < 1:
            raise ConfigError("a dynamic graph needs at least one snapshot")
        for snap in self.snapshots:
            if snap.num_nodes != self.num_nodes:
                raise ConfigError("snapshot node count differs from graph node count")

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    def edge_union(self, stop: int | None = None) -> frozenset[Edge]:
        """Union of edge sets over snapshots [0, stop); all snapshots if stop is None."""
        stop = self.num_snapshots if stop is None else stop
        out: set[Edge] = set()
        for snap in self.snapshots[:stop]:
            out |= snap.edges
        return frozenset(out)


@dataclass(frozen=True)
class Window:
    """Consecutive snapshot indices, ascending."""

    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def window_of(g: DynamicGraph, t: int, w: int) -> Window:
    """Window of the w most recent snapshots ending at t: members [max(0, t-w+1), t]."""
    if not 0 <= t < g.num_snapshots:
        raise ConfigError(f"snapshot index {t} outside [0,{g.num_snapshots})")
    if w < 1:
        raise ConfigError("window size must be >= 1")
    return Window(tuple(range(max(0, t - w + 1), t + 1)))


# ---------------------------------------------------------------------------
# Dataset I/O
# ---------------------------------------------------------------------------


def read_edge_list(source, num_nodes: int | None = None,
                   num_snapshots: int | None = None) -> tuple[DynamicGraph, np.ndarray | None]:
    """Parse `u v t` lines into (graph, ids); source is a text stream or a path.

    Blank and `#` lines are skipped, and so is a first line whose fields are
    not integers (a header). Self-loop lines are dropped; an edge given more
    than once in a snapshot, in either orientation, counts once. With
    num_nodes, ids are bounds-checked and kept (ids absent from the file are
    isolated nodes) and ids is None. Without it, the distinct ids are mapped to
    0..N-1 in ascending order and ids is that sorted array: ids[dense] is the
    original id. num_snapshots, when given, pads trailing empty snapshots up to
    that count. A path that cannot be read or is not UTF-8 raises ConfigError.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, encoding="utf-8") as fh:
                return read_edge_list(fh, num_nodes, num_snapshots)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {source} ({exc.__class__.__name__})") from exc

    rows: list[tuple[int, int, int]] = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise EdgeListParseError(line_no, f"expected 'u v t', got {line!r}")
        try:
            u, v, t = (int(p) for p in parts)
        except ValueError:
            if line_no == 1:
                continue  # header line
            raise EdgeListParseError(line_no, f"non-integer field in {line!r}")
        if t < 0:
            raise EdgeListParseError(line_no, f"negative snapshot index {t}")
        if u < 0 or v < 0:
            raise EdgeListParseError(line_no, f"negative node id in {line!r}")
        if num_nodes is not None and (u >= num_nodes or v >= num_nodes):
            raise NodeBoundsError(
                f"line {line_no}: node id {max(u, v)} >= declared num_nodes {num_nodes}")
        rows.append((u, v, t))

    try:
        u, v, t = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    except OverflowError:
        raise ConfigError("edge list has a node id or snapshot index beyond 64 bits") from None
    num_snaps = int(t.max()) + 1 if len(t) else 0  # self-loop lines count here
    if num_snapshots is not None:
        if num_snapshots < num_snaps:
            raise ConfigError(
                f"declared num_snapshots {num_snapshots} < max snapshot index {num_snaps - 1} + 1")
        num_snaps = num_snapshots
    if num_snaps == 0:
        raise ConfigError("edge list is empty and no num_snapshots was given")
    kept = u != v
    u, v, t = u[kept], v[kept], t[kept]
    ids = None
    if num_nodes is None:
        ids, dense = np.unique(np.concatenate([u, v]), return_inverse=True)
        if len(ids) == 0:
            raise ConfigError("edge list declares no nodes and no num_nodes was given")
        u, v = dense.reshape(2, -1)
        num_nodes = len(ids)
    order = np.argsort(t, kind="stable")
    per_t = np.split(np.stack([u, v], axis=1)[order],
                     np.searchsorted(t[order], np.arange(1, num_snaps)))
    return DynamicGraph(num_nodes, tuple(Snapshot.from_edges(num_nodes, e) for e in per_t)), ids


def write_edge_list(g: DynamicGraph, sink) -> None:
    """Write `u v t` lines (canonical u<v order, snapshots ascending)."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
            return
    for t, snap in enumerate(g.snapshots):
        for u, v in snap.edge_array.tolist():
            sink.write(f"{u} {v} {t}\n")


def load_dataset(stem) -> DynamicGraph:
    """Load `<stem>.edges`, sized by its `<stem>.meta` sidecar when present;
    a trailing `.edges` on stem is ignored."""
    stem = str(stem).removesuffix(".edges")
    edges_path, meta_path = Path(stem + ".edges"), Path(stem + ".meta")
    if not edges_path.is_file():
        raise ConfigError(f"{edges_path}: no such dataset file")
    counts = {}
    if meta_path.exists():
        meta = read_kv_file(meta_path)
        for key in ("num_nodes", "num_snapshots"):
            if key not in meta:
                raise ConfigError(f"{meta_path}: missing key {key!r}")
            try:
                counts[key] = int(meta[key])
            except ValueError:
                raise ConfigError(f"{meta_path}: {key} = {meta[key]!r} is not an integer") from None
    return read_edge_list(edges_path, **counts)[0]


def save_dataset(g: DynamicGraph, out, name: str) -> None:
    """Write `<out>/<name>.edges` and the `<name>.meta` sidecar that carries
    what an edge list alone cannot: trailing isolated nodes and empty snapshots."""
    write_edge_list(g, Path(out) / f"{name}.edges")
    write_echo({"name": name, "num_nodes": g.num_nodes, "num_snapshots": g.num_snapshots},
               Path(out) / f"{name}.meta")


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


# Uniforms one generator call draws at a time: its scratch arrays hold at most
# this many float64 values, whatever the number of node pairs.
PAIR_CHUNK = 1 << 20


def generate_erdos_renyi(n: int, p: float, t: int, seed: int) -> DynamicGraph:
    """Each unordered pair wired independently with probability p, per snapshot:
    the one-block block model."""
    return generate_sbm(n, 1, p, p, t, seed)


def _check_block_model(n: int, num_blocks: int, p_in: float, p_out: float, t: int, seed: int) -> None:
    if n < 1 or t < 1 or num_blocks < 1:
        raise ConfigError("need n >= 1, t >= 1, num_blocks >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n % num_blocks != 0:
        raise ConfigError(f"n={n} not divisible by num_blocks={num_blocks}")
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise ConfigError("probabilities must be in [0,1]")


def _row_starts(n: int) -> np.ndarray:
    """Position of pair (u, u+1) in the lexicographic order of the n(n-1)/2
    unordered pairs, for each u; the last entry is the pair count."""
    u = np.arange(n, dtype=np.int64)
    return u * (2 * n - u - 1) // 2


def _candidates(rng, starts: np.ndarray, bound: float, rounds: int = 1):
    """Draw one uniform per unordered pair, in lexicographic order, rounds
    times over, PAIR_CHUNK at a time; return (position, u, v, uniform) of the
    draws below bound, in draw order. A position counts draws from the first,
    so round k's positions start at k * n(n-1)/2."""
    num_pairs = int(starts[-1])
    total = num_pairs * rounds
    pos, r = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for lo in range(0, total, PAIR_CHUNK):
        draw = rng.random(min(PAIR_CHUNK, total - lo))
        hit = np.flatnonzero(draw < bound)
        pos.append(hit + lo)
        r.append(draw[hit])
    pos, r = np.concatenate(pos), np.concatenate(r)
    pair = pos % num_pairs
    u = np.searchsorted(starts, pair, side="right") - 1
    return pos, u, pair - starts[u] + u + 1, r


def _uniforms_at(rng, pos: np.ndarray, num_pairs: int) -> np.ndarray:
    """Draw num_pairs uniforms, PAIR_CHUNK at a time, and return those at the
    ascending positions pos."""
    if not len(pos) and not rng.bit_generator.state["has_uint32"]:
        # advance() would drop a 32-bit value that rng.integers left buffered.
        rng.bit_generator.advance(num_pairs)
        return np.empty(0)
    out, a = np.empty(len(pos)), 0
    for lo in range(0, num_pairs, PAIR_CHUNK):
        draw = rng.random(min(PAIR_CHUNK, num_pairs - lo))
        b = int(np.searchsorted(pos, lo + len(draw)))
        out[a:b] = draw[pos[a:b] - lo]
        a = b
    return out


def generate_sbm(
    n: int,
    num_blocks: int,
    p_in: float,
    p_out: float,
    t: int,
    seed: int,
) -> DynamicGraph:
    """Stochastic block model with a block assignment fixed across snapshots.

    Blocks are contiguous id ranges of equal size; intra-block pairs are wired
    with p_in and inter-block pairs with p_out, independently per snapshot.
    Each snapshot in turn draws one uniform per unordered pair, in
    lexicographic order; the draws are taken PAIR_CHUNK at a time, and only
    those below max(p_in, p_out) are tested, so memory is O(PAIR_CHUNK + E)
    at any n, E being the edges over all snapshots.
    """
    _check_block_model(n, num_blocks, p_in, p_out, t, seed)
    rng = np.random.default_rng(seed)
    block = np.arange(n) // (n // num_blocks)
    starts = _row_starts(n)
    # No other draw comes between two snapshots', so all t are one stream.
    pos, u, v, r = _candidates(rng, starts, max(p_in, p_out), t)
    keep = r < np.where(block[u] == block[v], p_in, p_out)
    cuts = np.searchsorted(pos[keep], np.arange(1, t) * starts[-1])
    edges = np.split(np.stack([u[keep], v[keep]], axis=1), cuts)
    return DynamicGraph(n, tuple(Snapshot.from_edges(n, e) for e in edges))


def generate_sbm_churn(
    n: int,
    num_blocks: int,
    p_in: float,
    p_out: float,
    t: int,
    seed: int,
    active_prob: float = 0.6,
    flip_prob: float = 0.15,
    drift_prob: float = 0.0,
    edge_persist: float = 0.0,
) -> DynamicGraph:
    """Block-model variant with node churn, optional block drift, and optional
    edge persistence.

    Each node carries a two-state Markov activity chain (stationary activity
    rate active_prob, per-step flip rate scaled by flip_prob); edges are drawn
    per the block model but only between nodes active at that snapshot, so a
    tunable fraction of nodes is isolated at every step. With drift_prob > 0,
    each node additionally moves to a uniformly random other block with that
    probability per step. With edge_persist > 0, an edge whose endpoints stay
    active carries over with that probability, and fresh draws are thinned by
    (1 - edge_persist), so recent pair structure predicts the next snapshot.

    Each snapshot draws one carry-over uniform per unordered pair, then one
    fresh uniform per pair, each in lexicographic order and PAIR_CHUNK at a
    time. Only the previous snapshot's edges read their carry-over uniform,
    and only the pairs whose fresh uniform is below
    max(p_in, p_out) * (1 - edge_persist) are tested, so memory is
    O(PAIR_CHUNK + E) at any n.
    """
    _check_block_model(n, num_blocks, p_in, p_out, t, seed)
    if not 0.0 < active_prob < 1.0:
        raise ConfigError("active_prob must be in (0,1)")
    for name, value in (("flip_prob", flip_prob), ("drift_prob", drift_prob),
                        ("edge_persist", edge_persist)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must be in [0,1]")
    if drift_prob > 0.0 and num_blocks < 2:
        raise ConfigError("drift_prob > 0 needs num_blocks >= 2, a block to drift to")
    rng = np.random.default_rng(seed)
    block = np.arange(n) // (n // num_blocks)
    starts = _row_starts(n)
    fresh_bound = max(p_in, p_out) * (1.0 - edge_persist)
    # Transition rates keeping active_prob stationary: P(off->on) and P(on->off).
    p_on = flip_prob * active_prob
    p_off = flip_prob * (1.0 - active_prob)
    active = rng.random(n) < active_prob
    prev = np.empty((3, 0), dtype=np.int64)  # (position, u, v) of the last snapshot's edges
    snaps = []
    for _ in range(t):
        carry = prev if edge_persist > 0.0 else prev[:, :0]
        r = _uniforms_at(rng, carry[0], int(starts[-1]))
        carried = carry[:, (r < edge_persist) & active[carry[1]] & active[carry[2]]]
        pos, u, v, r = _candidates(rng, starts, fresh_bound)
        fresh = ((r < np.where(block[u] == block[v], p_in, p_out) * (1.0 - edge_persist))
                 & active[u] & active[v])
        kept = np.stack([pos[fresh], u[fresh], v[fresh]])
        if carried.shape[1]:
            kept = np.concatenate([carried, kept], axis=1)
            kept = kept[:, np.unique(kept[0], return_index=True)[1]]
        snaps.append(Snapshot.from_edges(n, kept[1:].T))
        prev = kept
        flips = rng.random(n)
        active = np.where(active, flips >= p_off, flips < p_on)
        if drift_prob > 0.0:
            moving = rng.random(n) < drift_prob
            shifts = rng.integers(1, num_blocks, size=n)
            block = np.where(moving, (block + shifts) % num_blocks, block)
    return DynamicGraph(n, tuple(snaps))


# ---------------------------------------------------------------------------
# Chronological splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Either fractional boundaries or a fixed test-snapshot count."""

    mode: str  # "ratio" | "last"
    fractions: tuple[float, float, float] | None = None
    test_l: int | None = None
    val_l: int | None = None

    @staticmethod
    def ratio(train: float, val: float, test: float) -> "SplitSpec":
        if min(train, val, test) < 0 or abs(train + val + test - 1.0) > 1e-9:
            raise ConfigError("split fractions must be nonnegative and sum to 1")
        return SplitSpec(mode="ratio", fractions=(train, val, test))

    @staticmethod
    def last(test_l: int, val_l: int | None = None) -> "SplitSpec":
        if test_l < 1:
            raise ConfigError("test snapshot count must be >= 1")
        return SplitSpec(mode="last", test_l=test_l, val_l=test_l if val_l is None else val_l)


def split_chronological(g: DynamicGraph, spec: SplitSpec) -> tuple[range, range, range]:
    """Partition snapshot indices [0,T) into train/val/test ranges.

    Ratio mode floors the train and val boundaries; test absorbs the remainder.
    Last mode assigns the final test_l snapshots to test and the preceding
    val_l to validation.
    """
    T = g.num_snapshots
    if spec.mode == "ratio":
        tr, va, _ = spec.fractions
        n_train = int(T * tr)
        n_val = int(T * va)
    elif spec.mode == "last":
        n_val = spec.val_l
        n_train = T - spec.test_l - n_val
    else:
        raise ConfigError(f"unknown split mode {spec.mode!r}")
    n_test = T - n_train - n_val
    if n_train < 1:
        raise ConfigError(f"split leaves an empty train range for T={T}")
    if n_val < 0 or n_test < 0:
        raise ConfigError(f"split does not fit T={T}")
    return (
        range(0, n_train),
        range(n_train, n_train + n_val),
        range(n_train + n_val, T),
    )
