import hashlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slate import dtdg
from slate.dtdg import (
    DynamicGraph,
    Snapshot,
    SplitSpec,
    generate_erdos_renyi,
    generate_sbm,
    generate_sbm_churn,
    load_dataset,
    read_edge_list,
    save_dataset,
    split_chronological,
    window_of,
    write_edge_list,
)
from slate.errors import ConfigError, EdgeListParseError, NodeBoundsError


def naive_reference_parse(text: str, n: int):
    """Independent line-by-line reader: dict t -> set of sorted tuples."""
    per_t = {}
    for line in text.strip().splitlines():
        u, v, t = (int(x) for x in line.split())
        if u == v:
            continue
        per_t.setdefault(t, set()).add((min(u, v), max(u, v)))
    t_max = max(per_t) if per_t else 0
    return {t: per_t.get(t, set()) for t in range(t_max + 1)}


class TestLoader:
    def test_basic_construction(self):
        text = "0 1 0\n1 2 0\n0 1 1\n"
        g, ids = read_edge_list(io.StringIO(text), num_nodes=3)
        assert ids is None
        assert g.num_snapshots == 2
        assert g.snapshots[0].edges == {(0, 1), (1, 2)}
        assert g.snapshots[1].edges == {(0, 1)}

    def test_self_loop_dropped(self):
        g, _ = read_edge_list(io.StringIO("2 2 0\n"), num_nodes=3)
        assert g.snapshots[0].num_edges == 0
        assert g.snapshots[0].isolation_mask().all()

    def test_against_reference_parser(self):
        rng = np.random.default_rng(42)
        lines = []
        for _ in range(20):
            u, v = rng.integers(0, 8, size=2)
            t = rng.integers(0, 4)
            lines.append(f"{u} {v} {t}")
        text = "\n".join(lines) + "\n"
        expected = naive_reference_parse(text, 8)
        g, _ = read_edge_list(io.StringIO(text), num_nodes=8)
        assert g.num_snapshots == len(expected)
        for t, edges in expected.items():
            assert g.snapshots[t].edges == edges

    def test_duplicates_and_orientation_unified(self):
        g, _ = read_edge_list(io.StringIO("0 1 0\n1 0 0\n0 1 0\n"), num_nodes=2)
        assert g.snapshots[0].edges == {(0, 1)}
        assert np.array_equal(g.snapshots[0].degree, [1, 1])

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            read_edge_list(io.StringIO("0 1 0\n0 x 0\n"), num_nodes=3)

    def test_bounds_error_with_declared_n(self):
        with pytest.raises(NodeBoundsError):
            read_edge_list(io.StringIO("0 5 0\n"), num_nodes=3)

    def test_sparse_ids_remapped_dense(self):
        g, ids = read_edge_list(io.StringIO("10 30 0\n30 50 1\n"))
        assert g.num_nodes == 3
        assert ids.tolist() == [10, 30, 50]
        assert g.snapshots[0].edges == {(0, 1)}
        assert g.snapshots[1].edges == {(1, 2)}

    def test_header_line_skipped(self):
        g, _ = read_edge_list(io.StringIO("source target time\n0 1 0\n"), num_nodes=2)
        assert g.snapshots[0].edges == {(0, 1)}

    def test_round_trip(self):
        g = generate_erdos_renyi(9, 0.3, 4, seed=5)
        buf = io.StringIO()
        write_edge_list(g, buf)
        reloaded, _ = read_edge_list(
            io.StringIO(buf.getvalue()), num_nodes=g.num_nodes, num_snapshots=g.num_snapshots)
        assert reloaded == g

    def test_shuffled_lines_with_reversed_duplicates_load_the_same_graph(self, tmp_path):
        g = generate_sbm_churn(40, 2, 0.4, 0.05, 6, seed=3)
        save_dataset(g, tmp_path, "d")
        lines = (tmp_path / "d.edges").read_text().splitlines()
        rng = np.random.default_rng(0)
        reversed_dups = [f"{v} {u} {t}" for u, v, t in (line.split() for line in lines[::3])]
        shuffled = lines + reversed_dups
        rng.shuffle(shuffled)
        (tmp_path / "d.edges").write_text("\n".join(shuffled) + "\n")
        assert load_dataset(tmp_path / "d") == g

    def test_remapped_ids_are_returned(self):
        # id 5 appears only in a self-loop line: it is no node, but its snapshot counts
        g, ids = read_edge_list(io.StringIO("900 7 0\n7 42 1\n5 5 2\n"))
        assert ids.tolist() == [7, 42, 900]
        assert g.num_nodes == 3 and g.num_snapshots == 3
        assert g.snapshots[0].edges == {(0, 2)}
        assert g.snapshots[1].edges == {(0, 1)}
        assert g.snapshots[2].num_edges == 0

    def test_meta_line_without_equals_names_file_and_line(self, tmp_path):
        (tmp_path / "d.edges").write_text("0 1 0\n")
        (tmp_path / "d.meta").write_text("name = d\nnum_nodes 2\nnum_snapshots = 1\n")
        message = f"{tmp_path / 'd.meta'}:2: expected 'key = value'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_dataset(tmp_path / "d")


class TestGenerators:
    def test_er_empty_at_p0(self):
        g = generate_erdos_renyi(10, 0.0, 3, seed=1)
        assert all(s.num_edges == 0 for s in g.snapshots)
        assert all(s.isolation_mask().all() for s in g.snapshots)

    def test_er_complete_at_p1(self):
        g = generate_erdos_renyi(10, 1.0, 3, seed=1)
        assert all(s.num_edges == 45 for s in g.snapshots)

    def test_er_monte_carlo_mean(self):
        # oracle: expected edges per snapshot = C(10,2) * p = 13.5
        counts = []
        for seed in range(1000):
            g = generate_erdos_renyi(10, 0.3, 3, seed=seed)
            counts.extend(s.num_edges for s in g.snapshots)
        assert all(0 <= c <= 45 for c in counts)
        assert abs(np.mean(counts) - 13.5) < 1.0

    def test_er_bit_reproducible(self):
        a = generate_erdos_renyi(12, 0.4, 5, seed=99)
        b = generate_erdos_renyi(12, 0.4, 5, seed=99)
        assert a == b

    def test_sbm_extreme_probabilities(self):
        g = generate_sbm(4, 2, 1.0, 0.0, 1, seed=3)
        assert g.snapshots[0].edges == {(0, 1), (2, 3)}

    def test_sbm_divisibility_rejected(self):
        with pytest.raises(ConfigError):
            generate_sbm(5, 2, 0.5, 0.1, 1, seed=0)

    @pytest.mark.parametrize("generate", [
        lambda: generate_erdos_renyi(6, 0.5, 2, seed=-1),
        lambda: generate_sbm(6, 2, 0.5, 0.1, 2, seed=-1),
        lambda: generate_sbm_churn(6, 2, 0.5, 0.1, 2, seed=-1),
    ], ids=["er", "sbm", "sbm-churn"])
    def test_negative_seed_rejected(self, generate):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            generate()

    def test_sbm_density_within_3_sigma(self):
        # oracle: binomial confidence interval on pooled intra/inter pair counts
        n, t, p_in, p_out = 50, 10, 0.5, 0.05
        g = generate_sbm(n, 2, p_in, p_out, t, seed=1)
        block = np.arange(n) // (n // 2)
        intra_pairs = sum(1 for i in range(n) for j in range(i + 1, n) if block[i] == block[j])
        inter_pairs = n * (n - 1) // 2 - intra_pairs
        intra = sum(1 for s in g.snapshots for u, v in s.edges if block[u] == block[v])
        inter = sum(1 for s in g.snapshots for u, v in s.edges if block[u] != block[v])
        for count, pairs, p in ((intra, intra_pairs, p_in), (inter, inter_pairs, p_out)):
            mean = pairs * t * p
            sigma = math.sqrt(pairs * t * p * (1 - p))
            assert abs(count - mean) < 3 * sigma

    def test_degenerate_sbm_matches_er_distribution(self):
        # with p_in == p_out == q every pair has probability q, like ER(q)
        q, n, t = 0.2, 20, 2
        sbm_counts = [
            s.num_edges for seed in range(200) for s in generate_sbm(n, 2, q, q, t, seed=seed).snapshots
        ]
        er_counts = [
            s.num_edges for seed in range(200) for s in generate_erdos_renyi(n, q, t, seed=seed).snapshots
        ]
        pairs = n * (n - 1) / 2
        sigma_mean = math.sqrt(pairs * q * (1 - q) / len(sbm_counts))
        assert abs(np.mean(sbm_counts) - np.mean(er_counts)) < 6 * sigma_mean

    def test_sbm_churn_isolation_rate(self):
        g = generate_sbm_churn(30, 2, 0.7, 0.1, 10, seed=2, active_prob=0.55, flip_prob=0.2)
        rates = [s.isolation_mask().mean() for s in g.snapshots]
        assert np.mean(rates) >= 0.30

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_generator_invariants(self, seed):
        g = generate_erdos_renyi(8, 0.35, 3, seed=seed)
        for snap in g.snapshots:
            for u, v in snap.edges:
                assert 0 <= u < v < 8  # canonical, no self-loop, in range
            deg = np.zeros(8, dtype=int)
            for u, v in snap.edges:
                deg[u] += 1
                deg[v] += 1
            assert np.array_equal(deg, snap.degree)
            assert np.array_equal(snap.isolation_mask(), snap.degree == 0)


class TestSplits:
    def test_ratio_example(self):
        g = generate_erdos_renyi(4, 0.5, 10, seed=0)
        tr, va, te = split_chronological(g, SplitSpec.ratio(0.7, 0.15, 0.15))
        assert (tr, va, te) == (range(0, 7), range(7, 8), range(8, 10))

    def test_last_mode_example(self):
        g = generate_erdos_renyi(4, 0.5, 10, seed=0)
        tr, va, te = split_chronological(g, SplitSpec.last(3, val_l=0))
        assert (tr, va, te) == (range(0, 7), range(7, 7), range(7, 10))

    def test_empty_train_rejected(self):
        g = generate_erdos_renyi(4, 0.5, 1, seed=0)
        with pytest.raises(ConfigError):
            split_chronological(g, SplitSpec.ratio(0.7, 0.15, 0.15))

    @given(T=st.integers(2, 200))
    @settings(max_examples=50, deadline=None)
    def test_ratio_floor_arithmetic(self, T):
        # oracle: floor arithmetic with test absorbing the remainder
        g = generate_erdos_renyi(3, 0.5, T, seed=0)
        try:
            tr, va, te = split_chronological(g, SplitSpec.ratio(0.7, 0.15, 0.15))
        except ConfigError:
            assert int(T * 0.7) < 1
            return
        assert len(tr) == int(T * 0.7)
        assert len(va) == int(T * 0.15)
        assert len(te) == T - len(tr) - len(va)
        assert tr.stop == va.start and va.stop == te.start
        assert te.stop == T and tr.start == 0


class TestWindows:
    def test_interior_window(self):
        g = generate_erdos_renyi(4, 0.5, 10, seed=0)
        assert window_of(g, 5, 3).members == (3, 4, 5)

    def test_clipped_at_origin(self):
        g = generate_erdos_renyi(4, 0.5, 10, seed=0)
        assert window_of(g, 1, 3).members == (0, 1)

    def test_single(self):
        g = generate_erdos_renyi(4, 0.5, 10, seed=0)
        assert window_of(g, 0, 1).members == (0,)

    @given(t=st.integers(0, 19), w=st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_window_length_and_end(self, t, w):
        g = generate_erdos_renyi(3, 0.5, 20, seed=0)
        win = window_of(g, t, w)
        assert len(win) == min(w, t + 1)
        assert win.members[-1] == t
        assert list(win.members) == list(range(win.members[0], t + 1))


def test_snapshot_rejects_out_of_range_edge():
    with pytest.raises(NodeBoundsError):
        Snapshot.from_edges(3, [(0, 5)])
    with pytest.raises(NodeBoundsError, match=r"edge \(-1,2\) outside \[0,3\)"):
        Snapshot.from_edges(3, [(0, 1), (2, -1)])


@pytest.mark.parametrize("edges", [[(0, 1), (2, 2)], np.array([[1, 0], [4, 4]])])
def test_snapshot_rejects_self_loop(edges):
    with pytest.raises(ValueError, match=r"self-loop \((2,2|4,4)\)"):
        Snapshot.from_edges(5, edges)


def test_snapshot_rejects_edges_that_are_not_pairs():
    with pytest.raises(ValueError, match="pairs"):
        Snapshot.from_edges(5, [(0, 1, 2)])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
                max_size=40))
def test_snapshot_matches_per_edge_construction(edges):
    # repeats in either orientation count once, for the edge set and degrees
    canon = {(min(u, v), max(u, v)) for u, v in edges}
    degree = np.zeros(8, dtype=np.int64)
    for u, v in canon:
        degree[u] += 1
        degree[v] += 1
    both_ways = edges + [(v, u) for u, v in edges]
    for given_edges in (edges, np.array(edges, dtype=np.int32).reshape(-1, 2), iter(edges), both_ways,
                        np.array(edges).T.copy().T):  # a column-major array
        snap = Snapshot.from_edges(8, given_edges)
        assert snap.edges == canon
        assert snap.degree.dtype == np.int64 and np.array_equal(snap.degree, degree)
        assert not snap.degree.flags.writeable
        # the edge array: read-only, u < v, rows strictly ascending, the sorted edge set
        arr = snap.edge_array
        assert arr.dtype == np.int64 and arr.shape == (len(canon), 2) and arr.flags.c_contiguous
        assert not arr.flags.writeable
        assert np.all(arr[:, 0] < arr[:, 1])
        assert np.all(np.diff(arr[:, 0] * 8 + arr[:, 1]) > 0)
        assert arr.tolist() == [list(e) for e in sorted(snap.edges)]


def graph_digest(graphs) -> str:
    """sha256 over every snapshot's sorted edges, its edges in set iteration
    order and its degrees."""
    h = hashlib.sha256()
    for g in graphs:
        for snap in g.snapshots:
            h.update(np.array(sorted(snap.edges), dtype=np.int64).reshape(-1, 2).tobytes())
            h.update(np.array(list(snap.edges), dtype=np.int64).reshape(-1, 2).tobytes())
            h.update(snap.degree.astype(np.int64).tobytes())
    return h.hexdigest()


# The generator settings of C6, C7, the bench workloads and `slate generate`,
# with the digests their graphs had before snapshots were built from arrays,
# and one drifting churn setting without persistence, whose generator skips
# the unread carry-over uniforms unless rng.integers left a 32-bit value
# buffered (its digest is that of the generator that drew every pair at once).
GENERATED = {
    "c6": (generate_sbm, dict(n=50, num_blocks=2, p_in=0.5, p_out=0.05, t=10), range(3)),
    "c7": (generate_sbm_churn, dict(n=50, num_blocks=2, p_in=0.35, p_out=0.35, t=14, active_prob=0.5,
                                    flip_prob=0.05, edge_persist=0.6), range(3, 6)),
    "encode-grid": (generate_sbm_churn, dict(n=400, num_blocks=4, p_in=0.024, p_out=0.0035, t=10),
                    range(3)),
    "scale-train": (generate_sbm_churn, dict(n=1000, num_blocks=4, p_in=0.016, p_out=0.002, t=7),
                    range(1)),
    "cli-er": (generate_erdos_renyi, dict(n=12, p=0.05, t=2), range(5, 8)),
    "cli-churn-drift": (generate_sbm_churn, dict(n=30, num_blocks=3, p_in=0.5, p_out=0.05, t=6,
                                                 drift_prob=0.1, edge_persist=0.3), range(3)),
    "churn-drift-no-persist": (generate_sbm_churn, dict(n=51, num_blocks=3, p_in=0.4, p_out=0.05, t=8,
                                                        drift_prob=0.2), range(3)),
}

GENERATED_DIGESTS = {
    "c6": "45cd1baba6f3c23eacbf92807e21b213ee7add6fa2b4143bd75c5089acde2b5a",
    "c7": "64c6d3e550ee66f5e1ac56558c0caa342f395abd351e46630e81a90e7767f36e",
    "encode-grid": "1707718bfa877500f9132f9e9359db8b8d08b3f750ff09601b7a3bcc8bc3c5b2",
    "scale-train": "a461aeb2d4910977feb770e6effc9bfaedb7a6c0384a5529f0bf91c49ce63c27",
    "cli-er": "6509b7417a0581a126dc89300f5d7f527e18a26506f4bbde78a2848a930a2ab3",
    "cli-churn-drift": "b6acbf82ae8e6bbd845b8e98338e4614dd31260d072059ee76534b249a33ceb6",
    "churn-drift-no-persist": "1a00f6b6d3efea62dabfd5609262e58bbdcd00c7c6f1d364289c280672043b30",
}


@pytest.mark.parametrize("name", GENERATED)
def test_generated_graphs_are_unchanged(name):
    generate, kwargs, seeds = GENERATED[name]
    assert graph_digest(generate(seed=seed, **kwargs) for seed in seeds) == GENERATED_DIGESTS[name]


@pytest.mark.parametrize("name", GENERATED)
def test_generated_graphs_do_not_depend_on_the_chunk_size(name, monkeypatch):
    # 1,009 pairs per draw: every setting but the two smallest CLI ones crosses
    # chunk boundaries
    monkeypatch.setattr(dtdg, "PAIR_CHUNK", 1009)
    test_generated_graphs_are_unchanged(name)


@pytest.mark.parametrize("generate", [generate_sbm, generate_sbm_churn])
def test_generator_memory_does_not_grow_with_the_pair_count(generate):
    # 8.0M pairs: one float64 array per pair would be 61 MiB
    tracemalloc.start()
    try:
        generate(4000, 4, 0.004, 0.0005, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_dynamic_graph_needs_a_snapshot():
    with pytest.raises(ConfigError):
        DynamicGraph(3, ())


class TestChurnGenerator:
    def test_deterministic(self):
        kw = dict(active_prob=0.5, flip_prob=0.1, drift_prob=0.1, edge_persist=0.7)
        a = generate_sbm_churn(20, 2, 0.6, 0.05, 8, seed=4, **kw)
        b = generate_sbm_churn(20, 2, 0.6, 0.05, 8, seed=4, **kw)
        assert a == b

    def test_edge_persistence_raises_temporal_correlation(self):
        import itertools
        pairs = list(itertools.combinations(range(20), 2))
        joint = base = carry = prev = 0
        for seed in range(30):
            g = generate_sbm_churn(20, 2, 0.6, 0.05, 10, seed=seed,
                                   active_prob=0.7, flip_prob=0.05, edge_persist=0.8)
            for t in range(9):
                e0, e1 = g.snapshots[t].edges, g.snapshots[t + 1].edges
                prev += len(e0)
                carry += len(e0 & e1)
                base += len(pairs) - len(e0)
                joint += len(e1 - e0)
        assert carry / prev > 3 * (joint / base)  # yesterday's edges strongly persist

    def test_drift_with_one_block_rejected(self):
        with pytest.raises(ConfigError, match="drift_prob > 0 needs num_blocks >= 2"):
            generate_sbm_churn(10, 1, 0.5, 0.1, 3, seed=0, drift_prob=0.1)
        generate_sbm_churn(10, 1, 0.5, 0.1, 3, seed=0)  # one block without drift is fine

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError):
            generate_sbm_churn(10, 2, 0.5, 0.1, 3, seed=0, edge_persist=1.5)
        with pytest.raises(ConfigError):
            generate_sbm_churn(10, 2, 0.5, 0.1, 3, seed=0, active_prob=1.0)
