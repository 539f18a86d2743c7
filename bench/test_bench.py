"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

assert run.import_program() is not None, "slate's source tree is missing"

from slate import nn  # noqa: E402
from slate.dtdg import DynamicGraph, Snapshot, generate_sbm_churn  # noqa: E402
from slate.training import TrainConfig  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import C6Train, EncodeGrid, ScaleTrain, Tally  # noqa: E402

SPEC = run.load_spec()

TINY = {
    "c6-train": C6Train(n=16, snapshots=8, min_setups=2, min_rounds=1,
                        config=TrainConfig(lr=0.1, epochs=3, patience=3, w=2, k=3, d=16, heads=2,
                                           ffn_dim=16, norm_first=False)),
    "scale-train": ScaleTrain(n=40, p_in=0.3, p_out=0.05, snapshots=5, train_targets=(2, 3),
                              eval_targets=(4,), min_setups=2, min_rounds=1,
                              config=TrainConfig(lr=0.1, w=2, k=3, d=16, ffn_dim=16)),
    "encode-grid": EncodeGrid(n=40, p_in=0.3, p_out=0.05, snapshots=4, k=3, min_setups=2,
                              min_passes=1),
}


def test_tiny_workloads_cover_every_declared_workload():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_emits_every_declared_metric_with_its_unit(name, trace, capsys, tmp_path):
    status = run.run_one(SPEC, TINY[name], seed=3, seconds=0.0, trace=bool(trace), spans_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert status == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    record = json.loads("\n".join(lines[:-1]))
    assert record["environment"]["seed"] == 3 and record["environment"]["blas"]["name"]


def test_traced_spans_nest_inside_their_parents():
    tracer = spans.Tracer()
    original_linear = nn.linear
    tracer.install()
    try:
        workload = TINY["c6-train"]
        ctx = workload.setup(0)
        workload.phase(ctx, Tally(), tracer, budget_s=None)
    finally:
        tracer.uninstall()
    assert nn.linear is original_linear
    assert tracer.missing == []
    names = {s.name for s in tracer.spans}
    assert {"training.train", "training.evaluate", "model.encode", "nn.linear", "nn.backward",
            "sampling.sample_pairs", "spectral.eigenpairs", "supra.build"} <= names
    for s in tracer.spans:
        assert s.start <= s.end and s.self_s >= -1e-9
        if s.parent >= 0:
            p = tracer.spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    children = {}
    for s in tracer.spans:
        children[s.parent] = children.get(s.parent, 0.0) + s.duration
    for i, s in enumerate(tracer.spans):
        assert s.self_s == pytest.approx(s.duration - children.get(i, 0.0), abs=1e-9)
    metrics = spans.layer_metrics(tracer)
    assert metrics["nn.steps"] == workload.config.epochs * len(ctx.targets)
    assert metrics["training.validation_s"] > 0 and metrics["training.eval_s"] > 0
    assert tracer.check_residuals() == [] and 0 < tracer.max_residual < 1e-8


def test_failed_encodings_are_counted_by_exception_type():
    g = generate_sbm_churn(40, 4, 0.3, 0.05, 4, seed=0)
    empty = Snapshot.from_edges(g.num_nodes, [])
    g = DynamicGraph(g.num_nodes, g.snapshots[:2] + (empty,) + g.snapshots[3:])
    grid = replace(TINY["encode-grid"], kinds=(workloads.EncodingKind.SLATE,), window_sizes=(1, 2))
    tally = Tally()
    values = grid.phase(g, tally, spans.NullTracer(), budget_s=None)
    # windows holding the empty snapshot 2: (2,) at w=1; (1, 2) and (2, 3) at w=2
    assert tally.attempted == 8
    assert dict(tally.failures) == {"DegenerateWindowError": 3}
    assert values["detail"]["encoded_per_pass"] == 5
    assert tally.check_failures == []


def test_checks_reject_invalid_negatives_and_spectra():
    g = generate_sbm_churn(40, 4, 0.3, 0.05, 3, seed=0)
    u, v = sorted(g.snapshots[1].edges)[0]
    tally = Tally()
    workloads.check_triples(tally, g, 1, [(u, v, v)], "edge as negative")
    workloads.check_triples(tally, g, 1, [(u, v, u)], "u as negative")
    table = workloads.model.compute_window_encoding(g, workloads.dtdg.window_of(g, 2, 2), "slate", 3)
    bad = replace(table, matrix=table.matrix[..., [0, 1, 2, 5, 4, 3]])
    workloads.check_table(tally, bad, "reversed eigenvalues")
    assert len(tally.check_failures) == 3
    tally = Tally()
    workloads.check_table(tally, table, "good table")
    assert tally.check_failures == []


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "c6-train",
                            "--seed", "0", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 2 and child.stdout == ""


def test_non_converging_solver_is_retried_dense_and_counted_as_recovered(monkeypatch):
    g = generate_sbm_churn(40, 4, 0.3, 0.05, 4, seed=0)
    original = workloads.model.compute_window_encoding

    def default_never_converges(g, window, kind, k, **kwargs):
        if kwargs.get("eig_method", "auto") != "dense" and kind != workloads.EncodingKind.LAPPE_TIME:
            raise workloads.ConvergenceError("did not converge")
        return original(g, window, kind, k, **kwargs)

    monkeypatch.setattr(workloads.model, "compute_window_encoding", default_never_converges)
    grid = replace(TINY["encode-grid"], window_sizes=(1,))
    tally = Tally()
    values = grid.phase(g, tally, spans.NullTracer(), budget_s=None)
    assert tally.attempted == 12 and tally.failed == 0
    assert dict(tally.recovered) == {"ConvergenceError": 8}
    assert values["detail"]["encoded_per_pass"] == 12
    assert tally.check_failures == []
