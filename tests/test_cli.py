import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from slate.cli import main
from slate.dtdg import load_dataset


def run(*args):
    return main([str(a) for a in args])


def write_toy_t3(dirpath: Path) -> str:
    """5 nodes, 3 snapshots; node 3 isolated in the middle snapshot."""
    stem = dirpath / "toy"
    lines = ["0 1 0", "1 2 0", "3 4 0", "0 1 1", "0 1 2", "1 2 2", "2 3 2"]
    (dirpath / "toy.edges").write_text("\n".join(lines) + "\n")
    (dirpath / "toy.meta").write_text("name = toy\nnum_nodes = 5\nnum_snapshots = 3\n")
    return str(stem)


class TestGenerate:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "sbm"
        assert run("generate", "--kind", "sbm", "--n", 50, "--blocks", 2, "--p-in", 0.5,
                   "--p-out", 0.05, "--t", 10, "--seed", 1, "--out", out) == 0
        g = load_dataset(out / "dataset")
        assert g.num_nodes == 50 and g.num_snapshots == 10
        import slate
        assert g == slate.generate_sbm(50, 2, 0.5, 0.05, 10, seed=1)

    def test_er_toy(self, tmp_path):
        out = tmp_path / "er"
        assert run("generate", "--kind", "er", "--n", 10, "--p", 0.3, "--t", 3,
                   "--seed", 7, "--out", out, "--name", "fig1") == 0
        g = load_dataset(out / "fig1")
        assert g.num_nodes == 10 and g.num_snapshots == 3

    def test_byte_identical_rerun(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("generate", "--kind", "er", "--n", 8, "--p", 0.4, "--t", 2,
                       "--seed", 3, "--out", out) == 0
        for name in ("dataset.edges", "dataset.meta"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_preserves_trailing_isolated_nodes(self, tmp_path):
        out = tmp_path / "d"
        run("generate", "--kind", "er", "--n", 12, "--p", 0.05, "--t", 2, "--seed", 5,
            "--out", out)
        g = load_dataset(out / "dataset")
        assert g.num_nodes == 12

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("kind = er\nn = 6\nt = 2\nseed = 1\np = 0.5\n")
        out = tmp_path / "out"
        assert run("generate", "--config", cfg, "--out", out, "--seed", 9) == 0
        echoed = (out / "config.txt").read_text()
        assert "seed = 9" in echoed  # flag overrides file
        assert "kind = er" in echoed

    @pytest.mark.parametrize("kind, flags", [
        ("sbm-churn", ("--n", 8, "--blocks", 0)),
        ("sbm-churn", ("--n", 0)),
        ("sbm", ("--n", 0)),
        ("er", ("--n", 0)),
    ], ids=["churn-no-blocks", "churn-no-nodes", "sbm-no-nodes", "er-no-nodes"])
    def test_empty_block_model_rejected(self, tmp_path, capsys, kind, flags):
        out = tmp_path / "d"
        assert run("generate", "--kind", kind, "--t", 3, *flags, "--out", out) == 2
        assert "error: need n >= 1, t >= 1, num_blocks >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run("generate", "--kind", "sbm", "--n", 40, "--blocks", 2, "--t", 3,
                   "--seed", -1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    def test_missing_config_file_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "nope.cfg"
        assert run(command, "--config", cfg, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {cfg} (FileNotFoundError)")
        assert "Traceback" not in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("kind = er\nn = 6\nt = 2\nbogus_knob = 3\n")
        assert run("generate", "--config", cfg, "--out", tmp_path / "x") == 2
        assert "bogus_knob" in capsys.readouterr().err


class TestInspect:
    def test_toy_dumps(self, tmp_path):
        stem = write_toy_t3(tmp_path)
        out = tmp_path / "ins"
        assert run("inspect", "--data", stem, "--t", 2, "--w", 3, "--k", 1,
                   "--out", out) == 0
        csv_lines = (out / "transformed_projections.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "node,tau,lambda_index,eigenvalue,projection"
        assert len(csv_lines) - 1 == 5 * 3 * 1  # every (node, tau) slot, k=1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["transformed"]["rows"] == 14
        assert summary["transformed"]["components"] == 1
        assert summary["transformed"]["lambda0"] < 1e-8
        assert summary["transformed"]["lambda1"] > 1e-8
        # oracle count: {012}+{34}; {01}+3 isolated; {0123}+{4}
        assert summary["untransformed"]["components"] == 8
        # isolated slots are flagged in the mask dump
        isolated = (out / "transformed_isolated.txt").read_text().split()
        assert isolated == ["1", "2", "1", "3", "1", "4", "2", "4"]

    def test_dense_toy_layer_separation(self, tmp_path):
        out_d = tmp_path / "data"
        run("generate", "--kind", "er", "--n", 10, "--p", 0.6, "--t", 3, "--seed", 7,
            "--out", out_d, "--name", "dense")
        out = tmp_path / "ins"
        assert run("inspect", "--data", out_d / "dense", "--t", 2, "--w", 3, "--k", 1,
                   "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["transformed"]["rows"] == 33
        assert summary["transformed"]["layer_mean_separation"] > 1e-3

    def test_gap_reports_error_and_nonzero_exit(self, tmp_path):
        (tmp_path / "gap.edges").write_text("0 1 0\n2 3 1\n")
        (tmp_path / "gap.meta").write_text("name = gap\nnum_nodes = 4\nnum_snapshots = 2\n")
        out = tmp_path / "ins"
        assert run("inspect", "--data", tmp_path / "gap", "--t", 1, "--w", 2, "--k", 1,
                   "--out", out) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert "error" in summary["transformed"]
        assert summary["untransformed"]["components"] == 6

    # sha256 of every file `inspect --t 2 --w 3 --k 2` writes for write_toy_t3,
    # but config.txt, which echoes the data and out paths
    TOY_K2_DIGESTS = {
        "summary.json": "ec2b887243c0baba0817dcda700fca086a9dfe78d1e452b44f63e5557e9048ce",
        "transformed_adjacency.txt": "41f8e618ac27a22772990e601f08f922ca5d4a6b87a8b6253ad2381e372c3f68",
        "transformed_eigenvalues.txt": "a3890648e59cd099f47a6cbf8e8f0415128397438f1cb3ae8b9189471e8d0779",
        "transformed_index_map.txt": "83dc037ec007014014366c6e5a343025d371812482c38b18303c4c67b8d524a1",
        "transformed_isolated.txt": "d3b2ee5b24f058456c69785ecbb02d6fffd6c5779db4c0beb9b401e2b5f44832",
        "transformed_projections.csv": "0f27ff941f7148ac78e89f6574fb0b266ac50db6cd977b4d2b63de81ffa9923f",
        "untransformed_adjacency.txt": "7c326e94e0dff9beea0b3acd6ace964f3ddeecfb32d2558b51623bbdad7d1eb7",
        "untransformed_eigenvalues.txt": "52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262",
        "untransformed_index_map.txt": "cd4739008f94228ebbb8da249af7c576ab5ad6cb1bce5bcaccdc772d9340f942",
        "untransformed_isolated.txt": "d3b2ee5b24f058456c69785ecbb02d6fffd6c5779db4c0beb9b401e2b5f44832",
        "untransformed_projections.csv": "ea06768752fbef872b6e0d3b1a5c6aa981368a7f87ca5594578da6191d19e445",
    }

    def test_toy_dumps_are_pinned(self, tmp_path):
        stem = write_toy_t3(tmp_path)
        out = tmp_path / "ins"
        assert run("inspect", "--data", stem, "--t", 2, "--w", 3, "--k", 2, "--out", out) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in out.iterdir() if f.name != "config.txt"}
        assert digests == self.TOY_K2_DIGESTS
        echoed = (out / "config.txt").read_text().splitlines()
        assert [line for line in echoed if not line.startswith(("data =", "out ="))] == [
            "k = 2", "t = 2", "vn_fallback_link = false", "w = 3"]

    def test_deterministic_rerun(self, tmp_path):
        stem = write_toy_t3(tmp_path)
        out = tmp_path / "ins"
        run("inspect", "--data", stem, "--t", 2, "--w", 3, "--k", 2, "--out", out)
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        run("inspect", "--data", stem, "--t", 2, "--w", 3, "--k", 2, "--out", out)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == first


@pytest.fixture()
def tiny_dataset(tmp_path):
    out = tmp_path / "data"
    run("generate", "--kind", "sbm", "--n", 12, "--blocks", 2, "--p-in", 0.6,
        "--p-out", 0.1, "--t", 6, "--seed", 2, "--out", out, "--name", "tiny")
    return out / "tiny"


ABLATE_FLAGS = ["--k", 2, "--d", 16, "--heads", 2, "--nhead-xa", 1,
                "--ffn-dim", 32, "--epochs", 2, "--patience", 5, "--seed", 0]
TINY_FLAGS = ["--w", 2, *ABLATE_FLAGS]


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path, tiny_dataset):
        out = tmp_path / "run"
        assert run("train", "--data", tiny_dataset, "--out", out, *TINY_FLAGS) == 0
        assert (out / "model.ckpt").exists()
        history = json.loads((out / "history.json").read_text())
        assert len(history["losses"]) == 2
        assert (out / "config.txt").exists()

    def test_eval_reads_run(self, tmp_path, tiny_dataset):
        run_dir = tmp_path / "run"
        run("train", "--data", tiny_dataset, "--out", run_dir, *TINY_FLAGS)
        out = tmp_path / "eval"
        assert run("eval", "--run", run_dir, "--strategy", "historical",
                   "--out", out, "--seed", 0) == 0
        report = json.loads((out / "eval_historical.json").read_text())
        assert report["strategy"] == "historical"
        assert 0.0 <= report["aggregate"]["auc"] <= 1.0

    def test_metric_outputs_bit_identical(self, tmp_path, tiny_dataset):
        run_dir, ev = tmp_path / "run", tmp_path / "eval"
        run("train", "--data", tiny_dataset, "--out", run_dir, *TINY_FLAGS)
        run("eval", "--run", run_dir, "--out", ev, "--seed", 0)
        first = {
            p: p.read_bytes()
            for p in (run_dir / "history.json", run_dir / "model.ckpt", ev / "eval_random.json")
        }
        run("train", "--data", tiny_dataset, "--out", run_dir, *TINY_FLAGS)
        run("eval", "--run", run_dir, "--out", ev, "--seed", 0)
        for p, content in first.items():
            assert p.read_bytes() == content

    def test_train_negative_seed_rejected(self, tmp_path, tiny_dataset, capsys):
        out = tmp_path / "run"
        assert run("train", "--data", tiny_dataset, "--out", out, *TINY_FLAGS, "--seed", -1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not (out / "model.ckpt").exists()

    def test_eval_negative_seed_rejected(self, tmp_path, tiny_dataset, capsys):
        run_dir, out = tmp_path / "run", tmp_path / "eval"
        run("train", "--data", tiny_dataset, "--out", run_dir, *TINY_FLAGS)
        capsys.readouterr()
        assert run("eval", "--run", run_dir, "--out", out, "--seed", -1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not (out / "eval_random.json").exists()

    def test_unknown_encoding_rejected(self, tmp_path, tiny_dataset, capsys):
        assert run("train", "--data", tiny_dataset, "--out", tmp_path / "run",
                   "--encoding", "bogus", *TINY_FLAGS) == 2
        assert "error: unknown encoding 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("meta, message", [
        ("name = toy\nnum_snapshots = 3\n", "missing key 'num_nodes'"),
        ("name = toy\nnum_nodes = five\nnum_snapshots = 3\n", "num_nodes = 'five' is not an integer"),
    ], ids=["missing-key", "not-an-integer"])
    def test_malformed_meta_rejected(self, tmp_path, capsys, meta, message):
        stem = write_toy_t3(tmp_path)
        (tmp_path / "toy.meta").write_text(meta)
        assert run("train", "--data", stem, "--out", tmp_path / "run", *TINY_FLAGS) == 2
        assert f"error: {tmp_path / 'toy.meta'}: {message}" in capsys.readouterr().err

    def test_missing_edges_file_rejected(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path / "nope", "--out", tmp_path / "run", *TINY_FLAGS) == 2
        assert f"error: {tmp_path / 'nope.edges'}: no such dataset file" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [("train", "toy.edges"), ("inspect", "toy.meta")])
    def test_non_utf8_dataset_file_rejected(self, tmp_path, capsys, command, bad):
        stem = write_toy_t3(tmp_path)
        (tmp_path / bad).write_bytes(b"\xff\xfe" + (tmp_path / bad).read_bytes())
        flags = TINY_FLAGS if command == "train" else ("--t", 2)
        assert run(command, "--data", stem, "--out", tmp_path / "run", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path / bad} (UnicodeDecodeError)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["config.txt", "model.ckpt"])
    def test_eval_rejects_run_without_file(self, tmp_path, tiny_dataset, capsys, name):
        run_dir = tmp_path / "run"
        run("train", "--data", tiny_dataset, "--out", run_dir, *TINY_FLAGS)
        (run_dir / name).unlink()
        assert run("eval", "--run", run_dir, "--out", tmp_path / "eval") == 2
        assert f"error: {run_dir}: not a training run (no {name})" in capsys.readouterr().err

    def test_eval_from_another_directory(self, tmp_path, tiny_dataset, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("train", "--data", "data/tiny", "--out", "run", *TINY_FLAGS) == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run("eval", "--run", "../run", "--out", "eval") == 0
        assert (tmp_path / "elsewhere" / "eval" / "eval_random.json").exists()

    def test_eval_line_reports_fallbacks(self, tmp_path, capsys):
        # nodes 10 and 11 first appear in the last (test) snapshot: u=10 of the
        # positive (10, 11) has an empty history pool; every other u has one
        lines = [f"{i} {i + 1 + t % 2} {t}" for t in range(8) for i in range(9 - t % 2)]
        (tmp_path / "late.edges").write_text("\n".join(lines + ["0 10 7", "10 11 7"]) + "\n")
        (tmp_path / "late.meta").write_text("name = late\nnum_nodes = 12\nnum_snapshots = 8\n")
        run_dir, ev = tmp_path / "run", tmp_path / "eval"
        assert run("train", "--data", tmp_path / "late", "--out", run_dir, *TINY_FLAGS) == 0
        capsys.readouterr()
        for strategy in ("random", "historical"):
            assert run("eval", "--run", run_dir, "--strategy", strategy, "--out", ev) == 0
        random_line, historical_line = capsys.readouterr().out.splitlines()
        assert historical_line.startswith("historical: AUC ")
        assert historical_line.endswith(" pairs, 1 negative-pool fallbacks")
        assert random_line.endswith(" pairs")
        report = json.loads((ev / "eval_historical.json").read_text())
        assert report["warnings"]["negative_pool_fallbacks"] == 1


def write_gap_dataset(dirpath: Path) -> str:
    """10 nodes, 8 snapshots alternating between nodes 0-4 and 5-9: every
    two-layer window needs the virtual-node gap bridge."""
    lines = [f"{u + 5 * (t % 2)} {u + 1 + 5 * (t % 2)} {t}" for t in range(8) for u in range(4)]
    (dirpath / "gap.edges").write_text("\n".join(lines) + "\n")
    (dirpath / "gap.meta").write_text("name = gap\nnum_nodes = 10\nnum_snapshots = 8\n")
    return str(dirpath / "gap")


class TestAblate:
    def test_gap_bridge_reaches_evaluation(self, tmp_path):
        out = tmp_path / "abl"
        assert run("ablate", "--data", write_gap_dataset(tmp_path), "--out", out,
                   "--encodings", "slate", "--edge-modules", "on", "--poolings", "mean",
                   "--windows", "2", "--seeds", 1, "--vn-fallback-link", "true",
                   *ABLATE_FLAGS) == 0
        assert json.loads((out / "summary.json").read_text())["failures"] == []

    def test_grid_summary(self, tmp_path, tiny_dataset):
        out = tmp_path / "abl"
        assert run("ablate", "--data", tiny_dataset, "--out", out,
                   "--encodings", "slate,slate-notransform", "--edge-modules", "on",
                   "--poolings", "mean", "--windows", "2,inf", "--seeds", 1,
                   *ABLATE_FLAGS) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cells"]) == 2 * 1 * 1 * 2  # encodings x edge x pool x windows
        assert summary["failures"] == []
        csv_lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + len(summary["cells"])
        assert {c["window"] for c in summary["cells"]} == {"2", "inf"}
        for cell in summary["cells"]:
            assert cell["seeds"] == 1
            assert "±" in cell["auc_pct"]
        echoed = {line.split(" = ")[0] for line in (out / "config.txt").read_text().splitlines()}
        assert not echoed & {"w", "encoding", "use_edge_module", "pooling"}

    def test_cell_settings_rejected(self, tmp_path, tiny_dataset):
        # each cell sets w, encoding, edge module and pooling from the grid flags
        base = ["ablate", "--data", tiny_dataset, "--out", tmp_path / "abl", *ABLATE_FLAGS]
        with pytest.raises(SystemExit) as exc:
            run(*base, "--w", 1)
        assert exc.value.code == 2
        cfg = tmp_path / "abl.cfg"
        cfg.write_text("encoding = lappe-time\n")
        assert run(*base, "--config", cfg) == 2

    def test_unknown_encoding_rejected(self, tmp_path, tiny_dataset, capsys):
        assert run("ablate", "--data", tiny_dataset, "--out", tmp_path / "abl",
                   "--encodings", "slate,bogus", *ABLATE_FLAGS) == 2
        assert "error: unknown encoding 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--windows", "2,x", "--windows takes integers, inf or all, got 'x'"),
        ("--windows", "2,0", "window size must be >= 1"),
        ("--windows", "2,-1", "window size must be >= 1"),
        ("--edge-modules", "true", "--edge-modules takes on or off, got 'true'"),
        ("--poolings", "mean,median", "unknown pooling kind 'median'"),
        ("--seeds", "0", "--seeds must be >= 1"),
    ], ids=["windows", "windows-zero", "windows-negative", "edge-modules", "poolings",
            "seeds-zero"])
    def test_bad_grid_list_rejected(self, tmp_path, tiny_dataset, capsys, flag, value, message):
        out = tmp_path / "abl"
        assert run("ablate", "--data", tiny_dataset, "--out", out, flag, value, *ABLATE_FLAGS) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (out / "summary.json").exists()  # rejected before any cell ran

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_k_not_below_d_rejected(self, tmp_path, tiny_dataset, capsys, command):
        out = tmp_path / "run"
        assert run(command, "--data", tiny_dataset, "--out", out,
                   *ABLATE_FLAGS, "--k", 16, "--d", 16) == 2  # the later flags win
        assert "error: need k < d, got k=16, d=16" in capsys.readouterr().err
        assert not (out / "summary.json").exists() and not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_zero_heads_rejected(self, tmp_path, tiny_dataset, capsys, command):
        out = tmp_path / "run"
        assert run(command, "--data", tiny_dataset, "--out", out, *ABLATE_FLAGS, "--heads", 0) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: heads must be >= 1 and divide d, got heads=0, d=16")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [("train", "--encoding"), ("ablate", "--encodings")])
    def test_negative_d_time_rejected(self, tmp_path, tiny_dataset, capsys, command, flag):
        out = tmp_path / "run"
        assert run(command, "--data", tiny_dataset, "--out", out, *ABLATE_FLAGS,
                   flag, "lappe-time", "--d-time", -1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: d_time must be >= 0")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists() and not (out / "model.ckpt").exists()

    def test_multi_seed_mean_std(self, tmp_path, tiny_dataset):
        out = tmp_path / "abl"
        assert run("ablate", "--data", tiny_dataset, "--out", out,
                   "--encodings", "slate", "--edge-modules", "off",
                   "--poolings", "mean", "--windows", "2", "--seeds", 2,
                   *ABLATE_FLAGS) == 0
        cell = json.loads((out / "summary.json").read_text())["cells"][0]
        assert cell["seeds"] == 2
        assert cell["std_auc"] >= 0.0
