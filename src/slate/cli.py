"""Command-line surface: dataset generation, spectrum inspection, training,
evaluation, and ablation sweeps. Every command is deterministic given its
resolved configuration and echoes that configuration into its output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .config import Schema, format_value, parse_bool, read_kv_file, write_echo
from .dtdg import (
    DynamicGraph,
    SplitSpec,
    generate_erdos_renyi,
    generate_sbm,
    generate_sbm_churn,
    load_dataset,
    save_dataset,
    split_chronological,
    window_of,
)
from .errors import ConfigError, ConnectivityError, DegenerateWindowError, SlateError
from .model import EncodingKind, window_spectrum
from .nn import load_checkpoint, save_checkpoint
from .spectral import projection_csv_lines, raw_encoding
from .supra import count_components
from .training import TrainConfig, evaluate, train

# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

_GENERATE = Schema({
    "out": (str, None),
    "kind": (str, None),
    "name": (str, "dataset"),
    "n": (int, None),
    "t": (int, None),
    "seed": (int, 0),
    "p": (float, 0.1),
    "blocks": (int, 2),
    "p_in": (float, 0.5),
    "p_out": (float, 0.05),
    "active_prob": (float, 0.6),
    "flip_prob": (float, 0.15),
    "drift_prob": (float, 0.0),
    "edge_persist": (float, 0.0),
})


_TRAIN_FIELDS = {
    "out": (str, None),
    "data": (str, None),
    # one entry per TrainConfig field, with its default
    **{f.name: (parse_bool if isinstance(f.default, bool) else type(f.default), f.default)
       for f in dataclasses.fields(TrainConfig)},
    "split": (str, "ratio"),
    "train_frac": (float, 0.7),
    "val_frac": (float, 0.15),
    "test_frac": (float, 0.15),
    "test_l": (int, 3),
    "val_l": (int, -1),
}
_TRAIN = Schema(_TRAIN_FIELDS)

_EVAL = Schema({
    "out": (str, None),
    "run": (str, None),
    "data": (str, ""),
    "strategy": (str, "random"),
    "seed": (int, 0),
})

_INSPECT = Schema({
    "out": (str, None),
    "data": (str, None),
    "t": (int, None),
    "w": (int, 3),
    "k": (int, 1),
    "vn_fallback_link": (parse_bool, False),
})

# Every ablation cell sets these from --windows, --encodings, --edge-modules and
# --poolings, so ablate takes no flag or config key for them.
_CELL_FIELDS = ("w", "encoding", "use_edge_module", "pooling")

_ABLATE = Schema({k: v for k, v in _TRAIN_FIELDS.items() if k not in _CELL_FIELDS} | {
    "encodings": (str, "slate,slate-notransform"),
    "edge_modules": (str, "on,off"),
    "poolings": (str, "mean"),
    "windows": (str, "3"),
    "seeds": (int, 5),
})


def _resolve(schema: Schema, args: argparse.Namespace) -> dict:
    file_values = read_kv_file(args.config) if args.config else {}
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return schema.resolve(file_values, overrides)


def _add_flags(sub: argparse.ArgumentParser, schema: Schema) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for name, (parser, _) in schema.fields.items():
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=parser, default=None)


def _out_dir(cfg: dict) -> Path:
    """The run's --out directory, made with its parents; ConfigError when it
    cannot be, e.g. because --out names an existing file."""
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {out} ({type(exc).__name__})") from exc
    return out


def _split_ranges(cfg: dict, g: DynamicGraph):
    if cfg["split"] == "ratio":
        spec = SplitSpec.ratio(cfg["train_frac"], cfg["val_frac"], cfg["test_frac"])
    elif cfg["split"] == "last":
        val_l = None if cfg["val_l"] < 0 else cfg["val_l"]
        spec = SplitSpec.last(cfg["test_l"], val_l)
    else:
        raise SlateError(f"unknown split mode {cfg['split']!r}")
    return split_chronological(g, spec)


def _train_config(cfg: dict) -> TrainConfig:
    """The run's resolved values as a TrainConfig; the one place one is built."""
    return TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = _resolve(_GENERATE, args)
    kind = cfg["kind"]
    if kind == "er":
        g = generate_erdos_renyi(cfg["n"], cfg["p"], cfg["t"], cfg["seed"])
    elif kind == "sbm":
        g = generate_sbm(cfg["n"], cfg["blocks"], cfg["p_in"], cfg["p_out"], cfg["t"], cfg["seed"])
    elif kind == "sbm-churn":
        g = generate_sbm_churn(
            cfg["n"], cfg["blocks"], cfg["p_in"], cfg["p_out"], cfg["t"], cfg["seed"],
            active_prob=cfg["active_prob"], flip_prob=cfg["flip_prob"],
            drift_prob=cfg["drift_prob"], edge_persist=cfg["edge_persist"],
        )
    else:
        raise SlateError(f"unknown dataset kind {kind!r}")
    out = _out_dir(cfg)
    save_dataset(g, out, cfg["name"])
    write_echo(cfg, out / "config.txt")
    print(f"wrote {cfg['name']}: {g.num_nodes} nodes, {g.num_snapshots} snapshots -> {out}")
    return 0


def _dump_variant(out: Path, prefix: str, sg, basis, table, members) -> None:
    lines = [f"{i} {j}" for i, j in sg.coordinate_list()]
    (out / f"{prefix}_adjacency.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    node, tau = np.nonzero(sg.rows.T >= 0)  # node-major, like the sorted (node, tau) keys
    im_lines = [f"{u} {members[t]} {row}" for u, t, row in zip(node, tau, sg.rows[tau, node])]
    (out / f"{prefix}_index_map.txt").write_text("\n".join(im_lines) + "\n", encoding="utf-8")
    ev = [f"{v:.12g}" for v in basis.eigenvalues]
    if basis.lambda0 is not None:
        ev.insert(0, f"# discarded trivial eigenvalue {basis.lambda0:.3e}")
    (out / f"{prefix}_eigenvalues.txt").write_text("\n".join(ev) + "\n", encoding="utf-8")
    (out / f"{prefix}_projections.csv").write_text(
        "\n".join(projection_csv_lines(table, members)) + "\n", encoding="utf-8")
    mask_lines = [
        f"{members[tau]} {u}"
        for tau, mask in enumerate(sg.masks)
        for u in np.flatnonzero(mask)
    ]
    (out / f"{prefix}_isolated.txt").write_text("\n".join(mask_lines) + "\n", encoding="utf-8")


def _layer_means(table, masks) -> list[float]:
    means = []
    for tau in range(table.num_members):
        alive = ~masks[tau]
        values = table.matrix[tau, alive, 0] if alive.any() else table.matrix[tau, :, 0]
        means.append(float(values.mean()))
    return means


def cmd_inspect(args) -> int:
    cfg = _resolve(_INSPECT, args)
    out = _out_dir(cfg)
    g = load_dataset(cfg["data"])
    window = window_of(g, cfg["t"], cfg["w"])
    summary: dict = {"window": list(window.members), "k": cfg["k"]}
    failed = False

    try:
        sg, basis = window_spectrum(g, window, EncodingKind.SLATE, cfg["k"],
                                    vn_fallback_link=cfg["vn_fallback_link"])
        table = raw_encoding(basis, sg)
        _dump_variant(out, "transformed", sg, basis, table, window.members)
        layer_means = _layer_means(table, sg.masks)
        summary["transformed"] = {
            "rows": sg.size,
            "components": count_components(sg.adjacency),
            "lambda0": basis.lambda0,
            "lambda1": float(basis.eigenvalues[0]),
            "layer_mean_projection": layer_means,
            "layer_mean_separation": float(max(layer_means) - min(layer_means)),
        }
    except (ConnectivityError, DegenerateWindowError) as exc:
        summary["transformed"] = {"error": str(exc)}
        failed = True

    # k is clipped to the stacking's N * w rows, where training would raise
    k_raw = min(cfg["k"], g.num_nodes * len(window))
    raw_sg, raw_basis = window_spectrum(g, window, EncodingKind.SLATE_NO_TRANSFORM, k_raw)
    raw_table = raw_encoding(raw_basis, raw_sg)
    _dump_variant(out, "untransformed", raw_sg, raw_basis, raw_table, window.members)
    summary["untransformed"] = {
        "rows": raw_sg.size,
        "components": count_components(raw_sg.adjacency),
        "smallest_eigenvalues": [float(v) for v in raw_basis.eigenvalues],
    }

    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    write_echo(cfg, out / "config.txt")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if failed else 0


def cmd_train(args) -> int:
    cfg = _resolve(_TRAIN, args)
    cfg["data"] = str(Path(cfg["data"]).resolve())  # so `eval --run` finds it from any directory
    out = _out_dir(cfg)
    g = load_dataset(cfg["data"])
    train_range, val_range, test_range = _split_ranges(cfg, g)
    tc = _train_config(cfg)
    model = tc.build_model(g.num_nodes)
    history = train(model, g, tc, train_range, val_range)
    save_checkpoint(model.store, out / "model.ckpt")
    payload = {
        "losses": history.losses,
        "val_ap": history.val_ap,
        "best_epoch": history.best_epoch,
        "best_val_ap": history.best_val_ap,
        "stopped_early": history.stopped_early,
        "splits": {"train": [train_range.start, train_range.stop],
                   "val": [val_range.start, val_range.stop],
                   "test": [test_range.start, test_range.stop]},
    }
    (out / "history.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    write_echo(cfg, out / "config.txt")
    print(f"trained {cfg['epochs']} epoch cap, best epoch {history.best_epoch}, "
          f"best val AP {history.best_val_ap:.4f}" if history.val_ap else "trained")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(_EVAL, args)
    out = _out_dir(cfg)
    run_dir = Path(cfg["run"])
    for name in ("config.txt", "model.ckpt"):
        if not (run_dir / name).is_file():
            raise ConfigError(f"{run_dir}: not a training run (no {name})")
    train_cfg = _TRAIN.resolve(read_kv_file(run_dir / "config.txt"), {})
    data = cfg["data"] or train_cfg["data"]
    g = load_dataset(data)
    train_range, _, test_range = _split_ranges(train_cfg, g)
    model = _train_config(train_cfg).build_model(g.num_nodes)
    model.store.load_state(load_checkpoint(run_dir / "model.ckpt"))
    report = evaluate(model, g, test_range, strategy=cfg["strategy"],
                      train_range=train_range, seed=cfg["seed"])
    report.config = {k: format_value(v) for k, v in sorted(train_cfg.items())} | {
        "eval_strategy": cfg["strategy"], "eval_seed": str(cfg["seed"]),
    }
    (out / f"eval_{cfg['strategy']}.json").write_text(report.to_json() + "\n", encoding="utf-8")
    write_echo(cfg, out / "eval_config.txt")
    line = (f"{cfg['strategy']}: AUC {report.aggregate_auc:.4f}, AP {report.aggregate_ap:.4f} "
            f"over {report.n_pairs} pairs")
    if report.fallback_count:
        line += f", {report.fallback_count} negative-pool fallbacks"
    print(line)
    return 0


def _parse_windows(raw: str, num_snapshots: int) -> list[tuple[str, int]]:
    """(label, window size) per item; inf and all mean every snapshot."""
    out = []
    for item in raw.split(","):
        item = item.strip()
        if item in ("inf", "all"):
            out.append(("inf", num_snapshots))
            continue
        try:
            w = int(item)
        except ValueError:
            raise ConfigError(f"--windows takes integers, inf or all, got {item!r}") from None
        out.append((str(w), w))
    return out


def _parse_edge_modules(raw: str) -> list[str]:
    out = [item.strip() for item in raw.split(",")]
    for item in out:
        if item not in ("on", "off"):
            raise ConfigError(f"--edge-modules takes on or off, got {item!r}")
    return out


def cmd_ablate(args) -> int:
    cfg = _resolve(_ABLATE, args)
    if cfg["seeds"] < 1:
        raise ConfigError("--seeds must be >= 1")
    out = _out_dir(cfg)
    g = load_dataset(cfg["data"])
    train_range, val_range, test_range = _split_ranges(cfg, g)
    base = _train_config(cfg | {name: _TRAIN_FIELDS[name][1] for name in _CELL_FIELDS})
    grid = itertools.product(
        [e.strip() for e in cfg["encodings"].split(",")],
        _parse_edge_modules(cfg["edge_modules"]),
        [p.strip() for p in cfg["poolings"].split(",")],
        _parse_windows(cfg["windows"], g.num_snapshots),
    )
    # every cell's configs are built (and so checked) before the first one trains
    cells = [
        (enc, edge, pool, w_label,
         [dataclasses.replace(base, w=w, encoding=enc, use_edge_module=edge == "on",
                              pooling=pool, seed=base.seed + s) for s in range(cfg["seeds"])])
        for enc, edge, pool, (w_label, w) in grid
    ]

    rows = []
    failures = []
    for enc, edge, pool, w_label, configs in cells:
        aucs, aps = [], []
        for tc in configs:
            try:
                model = tc.build_model(g.num_nodes)
                train(model, g, tc, train_range, val_range)
                report = evaluate(model, g, test_range, strategy="random",
                                  train_range=train_range, seed=tc.seed)
                aucs.append(report.aggregate_auc)
                aps.append(report.aggregate_ap)
            except SlateError as exc:
                failures.append({"cell": f"encoding={enc} edge={edge} pooling={pool} "
                                         f"w={w_label} seed={tc.seed}", "error": str(exc)})
        if aucs:
            rows.append({
                "encoding": enc,
                "edge_module": edge,
                "pooling": pool,
                "window": w_label,
                "seeds": len(aucs),
                "mean_auc": float(np.mean(aucs)),
                "std_auc": float(np.std(aucs, ddof=1)) if len(aucs) > 1 else 0.0,
                "mean_ap": float(np.mean(aps)),
                "std_ap": float(np.std(aps, ddof=1)) if len(aps) > 1 else 0.0,
            })

    for row in rows:
        row["auc_pct"] = f"{100 * row['mean_auc']:.2f} ± {100 * row['std_auc']:.2f}"
        row["ap_pct"] = f"{100 * row['mean_ap']:.2f} ± {100 * row['std_ap']:.2f}"
    header = ["encoding", "edge_module", "pooling", "window", "seeds",
              "mean_auc", "std_auc", "mean_ap", "std_ap", "auc_pct", "ap_pct"]
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(",".join(
            f"{row[h]:.6f}" if isinstance(row[h], float) else f"\"{row[h]}\"" if h.endswith("_pct")
            else str(row[h])
            for h in header
        ))
    (out / "summary.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    (out / "summary.json").write_text(
        json.dumps({"cells": rows, "failures": failures}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    write_echo(cfg, out / "config.txt")
    for row in rows:
        print(f"{row['encoding']:>18} edge={row['edge_module']:<3} pool={row['pooling']:<4} "
              f"w={row['window']:>3}  AUC {row['auc_pct']}  AP {row['ap_pct']}")
    if failures:
        print(f"{len(failures)} cell run(s) failed; partial results kept", file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "generate": (cmd_generate, _GENERATE),
    "inspect": (cmd_inspect, _INSPECT),
    "train": (cmd_train, _TRAIN),
    "eval": (cmd_eval, _EVAL),
    "ablate": (cmd_ablate, _ABLATE),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slate",
        description="dynamic link prediction with spectral multi-layer encodings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema) in COMMANDS.items():
        _add_flags(sub.add_parser(name), schema)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except SlateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
