"""Dynamic link prediction with spectral multi-layer encodings and a
fully-connected spatio-temporal transformer."""

from .dtdg import (
    DynamicGraph,
    Snapshot,
    SplitSpec,
    Window,
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
from .metrics import auc, average_precision
from .model import EncodingKind, SlateModel, compute_window_encoding
from .sampling import NegativeSampler, sample_pairs
from .spectral import (
    NormalizedSupraLaplacian,
    RawEncodingTable,
    SpectralBasis,
    normalized_laplacian,
    raw_encoding,
    smallest_eigenpairs,
)
from .supra import SupraGraph, build_supra, verify_connected
from .training import EvalReport, TrainConfig, evaluate, train

__all__ = [
    "DynamicGraph", "Snapshot", "SplitSpec", "Window",
    "generate_erdos_renyi", "generate_sbm", "generate_sbm_churn",
    "load_dataset", "read_edge_list", "save_dataset", "split_chronological", "window_of",
    "write_edge_list",
    "auc", "average_precision",
    "EncodingKind", "SlateModel", "compute_window_encoding",
    "NegativeSampler", "sample_pairs",
    "NormalizedSupraLaplacian", "RawEncodingTable", "SpectralBasis",
    "normalized_laplacian", "raw_encoding", "smallest_eigenpairs",
    "SupraGraph", "build_supra", "verify_connected",
    "EvalReport", "TrainConfig", "evaluate", "train",
]
