"""Weighted hypergraph recovery, masked-modeling oracles, entity alignment, and relation evaluation.

The public names below are imported on first use (PEP 562): ``import hgrec``
loads no submodule, so a caller pays only for the modules it reads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "Hyperedge",
        "NodeRelabeling",
        "SimpleGraph",
        "WeightedHypergraph",
        "decode",
        "dissimilarity",
        "edge",
        "encode",
        "line_graph",
        "load_hypergraph",
        "normalize",
        "relabel",
        "save_hypergraph",
        "sketch_diff",
    ),
    "generators": ("GeneratorSpec", "assign_weights", "chain", "frucht", "star", "wcgnm", "x_graph"),
    "rng": ("AliasSampler", "derive_seed", "rng_stream"),
    "sampling": (
        "Dataset",
        "MaskedHyperedge",
        "MaskingStrategy",
        "MetaGraph",
        "MMDataset",
        "build_meta_graph",
        "mm_path_length_bound",
        "sample_dataset",
        "sample_mm_dataset",
        "strategy_constants",
        "uniform_single_mask",
    ),
    "oracle": ("ExactOracle", "TabularOracle", "train_tabular"),
    "recovery": (
        "ALL_PAIRS",
        "RecoveryReport",
        "bf_weight_estimation",
        "recover_from_dataset",
        "recover_from_oracle",
        "recovery_report",
    ),
    "alignment": (
        "Alignment",
        "AnchorSet",
        "align_by_hyperedge_ids",
        "align_exact",
        "align_wl_anchored",
        "color_classes",
        "fuse_datasets",
        "wl_refine",
    ),
    "bounds": ("BoundsInput", "fit_scaling", "lemma_rr_bounds", "lower_bound_risk", "mm_sample_bounds"),
    "sweep": ("SweepConfig", "run_sweep"),
    "kgeval": (
        "EvalResult",
        "KnowledgeGraph",
        "SubgraphSpec",
        "extract_subgraph",
        "ingest_edge_list",
        "normalized_l1",
        "parse_edgelist",
        "render_prompt",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the defining module on every access, never cached here, so that a
    # rebinding there (a patch, a tracing wrapper) and its undoing both show through.
    return getattr(importlib.import_module(f".{module}", __name__), name)
