"""Weighted hypergraph recovery, masked-modeling oracles, entity alignment, and relation evaluation."""

__version__ = "0.1.0"

from .core import (
    Hyperedge,
    NodeRelabeling,
    SimpleGraph,
    WeightedHypergraph,
    decode,
    dissimilarity,
    edge,
    encode,
    line_graph,
    load_hypergraph,
    normalize,
    relabel,
    save_hypergraph,
    sketch_diff,
)
from .generators import GeneratorSpec, assign_weights, chain, frucht, star, wcgnm, x_graph
from .rng import AliasSampler, derive_seed, rng_stream
from .sampling import (
    Dataset,
    MaskedHyperedge,
    MaskingStrategy,
    MetaGraph,
    MMDataset,
    build_meta_graph,
    mm_path_length_bound,
    sample_dataset,
    sample_mm_dataset,
    strategy_constants,
    uniform_single_mask,
)
from .oracle import ExactOracle, TabularOracle, train_tabular
from .recovery import (
    ALL_PAIRS,
    RecoveryReport,
    bf_weight_estimation,
    recover_from_dataset,
    recover_from_oracle,
    recovery_report,
)
from .alignment import (
    Alignment,
    AnchorSet,
    align_by_hyperedge_ids,
    align_exact,
    align_wl_anchored,
    color_classes,
    fuse_datasets,
    wl_refine,
)
from .bounds import BoundsInput, lemma_rr_bounds, lower_bound_risk, mm_sample_bounds
from .sweep import SweepConfig, fit_scaling, run_sweep
from .kgeval import (
    EvalResult,
    KnowledgeGraph,
    SubgraphSpec,
    extract_subgraph,
    ingest_edge_list,
    normalized_l1,
    parse_edgelist,
    render_prompt,
)
