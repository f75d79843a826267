"""One-class anomaly detection on embeddings: density-weighted mean-shift
refinement followed by PCA-reduced Gaussian density estimation with
Mahalanobis scoring, plus evaluation and hyperparameter-search harnesses.
"""

from .config import MsdeConfig, build_config, parse_config_file
from .data import (
    DatasetSplit,
    EmbeddingMatrix,
    Standardizer,
    SyntheticSpec,
    apply_standardizer,
    fit_standardizer,
    generate_synthetic,
    load_embeddings,
    load_rows,
    save_scores,
)
from .knn import NeighborGraph, build_knn_graph, knn_neighbors
from .metrics import MetricResult, auc_roc, average_precision, evaluate
from .scoring import (
    GaussianScorer,
    PcaBasis,
    ScoreReport,
    fit_gaussian,
    fit_pca,
    mahalanobis,
    normalize_scores,
    project,
    score_pipeline,
    score_rows,
)
from .shift import (
    ShiftParams,
    ShiftTrace,
    ShiftedEmbeddings,
    joint_shift,
    prepare_joint,
    run_shift,
    shift_step,
)
from .tune import (
    LeakageSplit,
    SearchSpace,
    TrialRecord,
    make_leakage_split,
    random_search,
)
from .weights import (
    DensityWeights,
    FuzzyGraph,
    RadiusSchedule,
    build_fuzzy_graph,
    compute_empirical_weights,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetSplit",
    "DensityWeights",
    "EmbeddingMatrix",
    "FuzzyGraph",
    "GaussianScorer",
    "LeakageSplit",
    "MetricResult",
    "MsdeConfig",
    "NeighborGraph",
    "PcaBasis",
    "RadiusSchedule",
    "ScoreReport",
    "SearchSpace",
    "ShiftParams",
    "ShiftTrace",
    "ShiftedEmbeddings",
    "Standardizer",
    "SyntheticSpec",
    "TrialRecord",
    "apply_standardizer",
    "auc_roc",
    "average_precision",
    "build_config",
    "build_fuzzy_graph",
    "build_knn_graph",
    "compute_empirical_weights",
    "evaluate",
    "fit_gaussian",
    "fit_pca",
    "fit_standardizer",
    "generate_synthetic",
    "joint_shift",
    "knn_neighbors",
    "load_embeddings",
    "load_rows",
    "mahalanobis",
    "make_leakage_split",
    "normalize_scores",
    "parse_config_file",
    "prepare_joint",
    "project",
    "random_search",
    "run_shift",
    "save_scores",
    "score_pipeline",
    "score_rows",
    "shift_step",
]
