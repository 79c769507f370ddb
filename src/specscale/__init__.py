"""specscale: supervised feature scaling for spectral clustering and
transductive classification.

The toolkit learns per-feature scaling factors from partially labeled data by
solving an eigenproblem of a rectangular matrix pencil, rescales the data,
then runs normalized-cut spectral embedding followed by k-means clustering or
one-nearest-neighbor classification.
"""

__version__ = "0.1.0"

from . import errors
from .clustering import ClusterAssignment, kmeans, nn1_classify
from .data import (
    DataMatrix,
    SplitSpec,
    generate_toy,
    load_matrix,
    save_matrix,
    split,
    standardize,
)
from .eigensolvers import EigenPair, pencil_residual, rect_pencil_eig, sym_gen_eig
from .embedding import Embedding, NcutValue, embed, ncut_objective
from .experiments import (
    DEFAULT_SIGMA_GRID,
    EvalReport,
    ExperimentConfig,
    RunRecord,
    loocv,
    reports_to_csv,
    reports_to_manifest,
    run_pipeline,
    sweep,
)
from .metrics import Contingency, nmi, rand_index
from .scaling import (
    FiedlerEstimate,
    PencilSystem,
    ScalingVector,
    assemble_pencil,
    estimate_fiedler,
    learn_scaling,
    linearization_violation_fraction,
    scaling_table,
)
from .similarity import (
    KernelParams,
    PairwiseDifferences,
    SimilarityGraph,
    build_similarity,
    graph_from_weights,
    pairwise_sqdiff,
    scaled_sqdist,
)

__all__ = [
    "ClusterAssignment",
    "Contingency",
    "DataMatrix",
    "DEFAULT_SIGMA_GRID",
    "EigenPair",
    "Embedding",
    "EvalReport",
    "ExperimentConfig",
    "FiedlerEstimate",
    "KernelParams",
    "NcutValue",
    "PairwiseDifferences",
    "PencilSystem",
    "RunRecord",
    "ScalingVector",
    "SimilarityGraph",
    "SplitSpec",
    "assemble_pencil",
    "build_similarity",
    "embed",
    "errors",
    "estimate_fiedler",
    "generate_toy",
    "graph_from_weights",
    "kmeans",
    "learn_scaling",
    "linearization_violation_fraction",
    "load_matrix",
    "loocv",
    "ncut_objective",
    "nmi",
    "nn1_classify",
    "pairwise_sqdiff",
    "pencil_residual",
    "rand_index",
    "rect_pencil_eig",
    "reports_to_csv",
    "reports_to_manifest",
    "run_pipeline",
    "save_matrix",
    "scaled_sqdist",
    "scaling_table",
    "split",
    "standardize",
    "sweep",
    "sym_gen_eig",
]
