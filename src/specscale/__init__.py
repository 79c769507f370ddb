"""specscale: supervised feature scaling for spectral clustering and
transductive classification.

The toolkit learns per-feature scaling factors from partially labeled data by
solving an eigenproblem of a rectangular matrix pencil, rescales the data,
then runs normalized-cut spectral embedding followed by exact two-means
clustering of the one-dimensional embedding or one-nearest-neighbor
classification.
"""

__version__ = "0.1.0"

from . import errors
from .clustering import kmeans, nn1_classify
from .data import (
    DataMatrix,
    SplitSpec,
    generate_toy,
    load_matrix,
    save_matrix,
    split,
    standardize,
)
from .eigensolvers import EigenPair, SymmetricCSR, pencil_residual, rect_pencil_eig, sym_gen_eig
from .embedding import Embedding, embed
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
from .metrics import nmi, rand_index
from .scaling import (
    PencilSystem,
    ScalingVector,
    assemble_pencil,
    estimate_fiedler,
    learn_scaling,
    linearization_violation_fraction,
    scaling_table,
)
from .similarity import (
    PairwiseDifferences,
    SimilarityGraph,
    build_similarity,
    pairwise_sqdiff,
)

__all__ = [
    "DataMatrix",
    "DEFAULT_SIGMA_GRID",
    "EigenPair",
    "Embedding",
    "EvalReport",
    "ExperimentConfig",
    "PairwiseDifferences",
    "PencilSystem",
    "RunRecord",
    "ScalingVector",
    "SimilarityGraph",
    "SplitSpec",
    "SymmetricCSR",
    "assemble_pencil",
    "build_similarity",
    "embed",
    "errors",
    "estimate_fiedler",
    "generate_toy",
    "kmeans",
    "learn_scaling",
    "linearization_violation_fraction",
    "load_matrix",
    "loocv",
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
    "scaling_table",
    "split",
    "standardize",
    "sweep",
    "sym_gen_eig",
]
