"""Score-level fusion and verification evaluation toolkit."""

__version__ = "0.1.0"


def _import_numpy_single_threaded() -> None:
    """Load numpy with one OpenBLAS thread, then restore the environment.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, and
    otherwise starts one worker per CPU. Those idle workers cost CPU time in
    every process, and above 10^4 elements OpenBLAS splits a 1-D dot product
    across them, so the last bits of ``metrics.pcc`` would depend on the CPU
    count. No BLAS call here gains from threads. A program that loaded numpy
    before scorefuse keeps its own setting.
    """
    import os
    import sys

    if "numpy" in sys.modules:
        return
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


_import_numpy_single_threaded()

from .embeddings import (
    EmbeddingSet,
    batch_score,
    load_embeddings,
    score_cosine,
    score_euclidean,
)
from .fusion import (
    FusionWeights,
    PerceptronFuser,
    PerceptronHyper,
    apply_fusion,
    estimate_pcc_weights,
    fuse_average,
    fuse_bayesian,
    fuse_weighted,
    load_fuser,
    save_fuser,
    train_perceptron,
)
from .metrics import (
    CorrelationMatrix,
    MetricsReport,
    ThresholdCurves,
    auc,
    build_curves,
    cohens_d,
    correlation_matrix,
    eer,
    evaluate_table,
    pcc,
    rate_at_operating_point,
)
from .protocol import (
    ExperimentPlan,
    ExperimentResult,
    MethodSpec,
    PlanItem,
    aggregate_results,
    plan_experiments,
    run_experiment,
)
from .synth import (
    GaussianScoreModel,
    analytic_auc,
    analytic_cohens_d,
    analytic_eer,
    brute_force_auc,
    brute_force_eer,
    generate_scores,
    make_complementary_matchers,
)
from .tables import (
    AlignedScores,
    ScoreTable,
    SettingDescriptor,
    align_tables,
    load_pairs,
    load_score_table,
    normalize_scores,
    write_score_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
