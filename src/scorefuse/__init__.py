"""Score-level fusion and verification evaluation toolkit."""

__version__ = "0.1.0"

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
    RocCurve,
    ThresholdCurves,
    auc,
    build_curves,
    cohens_d,
    correlation_matrix,
    eer,
    evaluate_table,
    pcc,
    rate_at_operating_point,
    roc_from_curves,
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
    SplitSpec,
    align_tables,
    load_pairs,
    load_score_table,
    normalize_scores,
    split_subjects,
    write_score_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
