"""Score-level fusion and verification evaluation toolkit."""

import importlib.util
import os
import sys

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

_LAYERS = ("errors", "provenance", "tables", "embeddings", "metrics", "fusion", "rng", "synth", "protocol", "demo")


def _register_lazily(name: str):
    """Put layer ``name`` in ``sys.modules`` unexecuted; it runs on the first
    access to one of its attributes.

    A command then runs only the layers it uses: ``score`` never runs
    ``protocol`` or ``synth``. Each layer is still in ``sys.modules`` from
    the start, under its usual name.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register_lazily(name) for name in _LAYERS})

# each public name, served by its layer on first use
_PUBLIC = {
    "embeddings": ("EmbeddingSet", "batch_score", "load_embeddings", "score_cosine", "score_euclidean"),
    "fusion": (
        "FusionWeights",
        "PerceptronFuser",
        "PerceptronHyper",
        "apply_fusion",
        "estimate_pcc_weights",
        "fuse_average",
        "fuse_bayesian",
        "fuse_weighted",
        "load_fuser",
        "save_fuser",
        "train_perceptron",
    ),
    "metrics": (
        "CorrelationMatrix",
        "MetricsReport",
        "ThresholdCurves",
        "auc",
        "build_curves",
        "cohens_d",
        "correlation_matrix",
        "eer",
        "evaluate_table",
        "pcc",
        "rate_at_operating_point",
    ),
    "protocol": (
        "ExperimentResult",
        "MethodSpec",
        "PlanItem",
        "aggregate_results",
        "plan_experiments",
        "run_experiment",
    ),
    "synth": (
        "GaussianScoreModel",
        "analytic_auc",
        "analytic_cohens_d",
        "analytic_eer",
        "brute_force_auc",
        "brute_force_eer",
        "generate_scores",
        "make_complementary_matchers",
    ),
    "tables": (
        "AlignedScores",
        "ScoreTable",
        "SettingDescriptor",
        "align_tables",
        "load_pairs",
        "load_score_table",
        "normalize_scores",
        "write_score_table",
    ),
}
_LAYER_OF = {name: layer for layer, names in _PUBLIC.items() for name in names}

# the public names and the layers but demo, which writes the demo grid
__all__ = sorted([*_LAYER_OF, *(layer for layer in _LAYERS if layer != "demo")])


def __getattr__(name: str):
    """A public name, read from its layer (PEP 562)."""
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAYER_OF[name]], name)
