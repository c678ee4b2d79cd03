"""The command line on mangled argv, and what importing it loads.

Each subcommand's valid argv, over tiny inputs, gets one flag or value
dropped, repeated or replaced by a value from a small fixed set. Whatever
the argv, ``main`` must end in a documented exit code, and no exception but
``SystemExit`` may escape. The values are bounded, so that no case asks for
more than a few thousand rows or starts a worker process.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import scorefuse  # noqa: E402
from scorefuse.cli import main  # noqa: E402
from scorefuse.fusion import FusionWeights, save_fuser  # noqa: E402
from scorefuse.tables import write_score_table  # noqa: E402

from helpers import table  # noqa: E402

SRC = Path(scorefuse.__file__).resolve().parents[1]
EXIT_CODES = {0, 2, 3, 4, 5, 6, 7}
MISSING, DIRECTORY = "<missing>", "<directory>"  # stand-ins for paths under the fixture's root
VALUES = ("", "-1", "0", "2.5", "nan", "inf", "1e999", MISSING, DIRECTORY)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """Tiny inputs for every subcommand; the commands write under ``cwd/``."""
    root = tmp_path_factory.mktemp("fuzz")
    mated, non = [0.9, 0.8, 0.7, 0.6], [0.4, 0.3, 0.2, 0.1]
    for mid, flip in (("a", False), ("b", True)):
        write_score_table(table(mated, non[::-1] if flip else non, mid, tag="t-"), root / f"{mid}.csv")
        write_score_table(table(mated[::-1], non, mid, tag="v-"), root / f"v{mid}.csv")
    save_fuser(FusionWeights(("a", "b"), (2.0, 1.0), "manual"), root / "w.json")
    (root / "refs.jsonl").write_text(
        '{"entity_id": "r1", "role": "reference", "vector": [1.0, 0.0]}\n'
        '{"entity_id": "r2", "role": "reference", "vector": [0.0, 1.0]}\n',
        encoding="utf-8",
    )
    (root / "probes.jsonl").write_text(
        '{"entity_id": "p1", "role": "probe", "vector": [1.0, 0.5]}\n', encoding="utf-8"
    )
    (root / "pairs.csv").write_text(
        "probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id\n"
        "p1,r1,s1,s1,1,cam0,1.0,unit\np1,r2,s1,s2,0,cam0,1.0,unit\n",
        encoding="utf-8",
    )
    model = {"mu_nonmated": 0.3, "sigma_nonmated": 0.1, "mu_mated": 0.6, "sigma_mated": 0.1,
             "n_mated": 20, "n_nonmated": 30}
    (root / "model.json").write_text(json.dumps(model), encoding="utf-8")
    both = ["a", "b"]
    config = {
        "schema": "scorefuse-grid-config/1",
        "seed": 1,
        "output_dir": "results",
        "kinds": ["intra"],
        "matchers": both,
        "settings": [{"camera_id": "cam0", "distance_m": 1.0, "dataset_id": "unit"}],
        "score_files": [
            {"matcher_id": m, "camera_id": "cam0", "distance_m": 1.0, "dataset_id": "unit",
             "split": split, "path": f"{prefix}{m}.csv"}
            for m in both for split, prefix in (("test", ""), ("validation", "v"))
        ],
        "methods": [
            {"method_id": "a", "kind": "single", "matchers": ["a"]},
            {"method_id": "bayes", "kind": "bayes", "matchers": both},
            {"method_id": "pcc", "kind": "pcc_avg", "matchers": both},
            {"method_id": "w", "kind": "weighted", "matchers": both, "weights_file": "w.json"},
            {"method_id": "p", "kind": "perceptron", "matchers": both, "hyper": {"max_epochs": 20}},
        ],
        "group_by": ["method", "method_kind"],
    }
    (root / "grid.json").write_text(json.dumps(config), encoding="utf-8")
    (root / "dir").mkdir()
    (root / "cwd").mkdir()
    return root


def _argvs(root: Path) -> list[list[str]]:
    """A valid argv of each subcommand; fuse and synth have two."""
    a, b, va, vb = (str(root / f"{name}.csv") for name in ("a", "b", "va", "vb"))
    fit = ["--max-epochs", "20", "--tolerance", "1e-6"]
    return [
        ["score", "--references", str(root / "refs.jsonl"), "--probes", str(root / "probes.jsonl"),
         "--pairs", str(root / "pairs.csv"), "--metric", "cosine", "--matcher-id", "s", "--normalize",
         "--out", "s.csv", "--seed", "1"],
        ["fuse", "--method", "perceptron", "--inputs", a, b, "--validation", va, vb, *fit,
         "--input-range", "0", "1", "--out-dir", "fused", "--seed", "1"],
        ["fuse", "--method", "weighted", "--inputs", a, b, "--weights-file", str(root / "w.json"),
         "--out-dir", "fused"],
        ["eval", "--scores", a, "--input-range", "0", "1", "--out-dir", "ev", "--precision", "3", "--seed", "1"],
        ["grid", "--config", str(root / "grid.json"), "--jobs", "1", "--keep-going"],
        ["correlate", "--inputs", a, b, "--input-range", "0", "1", "--out", "c.csv", "--seed", "1"],
        ["synth", "--out", "syn.csv", "--mu-nonmated", "0.3", "--sigma-nonmated", "0.1", "--mu-mated", "0.6",
         "--sigma-mated", "0.1", "--n-mated", "20", "--n-nonmated", "30", "--clamp", "--matcher-id", "x",
         "--camera", "c", "--distance", "1.5", "--dataset", "d", "--id-tag", "t", "--seed", "1"],
        ["synth", "--model-file", str(root / "model.json"), "--out", "m.csv"],
    ]


def _mangled(data, argv: list[str]) -> list[str]:
    """``argv`` with one token after the subcommand dropped, repeated or replaced."""
    argv = list(argv)
    i = data.draw(st.integers(1, len(argv) - 1))
    op = data.draw(st.sampled_from(["drop", "repeat", "replace"]))
    if op == "drop":
        del argv[i]
    elif op == "repeat":
        argv.insert(i, argv[i])
    else:
        argv[i] = data.draw(st.sampled_from(VALUES))
    return argv


def _exit_code(argv: list[str]) -> int:
    """``main(argv)``'s exit code, argparse's ``SystemExit`` included; stdout and stderr are swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _check_mangled_argv(root: Path, data) -> None:
    argv = _mangled(data, data.draw(st.sampled_from(_argvs(root))))
    paths = {MISSING: str(root / "missing" / "none"), DIRECTORY: str(root / "dir")}
    argv = [paths.get(token, token) for token in argv]
    previous = os.getcwd()
    os.chdir(root / "cwd")
    try:
        code = _exit_code(argv)
    finally:
        os.chdir(previous)
        shutil.rmtree(root / "missing", ignore_errors=True)  # an output may have created it
    assert code in EXIT_CODES, (argv, code)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mangled_argv_ends_in_a_documented_exit_code(root, data):
    _check_mangled_argv(root, data)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mangled_argv_ends_in_a_documented_exit_code_at_length(root, data):
    _check_mangled_argv(root, data)


def test_the_valid_argvs_succeed(root):
    for argv in _argvs(root):
        previous = os.getcwd()
        os.chdir(root / "cwd")
        try:
            assert _exit_code(argv) == 0, argv
        finally:
            os.chdir(previous)


LAYERS = ("errors", "provenance", "tables", "embeddings", "metrics", "fusion", "rng", "synth", "protocol", "demo")

# Imports the CLI, runs ``main`` on the argv given after it, if any, and
# prints as its last line: the exit code, which layers are registered, which
# have run, and the process pool's modules that are loaded. A layer that has
# not run is still the lazy module type that the package registered.
_PROBE = f"""
import contextlib, json, sys, types
import scorefuse.cli
with contextlib.redirect_stdout(sys.stderr):
    code = scorefuse.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None
layers = {{name: sys.modules.get("scorefuse." + name) for name in {LAYERS!r}}}
print(json.dumps({{
    "code": code,
    "registered": [name for name, module in layers.items() if module is not None],
    "ran": [name for name, module in layers.items() if type(module) is types.ModuleType],
    "pool": sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))),
}}))
"""


def _python(code: str, argv=(), cwd=None) -> str:
    """The output of ``python -c code *argv``, run on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout


def _probe(argv=(), cwd=None) -> dict:
    return json.loads(_python(_PROBE, argv, cwd).splitlines()[-1])


def test_importing_the_cli_loads_no_process_pool():
    """The pool's modules load when ``grid --jobs`` forks, not with the CLI;
    of the layers, only those that every command uses run with it."""
    probe = _probe()
    assert probe["pool"] == []
    assert probe["registered"] == list(LAYERS)
    assert probe["ran"] == ["errors", "provenance", "tables"]  # cli binds names from these


@pytest.mark.parametrize(
    "command, ran",
    [
        ("score", ["errors", "provenance", "tables", "embeddings"]),
        ("eval", ["errors", "provenance", "tables", "metrics"]),
        ("grid", ["errors", "provenance", "tables", "metrics", "fusion", "protocol"]),
    ],
)
def test_a_command_runs_only_the_layers_it_uses(root, command, ran):
    argv = next(argv for argv in _argvs(root) if argv[0] == command)
    probe = _probe(argv, cwd=root / "cwd")
    assert probe["code"] == 0
    assert probe["ran"] == ran


def test_run_returns_mains_exit_code_with_the_heap_frozen(root):
    argv = next(argv for argv in _argvs(root) if argv[0] == "eval")
    probe = "import gc, scorefuse.cli; code = scorefuse.cli.run(); print(code, gc.get_freeze_count() > 0)"
    assert _python(probe, argv, root / "cwd").split()[-2:] == ["0", "True"]


def test_star_import_binds_every_public_name():
    names = {}
    exec("from scorefuse import *", names)
    del names["__builtins__"]
    assert sorted(names) == sorted(scorefuse.__all__) == [
        "AlignedScores", "CorrelationMatrix", "EmbeddingSet", "ExperimentResult",
        "FusionWeights", "GaussianScoreModel", "MethodSpec", "MetricsReport", "PerceptronFuser",
        "PerceptronHyper", "PlanItem", "ScoreTable", "SettingDescriptor", "ThresholdCurves",
        "aggregate_results", "align_tables", "analytic_auc", "analytic_cohens_d", "analytic_eer",
        "apply_fusion", "auc", "batch_score", "brute_force_auc", "brute_force_eer", "build_curves",
        "cohens_d", "correlation_matrix", "eer", "embeddings", "errors", "estimate_pcc_weights",
        "evaluate_table", "fuse_average", "fuse_bayesian", "fuse_weighted", "fusion", "generate_scores",
        "load_embeddings", "load_fuser", "load_pairs", "load_score_table", "make_complementary_matchers",
        "metrics", "normalize_scores", "pcc", "plan_experiments", "protocol", "provenance",
        "rate_at_operating_point", "rng", "run_experiment", "save_fuser", "score_cosine", "score_euclidean",
        "synth", "tables", "train_perceptron", "write_score_table",
    ]
    for name, value in names.items():
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"scorefuse.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
