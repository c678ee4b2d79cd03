"""Grid runs and command-line contracts: usage errors, file modes and atomic
writes, the unused train split, fitting each parametric fuser once per train
setting, the grid config contract, and input that is not UTF-8."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scorefuse
import scorefuse.protocol
import scorefuse.provenance
from scorefuse.cli import main
from scorefuse.demo import build_demo
from scorefuse.errors import ContractError
from scorefuse.fusion import FusionWeights, fuser_to_dict, save_fuser
from scorefuse.protocol import GROUP_BYS, METHOD_KINDS, PLAN_KINDS
from scorefuse.provenance import atomic_write_text
from scorefuse.tables import PAIRS_CSV_HEADER, score_table_csv_text, write_score_table

from helpers import table

SRC = Path(scorefuse.__file__).resolve().parents[1]


def cli(*argv, cwd=None):
    """``scorefuse`` as a separate process: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "scorefuse.cli", *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


def small_demo(tmp_path, kinds=("intra",), methods=("avg",), seed=11) -> Path:
    """The demo restricted to two 1-m / 2.6-m settings of cam1 and a few methods."""
    demo = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo), "--seed", str(seed)]) == 0
    config = json.loads((demo / "config.json").read_text())
    config["settings"] = [s for s in config["settings"] if s["camera_id"] == "cam1"]
    config["kinds"] = list(kinds)
    config["methods"] = [m for m in config["methods"] if m["method_id"] in methods]
    config["group_by"] = ["method"]
    path = demo / "small.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# ---------------------------------------------------------------- usage errors


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_jobs_below_one_is_a_usage_error(tmp_path, jobs):
    config = small_demo(tmp_path)
    code, err = cli("grid", "--config", config, "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err and "Traceback" not in err
    assert not (config.parent / "results").exists()


def test_eval_negative_precision_is_a_usage_error(tmp_path):
    scores = sorted((small_demo(tmp_path).parent / "scores").glob("m1__*__test.csv"))[0]
    out = tmp_path / "ev"
    code, err = cli("eval", "--scores", scores, "--out-dir", out, "--precision", "-1")
    assert code == 2
    assert "--precision" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- file modes


def test_artifacts_follow_the_umask(tmp_path):
    config = small_demo(tmp_path)
    old = os.umask(0o022)
    try:
        code, err = cli("grid", "--config", config)
    finally:
        os.umask(old)
    assert code == 0, err
    results = config.parent / "results"
    result = sorted(results.glob("result__*.json"))[0]
    for path in (result, results / "summary.csv.meta.json", results / "summary.csv"):
        assert path.stat().st_mode & 0o777 == 0o644, path


def test_artifacts_follow_a_umask_set_after_import(tmp_path):
    old = os.umask(0o077)
    try:
        atomic_write_text(tmp_path / "a.json", "{}\n")
    finally:
        os.umask(old)
    assert (tmp_path / "a.json").stat().st_mode & 0o777 == 0o600
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def _writers():
    """name -> (write to a path, the text it must write, or None to skip that check)."""
    scores = table([0.9, 0.7], [0.2, 0.1])
    weights = FusionWeights(("a", "b"), (3.0, 1.0), "manual")
    return {
        "score-table": (lambda p: write_score_table(scores, p), score_table_csv_text(scores)),
        "fuser": (
            lambda p: save_fuser(weights, p),
            json.dumps(fuser_to_dict(weights), indent=2, sort_keys=True) + "\n",
        ),
        "demo-config": (lambda p: build_demo(p.parent, 3), None),
    }


@pytest.mark.parametrize("name", sorted(_writers()))
def test_writers_are_atomic(tmp_path, monkeypatch, name):
    write, text = _writers()[name]
    target = tmp_path / "out" / ("config.json" if name == "demo-config" else "artifact")
    old = os.umask(0o022)
    try:
        write(target)
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == 0o644
    if text is not None:
        assert target.read_bytes() == text.encode("utf-8")

    target.write_text("old\n", encoding="utf-8")
    replace = os.replace

    def fail_on_target(src, dst):
        if Path(dst) == target:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(scorefuse.provenance.os, "replace", fail_on_target)
    with pytest.raises(OSError, match="disk full"):
        write(target)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert not [p for p in target.parent.rglob("*") if p.name.endswith(".tmp")]


# ---------------------------------------------------------------- the train split


def test_malformed_train_file_is_hashed_not_loaded(tmp_path):
    config_path = small_demo(tmp_path, methods=("avg", "pcc_avg"))
    config = json.loads(config_path.read_text())
    train = config_path.parent / "scores" / "train.csv"
    train.write_text("not,a,score,file\n", encoding="utf-8")
    config["score_files"] += [
        {**entry, "split": "train", "path": "scores/train.csv"}
        for entry in config["score_files"]
        if entry["split"] == "validation"
    ]
    config_path.write_text(json.dumps(config), encoding="utf-8")

    assert main(["grid", "--config", str(config_path)]) == 0
    results = config_path.parent / "results"
    cells = sorted(results.glob("result__*.json"))
    assert len(cells) == 2 * 2
    digest = scorefuse.provenance.sha256_file(train)
    for path in cells + [results / "summary.json"]:
        doc = json.loads(path.read_text())
        assert doc["input_digests"][str(train)] == digest, path
        assert "train_scores_sha256" not in doc.get("provenance", {})


# ---------------------------------------------------------------- one fit per train setting


def _count_calls(monkeypatch, name, raises=None):
    calls = []
    original = getattr(scorefuse.protocol, name)

    def counted(*args, **kwargs):
        calls.append(args[0].matcher_ids)
        if raises is not None:
            raise raises
        return original(*args, **kwargs)

    monkeypatch.setattr(scorefuse.protocol, name, counted)
    return calls


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_each_fuser_is_fitted_once_per_train_setting(tmp_path, monkeypatch, jobs):
    config_path = small_demo(tmp_path, kinds=("intra", "cross_distance"), methods=("pcc_avg", "perceptron"))
    config = json.loads(config_path.read_text())
    for method in config["methods"]:
        if method["kind"] == "perceptron":
            method["hyper"] = {"max_epochs": 50}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    pcc = _count_calls(monkeypatch, "estimate_pcc_weights")
    perceptron = _count_calls(monkeypatch, "train_perceptron")

    assert main(["grid", "--config", str(config_path), "--jobs", jobs]) == 0
    assert len(pcc) == len(perceptron) == 2  # 2 train settings, each in 2 plan items
    results = config_path.parent / "results"
    by_train = {}
    for path in results.glob("result__*__pcc_avg.json"):
        doc = json.loads(path.read_text())
        by_train.setdefault(json.dumps(doc["train_setting"]), []).append(doc["fitted"])
    assert len(by_train) == 2 and all(len(f) == 2 and f[0] == f[1] for f in by_train.values())


def test_failed_fit_fails_each_cell_that_needs_it(tmp_path, monkeypatch, capsys):
    config = small_demo(tmp_path, kinds=("intra", "cross_distance"), methods=("avg", "pcc_avg"))
    calls = _count_calls(monkeypatch, "estimate_pcc_weights", ContractError("no weights today"))
    assert main(["grid", "--config", str(config), "--keep-going", "--jobs", "2"]) == 4
    assert len(calls) == 2
    summary = json.loads((config.parent / "results" / "summary.json").read_text())
    failures = summary["failures"]
    assert len(failures) == 4 and {f["method_id"] for f in failures} == {"pcc_avg"}
    assert all(f["error"] == "ContractError" and f["message"] == "no weights today" for f in failures)
    assert summary["summary"]["method"][0]["n_results"] == 4  # avg


def test_leakage_takes_precedence_over_a_failed_fit(tmp_path, monkeypatch, capsys):
    config_path = small_demo(tmp_path, methods=("pcc_avg",))
    config = json.loads(config_path.read_text())
    for entry in config["score_files"]:
        if entry["split"] == "test":
            entry["path"] = entry["path"].replace("__test.csv", "__validation.csv")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    calls = _count_calls(monkeypatch, "estimate_pcc_weights", ContractError("no weights today"))
    assert main(["grid", "--config", str(config_path), "--keep-going"]) == 6
    summary = json.loads((config_path.parent / "results" / "summary.json").read_text())
    assert [f["error"] for f in summary["failures"]] == ["LeakageError"] * 2
    assert calls == []


# ---------------------------------------------------------------- --jobs


EDITED = "scores/m2__demo-cam1-2.6__validation.csv"  # neither the first matcher's file nor the last


def _reverse_rows(demo: Path) -> None:
    header, *rows = (demo / EDITED).read_text(encoding="utf-8").splitlines(keepends=True)
    (demo / EDITED).write_text(header + "".join(reversed(rows)), encoding="utf-8")


def _bad_score(demo: Path) -> None:
    lines = (demo / EDITED).read_text(encoding="utf-8").split("\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",high"
    (demo / EDITED).write_text("\n".join(lines), encoding="utf-8")


def _undeclared(demo: Path) -> None:
    config = json.loads((demo / "config.json").read_text(encoding="utf-8"))
    config["score_files"] = [e for e in config["score_files"] if e["path"] != EDITED]
    (demo / "config.json").write_text(json.dumps(config), encoding="utf-8")


@pytest.mark.parametrize(
    "case, edit, code, message",
    [
        ("clean", None, 0, None),
        ("reordered", _reverse_rows, 0, None),  # cannot share the first file's pair columns
        ("bad-file", _bad_score, 3, f"{EDITED}:6: non-numeric score 'high'"),
        ("undeclared", _undeclared, 4, "no score file declared for matcher 'm2', setting demo-cam1-2.6"),
        ("missing-file", lambda demo: (demo / EDITED).unlink(), 7, "i/o error: [Errno 2] No such file"),
    ],
)
def test_grid_outputs_do_not_depend_on_jobs(tmp_path, capsys, case, edit, code, message):
    demo = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo), "--seed", "4"]) == 0
    if edit is not None:
        edit(demo)
    capsys.readouterr()
    runs = []
    for jobs in ("1", "2", "4"):
        exit_code = main(["grid", "--config", str(demo / "config.json"), "--jobs", jobs, "--keep-going"])
        results = demo / "results"
        files = {p.name: p.read_bytes() for p in results.iterdir()} if results.exists() else {}
        runs.append((exit_code, capsys.readouterr(), files))
        shutil.rmtree(results, ignore_errors=True)
    assert runs[1] == runs[0] and runs[2] == runs[0]
    exit_code, out, files = runs[0]
    assert exit_code == code, out.err
    if case == "missing-file":
        assert message in out.err and EDITED in out.err and files == {}
        return
    summary = json.loads(files["summary.json"])
    assert len(files) > 3
    assert all(message in f["message"] for f in summary["failures"]) if message else not summary["failures"]
    if case in ("bad-file", "undeclared"):  # the group's files after the failing one are not hashed
        assert summary["failures"] and not [p for p in summary["input_digests"] if "m3__demo-cam1-2.6__val" in p]


# ---------------------------------------------------------------- perceptron hyperparameters and ranges


@pytest.fixture(scope="module")
def demo_config(tmp_path_factory):
    return small_demo(tmp_path_factory.mktemp("bad"), methods=("perceptron",))


@pytest.mark.parametrize(
    "hyper",
    [
        '{"max_epochs": 2.5}',
        '{"max_epochs": true}',
        '{"max_epochs": 0}',
        '{"tolerance": NaN}',
        '{"tolerance": -1}',
        '{"learning_rate": 0}',
        '{"learning_rate": Infinity}',
        '{"seed": true}',
    ],
)
def test_grid_hyper_out_of_schema_is_a_parse_error(demo_config, hyper):
    config = json.loads(demo_config.read_text())
    config["methods"][0]["hyper"] = json.loads(hyper)
    config["output_dir"] = "results-bad"
    path = demo_config.parent / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, err = cli("grid", "--config", path)
    assert code == 3
    assert "'perceptron'" in err and next(iter(json.loads(hyper))) in err
    assert "Traceback" not in err
    assert not (demo_config.parent / "results-bad").exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-epochs", "2.5"),
        ("--max-epochs", "0"),
        ("--tolerance", "nan"),
        ("--tolerance", "-1"),
        ("--learning-rate", "0"),
        ("--learning-rate", "nan"),
        ("--learning-rate", "inf"),
    ],
)
def test_fuse_hyper_flag_out_of_range_is_a_usage_error(demo_config, tmp_path, flag, value):
    scores = demo_config.parent / "scores"
    out = tmp_path / "fused"
    code, err = cli(
        "fuse", "--method", "perceptron",
        "--inputs", *sorted(scores.glob("m[12]__demo-cam1-1__test.csv")),
        "--validation", *sorted(scores.glob("m[12]__demo-cam1-1__validation.csv")),
        "--out-dir", out, flag, value,
    )
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fuse", "eval", "correlate"])
@pytest.mark.parametrize("bounds", [("1", "0"), ("0", "inf"), ("nan", "1")])
def test_input_range_must_be_finite_and_ordered(demo_config, tmp_path, command, bounds):
    inputs = sorted((demo_config.parent / "scores").glob("m[12]__demo-cam1-1__test.csv"))
    out = tmp_path / "out"
    argv = {
        "fuse": ["fuse", "--method", "avg", "--inputs", *inputs, "--out-dir", out],
        "eval": ["eval", "--scores", inputs[0], "--out-dir", out],
        "correlate": ["correlate", "--inputs", *inputs, "--out", out],
    }[command]
    code, err = cli(*argv, "--input-range", *bounds)
    assert code == 2
    assert "--input-range" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- config contract


def _set(*path_and_value):
    """A config mutation setting ``config[k1][k2]... = value``."""
    *path, key, value = path_and_value

    def mutate(config):
        for k in path:
            config = config[k]
        config[key] = value

    return mutate


# (mutation, words the error must name); each breaks grid_config.schema.json,
# except those in CODE_RULES, which break a rule the schema does not state
CONFIG_MUTATIONS = {
    "kinds-empty": (_set("kinds", []), ["'kinds'"]),
    "methods-empty": (_set("methods", []), ["'methods'"]),
    "settings-empty": (_set("settings", []), ["'settings'"]),
    "seed-bool": (_set("seed", True), ["'seed'"]),
    "method-matchers-string": (_set("methods", 0, "matchers", "m1"), ["'matchers'", "method 'avg'"]),
    "method-kind-unknown": (_set("methods", 0, "kind", "bogus"), ["'kind'", "method 'avg'"]),
    "settings-distance-text": (_set("settings", 0, "distance_m", "x"), ["settings entry", "'x'"]),
    "score-files-distance-text": (_set("score_files", 0, "distance_m", "x"), ["score_files entry", "'x'"]),
    "weights-file-number": (_set("methods", 0, "weights_file", 5), ["'weights_file'", "method 'avg'"]),
    "enforce-validation-text": (_set("enforce_validation_setting", "false"), ["'enforce_validation_setting'"]),
    "settings-camera-number": (_set("settings", 0, "camera_id", 1), ["settings entry", "'camera_id'"]),
    "method-id-number": (_set("methods", 0, "method_id", 7), ["'method_id'", "method 7"]),
    "hyper-number": (_set("methods", 0, "hyper", 0), ["'hyper'", "method 'avg'"]),
    "score-files-path-number": (_set("score_files", 0, "path", 3), ["score_files entry", "'path'"]),
    "output-dir-escapes": (_set("output_dir", "../escaped"), ["'output_dir'", "'../escaped'"]),
    "method-matchers-unknown": (_set("methods", 0, "matchers", ["m1", "m9"]), ["method 'avg'", "'m9'"]),
    "score-files-path-nul": (_set("score_files", 0, "path", "a\0b"), ["'path'", "'a\\x00b'"]),
    "settings-distance-huge": (_set("settings", 0, "distance_m", 10**400), ["settings entry", "'distance_m'"]),
    "settings-camera-separator": (
        _set("settings", 0, "camera_id", "x/../../../escaped"),
        ["settings entry", "'camera_id'", "path separator"],
    ),
    "score-files-dataset-separator": (
        _set("score_files", 0, "dataset_id", "../escaped"),
        ["score_files entry", "'dataset_id'", "path separator"],
    ),
    "method-id-separator": (
        _set("methods", 0, "method_id", "../../../escaped"),
        ["method '../../../escaped'", "'method_id'", "path separator"],
    ),
    "settings-camera-nul": (
        _set("settings", 0, "camera_id", "a\0b"),
        ["settings entry", "'camera_id' 'a\\x00b'", "not a usable file name"],
    ),
    "score-files-dataset-nul": (
        _set("score_files", 0, "dataset_id", "a\0b"),
        ["score_files entry", "'dataset_id' 'a\\x00b'", "not a usable file name"],
    ),
    "method-id-nul": (
        _set("methods", 0, "method_id", "a\0b"),
        ["method 'a\\x00b'", "'method_id' 'a\\x00b'", "not a usable file name"],
    ),
}
CODE_RULES = {
    "output-dir-escapes",
    "method-matchers-unknown",
    "score-files-path-nul",
    "settings-distance-huge",
    "settings-camera-separator",
    "score-files-dataset-separator",
    "method-id-separator",
    "settings-camera-nul",
    "score-files-dataset-nul",
    "method-id-nul",
}


@pytest.fixture(scope="module")
def contract_demo(tmp_path_factory):
    return small_demo(tmp_path_factory.mktemp("contract"))


def _mutated(config_path: Path, mutation) -> tuple[dict, Path]:
    config = json.loads(config_path.read_text())
    config["methods"] = [m for m in config["methods"] if m["method_id"] == "avg"]  # the mutations' methods[0]
    config["output_dir"] = "results-mutated"
    mutation(config)
    path = config_path.parent / "mutated.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return config, path


@pytest.mark.parametrize("name", sorted(CONFIG_MUTATIONS))
def test_grid_config_out_of_schema_is_a_parse_error(contract_demo, name):
    mutation, words = CONFIG_MUTATIONS[name]
    _, path = _mutated(contract_demo, mutation)
    code, err = cli("grid", "--config", path)
    assert code == 3, err
    assert all(w in err for w in words), err
    assert "Traceback" not in err
    assert not (contract_demo.parent / "results-mutated").exists()
    assert not [p for p in contract_demo.parent.parent.rglob("escaped*")], err


def test_grid_output_dir_must_not_be_absolute(contract_demo, capsys):
    inside = contract_demo.parent / "results-absolute"
    _, path = _mutated(contract_demo, _set("output_dir", str(inside)))
    assert main(["grid", "--config", str(path)]) == 3
    assert "'output_dir'" in capsys.readouterr().err
    assert not inside.exists()


def test_configs_the_schema_rejects_are_refused(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SRC / "scorefuse" / "schemas" / "grid_config.schema.json").read_text())
    demo = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo), "--seed", "5"]) == 0
    config_path = demo / "config.json"
    jsonschema.validate(json.loads(config_path.read_text()), schema)
    for name, (mutation, _) in sorted(CONFIG_MUTATIONS.items()):
        config, path = _mutated(config_path, mutation)
        if name in CODE_RULES:
            jsonschema.validate(config, schema)
        else:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(config, schema)
        assert main(["grid", "--config", str(path)]) == 3, name
        assert not (demo / "results-mutated").exists(), name
    assert main(["grid", "--config", str(config_path)]) == 0
    assert (demo / "results" / "summary.json").exists()


def test_schema_enums_match_the_protocol():
    schema = json.loads((SRC / "scorefuse" / "schemas" / "grid_config.schema.json").read_text())
    properties = schema["properties"]
    assert tuple(properties["kinds"]["items"]["enum"]) == PLAN_KINDS
    assert tuple(properties["methods"]["items"]["properties"]["kind"]["enum"]) == METHOD_KINDS
    assert tuple(properties["group_by"]["items"]["enum"]) == GROUP_BYS
    assert properties["score_files"]["items"]["properties"]["split"]["enum"] == ["train", "validation", "test"]


# ---------------------------------------------------------------- input that is not UTF-8


def _not_utf8(path: Path, text: str, word: str) -> Path:
    """``text`` written to ``path`` with the first ``word`` spelled with a Latin-1 e-acute."""
    data = text.encode("utf-8")
    assert word.encode() in data
    path.write_bytes(data.replace(word.encode(), word.encode().replace(b"e", b"\xe9"), 1))
    return path


@pytest.mark.parametrize(
    "reader",
    ["score-csv", "pairs-csv", "embeddings", "grid-config", "grid-weights-file", "weights-file", "model-file"],
)
def test_input_that_is_not_utf8_is_a_parse_error(contract_demo, tmp_path, reader):
    demo = contract_demo.parent
    scores = sorted((demo / "scores").glob("m[12]__demo-cam1-1__test.csv"))
    refs = tmp_path / "refs.jsonl"
    refs.write_text('{"entity_id": "r1", "role": "reference", "vector": [1.0, 0.0]}\n', encoding="utf-8")
    probes = tmp_path / "probes.jsonl"
    probes.write_text('{"entity_id": "p1", "role": "probe", "vector": [0.0, 1.0]}\n', encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(
        "probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id\n"
        "p1,r1,s1,s2,0,cam0,1.0,unit\n",
        encoding="utf-8",
    )
    weights = json.dumps(fuser_to_dict(FusionWeights(("m1", "m2"), (1.0, 1.0), "manual")))
    out = tmp_path / "out"
    if reader == "score-csv":
        bad = _not_utf8(tmp_path / "bad.csv", scores[0].read_text(encoding="utf-8"), "demo")
        argv = ["eval", "--scores", bad, "--out-dir", out]
    elif reader in ("pairs-csv", "embeddings"):
        source = pairs if reader == "pairs-csv" else refs
        bad = _not_utf8(tmp_path / f"bad{source.suffix}", source.read_text(encoding="utf-8"), "reference")
        inputs = {"--references": refs, "--probes": probes, "--pairs": pairs}
        inputs["--pairs" if reader == "pairs-csv" else "--references"] = bad
        argv = ["score", *[a for kv in inputs.items() for a in kv], "--metric", "cosine", "--out", out / "s.csv"]
    elif reader == "grid-config":
        bad = _not_utf8(demo / "bad-config.json", contract_demo.read_text(encoding="utf-8"), "results")
        argv = ["grid", "--config", bad]
    elif reader == "grid-weights-file":
        bad = _not_utf8(demo / "bad-weights.json", weights, "weights")
        config = json.loads(contract_demo.read_text(encoding="utf-8"))
        config["methods"] = [{"method_id": "w", "kind": "weighted", "matchers": ["m1", "m2"], "weights_file": bad.name}]
        config["output_dir"] = "results-weights"
        (demo / "weights-config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["grid", "--config", demo / "weights-config.json"]
    elif reader == "weights-file":
        bad = _not_utf8(tmp_path / "bad.json", weights, "weights")
        argv = ["fuse", "--method", "weighted", "--inputs", *scores, "--weights-file", bad, "--out-dir", out]
    else:
        bad = _not_utf8(tmp_path / "bad.json", '{"mu_nonmated": 0.3, "note": "demo"}', "demo")
        argv = ["synth", "--model-file", bad, "--out", out / "s.csv"]
    code, err = cli(*argv)
    assert code == 3, err
    assert bad.name in err and "UTF-8" in err and "Traceback" not in err
    assert not out.exists() and not (demo / "results-weights").exists()


@pytest.mark.parametrize("reader", ["grid-config", "weights-file", "embeddings"])
def test_json_nested_too_deeply_is_a_parse_error(contract_demo, tmp_path, reader):
    deep = "[" * 200_000 + "]" * 200_000  # deeper than the interpreter's recursion limit
    scores = sorted((contract_demo.parent / "scores").glob("m[12]__demo-cam1-1__test.csv"))
    out = tmp_path / "out"
    bad = tmp_path / ("bad.jsonl" if reader == "embeddings" else "bad.json")
    if reader == "embeddings":
        bad.write_text('{"entity_id": "r1", "role": "reference", "vector": [1.0]}\n' + deep + "\n", encoding="utf-8")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(",".join(PAIRS_CSV_HEADER) + "\np1,r1,s1,s2,0,cam0,1.0,unit\n", encoding="utf-8")
        argv = ["score", "--references", bad, "--probes", bad, "--pairs", pairs, "--metric", "cosine",
                "--out", out / "s.csv"]
    else:
        bad.write_text(deep, encoding="utf-8")
        argv = {
            "grid-config": ["grid", "--config", bad],
            "weights-file": ["fuse", "--method", "weighted", "--inputs", *scores, "--weights-file", bad,
                             "--out-dir", out],
        }[reader]
    code, err = cli(*argv)
    assert code == 3, err
    where = f"{bad}:2:" if reader == "embeddings" else f"{bad}:"
    assert f"{where} invalid JSON (nested too deeply)" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "results").exists()


# ---------------------------------------------------------------- synth model parameters


@pytest.mark.parametrize("flag", ["--mu-nonmated", "--sigma-nonmated", "--mu-mated", "--sigma-mated"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_model_flag_is_a_usage_error(tmp_path, flag, value):
    out = tmp_path / "x.csv"
    code, err = cli("synth", "--out", out, flag, value)
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert not out.exists()
