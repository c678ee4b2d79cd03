"""Grid runs and command-line contracts: usage errors, file modes and atomic
writes, the unused train split, fitting each parametric fuser once per train
setting, cells on the main thread, cross-dataset cells, the quoting of
summary.csv, the grid config contract, and input that is not UTF-8."""

import csv
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import pytest

import scorefuse
import scorefuse.cli
import scorefuse.protocol
import scorefuse.provenance
from scorefuse.cli import main
from scorefuse.demo import build_demo
from scorefuse.errors import ContractError, ScoreFuseError
from scorefuse.fusion import FusionWeights, PerceptronHyper, fuser_to_dict, save_fuser
from scorefuse.protocol import GROUP_BYS, METHOD_KINDS, PLAN_KINDS
from scorefuse.provenance import atomic_write_text
from scorefuse.synth import GaussianScoreModel, generate_scores
from scorefuse.tables import PAIRS_CSV_HEADER, SettingDescriptor, score_table_csv_text, write_score_table

from helpers import table

SRC = Path(scorefuse.__file__).resolve().parents[1]


def cli(*argv, cwd=None, preexec_fn=None):
    """``scorefuse`` as a separate process: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "scorefuse.cli", *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn,
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
        assert "provenance" not in doc, path  # the envelope is the only record of inputs


def test_grid_loads_only_the_groups_its_cells_read(tmp_path, monkeypatch):
    config_path = small_demo(tmp_path)
    config = json.loads(config_path.read_text())
    config["score_files"] += [{**e, "split": "train"} for e in config["score_files"] if e["split"] == "validation"]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    splits = []
    load_group = scorefuse.cli._load_group

    def counted(group, paths):
        splits.append(group[1])
        return load_group(group, paths)

    monkeypatch.setattr(scorefuse.cli, "_load_group", counted)
    assert main(["grid", "--config", str(config_path), "--jobs", "1"]) == 0
    # 2 intra plan items, each with its validation and test group; the train files are only hashed
    assert sorted(splits) == ["test", "test", "validation", "validation"]


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


def test_cells_run_on_the_main_thread(tmp_path, monkeypatch):
    config = small_demo(tmp_path, kinds=("intra", "cross_distance"), methods=("avg", "pcc_avg"))
    on_main = []
    original = scorefuse.protocol.run_experiment

    def recorded(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(scorefuse.protocol, "run_experiment", recorded)
    assert main(["grid", "--config", str(config), "--jobs", "2"]) == 0
    assert on_main == [True] * 8


@pytest.mark.parametrize("method_id", ['a,"b', "a\rb", "a\nb"])
def test_summary_csv_quotes_a_method_id_that_needs_it(tmp_path, method_id):
    config_path = small_demo(tmp_path)
    config = json.loads(config_path.read_text())
    config["methods"][0]["method_id"] = method_id
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["grid", "--config", str(config_path)]) == 0
    with open(config_path.parent / "results" / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["method", method_id]


def _two_dataset_grid(root: Path) -> Path:
    """Two datasets of one setting each, 2 matchers, 300 rows per file."""
    settings = [SettingDescriptor("cam1", 1.0, "d1"), SettingDescriptor("cam2", 2.0, "d2")]
    score_files = []
    for k, setting in enumerate(settings):
        for split in ("validation", "test"):
            for matcher in ("m1", "m2"):
                model = GaussianScoreModel(0.35, 0.1, 0.6, 0.12, 100, 200, seed=k, clamp=True)
                tag = f"{setting.dataset_id}-{split}:"
                name = f"{matcher}__{setting.dataset_id}__{split}.csv"
                write_score_table(generate_scores(model, matcher_id=matcher, setting=setting, id_tag=tag), root / name)
                score_files.append({"matcher_id": matcher, **vars(setting), "split": split, "path": name})
    config = {
        "schema": "scorefuse-grid-config/1",
        "seed": 5,
        "output_dir": "results",
        "kinds": ["intra", "cross_dataset"],
        "matchers": ["m1", "m2"],
        "settings": [vars(s) for s in settings],
        "score_files": score_files,
        "methods": [
            {"method_id": "avg", "kind": "avg", "matchers": ["m1", "m2"]},
            {"method_id": "pcc_avg", "kind": "pcc_avg", "matchers": ["m1", "m2"]},
        ],
    }
    path = root / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_cross_dataset_grid_runs_the_same_at_every_jobs(tmp_path):
    config = _two_dataset_grid(tmp_path)
    runs = []
    for jobs in ("1", "2"):
        assert main(["grid", "--config", str(config), "--jobs", jobs]) == 0
        results = tmp_path / "results"
        runs.append({p.name: p.read_bytes() for p in results.iterdir()})
        shutil.rmtree(results)
    assert runs[1] == runs[0]
    cells = sorted(name for name in runs[0] if name.startswith("result__"))
    assert len(cells) == 8
    assert sum(name.startswith("result__cross_dataset__") for name in cells) == 4


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


def test_leakage_is_checked_once_per_pair_of_settings(tmp_path, monkeypatch, capsys):
    # the test files of the 1-m setting are its validation files: its intra
    # cells leak, the other cells do not
    config_path = small_demo(tmp_path, kinds=("intra", "cross_distance"), methods=("avg", "pcc_avg"))
    config = json.loads(config_path.read_text())
    for entry in config["score_files"]:
        if entry["split"] == "test" and entry["distance_m"] == 1.0:
            entry["path"] = entry["path"].replace("__test.csv", "__validation.csv")
    config_path.write_text(json.dumps(config), encoding="utf-8")
    checks = []  # (validation row 1's key, test row 1's key, message raised or None) per check
    check_leakage = scorefuse.protocol.check_leakage

    def counted(val_scores, test_scores):
        try:
            check_leakage(val_scores, test_scores)
            message = None
        except ScoreFuseError as exc:
            message = str(exc)
            raise
        finally:
            checks.append((val_scores.columns.key(0), test_scores.columns.key(0), message))

    monkeypatch.setattr(scorefuse.protocol, "check_leakage", counted)
    runs = []
    for jobs in ("1", "2"):
        checks.clear()
        assert main(["grid", "--config", str(config_path), "--jobs", jobs, "--keep-going"]) == 6
        results = config_path.parent / "results"
        runs.append({p.name: p.read_bytes() for p in results.iterdir()})
        shutil.rmtree(results)
        # 4 plan items (2 intra, 2 cross_distance) x 2 methods, one check per (train, test) setting
        assert len(checks) == len({(val, test) for val, test, _ in checks}) == 4
        failures = json.loads(runs[-1]["summary.json"])["failures"]
        assert [(f["error"], f["method_id"]) for f in failures] == [("LeakageError", "avg"), ("LeakageError", "pcc_avg")]
        leaks = [message for _, _, message in checks if message is not None]
        assert len(leaks) == 1 and all(f["message"] == leaks[0] for f in failures)
        assert f"FAILED {failures[0]['cell']} avg: {leaks[0]}" in capsys.readouterr().err
    assert runs[1] == runs[0]


# ---------------------------------------------------------------- --jobs


EDITED = "scores/m2__demo-cam1-2.6__validation.csv"  # neither the first matcher's file nor the last


def _reverse_rows(demo: Path) -> None:
    header, *rows = (demo / EDITED).read_text(encoding="utf-8").splitlines(keepends=True)
    (demo / EDITED).write_text(header + "".join(reversed(rows)), encoding="utf-8")


def _bad_score(demo: Path) -> None:
    lines = (demo / EDITED).read_text(encoding="utf-8").split("\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",high"
    (demo / EDITED).write_text("\n".join(lines), encoding="utf-8")


def _header_only(demo: Path) -> None:
    header = (demo / EDITED).read_text(encoding="utf-8").split("\n")[0]
    (demo / EDITED).write_text(header + "\n", encoding="utf-8")


def _undeclared(demo: Path) -> None:
    config = json.loads((demo / "config.json").read_text(encoding="utf-8"))
    config["score_files"] = [e for e in config["score_files"] if e["path"] != EDITED]
    (demo / "config.json").write_text(json.dumps(config), encoding="utf-8")


def _declare_train(demo: Path, every_matcher: bool) -> None:
    """Add train entries, beside the validation ones, for every matcher or
    all but the last; their files do not exist."""
    config = json.loads((demo / "config.json").read_text(encoding="utf-8"))
    matchers = config["matchers"] if every_matcher else config["matchers"][:-1]
    config["score_files"] += [
        {**e, "split": "train", "path": e["path"].replace("__validation.csv", "__train.csv")}
        for e in config["score_files"]
        if e["split"] == "validation" and e["matcher_id"] in matchers
    ]
    (demo / "config.json").write_text(json.dumps(config), encoding="utf-8")


@pytest.mark.parametrize(
    "case, edit, code, message",
    [
        ("clean", None, 0, None),
        ("reordered", _reverse_rows, 0, None),  # cannot share the first file's pair columns
        ("bad-file", _bad_score, 3, f"{EDITED}:6: non-numeric score 'high'"),
        ("header-only", _header_only, 4, "matcher 'm2__demo-cam1-2.6__validation' table is empty"),
        ("undeclared", _undeclared, 4, "no score file declared for matcher 'm2', setting demo-cam1-2.6"),
        ("missing-file", lambda demo: (demo / EDITED).unlink(), 7, "i/o error: [Errno 2] No such file"),
        ("missing-train-file", lambda demo: _declare_train(demo, True), 7, "i/o error: [Errno 2] No such file"),
        ("partial-train", lambda demo: _declare_train(demo, False), 7, "i/o error: [Errno 2] No such file"),
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
    if code == 7:
        assert message in out.err and files == {}
        assert (EDITED if case == "missing-file" else "__train.csv") in out.err
        return
    summary = json.loads(files["summary.json"])
    assert len(files) > 3
    assert all(message in f["message"] for f in summary["failures"]) if message else not summary["failures"]
    assert not [p for p in summary["input_digests"] if "__train" in p]
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


def test_grid_reads_whole_numbers_as_integers(demo_config):
    """A seed of 11.0 and a max_epochs of 2000.0, which the schema accepts as
    integers, give the results of 11 and 2000 but for the config's digest."""
    config = json.loads(demo_config.read_text())
    results = {}
    for number in (int, float):
        doc = {**config, "seed": number(config["seed"]), "output_dir": f"results-{number.__name__}"}
        doc["methods"] = [{**method, "hyper": {"max_epochs": number(2000)}} for method in config["methods"]]
        path = demo_config.parent / f"{number.__name__}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["grid", "--config", str(path)]) == 0
        out = demo_config.parent / doc["output_dir"]
        results[number] = {
            p.name: p.read_text(encoding="utf-8").replace(str(path), "CONFIG").replace(scorefuse.provenance.sha256_file(path), "DIGEST")
            for p in sorted(out.iterdir())
        }
    assert '"max_epochs": 2000.0' in (demo_config.parent / "float.json").read_text()
    assert len(results[int]) > 2 and results[float] == results[int]


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
@pytest.mark.parametrize("bounds", [("1", "0"), ("0", "inf"), ("nan", "1"), ("0.5", "0.5")])
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


def _add_setting(**changes):
    """A config mutation adding a copy of the first setting, with ``changes``."""

    def mutate(config):
        config["settings"].append({**config["settings"][0], **changes})

    return mutate


def _repeat_score_file(config):
    config["score_files"].append(dict(config["score_files"][0]))


def _repeat_method(config):
    config["methods"].append(dict(config["methods"][0]))


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
    "enforce-validation-true": (
        _set("enforce_validation_setting", True),
        ["config: unknown key 'enforce_validation_setting'"],
    ),
    "root-unknown-key": (_set("group-by", ["method"]), ["config: unknown key 'group-by'"]),
    "settings-unknown-key": (_set("settings", 0, "camera", "cam1"), ["settings entry", "unknown key 'camera'"]),
    "score-files-unknown-key": (_set("score_files", 0, "weight", 1.0), ["score_files entry", "unknown key 'weight'"]),
    "method-unknown-key": (
        _set("methods", 0, "weight_file", "w.json"),
        ["method 'avg'", "unknown key 'weight_file'"],
    ),
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
    "method-matchers-repeat": (_set("methods", 0, "matchers", ["m1", "m1"]), ["method 'avg'", "must not repeat"]),
    "settings-repeat": (_add_setting(), ["settings entries", "share the key 'demo-cam1-1'"]),
    "settings-same-key": (
        _add_setting(distance_m=1.0000001),
        ["settings entries", "'distance_m': 1.0000001", "share the key 'demo-cam1-1'"],
    ),
    "single-two-matchers": (_set("methods", 0, "kind", "single"), ["method 'avg'", "needs exactly one matcher"]),
    "weighted-without-weights": (_set("methods", 0, "kind", "weighted"), ["method 'avg'", "needs a 'weights_file'"]),
    "weights-file-not-weighted": (
        _set("methods", 0, "weights_file", "missing.json"),
        ["method 'avg'", "'weights_file' is only read by kind 'weighted'"],
    ),
    "hyper-not-perceptron": (
        _set("methods", 0, "hyper", {"max_epochs": 5}),
        ["method 'avg'", "'hyper' is only read by kind 'perceptron'"],
    ),
    "score-files-repeat": (
        _repeat_score_file,
        ["score_files entries", "'path': 'scores/baseline__demo-cam1-1__validation.csv'", "name the same matcher"],
    ),
    "method-id-repeat": (_repeat_method, ["'method_id' values must be unique, got ['avg', 'avg']"]),
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
    "settings-repeat",
    "settings-same-key",
    "single-two-matchers",
    "weighted-without-weights",
    "weights-file-not-weighted",
    "hyper-not-perceptron",
    "score-files-repeat",
    "method-id-repeat",
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


@pytest.mark.parametrize(
    "kind, distances",
    # the contract demo's settings are cam1 at 1 m and 2.6 m, in one dataset;
    # intra pairs every setting with itself, so no config leaves it unpaired
    [("cross_distance", {1.0}), ("cross_camera", {1.0, 2.6}), ("cross_both", {1.0, 2.6}),
     ("cross_dataset", {1.0, 2.6})],
)
def test_a_kind_that_pairs_none_of_the_settings_is_a_parse_error(contract_demo, capsys, kind, distances):
    """Refused before any score file is opened: the files named do not exist."""

    def mutation(config):
        config["kinds"] = ["intra", kind]
        config["settings"] = [s for s in config["settings"] if s["distance_m"] in distances]
        for entry in config["score_files"]:
            entry["path"] = "missing/" + entry["path"]

    _, path = _mutated(contract_demo, mutation)
    assert main(["grid", "--config", str(path)]) == 3
    assert f"{path}: kind {kind!r} pairs none of the settings" in capsys.readouterr().err
    assert not (contract_demo.parent / "results-mutated").exists()


def test_the_demo_has_no_cross_dataset_cell(tmp_path, capsys):
    """The demo holds one dataset: a cross_dataset grid on it is refused
    before its score files are read, here deleted, and nothing is written."""
    demo = tmp_path / "demo"
    assert main(["synth", "--demo", str(demo)]) == 0
    shutil.rmtree(demo / "scores")
    config_path = demo / "config.json"
    config = json.loads(config_path.read_text())
    config["kinds"] = ["cross_dataset"]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["grid", "--config", str(config_path)]) == 3
    assert f"{config_path}: kind 'cross_dataset' pairs none of the settings" in capsys.readouterr().err
    assert sorted(p.name for p in demo.iterdir()) == ["config.json"]


def test_schema_enums_match_the_protocol():
    schema = json.loads((SRC / "scorefuse" / "schemas" / "grid_config.schema.json").read_text())
    properties = schema["properties"]
    assert tuple(properties["kinds"]["items"]["enum"]) == PLAN_KINDS
    assert tuple(properties["methods"]["items"]["properties"]["kind"]["enum"]) == METHOD_KINDS
    assert tuple(properties["group_by"]["items"]["enum"]) == GROUP_BYS
    assert properties["score_files"]["items"]["properties"]["split"]["enum"] == ["train", "validation", "test"]


def test_schema_hyper_keys_are_the_perceptron_hyperparameters():
    schema = json.loads((SRC / "scorefuse" / "schemas" / "grid_config.schema.json").read_text())
    hyper = schema["properties"]["methods"]["items"]["properties"]["hyper"]
    assert list(hyper["properties"]) == [f.name for f in fields(PerceptronHyper)]


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


def _json_fault(contract_demo: Path, tmp_path: Path, reader: str, text: str) -> str:
    """The stderr of a command whose ``reader`` reads the JSON ``text`` (an
    embeddings file's second line), with the file's name and line written
    ``<where>``, after checking that the command exits 3 and writes nothing."""
    scores = sorted((contract_demo.parent / "scores").glob("m[12]__demo-cam1-1__test.csv"))
    out = tmp_path / "out"
    bad = tmp_path / ("bad.jsonl" if reader == "embeddings" else "bad.json")
    if reader == "embeddings":
        bad.write_text('{"entity_id": "r1", "role": "reference", "vector": [1.0]}\n' + text + "\n", encoding="utf-8")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(",".join(PAIRS_CSV_HEADER) + "\np1,r1,s1,s2,0,cam0,1.0,unit\n", encoding="utf-8")
        argv = ["score", "--references", bad, "--probes", bad, "--pairs", pairs, "--metric", "cosine",
                "--out", out / "s.csv"]
    else:
        bad.write_text(text, encoding="utf-8")
        argv = {
            "grid-config": ["grid", "--config", bad],
            "weights-file": ["fuse", "--method", "weighted", "--inputs", *scores, "--weights-file", bad,
                             "--out-dir", out],
        }[reader]
    code, err = cli(*argv)
    assert code == 3, err
    assert "Traceback" not in err
    assert not out.exists() and not (tmp_path / "results").exists()
    where = f"{bad}:2:" if reader == "embeddings" else f"{bad}:"
    return err.replace(where, "<where>")


@pytest.mark.parametrize("reader", ["grid-config", "weights-file", "embeddings"])
def test_json_nested_too_deeply_is_a_parse_error(contract_demo, tmp_path, reader):
    deep = "[" * 200_000 + "]" * 200_000  # deeper than the interpreter's recursion limit
    assert "<where> invalid JSON (nested too deeply)" in _json_fault(contract_demo, tmp_path, reader, deep)


@pytest.mark.parametrize("reader", ["grid-config", "weights-file", "embeddings"])
def test_json_integer_with_too_many_digits_is_a_parse_error(contract_demo, tmp_path, reader):
    long = "[" + "1" * 5000 + "]"  # more digits than int() converts
    assert "<where> invalid JSON (integer with too many digits)" in _json_fault(contract_demo, tmp_path, reader, long)


# ---------------------------------------------------------------- weights files


_WEIGHTS = {"kind": "weights", "matcher_ids": ["m1", "m2"], "weights": [2.0, 1.0], "provenance": "manual"}

# name -> (weights document for matchers m1 m2, words the error must name)
WEIGHTS_FAULTS = {
    "weights-text-and-bool": ({**_WEIGHTS, "weights": ["0.5", True]}, "weights entry '0.5' must be a finite number"),
    "weights-missing": ({k: v for k, v in _WEIGHTS.items() if k != "weights"}, "missing key 'weights'"),
    "weights-negative": ({**_WEIGHTS, "weights": [-1.0, 2.0]}, "weights entry -1.0 must be >= 0"),
    "weights-huge-integer": ({**_WEIGHTS, "weights": [10**400, 1]}, "must be a finite number, got 1000"),
    "matcher-ids-text": ({**_WEIGHTS, "matcher_ids": "m1m2"}, "'matcher_ids' must be a list, got 'm1m2'"),
    "matcher-ids-reordered": (
        {**_WEIGHTS, "matcher_ids": ["m2", "m1"]},
        "weights cover matchers ('m2', 'm1'), expected ('m1', 'm2')",
    ),
    "provenance-number": (
        {**_WEIGHTS, "provenance": 1}, "'provenance' must be one of ['uniform', 'pcc', 'manual'], got 1"
    ),
    "raw-pcc-text": ({**_WEIGHTS, "raw_pcc": ["0.1", 0.2]}, "raw_pcc entry '0.1' must be a finite number"),
    "not-an-object": ([1], "fuser document must be an object, got [1]"),
}


def _weights_argv(contract_demo: Path, weights: Path, command: str, out: Path) -> list:
    """``fuse --method weighted`` over m1 and m2 with ``weights``, or a grid
    with one weighted method reading it, writing to ``out``."""
    demo = contract_demo.parent
    if command == "fuse":
        scores = sorted((demo / "scores").glob("m[12]__demo-cam1-1__test.csv"))
        return ["fuse", "--method", "weighted", "--inputs", *scores, "--weights-file", weights, "--out-dir", out]
    config = json.loads(contract_demo.read_text(encoding="utf-8"))
    config["methods"] = [{"method_id": "w", "kind": "weighted", "matchers": ["m1", "m2"], "weights_file": weights.name}]
    config["output_dir"] = out.name
    config_path = demo / f"{out.name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return ["grid", "--config", config_path]


@pytest.mark.parametrize("command", ["fuse", "grid"])
@pytest.mark.parametrize("name", sorted(WEIGHTS_FAULTS))
def test_weights_file_faults_are_parse_errors_naming_the_file(contract_demo, capsys, name, command):
    doc, words = WEIGHTS_FAULTS[name]
    demo = contract_demo.parent
    weights = demo / f"weights-{name}.json"
    weights.write_text(json.dumps(doc), encoding="utf-8")
    out = demo / f"results-weights-{name}-{command}"
    assert main([str(a) for a in _weights_argv(contract_demo, weights, command, out)]) == 3
    err = capsys.readouterr().err
    assert f"{weights}: " in err and words in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fuse", "grid"])
def test_weights_files_need_only_the_fields_they_fuse_with(contract_demo, command):
    demo = contract_demo.parent
    weights = demo / f"weights-minimal-{command}.json"
    # the provenance keys of a document that fuse wrote are ignored
    weights.write_text(json.dumps({**_WEIGHTS, "seed": 3, "tool_version": "0", "input_digests": {}}), encoding="utf-8")
    out = demo / f"results-weights-minimal-{command}"
    assert main([str(a) for a in _weights_argv(contract_demo, weights, command, out)]) == 0
    assert out.exists()


def test_grid_records_the_weights_file_digest(contract_demo):
    demo = contract_demo.parent
    weights = demo / "weights-digest.json"
    out = demo / "results-weights-digest"
    argv = [str(a) for a in _weights_argv(contract_demo, weights, "grid", out)]
    recorded = []
    for first_weight in (2.0, 3.0):
        weights.write_text(json.dumps({**_WEIGHTS, "weights": [first_weight, 1.0]}), encoding="utf-8")
        assert main(argv) == 0
        docs = [json.loads(path.read_text()) for path in sorted(out.glob("result__*.json"))]
        assert len(docs) == 2
        docs += [json.loads((out / name).read_text()) for name in ("summary.json", "summary.csv.meta.json")]
        digests = {doc["input_digests"][str(weights)] for doc in docs}
        assert digests == {scorefuse.provenance.sha256_file(weights)}
        recorded.append(digests)
    assert recorded[0] != recorded[1]


def test_fuse_weights_file_needs_the_weighted_method(contract_demo, tmp_path):
    scores = sorted((contract_demo.parent / "scores").glob("m[12]__demo-cam1-1__test.csv"))
    out = tmp_path / "out"
    code, err = cli("fuse", "--method", "avg", "--inputs", *scores, "--weights-file", tmp_path / "missing.json",
                    "--out-dir", out)
    assert code == 2
    assert "--weights-file is only read by --method weighted" in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------- synth model parameters


@pytest.mark.parametrize("flag", ["--mu-nonmated", "--sigma-nonmated", "--mu-mated", "--sigma-mated"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_model_flag_is_a_usage_error(tmp_path, flag, value):
    out = tmp_path / "x.csv"
    code, err = cli("synth", "--out", out, flag, value)
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert not out.exists()


_MODEL = {"mu_nonmated": 0.3, "sigma_nonmated": 0.1, "mu_mated": 0.6, "sigma_mated": 0.1, "n_mated": 5, "n_nonmated": 5}
_DROP = object()  # the key is left out


@pytest.mark.parametrize(
    "edit, key",
    [
        ({"n_mated": 2.7}, "n_mated"),
        ({"n_mated": True}, "n_mated"),
        ({"n_nonmated": "5"}, "n_nonmated"),
        ({"seed": 1.9}, "seed"),
        ({"sigma_mated": 0}, "sigma_mated"),
        ({"sigma_nonmated": -0.1}, "sigma_nonmated"),
        ({"n_mated": 0}, "n_mated"),
        ({"n_nonmated": -3}, "n_nonmated"),
        ({"clamp": "false"}, "clamp"),
        ({"clamp": 0}, "clamp"),
        ({"mu_mated": "0.6"}, "mu_mated"),
        ({"sigma_mated": None}, "sigma_mated"),
        ({"n_mated": _DROP}, "n_mated"),
        ({"sed": 1}, "sed"),
    ],
    ids=lambda v: json.dumps(v, default=lambda _: "missing") if isinstance(v, dict) else v,
)
def test_synth_mistyped_model_file_is_a_parse_error(tmp_path, edit, key):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({k: v for k, v in {**_MODEL, **edit}.items() if v is not _DROP}), encoding="utf-8")
    code, err = cli("synth", "--model-file", model, "--out", tmp_path / "out" / "s.csv")
    assert code == 3, err
    assert f"{model}: " in err and repr(key) in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize(
    "source, size", [("flag", 10**15), ("flag", 10**30), ("model-file", 10**15), ("model-file", 1e300)]
)
def test_synth_class_size_beyond_the_address_space_is_a_contract_error(tmp_path, capsys, source, size):
    """From 10**15 rows up, the scores alone exceed any address space, so a
    missing check would fail to allocate, not fill the memory. A size above
    10**15 is named in short form, and a model file's error names the file."""
    out = tmp_path / "out" / "s.csv"
    where = "error: "
    if source == "flag":
        argv = ["synth", "--n-mated", str(size), "--out", str(out)]
    else:
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**_MODEL, "n_mated": size}), encoding="utf-8")
        argv = ["synth", "--model-file", str(model), "--out", str(out)]
        where += f"{model}: "
    assert main(argv) == 4
    err = capsys.readouterr().err
    shown = {10**15: "1000000000000000", 10**30: "1e+30", 1e300: "1e+300"}[size]
    assert err.startswith(f"{where}class sizes n_mated={shown} and n_nonmated=") and "2**48 bytes" in err
    assert not out.parent.exists()


def test_synth_class_size_beyond_the_memory_is_a_contract_error(tmp_path):
    """10**12 rows pass the 2**48-byte bound, but not a 3-GB address space.
    The child process caps its own address space first: uncapped, under
    memory overcommit, the allocation could succeed and fill the memory."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))

    out = tmp_path / "out" / "z.csv"
    code, err = cli("synth", "--n-mated", 10**12, "--out", out, preexec_fn=cap)
    assert code == 4, err
    assert "class sizes n_mated=1000000000000 and n_nonmated=1000" in err and "memory" in err
    assert "Traceback" not in err and not out.parent.exists()


def _recorded_seed(csv_path: Path) -> int:
    return json.loads(csv_path.with_name(csv_path.name + ".meta.json").read_text(encoding="utf-8"))["seed"]


def test_synth_seed_flag_beside_a_model_file_seed_is_a_contract_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**_MODEL, "seed": 1}), encoding="utf-8")
    out = tmp_path / "out" / "a.csv"
    assert main(["synth", "--model-file", str(model), "--seed", "5", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ") and "seed 1" in err and "--seed 5" in err
    assert not out.parent.exists()
    # the file's seed alone, --seed with a file that sets none, and no seed at all
    assert main(["synth", "--model-file", str(model), "--out", str(out)]) == 0
    assert _recorded_seed(out) == 1
    model.write_text(json.dumps(_MODEL), encoding="utf-8")
    assert main(["synth", "--model-file", str(model), "--seed", "5", "--out", str(out)]) == 0
    assert _recorded_seed(out) == 5
    assert main(["synth", "--n-mated", "3", "--out", str(out)]) == 0
    assert _recorded_seed(out) == 0


def _usage_error(capsys, *argv) -> str:
    """The message of ``main(argv)``'s usage error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--clamp"], ["--mu-mated", "0.6"], ["--n-nonmated", "7"], ["--sigma-nonmated", "0.2", "--clamp"]],
)
def test_synth_model_flag_with_a_model_file_is_a_usage_error(tmp_path, capsys, flags):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_MODEL), encoding="utf-8")
    err = _usage_error(capsys, "synth", "--model-file", model, *flags, "--out", tmp_path / "s.csv")
    assert f"{flags[0]} is not read with --model-file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    # the flags alone, or the file with the flags that are no model field, still run
    assert main(["synth", *map(str, flags), "--n-mated", "5", "--out", str(tmp_path / "flags.csv")]) == 0
    assert main(["synth", "--model-file", str(model), "--seed", "3", "--distance", "2", "--out", str(tmp_path / "f.csv")]) == 0


@pytest.mark.parametrize(
    "flag, value",
    [("--sigma-mated", "0"), ("--sigma-nonmated", "-0.1"), ("--n-mated", "0"), ("--n-nonmated", "-3")],
)
def test_synth_out_of_range_model_flag_is_a_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "s.csv"
    err = _usage_error(capsys, "synth", f"{flag}={value}", "--out", out)
    assert flag in err and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--out", "x.csv"], ["--model-file", "model.json"], ["--mu-nonmated", "0.2"], ["--sigma-nonmated", "0.2"],
        ["--mu-mated", "0.1"], ["--sigma-mated", "0.2"], ["--n-mated", "5"], ["--n-nonmated", "5"], ["--clamp"],
        ["--matcher-id", "m"], ["--camera", "c"], ["--distance", "3"], ["--dataset", "d"], ["--id-tag", "t"],
    ],
    ids=lambda flags: flags[0],
)
def test_synth_flag_with_demo_is_a_usage_error(tmp_path, capsys, flags):
    err = _usage_error(capsys, "synth", "--demo", tmp_path / "demo", "--seed", "3", *flags)
    assert f"{flags[0]} is not read with --demo" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1.5"])
def test_synth_distance_must_be_finite_and_positive(tmp_path, capsys, value):
    out = tmp_path / "s.csv"
    err = _usage_error(capsys, "synth", f"--distance={value}", "--out", out)
    assert "--distance" in err and repr(value) in err
    assert not out.exists()


def test_fuse_weighted_needs_a_weights_file_before_reading_inputs(tmp_path, capsys):
    missing = tmp_path / "missing.csv"  # no input is read: a missing one would be an i/o error
    err = _usage_error(capsys, "fuse", "--method", "weighted", "--inputs", missing, missing, "--out-dir", tmp_path / "out")
    assert "--method weighted requires --weights-file" in err
    assert not (tmp_path / "out").exists()
