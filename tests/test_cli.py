import json

import numpy as np
import pytest

from scorefuse.cli import _load_tables, main
from scorefuse.kinds import FITTED_KINDS
from scorefuse.tables import SCORE_CSV_HEADER, load_score_table, write_score_table

from helpers import table


def run(argv):
    return main([str(a) for a in argv])


def write_embeddings(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def write_pairs(path, rows):
    header = "probe_id,reference_id,probe_subject,reference_subject,mated,camera_id,distance_m,dataset_id"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


@pytest.fixture
def embedding_files(tmp_path):
    refs = tmp_path / "refs.jsonl"
    probes = tmp_path / "probes.jsonl"
    write_embeddings(
        refs,
        [
            {"entity_id": "r1", "role": "reference", "vector": [1.0, 0.0]},
            {"entity_id": "r2", "role": "reference", "vector": [0.0, 1.0]},
        ],
    )
    write_embeddings(
        probes,
        [
            {"entity_id": "p1", "role": "probe", "vector": [1.0, 0.0]},
            {"entity_id": "p2", "role": "probe", "vector": [1.0, 1.0]},
        ],
    )
    pairs = tmp_path / "pairs.csv"
    write_pairs(
        pairs,
        ["p1,r1,s1,s1,1,cam0,1.0,unit", "p2,r2,s1,s2,0,cam0,1.0,unit"],
    )
    return refs, probes, pairs


def test_score_command_writes_csv(tmp_path, embedding_files, capsys):
    refs, probes, pairs = embedding_files
    out = tmp_path / "scores.csv"
    code = run(
        ["score", "--references", refs, "--probes", probes, "--pairs", pairs,
         "--metric", "euclidean_posterior", "--matcher-id", "m", "--out", out]
    )
    assert code == 0
    t = load_score_table(out, (0.0, 1.0))
    assert len(t) == 2 and t.scores[0] == 1.0
    assert (tmp_path / "scores.csv.meta.json").exists()
    meta = json.loads((tmp_path / "scores.csv.meta.json").read_text())
    assert meta["seed"] == 0 and meta["tool_version"]
    assert len(meta["input_digests"]) == 3


@pytest.mark.parametrize(
    "which, row, words",
    [
        ("probes", {"entity_id": "p1", "role": "reference", "vector": [1.0, 0.0]},
         "probes.jsonl:1: role must be 'probe' in a file of probes, got 'reference'"),
        ("refs", {"entity_id": "r1", "role": "probe", "vector": [1.0, 0.0]},
         "refs.jsonl:1: role must be 'reference' in a file of references, got 'probe'"),
        ("refs", {"entity_id": "r1", "role": "reference", "vector": [True, False]},
         "refs.jsonl:1: embedding: vector entry True must be a finite number, got True"),
        ("probes", {"entity_id": None, "role": "probe", "vector": [1.0, 0.0]},
         "probes.jsonl:1: embedding: 'entity_id' must be a string, got None"),
    ],
)
def test_score_command_refuses_wrong_role_and_boolean_entries(tmp_path, embedding_files, capsys, which, row,
                                                              words):
    refs, probes, pairs = embedding_files
    write_embeddings({"refs": refs, "probes": probes}[which], [row])
    write_pairs(pairs, ["p1,r1,s1,s1,1,cam0,1.0,unit"])
    out = tmp_path / "x.csv"
    assert run(["score", "--references", refs, "--probes", probes, "--pairs", pairs,
                "--metric", "cosine", "--out", out]) == 3
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err
    assert not out.exists()


def test_score_command_unresolved_id(tmp_path, embedding_files, capsys):
    refs, probes, pairs = embedding_files
    write_pairs(pairs, ["p9,r1,s1,s1,1,cam0,1.0,unit"])
    code = run(
        ["score", "--references", refs, "--probes", probes, "--pairs", pairs,
         "--metric", "cosine", "--out", tmp_path / "x.csv"]
    )
    assert code == 4
    assert "p9" in capsys.readouterr().err


def test_score_command_empty_pairs(tmp_path, embedding_files, capsys):
    refs, probes, pairs = embedding_files
    write_pairs(pairs, [])
    code = run(
        ["score", "--references", refs, "--probes", probes, "--pairs", pairs,
         "--metric", "cosine", "--out", tmp_path / "x.csv"]
    )
    assert code == 4
    assert "no comparisons" in capsys.readouterr().err


@pytest.mark.parametrize(
    "metric, ref, probe, code, words",
    [
        ("cosine", [1e200, 0.0], [1e200, 0.0], 4, "squared norm of embedding 'r1' is not finite"),
        ("cosine", [1e300, 1e300], [1.0, 2.0], 4, "squared norm of embedding 'r1' is not finite"),
        ("euclidean_posterior", [1e300, 1e300], [-1e300, -1e300], 4,
         "squared distance of pair ('p1', 'r1') is not finite"),
        ("cosine", [1.0, 10**400], [1.0, 0.0], 3,
         f"refs.jsonl:1: embedding: vector entry {10**400} must be a finite number"),
    ],
)
def test_score_command_refuses_vectors_out_of_float_range(tmp_path, embedding_files, capsys, metric, ref, probe,
                                                         code, words):
    refs, probes, pairs = embedding_files
    write_embeddings(refs, [{"entity_id": "r1", "role": "reference", "vector": ref}])
    write_embeddings(probes, [{"entity_id": "p1", "role": "probe", "vector": probe}])
    write_pairs(pairs, ["p1,r1,s1,s1,1,cam0,1.0,unit"])
    out = tmp_path / "x.csv"
    assert run(["score", "--references", refs, "--probes", probes, "--pairs", pairs,
                "--metric", metric, "--out", out]) == code
    err = capsys.readouterr().err
    assert words in err and "Traceback" not in err and "Warning" not in err
    assert not out.exists()


def test_fuse_inputs_over_the_same_pairs_share_their_columns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.9, 0.7], [0.2, 0.1], "a")
    _write_table(b, [0.8, 0.6], [0.3, 0.4], "b")
    digests = {}
    tables = _load_tables([a, b], (0.0, 1.0), digests)
    assert tables[1].columns is tables[0].columns
    assert list(digests) == [str(a), str(b)]


def _write_table(path, mated, non, matcher_id, tag=""):
    write_score_table(table(mated, non, matcher_id=matcher_id, tag=tag), path)


def test_fuse_avg_of_identical_tables(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.9, 0.7], [0.2, 0.1], "a")
    _write_table(b, [0.9, 0.7], [0.2, 0.1], "b")
    code = run(["fuse", "--method", "avg", "--inputs", a, b, "--out-dir", tmp_path])
    assert code == 0
    fused = load_score_table(tmp_path / "fused_avg.csv", (0.0, 1.0))
    assert fused.scores.tolist() == [0.9, 0.7, 0.2, 0.1]
    assert fused.matcher_id == "avg"


def test_fuse_normalizes_wide_range_inputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_score_table(table([0.5, -0.5], [0.0], matcher_id="a", declared=(-1.0, 1.0)), a)
    write_score_table(table([0.7, -0.1], [0.2], matcher_id="b", declared=(-1.0, 1.0)), b)
    code = run(["fuse", "--method", "avg", "--inputs", a, b, "--input-range", "-1", "1", "--out-dir", tmp_path])
    assert code == 0
    fused = load_score_table(tmp_path / "fused_avg.csv", (0.0, 1.0))
    # each input is mapped s -> (s + 1) / 2 before averaging
    assert fused.scores[0] == pytest.approx(((0.75) + (0.85)) / 2, abs=1e-12)

    # the map is not optional, so fuse has no --normalize
    with pytest.raises(SystemExit) as exc:
        run(["fuse", "--method", "avg", "--inputs", a, b, "--input-range", "-1", "1", "--normalize",
             "--out-dir", tmp_path])
    assert exc.value.code == 2


def _outputs_but_digests(out_dir):
    """Each file in ``out_dir``, a JSON document without its input digests."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            del doc["input_digests"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("method", ["avg", "bayes", "pcc_avg", "perceptron"])
def test_wide_range_inputs_fuse_and_correlate_as_their_normalized_files(tmp_path, method):
    """Inputs declared [-1, 1] give the outputs of the same files mapped onto
    [0, 1] first, validation files included."""
    from scorefuse.tables import normalize_scores

    rng = np.random.default_rng(7)
    wide, unit = tmp_path / "wide", tmp_path / "unit"
    wide.mkdir()
    unit.mkdir()
    names = ("a", "b", "va", "vb")  # test and validation files of matchers a and b
    for name in names:
        t = table(rng.uniform(-0.2, 1.0, 9), rng.uniform(-1.0, 0.4, 11), name[-1], (-1.0, 1.0), name[:-1] + "-")
        write_score_table(t, wide / f"{name}.csv")
        write_score_table(normalize_scores(t), unit / f"{name}.csv")
    for root, declared in ((wide, ["--input-range", "-1", "1"]), (unit, [])):
        a, b, va, vb = (root / f"{name}.csv" for name in names)
        out = root / "out"
        validation = ["--validation", va, vb] if method in FITTED_KINDS else []
        assert run(["fuse", "--method", method, "--inputs", a, b, *validation, *declared,
                    "--out-dir", out, "--seed", 5]) == 0
        assert run(["correlate", "--inputs", a, b, *declared, "--out", out / "c.csv"]) == 0
    written = _outputs_but_digests(unit / "out")
    assert _outputs_but_digests(wide / "out") == written
    assert f"fused_{method}.csv" in written and "c.csv" in written


def test_fuse_pcc_without_validation_fails(tmp_path, capsys):
    """A fitted method without validation files is refused before any input
    is read, so missing inputs do not change the exit code."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.9], [0.2], "a")
    _write_table(b, [0.8], [0.1], "b")
    for method in ("pcc_avg", "perceptron"):
        for inputs in ([a, b], [tmp_path / "missing_a.csv", tmp_path / "missing_b.csv"]):
            for validation in ([], ["--validation"]):
                argv = ["fuse", "--method", method, "--inputs", *inputs, *validation, "--out-dir", tmp_path / "out"]
                with pytest.raises(SystemExit) as exc:
                    run(argv)
                assert exc.value.code == 2
                assert f"--method {method} requires --validation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--max-epochs", "5"), ("--tolerance", "0.1")])
@pytest.mark.parametrize("method", ["avg", "bayes", "pcc_avg", "weighted"])
def test_a_perceptron_flag_with_another_method_is_a_usage_error(tmp_path, capsys, flag, value, method):
    args = {
        "pcc_avg": ["--validation", tmp_path / "va.csv", tmp_path / "vb.csv"],
        "weighted": ["--weights-file", tmp_path / "w.json"],
    }.get(method, [])
    with pytest.raises(SystemExit) as exc:
        run(["fuse", "--method", method, "--inputs", tmp_path / "a.csv", tmp_path / "b.csv", *args,
             flag, value, "--out-dir", tmp_path / "out"])
    assert exc.value.code == 2
    assert f"{flag} is only read by --method perceptron, got --method {method}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fuse_validation_with_a_fixed_rule_is_a_usage_error(tmp_path, capsys):
    """No fixed rule reads validation files, so they are refused before any
    input is read rather than hashed into the artifacts."""
    missing = [tmp_path / "missing_a.csv", tmp_path / "missing_b.csv"]
    for method in ("avg", "bayes", "weighted"):
        weights = ["--weights-file", tmp_path / "w.json"] if method == "weighted" else []
        argv = ["fuse", "--method", method, "--inputs", *missing, "--validation", *missing, *weights,
                "--out-dir", tmp_path / "out"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"--validation is only read by --method pcc_avg or perceptron, got --method {method}" in (
            capsys.readouterr().err
        )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method", FITTED_KINDS)
@pytest.mark.parametrize("n_inputs, n_validation", [(2, 1), (2, 3), (1, 2)])
def test_fuse_validation_count_other_than_inputs_is_a_usage_error(tmp_path, capsys, method, n_inputs, n_validation):
    """The fit needs one validation file per input; the count is checked
    before any file is read, so missing files do not change the exit code."""
    inputs = [tmp_path / f"missing_{k}.csv" for k in range(n_inputs)]
    validation = [tmp_path / f"missing_val_{k}.csv" for k in range(n_validation)]
    with pytest.raises(SystemExit) as exc:
        run(["fuse", "--method", method, "--inputs", *inputs, "--validation", *validation,
             "--out-dir", tmp_path / "out"])
    assert exc.value.code == 2
    assert f"--validation names {n_validation} file(s) and --inputs {n_inputs}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fuse_perceptron_emits_parameter_json(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    va, vb = tmp_path / "va.csv", tmp_path / "vb.csv"
    mated = list(np.linspace(0.6, 0.95, 12))
    non = list(np.linspace(0.05, 0.4, 12))
    _write_table(a, mated, non, "a", tag="t-")
    _write_table(b, non[::-1], mated[::-1], "b", tag="t-")
    _write_table(va, mated, non, "a", tag="v-")
    _write_table(vb, non[::-1], mated[::-1], "b", tag="v-")
    code = run(
        ["fuse", "--method", "perceptron", "--inputs", a, b, "--validation", va, vb,
         "--out-dir", tmp_path, "--max-epochs", 500, "--seed", 3]
    )
    assert code == 0
    doc = json.loads((tmp_path / "fuser_perceptron.json").read_text())
    assert doc["kind"] == "perceptron"
    assert len(doc["coefficients"]) == 2
    assert "bias" in doc
    assert doc["training_log"]["epochs_run"] >= 1
    assert doc["seed"] == 3 and doc["tool_version"]
    assert (tmp_path / "fused_perceptron.csv").exists()


def test_fuse_weighted_with_weights_file(tmp_path, capsys):
    from scorefuse.fusion import FusionWeights, save_fuser

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.9, 0.7], [0.2, 0.1], "a")
    _write_table(b, [0.5, 0.3], [0.4, 0.2], "b")
    wfile = tmp_path / "w.json"
    save_fuser(FusionWeights(("a", "b"), (3.0, 1.0), "manual"), wfile)
    code = run(["fuse", "--method", "weighted", "--inputs", a, b,
                "--weights-file", wfile, "--out-dir", tmp_path])
    assert code == 0
    fused = load_score_table(tmp_path / "fused_weighted.csv", (0.0, 1.0))
    expected = [(3 * 0.9 + 0.5) / 4, (3 * 0.7 + 0.3) / 4, (3 * 0.2 + 0.4) / 4, (3 * 0.1 + 0.2) / 4]
    assert all(abs(s - e) < 1e-12 for s, e in zip(fused.scores.tolist(), expected))
    doc = json.loads((tmp_path / "fuser_weighted.json").read_text())
    assert doc["kind"] == "weights" and doc["provenance"] == "manual"

    # omitting the weights file is a usage error; pointing it at a non-fuser JSON fails to parse
    with pytest.raises(SystemExit) as exc:
        run(["fuse", "--method", "weighted", "--inputs", a, b, "--out-dir", tmp_path])
    assert exc.value.code == 2
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}", encoding="utf-8")
    assert run(["fuse", "--method", "weighted", "--inputs", a, b,
                "--weights-file", bogus, "--out-dir", tmp_path]) == 3


def _pcc_inputs(tmp_path, anti: bool):
    """Test and validation tables of matchers a and b; with ``anti``, both
    validation columns fall as the label rises, so every weight clamps to 0."""
    mated, non = [0.9, 0.8, 0.7], [0.3, 0.2, 0.1]
    paths = {}
    for mid in ("a", "b"):
        paths[mid] = tmp_path / f"{mid}.csv"
        _write_table(paths[mid], mated, non, mid, tag="t-")
        paths["v" + mid] = tmp_path / f"v{mid}.csv"
        _write_table(paths["v" + mid], *((non, mated) if anti else (mated, non)), mid, tag="v-")
    return ["--inputs", paths["a"], paths["b"], "--validation", paths["va"], paths["vb"]]


def test_fused_table_is_named_after_the_method_that_ran(tmp_path):
    out = tmp_path / "out"
    # all correlations clamp to 0: uniform weights, but the method is pcc_avg
    assert run(["fuse", "--method", "pcc_avg", *_pcc_inputs(tmp_path, anti=True), "--out-dir", out]) == 0
    assert json.loads((out / "fuser_pcc_avg.json").read_text())["provenance"] == "uniform"
    assert load_score_table(out / "fused_pcc_avg.csv", (0.0, 1.0)).matcher_id == "pcc_avg"

    # pcc weights, reused by the weighted method
    assert run(["fuse", "--method", "pcc_avg", *_pcc_inputs(tmp_path, anti=False), "--out-dir", out]) == 0
    assert json.loads((out / "fuser_pcc_avg.json").read_text())["provenance"] == "pcc"
    inputs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    assert run(["fuse", "--method", "weighted", "--inputs", *inputs,
                "--weights-file", out / "fuser_pcc_avg.json", "--out-dir", out]) == 0
    assert load_score_table(out / "fused_weighted.csv", (0.0, 1.0)).matcher_id == "weighted"


def test_a_weights_file_without_weights_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "out"
    args = _pcc_inputs(tmp_path, anti=False)
    assert run(["fuse", "--method", "perceptron", *args, "--out-dir", out, "--max-epochs", 20]) == 0
    perceptron = out / "fuser_perceptron.json"
    capsys.readouterr()

    assert run(["fuse", "--method", "weighted", *args[:3], "--weights-file", perceptron, "--out-dir", out]) == 3
    assert f"{perceptron} does not contain weights" in capsys.readouterr().err

    config = {
        "schema": "scorefuse-grid-config/1",
        "seed": 0,
        "output_dir": "results",
        "kinds": ["intra"],
        "matchers": ["a", "b"],
        "settings": [{"camera_id": "cam0", "distance_m": 1.0, "dataset_id": "unit"}],
        "score_files": [
            {"matcher_id": m, "camera_id": "cam0", "distance_m": 1.0, "dataset_id": "unit",
             "split": split, "path": f"{prefix}{m}.csv"}
            for m in ("a", "b") for split, prefix in (("test", ""), ("validation", "v"))
        ],
        "methods": [{"method_id": "w", "kind": "weighted", "matchers": ["a", "b"],
                     "weights_file": "out/fuser_perceptron.json"}],
    }
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["grid", "--config", config_path]) == 3
    assert f"{perceptron} does not contain weights" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_fuse_leakage_between_validation_and_inputs(tmp_path, capsys):
    a, va = tmp_path / "a.csv", tmp_path / "va.csv"
    _write_table(a, [0.9, 0.8], [0.2, 0.1], "a", tag="same-")
    _write_table(va, [0.7, 0.6], [0.3, 0.2], "a", tag="same-")
    code = run(
        ["fuse", "--method", "pcc_avg", "--inputs", a, "--validation", va, "--out-dir", tmp_path]
    )
    assert code == 6
    assert "validation" in capsys.readouterr().err


def test_fuse_validation_of_other_matchers_is_a_contract_error(tmp_path, capsys):
    inputs = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
    validation = [tmp_path / "v2.csv", tmp_path / "v3.csv"]
    for path, matcher_id, tag in zip(inputs + validation, ["m1", "m2", "m2", "m3"], ["test-"] * 2 + ["val-"] * 2):
        _write_table(path, [0.9, 0.8], [0.2, 0.1], matcher_id, tag=tag)
    code = run(["fuse", "--method", "pcc_avg", "--inputs", *inputs, "--validation", *validation,
                "--out-dir", tmp_path / "out"])
    assert code == 4
    assert "validation matchers ('m2', 'm3') do not match inputs ('m1', 'm2')" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_chance_and_separated(tmp_path, capsys):
    chance = tmp_path / "chance.csv"
    stream_scores = np.linspace(0.01, 0.99, 500).tolist()
    _write_table(chance, stream_scores, list(stream_scores), "m")
    code = run(["eval", "--scores", chance, "--out-dir", tmp_path / "chance_out"])
    assert code == 0
    out = capsys.readouterr().out
    assert "EER [%]          50.00" in out
    assert "AUC [%]          50.00" in out
    report = json.loads((tmp_path / "chance_out" / "report.json").read_text())
    assert report["metrics"]["eer_pct"] == pytest.approx(50.0, abs=1e-9)
    assert (tmp_path / "chance_out" / "curves.csv").exists()
    assert (tmp_path / "chance_out" / "roc.csv").exists()

    sep = tmp_path / "sep.csv"
    _write_table(sep, [0.9, 0.8, 0.85], [0.1, 0.2, 0.15], "m")
    code = run(["eval", "--scores", sep, "--out-dir", tmp_path / "sep_out"])
    assert code == 0
    out = capsys.readouterr().out
    assert "AUC [%]          100.00" in out
    assert "EER [%]          0.00" in out


@pytest.mark.parametrize(
    "command, message",
    [
        (["eval", "--scores", "empty.csv", "--out-dir", "out"],
         "curves need at least one mated and one non-mated score"),
        (["fuse", "--method", "avg", "--inputs", "empty.csv", "a.csv", "--out-dir", "out"], "table is empty"),
        (["fuse", "--method", "avg", "--inputs", "a.csv", "empty.csv", "--out-dir", "out"], "table is empty"),
        (["correlate", "--inputs", "a.csv", "empty.csv", "--out", "out.json"], "table is empty"),
        (["eval", "--scores", "mated.csv", "--out-dir", "out"],
         "curves need at least one mated and one non-mated score"),
        (["eval", "--scores", "thin.csv", "--out-dir", "out"], "cohens_d needs at least 2 samples per class"),
    ],
)
def test_header_only_score_file_is_a_contract_error(tmp_path, capsys, command, message):
    """A score file with a header and no rows loads as an empty table, which
    the command then refuses; eval names the file, as it does for a file of
    one class or of one score per class."""
    _write_table(tmp_path / "a.csv", [0.9, 0.7], [0.2, 0.1], "a")
    _write_table(tmp_path / "mated.csv", [0.9, 0.7], [], "a")
    _write_table(tmp_path / "thin.csv", [0.9], [0.2], "a")
    (tmp_path / "empty.csv").write_text(",".join(SCORE_CSV_HEADER) + "\n", encoding="utf-8")
    code = run([tmp_path / arg if arg == "out" or arg.endswith((".csv", ".json")) else arg for arg in command])
    err = capsys.readouterr().err
    assert code == 4
    assert message in err and "Traceback" not in err
    if command[0] == "eval":
        assert f"{tmp_path / command[2]}: " in err


def test_eval_rerun_is_byte_identical(tmp_path, capsys, monkeypatch):
    import scorefuse.metrics

    built = []
    build_curves = scorefuse.metrics.build_curves
    monkeypatch.setattr(scorefuse.metrics, "build_curves", lambda t: built.append(t) or build_curves(t))
    f = tmp_path / "t.csv"
    _write_table(f, [0.9, 0.8, 0.6], [0.1, 0.2, 0.7], "m")
    out = tmp_path / "o"
    assert run(["eval", "--scores", f, "--out-dir", out, "--seed", 4]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(["eval", "--scores", f, "--out-dir", out, "--seed", 4]) == 0
    assert first == {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(built) == 2  # once per run: the report is read off the written curves
    assert set(first) == {
        "report.json", "curves.csv", "curves.csv.meta.json", "roc.csv", "roc.csv.meta.json",
    }


def test_eval_precision_flag(tmp_path, capsys):
    f = tmp_path / "t.csv"
    _write_table(f, [0.9, 0.8], [0.1, 0.2], "m")
    run(["eval", "--scores", f, "--out-dir", tmp_path / "o", "--precision", 4])
    out = capsys.readouterr().out
    assert "100.0000" in out


def test_eval_single_class_fails(tmp_path, capsys):
    f = tmp_path / "t.csv"
    _write_table(f, [0.9, 0.8], [], "m")
    assert run(["eval", "--scores", f, "--out-dir", tmp_path / "o"]) == 4


def test_correlate_duplicate_and_independent(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.9, 0.7, 0.6], [0.2, 0.1, 0.3], "a")
    _write_table(b, [0.9, 0.7, 0.6], [0.2, 0.1, 0.3], "b")
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--inputs", a, b, "--out", out]) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "matcher_id,a,b"
    assert lines[1].split(",")[2] == "1.0"

    with pytest.raises(SystemExit) as exc:
        run(["correlate", "--inputs", a, "--out", out])
    assert exc.value.code == 2
    assert ">= 2 matchers" in capsys.readouterr().err


def test_correlate_one_input_is_a_usage_error_before_it_is_read(tmp_path, capsys):
    out = tmp_path / "c.csv"
    with pytest.raises(SystemExit) as exc:
        run(["correlate", "--inputs", tmp_path / "missing.csv", "--out", out])
    assert exc.value.code == 2
    assert "correlate needs >= 2 matchers, one per --inputs file, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_zero_variance_named(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.5, 0.5], [0.5, 0.5], "flat")
    _write_table(b, [0.9, 0.7], [0.2, 0.1], "b")
    assert run(["correlate", "--inputs", a, b, "--out", tmp_path / "c.csv"]) == 4
    assert "flat" in capsys.readouterr().err


def test_synth_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["synth", "--n-mated", 50, "--n-nonmated", 60, "--seed", 9, "--clamp"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    t = load_score_table(out1, (0.0, 1.0))
    assert t.n_mated() == 50 and t.n_nonmated() == 60


def test_synth_model_file(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "mu_nonmated": 0.3,
                "sigma_nonmated": 0.1,
                "mu_mated": 0.6,
                "sigma_mated": 0.1,
                "n_mated": 10,
                "n_nonmated": 10,
                "seed": 4,
                "clamp": True,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "m.csv"
    assert run(["synth", "--model-file", model, "--out", out]) == 0
    assert len(load_score_table(out, (0.0, 1.0))) == 20


def test_grid_two_setting_intra(tmp_path):
    demo_dir = tmp_path / "demo"
    assert run(["synth", "--demo", demo_dir, "--seed", 123]) == 0
    config = json.loads((demo_dir / "config.json").read_text())
    # shrink: 2 settings, single method, intra only
    keep = {("cam1", 1.0), ("cam1", 2.6)}
    config["settings"] = [
        s for s in config["settings"] if (s["camera_id"], s["distance_m"]) in keep
    ]
    config["methods"] = [{"method_id": "avg", "kind": "avg", "matchers": ["m1", "m2", "m3", "m4"]}]
    config["group_by"] = ["method"]
    small = tmp_path / "demo" / "small.json"
    small.write_text(json.dumps(config), encoding="utf-8")
    assert run(["grid", "--config", small]) == 0
    results_dir = demo_dir / "results"
    result_files = sorted(p.name for p in results_dir.glob("result__*.json"))
    assert len(result_files) == 2
    summary = json.loads((results_dir / "summary.json").read_text())
    assert len(summary["summary"]["method"]) == 1
    assert summary["summary"]["method"][0]["n_results"] == 2
    assert (results_dir / "summary.csv").exists()


def test_grid_demo_is_table_shaped_and_rerun_identical(tmp_path):
    demo_dir = tmp_path / "demo"
    assert run(["synth", "--demo", demo_dir, "--seed", 77]) == 0
    config_path = demo_dir / "config.json"
    assert run(["grid", "--config", config_path]) == 0
    results_dir = demo_dir / "results"
    summary_csv = (results_dir / "summary.csv").read_bytes()
    summary = json.loads((results_dir / "summary.json").read_text())
    methods = [row["method"] for row in summary["summary"]["method"]]
    assert methods == ["baseline", "m1", "m2", "m3", "m4", "avg", "bayes", "pcc_avg", "perceptron"]

    snapshots = {p.name: p.read_bytes() for p in results_dir.glob("*.json")}
    assert run(["grid", "--config", config_path]) == 0
    for p in results_dir.glob("*.json"):
        assert snapshots[p.name] == p.read_bytes(), p.name
    assert summary_csv == (results_dir / "summary.csv").read_bytes()


def test_grid_leakage_detected(tmp_path, capsys):
    demo_dir = tmp_path / "demo"
    assert run(["synth", "--demo", demo_dir, "--seed", 5]) == 0
    config = json.loads((demo_dir / "config.json").read_text())
    # point every test file at the validation file: guaranteed overlap
    for entry in config["score_files"]:
        if entry["split"] == "test":
            entry["path"] = entry["path"].replace("__test.csv", "__validation.csv")
    bad = demo_dir / "leaky.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = run(["grid", "--config", bad])
    assert code == 6
    assert "validation and" in capsys.readouterr().err


def test_grid_keep_going_records_failures(tmp_path, capsys):
    demo_dir = tmp_path / "demo"
    assert run(["synth", "--demo", demo_dir, "--seed", 5]) == 0
    config = json.loads((demo_dir / "config.json").read_text())
    for entry in config["score_files"]:
        if entry["split"] == "test":
            entry["path"] = entry["path"].replace("__test.csv", "__validation.csv")
    config["output_dir"] = "results_kg"
    bad = demo_dir / "leaky.json"
    bad.write_text(json.dumps(config), encoding="utf-8")
    code = run(["grid", "--config", bad, "--keep-going"])
    assert code == 6
    summary = json.loads((demo_dir / "results_kg" / "summary.json").read_text())
    assert summary["summary"] == {}
    assert len(summary["failures"]) == 4 * 9  # every cell failed
    assert all(f["error"] == "LeakageError" for f in summary["failures"])


def test_grid_parallel_matches_serial(tmp_path):
    demo_dir = tmp_path / "demo"
    assert run(["synth", "--demo", demo_dir, "--seed", 31]) == 0
    config_path = demo_dir / "config.json"
    assert run(["grid", "--config", config_path]) == 0
    results_dir = demo_dir / "results"
    serial = {p.name: p.read_bytes() for p in results_dir.glob("*.json")}
    assert run(["grid", "--config", config_path, "--jobs", 4]) == 0
    parallel = {p.name: p.read_bytes() for p in results_dir.glob("*.json")}
    assert serial == parallel


def test_grid_bad_config_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("{}", encoding="utf-8")
    assert run(["grid", "--config", bad]) == 3
    bad.write_text("{nope", encoding="utf-8")
    assert run(["grid", "--config", bad]) == 3


def test_missing_file_is_io_error(tmp_path, capsys):
    assert run(["eval", "--scores", tmp_path / "ghost.csv", "--out-dir", tmp_path]) == 7


def test_fuse_misaligned_inputs_is_alignment_error(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_table(a, [0.9, 0.8], [0.2, 0.1], "a", tag="one-")
    _write_table(b, [0.9, 0.8], [0.2, 0.1], "b", tag="two-")
    assert run(["fuse", "--method", "avg", "--inputs", a, b, "--out-dir", tmp_path]) == 5
    assert "missing" in capsys.readouterr().err


def test_exit_codes_are_distinct_per_failure_class(tmp_path):
    # parse (3): malformed score CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    assert run(["eval", "--scores", bad, "--out-dir", tmp_path / "o"]) == 3
