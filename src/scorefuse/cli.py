"""Command-line surface: score, fuse, eval, grid, correlate, synth.

Exit codes: 0 success, 2 usage, 3 parse, 4 contract violation, 5 alignment,
6 leakage, 7 I/O. Every emitted artifact records the tool version, the run
seed and the SHA-256 digests of its inputs (JSON artifacts inline, CSV
artifacts in a ``.meta.json`` sidecar), so identical inputs reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

# every command runs errors, provenance and tables; the other layers run
# only in the commands that call them (see the package's __init__)
from . import demo, embeddings, fusion, metrics, protocol, synth
from .errors import IO_EXIT_CODE, ContractError, ParseError, ScoreFuseError
from .kinds import FITTED_KINDS, METHOD_KINDS, METRICS
from .provenance import (
    read_json,
    schema,
    sha256_file,
    violations,
    write_csv_artifact,
    write_json_artifact,
)
from .tables import (
    DEFAULT_SETTING,
    AlignedScores,
    ScoreTable,
    SettingDescriptor,
    align_tables,
    csv_text,
    load_pairs,
    load_score_table,
    load_score_tables,
    normalize_scores,
    plain_fields,
    score_table_csv_text,
)

FUSE_METHODS = tuple(kind for kind in METHOD_KINDS if kind != "single")
# fuse's flags of the perceptron fit, each named after its PerceptronHyper
# field; a flag not given leaves the field's default
_HYPER_FLAGS = ("max_epochs", "tolerance")


def _load_tables(paths, input_range, digests: dict[str, str]) -> list[ScoreTable]:
    """The score files at ``paths``, declared ``input_range``, each mapped onto [0, 1].

    A table declared another range is mapped by :func:`normalize_scores`.
    Each file's digest goes into ``digests`` as soon as the file has loaded,
    so after an error ``digests`` holds those of the files before it.
    """
    tables = []
    for path, table in zip(paths, load_score_tables(paths, input_range)):
        digests[str(path)] = sha256_file(path)
        tables.append(table if table.declared_range == (0.0, 1.0) else normalize_scores(table))
    return tables


def _digests(paths) -> dict[str, str]:
    return {str(p): sha256_file(p) for p in paths}


# ---------------------------------------------------------------- score


def cmd_score(args) -> int:
    refs = embeddings.load_embeddings(args.references, "reference")
    probes = embeddings.load_embeddings(args.probes, "probe")
    pairs = load_pairs(args.pairs)
    if not pairs:
        raise ContractError(f"{args.pairs}: no comparisons to score")
    table = embeddings.batch_score(refs, probes, pairs, args.metric, matcher_id=args.matcher_id)
    if args.normalize:
        table = normalize_scores(table)
    inputs = _digests([args.references, args.probes, args.pairs])
    write_csv_artifact(args.out, score_table_csv_text(table), seed=args.seed, inputs=inputs)
    print(f"wrote {len(table)} scores to {args.out}")
    return 0


# ---------------------------------------------------------------- fuse


def cmd_fuse(args) -> int:
    inputs: dict[str, str] = {}
    test = align_tables(_load_tables(args.inputs, args.input_range, inputs))
    out_dir = Path(args.out_dir)

    val = None
    if args.validation:
        val = align_tables(_load_tables(args.validation, args.input_range, inputs))
        if val.matcher_ids != test.matcher_ids:
            raise ContractError(
                f"validation matchers {val.matcher_ids} do not match inputs {test.matcher_ids}"
            )

    method = args.method
    weights = None
    if method == "weighted":
        weights = fusion.load_weights(args.weights_file, test.matcher_ids)
        inputs.update(_digests([args.weights_file]))
    given = {name: value for name in _HYPER_FLAGS if (value := getattr(args, name)) is not None}
    hyper = fusion.PerceptronHyper(**given)
    spec = protocol.MethodSpec(method, method, test.matcher_ids, weights, hyper)
    fused, fitted = protocol.fuse_method(spec, val, test)

    out_csv = out_dir / f"fused_{method}.csv"
    write_csv_artifact(out_csv, score_table_csv_text(fused), seed=args.seed, inputs=inputs)
    if fitted is not None:
        write_json_artifact(
            out_dir / f"fuser_{method}.json",
            fusion.fuser_to_dict(fitted),
            seed=args.seed,
            inputs=inputs,
        )
    print(f"wrote fused scores ({method}) to {out_csv}")
    return 0


# ---------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    table = load_score_table(args.scores, tuple(args.input_range))
    try:
        curves = metrics.build_curves(table)
        report = metrics.evaluate_table(table, curves)
    except ContractError as exc:  # too few scores of a class, or none
        raise type(exc)(f"{args.scores}: {exc}") from None
    inputs = _digests([args.scores])
    out_dir = Path(args.out_dir)
    write_json_artifact(
        out_dir / "report.json", {"metrics": asdict(report)}, seed=args.seed, inputs=inputs
    )
    write_csv_artifact(out_dir / "curves.csv", metrics.curves_csv_text(curves), seed=args.seed, inputs=inputs)
    write_csv_artifact(out_dir / "roc.csv", metrics.roc_csv_text(curves), seed=args.seed, inputs=inputs)
    print(metrics.format_report(report, args.precision))
    return 0


# ---------------------------------------------------------------- correlate


def cmd_correlate(args) -> int:
    inputs: dict[str, str] = {}
    matrix = metrics.correlation_matrix(align_tables(_load_tables(args.inputs, args.input_range, inputs)))
    ids = matrix.matcher_ids
    rows = ((mid, *map(repr, row)) for mid, row in zip(ids, matrix.values))
    text = csv_text(("matcher_id", *ids), rows, plain_fields(ids))
    write_csv_artifact(args.out, text, seed=args.seed, inputs=inputs)
    print(text, end="")
    return 0


# ---------------------------------------------------------------- synth


# synth's model flags, each named after its GaussianScoreModel field, with their defaults
_MODEL_DEFAULTS = {
    "mu_nonmated": 0.3,
    "sigma_nonmated": 0.1,
    "mu_mated": 0.6,
    "sigma_mated": 0.1,
    "n_mated": 1000,
    "n_nonmated": 1000,
    "clamp": False,
}

# synth's flags for the written table, with their defaults
_TABLE_DEFAULTS = {
    "matcher_id": "synthetic",
    "camera": DEFAULT_SETTING.camera_id,
    "distance": DEFAULT_SETTING.distance_m,
    "dataset": DEFAULT_SETTING.dataset_id,
    "id_tag": "",
}


def _flag(name: str) -> str:
    """The command-line flag of an argument."""
    return "--" + name.replace("_", "-")


def _given_or_default(given: dict, defaults: dict) -> dict:
    """Each value named in ``defaults``: ``given``'s if not None, else the default; as the default's type."""
    return {name: type(v)(v if given.get(name) is None else given[name]) for name, v in defaults.items()}


def cmd_synth(args) -> int:
    seed = 0 if args.seed is None else args.seed
    if args.demo:
        config = demo.build_demo(args.demo, seed)
        print(f"demo written; run: scorefuse grid --config {config}")
        return 0
    given, where, inputs = vars(args), "", {}  # each model field but the seed has its flag
    if args.model_file:
        given, where = read_json(args.model_file), f"{args.model_file}: "
        for msg in violations(given, schema("model"), ("model",)):
            raise ParseError(f"{where}{msg}")
        if "seed" in given and args.seed is not None:
            raise ContractError(f"{where}the file sets seed {given['seed']}, so --seed {args.seed} would be ignored")
        seed = int(given.get("seed", seed))
        inputs = _digests([args.model_file])
    flags = _given_or_default(vars(args), _TABLE_DEFAULTS)
    setting = SettingDescriptor(flags["camera"], flags["distance"], flags["dataset"])
    try:
        model = synth.GaussianScoreModel(**_given_or_default(given, _MODEL_DEFAULTS), seed=seed)
        table = synth.generate_scores(model, matcher_id=flags["matcher_id"], setting=setting, id_tag=flags["id_tag"])
        text = score_table_csv_text(table)
    except ContractError as exc:
        raise ContractError(f"{where}{exc}") from None
    except MemoryError:
        raise ContractError(f"{where}{model.sizes}: their table does not fit in memory") from None
    write_csv_artifact(args.out, text, seed=model.seed, inputs=inputs)
    print(f"wrote {len(table)} synthetic scores to {args.out}")
    return 0


# ---------------------------------------------------------------- grid


def _validate_grid_config(doc, config_path: Path) -> None:
    """Check the config against schemas/grid_config.schema.json, then the
    rules that schema does not state: each method's matchers are among the
    config's and its id is unique, a method has the keys its kind reads and
    no other (``single``: one matcher, ``weighted``: a ``weights_file``,
    ``hyper`` only for ``perceptron``), no two settings share a key, each
    kind pairs some train and test setting, so that it runs cells, no
    two score files share a (matcher, setting, split), every file name is
    one the system can open, ``output_dir`` is a relative path inside the
    config file's directory, and every camera, dataset and method id, which
    become parts of result file names, is such a name and holds no path
    separator."""

    def fail(msg: str):
        raise ParseError(f"{config_path}: {msg}")

    def usable(name: str) -> bool:
        try:
            return b"\0" not in os.fsencode(name)
        except UnicodeEncodeError:
            return False

    for msg in violations(doc, schema("grid_config")):
        fail(msg)
    method_ids = [method["method_id"] for method in doc["methods"]]
    if len(set(method_ids)) < len(method_ids):
        fail(f"'method_id' values must be unique, got {method_ids}")
    for method in doc["methods"]:
        name, kind = f"method {method['method_id']!r}", method["kind"]
        unknown = set(method["matchers"]) - set(doc["matchers"])
        if unknown:
            fail(f"{name} names unknown matchers {sorted(unknown)}")
        if kind == "single" and len(method["matchers"]) != 1:
            fail(f"{name}: kind 'single' needs exactly one matcher, got {method['matchers']}")
        if kind == "weighted" and not method.get("weights_file"):
            fail(f"{name}: kind 'weighted' needs a 'weights_file'")
        for key, reader in (("weights_file", "weighted"), ("hyper", "perceptron")):
            if key in method and kind != reader:
                fail(f"{name}: {key!r} is only read by kind {reader!r}, got kind {kind!r}")
    first_with_key: dict[str, dict] = {}
    for entry in doc["settings"]:
        key = _setting(entry).key()
        first = first_with_key.setdefault(key, entry)
        if first is not entry:
            fail(f"settings entries {first!r} and {entry!r} share the key {key!r} of their result file names")
    settings = [_setting(entry) for entry in doc["settings"]]
    paired = {protocol.classify_pair(train, test) for train in settings for test in settings}
    for kind in doc["kinds"]:
        if kind not in paired:
            fail(f"kind {kind!r} pairs none of the settings, so it would run no cell")
    first_with_file: dict[tuple, dict] = {}
    for entry in doc["score_files"]:
        first = first_with_file.setdefault((entry["matcher_id"], _setting(entry), entry["split"]), entry)
        if first is not entry:
            fail(f"score_files entries {first!r} and {entry!r} name the same matcher, setting and split")
    for key, entries in (("output_dir", [doc]), ("path", doc["score_files"]), ("weights_file", doc["methods"])):
        for name in (entry[key] for entry in entries if key in entry):
            if not usable(name):
                fail(f"{key!r} {name!r} is not a usable file name")
    labelled = [(f"{key} entry {entry!r}", entry) for key in ("settings", "score_files") for entry in doc[key]]
    labelled += [(f"method {entry['method_id']!r}", entry) for entry in doc["methods"]]
    for label, entry in labelled:
        for key in ("camera_id", "dataset_id", "method_id"):
            value = entry.get(key, "")
            if any(sep in value for sep in (os.sep, os.altsep) if sep):
                fail(f"{label}: {key!r} must not contain a path separator, got {value!r}")
            if not usable(value):
                fail(f"{label}: {key!r} {value!r} is not a usable file name")
    config_dir = config_path.parent.resolve()
    output_dir = doc["output_dir"]
    if Path(output_dir).is_absolute() or not (config_dir / output_dir).resolve().is_relative_to(config_dir):
        fail(f"'output_dir' must be a relative path inside the config file's directory, got {output_dir!r}")


def _setting(entry: dict) -> SettingDescriptor:
    """The setting of a config ``settings`` or ``score_files`` entry."""
    return SettingDescriptor(*(entry[f.name] for f in fields(SettingDescriptor)))


def _method_from_config(entry: dict, config_dir: Path) -> protocol.MethodSpec:
    matchers = tuple(entry["matchers"])
    weights = None
    if entry["kind"] == "weighted":
        weights = fusion.load_weights(config_dir / entry["weights_file"], matchers)
    hyper = dict(entry.get("hyper", {}))
    if "max_epochs" in hyper:  # the schema reads 2000.0 as an integer
        hyper["max_epochs"] = int(hyper["max_epochs"])
    hyper = fusion.PerceptronHyper(**hyper) if hyper else None
    return protocol.MethodSpec(entry["method_id"], entry["kind"], matchers, weights, hyper)


_Group = tuple[SettingDescriptor, str]  # (setting, split)


def _item_groups(item: protocol.PlanItem) -> tuple[_Group, _Group]:
    """A plan item's validation and test groups."""
    return (item.train_setting, "validation"), (item.test_setting, "test")


def _plan_groups(doc: dict, config_dir: Path, plan) -> dict[_Group, dict[str, Path | None]]:
    """Each (setting, split) group the plan reads, mapped to ``{matcher: path
    or None}`` in config order, None where the config declares no file.

    The groups are each plan item's validation and test groups, in order of
    first use.
    """
    files = {(e["matcher_id"], _setting(e), e["split"]): config_dir / e["path"] for e in doc["score_files"]}
    groups: dict[_Group, dict[str, Path | None]] = {}
    for item in plan:
        for group in _item_groups(item):
            groups.setdefault(group, {matcher: files.get((matcher, *group)) for matcher in doc["matchers"]})
    return groups


def _load_group(group: _Group, paths: dict[str, Path | None]) -> tuple[AlignedScores | ScoreFuseError, dict[str, str]]:
    """Load and align the score files of one (setting, split) group.

    ``paths`` is the group's entry of :func:`_plan_groups`. :func:`_load_tables`
    hashes each file once it has loaded. Returns the aligned table, or the
    error that stopped the group, with the file digests made up to that
    point. An ``OSError`` propagates.
    """
    setting, split = group
    digests: dict[str, str] = {}
    try:
        declared = list(itertools.takewhile(lambda path: path is not None, paths.values()))
        tables = _load_tables(declared, (0.0, 1.0), digests)
        if len(declared) < len(paths):
            raise ContractError(
                f"no score file declared for matcher {list(paths)[len(declared)]!r}, "
                f"setting {setting.key()}, split {split!r}"
            )
        return align_tables(tables), digests
    except ScoreFuseError as exc:
        return exc, digests


def _fork_pool(workers: int):
    """A pool of ``workers`` forked processes, or None for fewer than two
    workers or where ``fork`` does not exist.

    Forked workers start with numpy already imported, where spawned ones
    would import it again. The grid has started no thread of its own when it
    forks, and the pool forks every worker before it starts its own thread.
    The modules are imported here because they would cost every other
    command about 15 ms and 0.7 MB.
    """
    if workers < 2:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _unwrap(outcome):
    """``outcome``, raised instead if it is an error stored in a result's place."""
    if isinstance(outcome, ScoreFuseError):
        raise outcome
    return outcome


def _once(fn):
    """``fn``, run once per distinct arguments; a failure is raised again at each return to them."""

    @functools.cache
    def outcome(*args):
        try:
            return fn(*args)
        except ScoreFuseError as exc:
            return exc

    return lambda *args: _unwrap(outcome(*args))


def cmd_grid(args) -> int:
    config_path = Path(args.config)
    doc = read_json(config_path)
    _validate_grid_config(doc, config_path)
    config_dir = config_path.parent
    seed = int(doc["seed"])  # the schema reads 1.0 as an integer
    out_dir = config_dir / doc["output_dir"]
    group_by = doc.get("group_by", ["method"])

    plan = protocol.plan_experiments([_setting(entry) for entry in doc["settings"]], doc["kinds"])
    methods = [_method_from_config(entry, config_dir) for entry in doc["methods"]]
    groups = _plan_groups(doc, config_dir, plan)
    # no cell reads a train file: each plan train setting's declared ones are hashed into its cells' inputs
    train_files: dict[SettingDescriptor, list[Path]] = {item.train_setting: [] for item in plan}
    for e in doc["score_files"]:
        if e["split"] == "train" and e["matcher_id"] in doc["matchers"] and _setting(e) in train_files:
            train_files[_setting(e)].append(config_dir / e["path"])
    config_digest = {str(config_path): sha256_file(config_path)}
    # each weights file, hashed into the inputs of the method that reads it
    weights_digests = {
        m["method_id"]: _digests([config_dir / m["weights_file"]]) for m in doc["methods"] if "weights_file" in m
    }

    # results are taken in plan order, so an OSError surfaces at the same
    # group at every --jobs
    pool = _fork_pool(min(args.jobs, len(groups)))
    with pool or contextlib.nullcontext():
        mapper = map if pool is None else pool.map
        outcomes = mapper(_load_group, groups, groups.values())
        # hashed here while the workers load; a worker pool submits every load before this
        train_digests = {setting: _digests(paths) for setting, paths in train_files.items()}
        loaded = dict(zip(groups, outcomes))

    # one aligned table per group: a fit per (train setting, method), a check per (train, test) setting
    fit, leakage = _once(protocol.fit_method), _once(protocol.check_leakage)
    ok_results: list[protocol.ExperimentResult] = []
    failures: list[dict] = []
    exit_code = 0  # the first failing cell's
    for item, method in itertools.product(plan, methods):
        val_group, test_group = _item_groups(item)
        try:
            ok_results.append(
                protocol.run_experiment(
                    item,
                    method,
                    _unwrap(loaded[val_group][0]),
                    _unwrap(loaded[test_group][0]),
                    fit=fit,
                    leakage=leakage,
                )
            )
        except ScoreFuseError as exc:
            if not args.keep_going:
                raise type(exc)(
                    f"cell {item.key()} method {method.method_id!r}: {exc}"
                ) from exc
            failures.append(
                {
                    "cell": item.key(),
                    "method_id": method.method_id,
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            )
            exit_code = exit_code or exc.exit_code

    for res in ok_results:
        name = f"result__{res.item.key()}__{res.method_id}.json"
        inputs = dict(config_digest, **weights_digests.get(res.method_id, {}))
        for group in _item_groups(res.item):
            inputs.update(loaded[group][1])
        inputs.update(train_digests[res.item.train_setting])
        write_json_artifact(out_dir / name, protocol.result_to_dict(res), seed=seed, inputs=inputs)

    all_inputs = dict(config_digest)
    for digests in [*(d for _, d in loaded.values()), *train_digests.values(), *weights_digests.values()]:
        all_inputs.update(digests)
    if ok_results:
        summaries = {gb: protocol.aggregate_results(ok_results, gb) for gb in group_by}
    else:
        summaries = {}
    write_json_artifact(
        out_dir / "summary.json",
        {"summary": summaries, "failures": failures},
        seed=seed,
        inputs=all_inputs,
    )
    if ok_results:
        primary = summaries[group_by[0]]
        rows = ([repr(v) if isinstance(v, float) else str(v) for v in row.values()] for row in primary)
        text = csv_text(list(primary[0]), rows, plain=False)
        write_csv_artifact(out_dir / "summary.csv", text, seed=seed, inputs=all_inputs)

    print(f"{len(ok_results)} cell(s) completed, {len(failures)} failed; results in {out_dir}")
    for failure in failures:
        print(
            f"FAILED {failure['cell']} {failure['method_id']}: {failure['message']}",
            file=sys.stderr,
        )
    return exit_code


# ---------------------------------------------------------------- parser


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum`` (else exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type when the text is not an integer
    return parse


def _finite_float(minimum: float, strict: bool = False):
    """argparse type: a finite float >= ``minimum`` (> with ``strict``), else exit 2."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if value < minimum or strict and value == minimum:
            relation = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be a number {relation} {minimum:g}, got {text!r}")
        return value

    parse.__name__ = "float"
    return parse


class _InputRange(argparse.Action):
    """``--input-range LO HI``: two finite bounds with LO < HI, else exit 2."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if not lo < hi:
            raise argparse.ArgumentError(self, f"lower bound {lo!r} must be below upper bound {hi!r}")
        setattr(namespace, self.dest, (lo, hi))


def _add_input_range(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input-range",
        nargs=2,
        type=_finite_float(-math.inf),
        action=_InputRange,
        default=(0.0, 1.0),
        metavar=("LO", "HI"),
        help="declared score range of the inputs (default 0 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scorefuse",
        description="Score-level fusion and verification evaluation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score embedding pairs into a score CSV")
    p.add_argument("--references", required=True, help="reference embeddings (JSON lines)")
    p.add_argument("--probes", required=True, help="probe embeddings (JSON lines)")
    p.add_argument("--pairs", required=True, help="comparison pairs CSV")
    p.add_argument("--metric", choices=METRICS, required=True)
    p.add_argument("--matcher-id", default=None, help="matcher id for the output table")
    p.add_argument("--normalize", action="store_true", help="affine-map scores into [0, 1]")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("fuse", help="fuse aligned score tables with one rule")
    p.add_argument("--method", choices=FUSE_METHODS, required=True)
    p.add_argument("--inputs", nargs="+", required=True, help="per-matcher score CSVs")
    p.add_argument("--validation", nargs="*", default=[], help="validation CSVs (pcc_avg and perceptron only)")
    p.add_argument("--weights-file", default=None, help="manual weights JSON (weighted)")
    _add_input_range(p)
    # None where not given, so main can tell a given flag
    p.add_argument(
        "--max-epochs", type=_int_at_least(1), help="cap on the perceptron's Newton iterations (perceptron only)"
    )
    p.add_argument(
        "--tolerance",
        type=_finite_float(0.0),
        help="stop the perceptron fit once an iteration lowers its objective by no more (perceptron only)",
    )
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("eval", help="compute the metric report for one score CSV")
    p.add_argument("--scores", required=True)
    _add_input_range(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument(
        "--precision", type=_int_at_least(0), default=2, help="decimals in the printed report"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("grid", help="run an experiment grid from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="processes loading score files (default 1)",
    )
    p.add_argument("--keep-going", action="store_true", help="record cell failures and continue")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("correlate", help="pairwise score correlations across matchers")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_input_range(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("synth", help="generate synthetic labeled score tables")
    p.add_argument("--out", help="output score CSV")
    p.add_argument("--model-file", default=None, help="Gaussian model JSON")
    # a model or table flag's default is None, so main can tell a given flag;
    # cmd_synth reads the defaults from _MODEL_DEFAULTS and _TABLE_DEFAULTS
    types = {
        "mu_nonmated": _finite_float(-math.inf),
        "sigma_nonmated": _finite_float(0.0, strict=True),
        "mu_mated": _finite_float(-math.inf),
        "sigma_mated": _finite_float(0.0, strict=True),
        "n_mated": _int_at_least(1),
        "n_nonmated": _int_at_least(1),
    }
    for name, parse in types.items():
        p.add_argument(_flag(name), type=parse, help=f"(default {_MODEL_DEFAULTS[name]})")
    p.add_argument("--clamp", action="store_true", default=None, help="clamp samples into [0, 1]")
    p.add_argument("--matcher-id", help=f"(default {_TABLE_DEFAULTS['matcher_id']})")
    p.add_argument("--camera", help=f"(default {_TABLE_DEFAULTS['camera']})")
    p.add_argument(
        "--distance", type=_finite_float(0.0, strict=True), help=f"(default {_TABLE_DEFAULTS['distance']})"
    )
    p.add_argument("--dataset", help=f"(default {_TABLE_DEFAULTS['dataset']})")
    p.add_argument("--id-tag", help="prefix for generated pair ids (default none)")
    p.add_argument("--demo", default=None, metavar="DIR", help="write the demo grid instead")
    p.add_argument("--seed", type=int, help="(default 0, or the model file's seed)")
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and not args.demo and not args.out:
        parser.error("synth requires --out (or --demo DIR)")
    if args.command == "fuse" and args.weights_file and args.method != "weighted":
        parser.error(f"--weights-file is only read by --method weighted, got --method {args.method}")
    if args.command == "fuse" and args.method == "weighted" and not args.weights_file:
        parser.error("--method weighted requires --weights-file")
    if args.command == "fuse" and args.method in FITTED_KINDS and not args.validation:
        parser.error(f"--method {args.method} requires --validation, the scores it is fitted on")
    if args.command == "fuse" and args.method not in FITTED_KINDS and args.validation:
        fitted = " or ".join(FITTED_KINDS)
        parser.error(f"--validation is only read by --method {fitted}, got --method {args.method}")
    if args.command == "fuse" and args.validation and len(args.validation) != len(args.inputs):
        n_val, n_in = len(args.validation), len(args.inputs)
        parser.error(f"--validation names {n_val} file(s) and --inputs {n_in}; the fit needs one per input")
    if args.command == "correlate" and len(args.inputs) < 2:
        parser.error(f"correlate needs >= 2 matchers, one per --inputs file, got {len(args.inputs)}")
    if args.command == "fuse" and args.method != "perceptron":
        for name in _HYPER_FLAGS:
            if getattr(args, name) is not None:
                parser.error(f"{_flag(name)} is only read by --method perceptron, got --method {args.method}")
    if args.command == "synth" and args.demo:
        for name in ("out", "model_file", *_MODEL_DEFAULTS, *_TABLE_DEFAULTS):
            if getattr(args, name) is not None:
                parser.error(f"{_flag(name)} is not read with --demo, which writes the demo grid")
    if args.command == "synth" and args.model_file:
        for name in _MODEL_DEFAULTS:
            if getattr(args, name) is not None:
                parser.error(f"{_flag(name)} is not read with --model-file, which sets the model")
    try:
        return args.fn(args)
    except ScoreFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_EXIT_CODE


def run() -> int:
    """:func:`main` on the process's arguments, for a process that exits on return.

    ``gc.freeze`` first moves every object into the permanent generation, so
    the full collection that CPython runs as it tears its modules down at
    exit has nothing to walk; the memory goes back to the OS with the
    process. Exit still runs atexit handlers and flushes stdio.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
