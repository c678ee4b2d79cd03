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
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

from .demo import build_demo
from .embeddings import METRICS, batch_score, load_embeddings
from .errors import IO_EXIT_CODE, ContractError, ParseError, ScoreFuseError
from .fusion import FusionWeights, PerceptronHyper, fuser_to_dict, load_fuser
from .metrics import (
    build_curves,
    correlation_matrix,
    curves_csv_text,
    evaluate_table,
    format_report,
    roc_csv_text,
    roc_from_curves,
)
from .protocol import (
    ExperimentResult,
    MethodSpec,
    aggregate_results,
    fit_method,
    fuse_method,
    plan_experiments,
    result_to_dict,
    run_experiment,
)
from .provenance import (
    read_json,
    sha256_file,
    write_csv_artifact,
    write_json_artifact,
)
from .synth import DEFAULT_SETTING, GaussianScoreModel, generate_scores
from .tables import (
    AlignedScores,
    ScoreTable,
    SettingDescriptor,
    align_tables,
    load_pairs,
    load_score_table,
    load_score_tables,
    normalize_scores,
    score_table_csv_text,
)

FUSE_METHODS = ("avg", "bayes", "pcc_avg", "weighted", "perceptron")


def _load_tables(paths, input_range, normalize: bool) -> list[ScoreTable]:
    lo, hi = input_range
    tables = []
    for path, table in zip(paths, load_score_tables(paths, (lo, hi))):
        if normalize:
            table = normalize_scores(table, "affine_to_unit")
        elif table.declared_range != (0.0, 1.0):
            raise ContractError(
                f"{path}: declared range [{lo}, {hi}] is not [0, 1]; pass --normalize"
            )
        tables.append(table)
    return tables


def _digests(paths) -> dict[str, str]:
    return {str(p): sha256_file(p) for p in paths}


# ---------------------------------------------------------------- score


def cmd_score(args) -> int:
    refs = load_embeddings(args.references, "reference")
    probes = load_embeddings(args.probes, "probe")
    pairs = load_pairs(args.pairs)
    if not pairs:
        raise ContractError(f"{args.pairs}: no comparisons to score")
    table = batch_score(refs, probes, pairs, args.metric, matcher_id=args.matcher_id)
    if args.normalize:
        table = normalize_scores(table, "affine_to_unit")
    inputs = _digests([args.references, args.probes, args.pairs])
    write_csv_artifact(args.out, score_table_csv_text(table), seed=args.seed, inputs=inputs)
    print(f"wrote {len(table)} scores to {args.out}")
    return 0


# ---------------------------------------------------------------- fuse


def cmd_fuse(args) -> int:
    tables = _load_tables(args.inputs, args.input_range, args.normalize)
    test = align_tables(tables)
    out_dir = Path(args.out_dir)
    inputs = _digests(args.inputs)

    val = None
    if args.validation:
        val_tables = _load_tables(args.validation, args.input_range, args.normalize)
        val = align_tables(val_tables)
        if val.matcher_ids != test.matcher_ids:
            raise ContractError(
                f"validation matchers {val.matcher_ids} do not match inputs {test.matcher_ids}"
            )
        inputs.update(_digests(args.validation))

    method = args.method
    weights = None
    if method == "weighted":
        if not args.weights_file:
            raise ContractError("weighted fusion requires --weights-file")
        weights = load_fuser(args.weights_file)
        if not isinstance(weights, FusionWeights):
            raise ContractError(f"{args.weights_file} does not contain weights")
        inputs.update(_digests([args.weights_file]))
    hyper = PerceptronHyper(args.learning_rate, args.max_epochs, args.tolerance, args.seed)
    fused, fitted = fuse_method(MethodSpec(method, method, test.matcher_ids, weights, hyper), val, test)

    out_csv = out_dir / f"fused_{method}.csv"
    write_csv_artifact(out_csv, score_table_csv_text(fused), seed=args.seed, inputs=inputs)
    if fitted is not None:
        write_json_artifact(
            out_dir / f"fuser_{method}.json",
            fuser_to_dict(fitted),
            seed=args.seed,
            inputs=inputs,
        )
    print(f"wrote fused scores ({method}) to {out_csv}")
    return 0


# ---------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    table = load_score_table(args.scores, tuple(args.input_range))
    report = evaluate_table(table)
    curves = build_curves(table)
    inputs = _digests([args.scores])
    out_dir = Path(args.out_dir)
    write_json_artifact(
        out_dir / "report.json", {"metrics": report.as_dict()}, seed=args.seed, inputs=inputs
    )
    write_csv_artifact(out_dir / "curves.csv", curves_csv_text(curves), seed=args.seed, inputs=inputs)
    write_csv_artifact(
        out_dir / "roc.csv", roc_csv_text(roc_from_curves(curves)), seed=args.seed, inputs=inputs
    )
    print(format_report(report, args.precision))
    return 0


# ---------------------------------------------------------------- correlate


def cmd_correlate(args) -> int:
    if len(args.inputs) < 2:
        raise ContractError("need >= 2 matchers to correlate")
    tables = _load_tables(args.inputs, args.input_range, args.normalize)
    aligned = align_tables(tables)
    matrix = correlation_matrix(aligned)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("matcher_id", *matrix.matcher_ids))
    for mid, row in zip(matrix.matcher_ids, matrix.values):
        writer.writerow((mid, *[repr(v) for v in row]))
    write_csv_artifact(args.out, buf.getvalue(), seed=args.seed, inputs=_digests(args.inputs))
    print(buf.getvalue(), end="")
    return 0


# ---------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    if args.demo:
        config = build_demo(args.demo, args.seed)
        print(f"demo written; run: scorefuse grid --config {config}")
        return 0
    if args.model_file:
        doc = read_json(args.model_file)
        try:
            model = GaussianScoreModel(
                mu_nonmated=float(doc["mu_nonmated"]),
                sigma_nonmated=float(doc["sigma_nonmated"]),
                mu_mated=float(doc["mu_mated"]),
                sigma_mated=float(doc["sigma_mated"]),
                n_mated=int(doc["n_mated"]),
                n_nonmated=int(doc["n_nonmated"]),
                seed=int(doc.get("seed", args.seed)),
                clamp=bool(doc.get("clamp", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{args.model_file}: malformed model ({exc})") from None
        inputs = _digests([args.model_file])
    else:
        model = GaussianScoreModel(
            mu_nonmated=args.mu_nonmated,
            sigma_nonmated=args.sigma_nonmated,
            mu_mated=args.mu_mated,
            sigma_mated=args.sigma_mated,
            n_mated=args.n_mated,
            n_nonmated=args.n_nonmated,
            seed=args.seed,
            clamp=args.clamp,
        )
        inputs = {}
    setting = SettingDescriptor(args.camera, args.distance, args.dataset)
    table = generate_scores(
        model, matcher_id=args.matcher_id, setting=setting, id_tag=args.id_tag
    )
    write_csv_artifact(args.out, score_table_csv_text(table), seed=model.seed, inputs=inputs)
    print(f"wrote {len(table)} synthetic scores to {args.out}")
    return 0


# ---------------------------------------------------------------- grid


_TYPES = {  # JSON Schema type: (test, how a message names it)
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "a list"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "number": (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"),
    "integer": (lambda v: type(v) is int or type(v) is float and v.is_integer(), "an integer"),
}


def _violations(value, schema: dict, path: tuple[str, ...] = ()):
    """Each way ``value`` breaks ``schema``, as a message naming the key.

    Reads the keywords that schemas/grid_config.schema.json uses and no
    other: type, const, enum, required, properties, additionalProperties
    (false), items, minItems, uniqueItems, minimum and exclusiveMinimum. Its
    const and enum values are strings, which ``==`` compares as JSON does.
    Beyond JSON Schema, a number must be finite as a float.
    """
    name = ": ".join(path) or "config"
    if "type" in schema and not _TYPES[schema["type"]][0](value):
        yield f"{name} must be {_TYPES[schema['type']][1]}, got {value!r}"
        return
    if "const" in schema and value != schema["const"]:
        yield f"{name} must be {schema['const']!r}, got {value!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield f"{name} must be one of {schema['enum']}, got {value!r}"
    if type(value) in (int, float):
        if "minimum" in schema and not value >= schema["minimum"]:
            yield f"{name} must be >= {schema['minimum']}, got {value!r}"
        if "exclusiveMinimum" in schema and not value > schema["exclusiveMinimum"]:
            yield f"{name} must be > {schema['exclusiveMinimum']}, got {value!r}"
    if isinstance(value, dict):
        yield from (f"{name}: missing key {k!r}" for k in schema.get("required", ()) if k not in value)
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            yield from (f"{name}: unknown key {k!r}" for k in value if k not in properties)
        for key, sub in properties.items():
            if key in value:
                yield from _violations(value[key], sub, (*path, repr(key)))
    if isinstance(value, list):
        for entry in value if "items" in schema else ():
            # a method is named by its id, as in the grid's other messages
            if path[-1] == "'methods'" and isinstance(entry, dict) and "method_id" in entry:
                label = f"method {entry['method_id']!r}"
            else:
                label = f"{path[-1][1:-1]} entry {entry!r}"
            yield from _violations(entry, schema["items"], (*path[:-1], label))
        if len(value) < schema.get("minItems", 0):
            yield f"{name} must have at least {schema['minItems']} entry, got {value!r}"
        if schema.get("uniqueItems") and len({json.dumps(v, sort_keys=True) for v in value}) < len(value):
            yield f"{name} must not repeat an entry, got {value!r}"


def _validate_grid_config(doc, config_path: Path) -> None:
    """Check the config against schemas/grid_config.schema.json, then the
    rules that schema does not state: each method's matchers are among the
    config's and its id is unique, every file name is one the system can
    open, ``output_dir`` is a relative path inside the config file's
    directory, and every camera, dataset and method id, which become parts
    of result file names, is such a name and holds no path separator."""

    def fail(msg: str):
        raise ParseError(f"{config_path}: {msg}")

    def usable(name: str) -> bool:
        try:
            return b"\0" not in os.fsencode(name)
        except UnicodeEncodeError:
            return False

    schema_file = resources.files(__package__) / "schemas" / "grid_config.schema.json"
    for msg in _violations(doc, json.loads(schema_file.read_text(encoding="utf-8"))):
        fail(msg)
    method_ids = [method["method_id"] for method in doc["methods"]]
    if len(set(method_ids)) < len(method_ids):
        fail(f"'method_id' values must be unique, got {method_ids}")
    for method in doc["methods"]:
        unknown = set(method["matchers"]) - set(doc["matchers"])
        if unknown:
            fail(f"method {method['method_id']!r} names unknown matchers {sorted(unknown)}")
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


def _method_from_config(entry: dict, config_dir: Path) -> MethodSpec:
    weights = None
    if entry.get("weights_file"):
        loaded = load_fuser(config_dir / entry["weights_file"])
        if not isinstance(loaded, FusionWeights):
            raise ParseError(f"{entry['weights_file']} does not contain weights")
        weights = loaded
    hyper = None
    if entry.get("hyper"):
        try:
            hyper = PerceptronHyper(**entry["hyper"])
        except ContractError as exc:
            raise ParseError(f"method {entry['method_id']!r}: bad hyper ({exc})") from None
    return MethodSpec(entry["method_id"], entry["kind"], tuple(entry["matchers"]), weights, hyper)


def _load_group(
    group: tuple[SettingDescriptor, str], paths: dict[str, Path | None]
) -> tuple[AlignedScores | ScoreFuseError, dict[str, str]]:
    """Load and align the score files of one (setting, split) group.

    ``paths`` maps each matcher, in config order, to its file, or to None
    where the config declares none. Each file is hashed once it has loaded,
    and the aligned table's digest is computed here, so a worker process
    returns it with the table. Returns the aligned table, or the error that
    stopped the group, with the digests made up to that point; an
    ``OSError`` propagates.
    """
    digests: dict[str, str] = {}
    try:
        declared = list(itertools.takewhile(lambda path: path is not None, paths.values()))
        tables = []
        for path, table in zip(declared, load_score_tables(declared, (0.0, 1.0))):
            tables.append(table)
            digests[str(path)] = sha256_file(path)
        if len(declared) < len(paths):
            setting, split = group
            raise ContractError(
                f"no score file declared for matcher {list(paths)[len(declared)]!r}, "
                f"setting {setting.key()}, split {split!r}"
            )
        aligned = align_tables(tables)
        aligned.sha256  # cached on the table, so it travels with it
        return aligned, digests
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


class _GridData:
    """Score-file index, aligned-table cache and fit cache for one grid run.

    The validation and test groups the plan needs are loaded and aligned up
    front (:meth:`prepare`), so worker threads only ever read that cache;
    load or alignment failures are remembered and re-raised for every cell
    that needs the poisoned (setting, split). No method uses the train
    split, so its files are only hashed, for the input digests. Each
    parametric method is fitted once per train setting, under a lock; a
    failed fit is remembered the same way and re-raised in every cell that
    fits it.
    """

    def __init__(self, doc: dict, config_dir: Path):
        self.matchers = list(doc["matchers"])
        self.files: dict[tuple[str, SettingDescriptor, str], Path] = {}
        for entry in doc["score_files"]:
            setting = SettingDescriptor(entry["camera_id"], entry["distance_m"], entry["dataset_id"])
            key = (entry["matcher_id"], setting, entry["split"])
            if key in self.files:
                raise ParseError(f"duplicate score_files entry for {key}")
            self.files[key] = config_dir / entry["path"]
        self._aligned: dict[tuple[SettingDescriptor, str], AlignedScores | ScoreFuseError] = {}
        self._fits: dict[tuple[SettingDescriptor, str], object] = {}
        self._fit_lock = threading.Lock()
        self.digests: dict[str, str] = {}

    @staticmethod
    def reads(item) -> tuple[tuple[SettingDescriptor, str], ...]:
        """The (setting, split) groups a plan item's cells read."""
        return ((item.train_setting, "validation"), (item.test_setting, "test"))

    def groups(self, plan) -> list[tuple[SettingDescriptor, str]]:
        """The groups the plan's cells read, in order of first use."""
        return list(dict.fromkeys(group for item in plan.items for group in self.reads(item)))

    def group_paths(self, setting: SettingDescriptor, split: str) -> dict[str, Path | None]:
        return {m: self.files.get((m, setting, split)) for m in self.matchers}

    def prepare(self, plan, loaded) -> None:
        """Cache each group's outcome and hash the train split's files.

        ``loaded`` yields :func:`_load_group` of each of ``groups(plan)``, in
        order. It is read as the plan is walked, so an ``OSError`` surfaces at
        the same point of the walk however the groups are loaded.
        """
        loaded = iter(loaded)
        for item in plan.items:
            for key in self.reads(item):
                if key not in self._aligned:
                    self._aligned[key], digests = next(loaded)
                    self.digests.update(digests)
            if self.has_split(item.train_setting, "train"):
                self.hash_split(item.train_setting, "train")

    def hash_split(self, setting: SettingDescriptor, split: str) -> None:
        for matcher in self.matchers:
            path = str(self.files[(matcher, setting, split)])
            if path not in self.digests:
                self.digests[path] = sha256_file(path)

    def aligned(self, setting: SettingDescriptor, split: str) -> AlignedScores:
        cached = self._aligned[(setting, split)]
        if isinstance(cached, ScoreFuseError):
            raise cached
        return cached

    def fitted(self, setting: SettingDescriptor, method: MethodSpec, val_scores: AlignedScores):
        """``fit_method(method, val_scores)`` for the train ``setting``, fitted once."""
        key = (setting, method.method_id)
        with self._fit_lock:
            if key not in self._fits:
                try:
                    self._fits[key] = fit_method(method, val_scores)
                except ScoreFuseError as exc:
                    self._fits[key] = exc
            cached = self._fits[key]
        if isinstance(cached, ScoreFuseError):
            raise cached
        return cached

    def has_split(self, setting: SettingDescriptor, split: str) -> bool:
        return all((m, setting, split) in self.files for m in self.matchers)

    def cell_digests(self, item) -> dict[str, str]:
        """Digests of the score files feeding one plan item."""
        wanted = [(item.train_setting, "validation"), (item.test_setting, "test")]
        if self.has_split(item.train_setting, "train"):
            wanted.append((item.train_setting, "train"))
        out = {}
        for setting, split in wanted:
            for matcher in self.matchers:
                path = self.files.get((matcher, setting, split))
                if path is not None and str(path) in self.digests:
                    out[str(path)] = self.digests[str(path)]
        return out


def cmd_grid(args) -> int:
    config_path = Path(args.config)
    doc = read_json(config_path)
    _validate_grid_config(doc, config_path)
    config_dir = config_path.parent
    seed = doc["seed"]
    out_dir = config_dir / doc["output_dir"]
    enforce_val = doc.get("enforce_validation_setting", True)
    group_by = doc.get("group_by", ["method"])

    settings = [SettingDescriptor(e["camera_id"], e["distance_m"], e["dataset_id"]) for e in doc["settings"]]
    plan = plan_experiments(settings, doc["kinds"])
    methods = [_method_from_config(entry, config_dir) for entry in doc["methods"]]
    data = _GridData(doc, config_dir)
    config_digest = {str(config_path): sha256_file(config_path)}

    groups = data.groups(plan)
    paths = [data.group_paths(*group) for group in groups]
    pool = _fork_pool(min(args.jobs, len(groups)))
    with pool or contextlib.nullcontext():
        data.prepare(plan, (map if pool is None else pool.map)(_load_group, groups, paths))

    cells = [(item, method) for item in plan.items for method in methods]
    results: list[ExperimentResult | None] = [None] * len(cells)
    failures: list[dict] = []

    def run_cell(idx: int) -> None:
        item, method = cells[idx]
        try:
            val = data.aligned(item.train_setting, "validation")
            test = data.aligned(item.test_setting, "test")
            results[idx] = run_experiment(
                item,
                method,
                val,
                test,
                seed=seed,
                enforce_validation_setting=enforce_val,
                fit=functools.partial(data.fitted, item.train_setting),
            )
        except ScoreFuseError as exc:
            if not args.keep_going:
                raise type(exc)(
                    f"cell {item.key()} method {method.method_id!r}: {exc}"
                ) from exc
            failures.append(
                {
                    "index": idx,
                    "cell": item.key(),
                    "method_id": method.method_id,
                    "error": type(exc).__name__,
                    "exit_code": exc.exit_code,
                    "message": str(exc),
                }
            )

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            list(pool.map(run_cell, range(len(cells))))
    else:
        for idx in range(len(cells)):
            run_cell(idx)

    failures.sort(key=lambda f: f["index"])
    ok_results = [r for r in results if r is not None]
    for res in ok_results:
        name = f"result__{res.item.key()}__{res.method_id}.json"
        write_json_artifact(
            out_dir / name,
            result_to_dict(res),
            seed=seed,
            inputs={**config_digest, **data.cell_digests(res.item)},
        )

    all_inputs = {**config_digest, **data.digests}
    failure_rows = [
        {k: f[k] for k in ("cell", "method_id", "error", "message")} for f in failures
    ]
    if ok_results:
        summaries = {gb: aggregate_results(ok_results, gb) for gb in group_by}
    else:
        summaries = {}
    write_json_artifact(
        out_dir / "summary.json",
        {"summary": summaries, "failures": failure_rows},
        seed=seed,
        inputs=all_inputs,
    )
    if ok_results:
        primary = summaries[group_by[0]]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(primary[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in primary:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
        write_csv_artifact(out_dir / "summary.csv", buf.getvalue(), seed=seed, inputs=all_inputs)

    print(f"{len(ok_results)} cell(s) completed, {len(failures)} failed; results in {out_dir}")
    if failures:
        for failure in failure_rows:
            print(
                f"FAILED {failure['cell']} {failure['method_id']}: {failure['message']}",
                file=sys.stderr,
            )
        return failures[0]["exit_code"]
    return 0


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


def _finite_float(minimum: float, inclusive: bool = True):
    """argparse type: a finite float >= ``minimum`` (> if not ``inclusive``), else exit 2."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
        if value < minimum or (value == minimum and not inclusive):
            relation = ">=" if inclusive else ">"
            raise argparse.ArgumentTypeError(f"must be a number {relation} {minimum:g}, got {text!r}")
        return value

    parse.__name__ = "float"
    return parse


class _InputRange(argparse.Action):
    """``--input-range LO HI``: two finite bounds with LO <= HI, else exit 2."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if lo > hi:
            raise argparse.ArgumentError(self, f"lower bound {lo!r} exceeds upper bound {hi!r}")
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
    p.add_argument("--validation", nargs="*", default=[], help="validation CSVs (parametric)")
    p.add_argument("--weights-file", default=None, help="manual weights JSON (weighted)")
    _add_input_range(p)
    p.add_argument("--normalize", action="store_true")
    p.add_argument(
        "--learning-rate",
        type=_finite_float(0.0, inclusive=False),
        default=0.05,
        help="ignored: the perceptron is fitted by Newton steps; kept for old command lines",
    )
    p.add_argument(
        "--max-epochs",
        type=_int_at_least(1),
        default=10000,
        help="cap on the perceptron's Newton iterations (default 10000)",
    )
    p.add_argument(
        "--tolerance",
        type=_finite_float(0.0),
        default=1e-8,
        help="stop the perceptron fit once an iteration lowers its objective by less (default 1e-8)",
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
        help="processes loading score files and threads running cells (default 1)",
    )
    p.add_argument("--keep-going", action="store_true", help="record cell failures and continue")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("correlate", help="pairwise score correlations across matchers")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_input_range(p)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("synth", help="generate synthetic labeled score tables")
    p.add_argument("--out", help="output score CSV")
    p.add_argument("--model-file", default=None, help="Gaussian model JSON")
    p.add_argument("--mu-nonmated", type=_finite_float(-math.inf), default=0.3)
    p.add_argument("--sigma-nonmated", type=_finite_float(-math.inf), default=0.1)
    p.add_argument("--mu-mated", type=_finite_float(-math.inf), default=0.6)
    p.add_argument("--sigma-mated", type=_finite_float(-math.inf), default=0.1)
    p.add_argument("--n-mated", type=int, default=1000)
    p.add_argument("--n-nonmated", type=int, default=1000)
    p.add_argument("--clamp", action="store_true", help="clamp samples into [0, 1]")
    p.add_argument("--matcher-id", default="synthetic")
    p.add_argument("--camera", default=DEFAULT_SETTING.camera_id)
    p.add_argument("--distance", type=float, default=DEFAULT_SETTING.distance_m)
    p.add_argument("--dataset", default=DEFAULT_SETTING.dataset_id)
    p.add_argument("--id-tag", default="", help="prefix for generated pair ids")
    p.add_argument("--demo", default=None, metavar="DIR", help="write the demo grid instead")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and not args.demo and not args.out:
        parser.error("synth requires --out (or --demo DIR)")
    try:
        return args.fn(args)
    except ScoreFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
