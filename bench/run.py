"""Benchmark of the scorefuse CLI, end to end and layer by layer.

Usage (from the root of a checkout; the program is imported from ``src/``)::

    python3 bench/run.py --workload demo_grid --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every command runs as its own process and the benchmark
reports wall time, CPU time and peak RSS of those processes, plus the time
to build the workload's inputs. With ``--trace 1`` it reports the per-layer
metrics instead: per-command wall times from one untraced round, then
alternating untraced and traced rounds run in this process, where calls
into each layer are timed from outside the package (``tracing.py``).

Rounds repeat until ``--seconds`` have passed (at least one); every round
runs the same commands and its outputs are checked (``checks.py``). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; progress and check failures go to
standard error. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

CLI_COMMANDS = ("synth_demo", "grid", "score", "correlate", "fuse", "eval")

# (module, attribute, span name, counts of one call from (args, result))
TARGETS = [
    ("scorefuse.demo", "build_demo", "demo.build_demo", None),
    ("scorefuse.rng", "SplitMix64.normals", "rng.normals", lambda a, r: {"count": a[1]}),
    ("scorefuse.embeddings", "load_embeddings", "embeddings.load_embeddings",
     lambda a, r: {"vectors": len(r.entries)}),
    ("scorefuse.embeddings", "batch_score", "embeddings.batch_score", lambda a, r: {"pairs": len(r)}),
    ("scorefuse.tables", "load_score_table", "tables.load_score_table", None),  # counts set per run
    ("scorefuse.tables", "align_tables", "tables.align_tables", lambda a, r: {"rows": len(r)}),
    ("scorefuse.tables", "load_pairs", "tables.load_pairs", None),
    ("scorefuse.tables", "normalize_scores", "tables.normalize_scores", None),
    ("scorefuse.tables", "score_table_csv_text", "tables.score_table_csv_text",
     lambda a, r: {"rows": len(a[0])}),
    ("scorefuse.fusion", "apply_fusion", "fusion.apply_fusion", lambda a, r: {"rows": len(a[1])}),
    ("scorefuse.fusion", "train_perceptron", "fusion.train_perceptron",
     lambda a, r: {
         "epochs": r.training_log.epochs_run,
         "converged": r.training_log.epochs_run < _max_epochs(a),
         "fit": ("perceptron", a[0].matcher_ids, hash(a[0].matrix.tobytes())),
     }),
    ("scorefuse.fusion", "estimate_pcc_weights", "fusion.estimate_pcc_weights",
     lambda a, r: {"fit": ("pcc", a[0].matcher_ids, hash(a[0].matrix.tobytes()))}),
    ("scorefuse.metrics", "evaluate_table", "metrics.evaluate_table",
     lambda a, r: {"rows": len(getattr(a[0], "table", a[0]))}),
    ("scorefuse.metrics", "curves_csv_text", "metrics.curves_csv_text", None),
    ("scorefuse.metrics", "roc_csv_text", "metrics.roc_csv_text", None),
    ("scorefuse.metrics", "correlation_matrix", "metrics.correlation_matrix", None),
    ("scorefuse.protocol", "run_experiment", "protocol.run_experiment", None),
    ("scorefuse.protocol", "aggregate_results", "protocol.aggregate_results", None),
    ("scorefuse.provenance", "sha256_file", "provenance.sha256_file",
     lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("scorefuse.provenance", "write_json_artifact", "provenance.write_json_artifact",
     lambda a, r: {"files": 1}),
    ("scorefuse.provenance", "write_csv_artifact", "provenance.write_csv_artifact",
     lambda a, r: {"bytes": len(a[1].encode("utf-8"))}),
]

# per-layer metric -> unit, in report order
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "demo.build_demo.s": "s",
    "rng.normals.s": "s",
    "rng.normals.count": "count",
    "embeddings.load_embeddings.s": "s",
    "embeddings.load_embeddings.vectors": "count",
    "embeddings.batch_score.s": "s",
    "embeddings.batch_score.pairs": "count",
    "tables.load_score_table.s": "s",
    "tables.load_score_table.rows": "count",
    "tables.load_useful_ratio": "ratio",
    "tables.align_tables.s": "s",
    "tables.align_tables.rows": "count",
    "tables.load_pairs.s": "s",
    "tables.normalize_scores.s": "s",
    "tables.score_table_csv_text.s": "s",
    "tables.score_table_csv_text.rows": "count",
    "fusion.apply_fusion.s": "s",
    "fusion.apply_fusion.rows": "count",
    "fusion.train_perceptron.s": "s",
    "fusion.train_perceptron.epochs": "count",
    "fusion.train_perceptron.converged_ratio": "ratio",
    "fusion.fit_distinct_ratio": "ratio",
    "fusion.estimate_pcc_weights.s": "s",
    "metrics.evaluate_table.s": "s",
    "metrics.evaluate_table.rows": "count",
    "metrics.curves_csv_text.s": "s",
    "metrics.roc_csv_text.s": "s",
    "metrics.correlation_matrix.s": "s",
    "protocol.run_experiment.s": "s",
    "protocol.run_experiment.calls": "count",
    "protocol.run_experiment.p50_s": "s",
    "protocol.run_experiment.p90_s": "s",
    "protocol.run_experiment.self_s": "s",
    "protocol.aggregate_results.s": "s",
    "provenance.sha256_file.s": "s",
    "provenance.sha256_file.bytes": "bytes",
    "provenance.write_json_artifact.s": "s",
    "provenance.write_json_artifact.files": "count",
    "provenance.write_csv_artifact.s": "s",
    "provenance.write_csv_artifact.bytes": "bytes",
    "trace.overhead_s": "s",
}


def _max_epochs(args) -> int:
    from scorefuse.fusion import PerceptronHyper

    hyper = args[1] if len(args) > 1 and args[1] is not None else PerceptronHyper()
    return hyper.max_epochs


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- running commands


@dataclass
class Command:
    argv: list
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    code: int = 0


class Processes:
    """Runs ``scorefuse`` commands as child processes of the checkout's ``src/``."""

    def __init__(self, root: Path, work: Path):
        path = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.log_path = work / "command.log"

    def _spawn(self, argv, cwd: Path) -> tuple[int, float, float, float]:
        with open(self.log_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def run(self, argv, cwd: Path) -> Command:
        code, wall, cpu, rss = self._spawn([sys.executable, "-m", "scorefuse.cli", *argv], cwd)
        if code != 0:
            output = self.log_path.read_text(errors="replace")[-2000:]
            log(f"scorefuse {' '.join(argv)} exited {code}: {output}")
        return Command(argv, wall, cpu, rss, code)

    def import_s(self, cwd: Path) -> float:
        code, wall, _, _ = self._spawn([sys.executable, "-c", "import scorefuse.cli"], cwd)
        if code != 0:
            raise RuntimeError(f"import scorefuse.cli exited {code}")
        return wall


def run_in_process(argv, cwd: Path) -> Command:
    """One ``scorefuse`` command through ``cli.main`` in this process."""
    from scorefuse import cli

    previous = os.getcwd()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed command, not a benchmark crash
        out.write(traceback.format_exc())
        code = 1
    finally:
        os.chdir(previous)
    wall = time.perf_counter() - start
    if code != 0:
        log(f"scorefuse {' '.join(argv)} exited {code}: {out.getvalue()[-2000:]}")
    return Command(list(argv), wall, code=code)


@dataclass
class Round:
    commands: list
    failed_cells: int
    errors: list

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.commands)

    @property
    def failed(self) -> int:
        return sum(c.code != 0 for c in self.commands) + self.failed_cells


def run_round(workload, work: Path, runner) -> Round:
    workload.clean(work)
    commands = [runner(argv, work) for argv in workload.commands()]
    try:
        failed_cells, errors = workload.check(work)
    except (OSError, ValueError, KeyError) as exc:  # outputs too broken to read
        failed_cells, errors = workload.cells, [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    for e in errors:
        log(f"check failed: {e}")
    return Round(commands, failed_cells, errors)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- untraced run


def _sum_of_medians(rounds, field: str) -> float:
    """A round's time as the sum over its commands of each command's median.

    Every round runs the same commands in the same order; taking the median
    per command keeps a stall in one command of one round out of the figure.
    """
    per_command = zip(*([getattr(c, field) for c in r.commands] for r in rounds))
    return sum(statistics.median(times) for times in per_command)


def timed_run(workload, work: Path, seed: int, seconds: float, procs: Processes):
    inputs = work / "inputs"
    setup_s = []
    for _ in range(SETUP_REPEATS):
        fresh_dir(inputs)
        start = time.perf_counter()
        workload.setup(inputs, seed, lambda argv: procs.run(argv, inputs).code)
        setup_s.append(time.perf_counter() - start)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload, inputs, procs.run))
    log(f"{workload.name}: {len(rounds)} rounds, walls {[round(r.wall, 3) for r in rounds]}")
    metrics = {
        "wall_s": _sum_of_medians(rounds, "wall"),
        "cpu_s": _sum_of_medians(rounds, "cpu"),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in r.commands) for r in rounds),
        "setup_s": statistics.median(setup_s),
    }
    return rounds, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------- traced run


def _unused_inputs(workload, work: Path) -> set:
    """Resolved paths of score files of the ``train`` split, which no method uses."""
    if workload.config is None:
        return set()
    config = work / workload.config
    doc = json.loads(config.read_text(encoding="utf-8"))
    return {(config.parent / e["path"]).resolve() for e in doc["score_files"] if e["split"] == "train"}


def layer_metrics(tr: tracing.Tracer) -> dict:
    """Per-layer metrics of one traced round (or one traced set-up)."""
    m = {f"{name}.s": tr.total(name) for name in {t[2] for t in TARGETS}}
    for name, key in (
        ("rng.normals", "count"),
        ("embeddings.load_embeddings", "vectors"),
        ("embeddings.batch_score", "pairs"),
        ("tables.load_score_table", "rows"),
        ("tables.align_tables", "rows"),
        ("tables.score_table_csv_text", "rows"),
        ("fusion.apply_fusion", "rows"),
        ("fusion.train_perceptron", "epochs"),
        ("metrics.evaluate_table", "rows"),
        ("provenance.sha256_file", "bytes"),
        ("provenance.write_json_artifact", "files"),
        ("provenance.write_csv_artifact", "bytes"),
    ):
        m[f"{name}.{key}"] = tr.count(name, key)
    loaded = m["tables.load_score_table.rows"]
    m["tables.load_useful_ratio"] = tr.count("tables.load_score_table", "useful") / loaded if loaded else 0.0
    perceptrons = tr.named("fusion.train_perceptron")
    m["fusion.train_perceptron.converged_ratio"] = (
        sum(s.counts["converged"] for s in perceptrons) / len(perceptrons) if perceptrons else 0.0
    )
    fits = perceptrons + tr.named("fusion.estimate_pcc_weights")
    m["fusion.fit_distinct_ratio"] = len({s.counts["fit"] for s in fits}) / len(fits) if fits else 0.0
    cells = sorted(s.duration for s in tr.named("protocol.run_experiment"))
    m["protocol.run_experiment.calls"] = len(cells)
    m["protocol.run_experiment.p50_s"] = statistics.median(cells) if cells else 0.0
    # a 90th percentile is a tail only with ten samples beyond it
    m["protocol.run_experiment.p90_s"] = statistics.quantiles(cells, n=10)[8] if len(cells) >= 100 else 0.0
    m["protocol.run_experiment.self_s"] = sum(s.self_s for s in tr.named("protocol.run_experiment"))
    return m


def traced_run(workload, work: Path, seed: int, seconds: float, procs: Processes):
    inputs = fresh_dir(work / "inputs")
    walls = {c: 0.0 for c in CLI_COMMANDS}
    setup_cmds = []

    def setup_runner(argv):
        setup_cmds.append(procs.run(argv, inputs))
        return setup_cmds[-1].code

    workload.setup(inputs, seed, setup_runner)
    walls["synth_demo"] = sum(c.wall for c in setup_cmds)
    import_s = statistics.median(procs.import_s(inputs) for _ in range(IMPORT_REPEATS))

    start = time.perf_counter()
    rounds = [run_round(workload, inputs, procs.run)]
    for c in rounds[0].commands:
        walls[c.argv[0]] += c.wall

    sys.path.insert(0, str(ROOT / "src"))
    import scorefuse.cli  # noqa: F401  (loads every layer module for tracing.traced)

    if Path(scorefuse.cli.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        raise RuntimeError(f"imported scorefuse from {scorefuse.cli.__file__}, not from {ROOT / 'src'}")
    unused = _unused_inputs(workload, inputs)
    targets = [
        (mod, attr, name,
         (lambda a, r: {"rows": len(r), "useful": 0 if Path(a[0]).resolve() in unused else len(r)})
         if name == "tables.load_score_table" else count)
        for mod, attr, name, count in TARGETS
    ]

    setup_tracer = tracing.Tracer()
    traced_inputs = fresh_dir(work / "traced_setup")
    with tracing.traced(setup_tracer, targets):
        workload.setup(traced_inputs, seed, lambda argv: run_in_process(argv, traced_inputs).code)
    setup_layers = layer_metrics(setup_tracer)

    plain, traced, per_round = [], [], []
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_round(workload, inputs, run_in_process))
        tracer = tracing.Tracer()
        with tracing.traced(tracer, targets):
            traced.append(run_round(workload, inputs, run_in_process))
        per_round.append(layer_metrics(tracer))
    log(f"{workload.name}: {len(traced)} traced rounds, walls {[round(r.wall, 3) for r in traced]}")

    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    for name in ("demo.build_demo.s", "rng.normals.s", "rng.normals.count"):
        values[name] = setup_layers[name]
    values["cli.import_s"] = import_s
    values.update({f"cli.{c}.s": walls[c] for c in CLI_COMMANDS})
    values["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
        r.wall for r in plain
    )
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER.items()}
    return rounds + plain + traced, metrics


# ---------------------------------------------------------------- entry point


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    work = BENCH_DIR / "_work" / f"{workload.name}-{os.getpid()}"
    try:
        fresh_dir(work)
        procs = Processes(ROOT, work)
        procs.import_s(work)  # compiles the bytecode once, before anything is timed
        body = traced_run if trace else timed_run
        rounds, metrics = body(workload, work, seed, seconds, procs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    return {
        "correct": not any(r.errors for r in rounds),
        "attempted": sum(len(r.commands) + workload.cells for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scorefuse" / "cli.py").is_file():
        print(f"error: no scorefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
