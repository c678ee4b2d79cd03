"""scorefuse loads numpy with one OpenBLAS thread.

Importing the package leaves the process with one OS thread and the
caller's environment as it found it, and the Pearson r behind `correlate`
and `fuse --method pcc_avg` gives the same bits on one CPU as on all of
them, above the 10^4 elements where OpenBLAS would split a dot product
across its threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import scorefuse
from scorefuse.cli import main

SRC = Path(scorefuse.__file__).resolve().parents[1]
# each of these could hold OpenBLAS to one thread by itself
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def clean_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return {**env, **extra}


IMPORT_PROBE = """
import os
before = dict(os.environ)
import scorefuse
with open("/proc/self/status") as fh:
    print([line.split()[1] for line in fh if line.startswith("Threads:")][0])
print(dict(os.environ) == before)
"""


@pytest.mark.skipif(
    not Path("/proc/self/status").exists() or (os.cpu_count() or 1) < 2,
    reason="needs /proc and at least 2 CPUs",
)
@pytest.mark.parametrize("preset", [None, "3"])
def test_import_starts_no_blas_threads_and_restores_the_environment(preset):
    env = clean_env() if preset is None else clean_env(OPENBLAS_NUM_THREADS=preset)
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]


def run_pinned(argv, cpus):
    """``scorefuse argv`` as a separate process, on ``cpus`` only when given."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    proc = subprocess.run(
        [sys.executable, "-m", "scorefuse.cli", *map(str, argv)],
        env=clean_env(), preexec_fn=pin, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def files_of(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and at least 2 CPUs",
)
def test_pcc_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    paths = {}
    for name, seed, tag in [("a_test", 1, "t:"), ("b_test", 2, "t:"), ("a_val", 3, "v:"), ("b_val", 4, "v:")]:
        paths[name] = tmp_path / f"{name}.csv"
        assert main([
            "synth", "--out", str(paths[name]), "--clamp", "--seed", str(seed), "--id-tag", tag,
            "--matcher-id", name[0], "--n-mated", "10000", "--n-nonmated", "10000",
            "--mu-nonmated", "0.3", "--sigma-nonmated", "0.15", "--mu-mated", "0.7", "--sigma-mated", "0.15",
        ]) == 0
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for label, cpus in [("one", one_cpu), ("all", None)]:
        out = tmp_path / label
        out.mkdir()
        printed = run_pinned(
            ["correlate", "--inputs", paths["a_test"], paths["b_test"], "--out", out / "corr.csv"], cpus
        )
        run_pinned([
            "fuse", "--method", "pcc_avg", "--inputs", paths["a_test"], paths["b_test"],
            "--validation", paths["a_val"], paths["b_val"], "--out-dir", out / "fused",
        ], cpus)
        outputs.append((printed, files_of(out), files_of(out / "fused")))
    assert "fuser_pcc_avg.json" in outputs[0][2] and "fused_pcc_avg.csv" in outputs[0][2]
    assert outputs[0] == outputs[1]
