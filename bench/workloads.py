"""The benchmark's three workloads: their seeded inputs and CLI commands.

A workload builds its inputs from a seed (``setup``), names the ``scorefuse``
commands of one round (``commands``), removes a round's outputs before the
next round (``clean``) and checks them (``check``). Every path a command sees
is relative to the workload's directory, which is also the commands' working
directory, so the artifacts do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks

DATASET = "bench"


def _pair_columns(tag: str, n_subjects: int):
    """Probe i meets its own reference (mated) and the next nine (non-mated).

    Returns per-row probe ids, reference ids, probe and reference subjects and
    the mated flag: ``10 * n_subjects`` rows, one mated to nine non-mated.
    """
    if n_subjects < 10:
        raise ValueError("need at least 10 subjects for nine distinct non-mated references")
    probe = np.repeat(np.arange(n_subjects), 10)
    ref = (probe + np.tile(np.arange(10), n_subjects)) % n_subjects
    probe_ids = [f"{tag}:p{i:06d}" for i in probe.tolist()]
    ref_ids = [f"{tag}:r{i:06d}" for i in ref.tolist()]
    probe_subjects = [f"{tag}:s{i:06d}" for i in probe.tolist()]
    ref_subjects = [f"{tag}:s{i:06d}" for i in ref.tolist()]
    return probe_ids, ref_ids, probe_subjects, ref_subjects, probe == ref


def _write_lines(path: Path, header: str | None, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(lines)


class DemoGrid:
    """``synth --demo`` inputs; the grid runs every within-dataset kind."""

    name = "demo_grid"
    config = "demo/config.json"
    kinds = ["intra", "cross_distance", "cross_camera", "cross_both"]
    cells = 144  # 16 plan items (4 intra + 3 cross kinds x 4 ordered pairs) x 9 methods

    def setup(self, work: Path, seed: int, run) -> None:
        """``run`` executes one ``scorefuse`` argv in ``work`` and returns its exit code."""
        code = run(["synth", "--demo", "demo", "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"synth --demo exited {code}")
        config = work / self.config
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["kinds"] = self.kinds
        config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def commands(self) -> list[list[str]]:
        return [["grid", "--config", self.config, "--jobs", "1", "--keep-going"]]

    def clean(self, work: Path) -> None:
        shutil.rmtree(work / "demo" / "results", ignore_errors=True)

    def check(self, work: Path) -> tuple[int, list[str]]:
        grid = checks.GridOutputs(work / self.config, self.cells)
        return grid.failed_cells(), checks.run_checks(grid, checks.GRID_CHECKS + [checks.fusion_gain])


class ScaledGrid:
    """Gaussian score CSVs written by the benchmark, at 10^4-10^5 rows per file.

    Scores of matcher j on a pair are
    ``NONMATED_MEAN + mated * SEPARATION[j] / sqrt(distance) + shared + own_j``
    with ``shared ~ N(0, SHARED_SIGMA^2)`` common to all matchers of the pair
    and ``own_j ~ N(0, OWN_SIGMA[j]^2)``; every fused average is then Gaussian
    too, so its AUC and EER have closed forms (:func:`model`). The means sit
    at least eight standard deviations inside [0, 1], and a draw outside the
    interval aborts the set-up instead of being clipped.
    """

    name = "scaled_grid"
    config = "config.json"
    matchers = ("m1", "m2", "m3", "m4")
    camera = "cam1"
    distances = (1.0, 2.6)
    splits = ("train", "validation", "test")
    kinds = ["intra", "cross_distance"]
    cells = 28  # 4 plan items (2 intra + 2 cross_distance) x 7 methods
    NONMATED_MEAN = 0.40
    SEPARATION = (0.10, 0.09, 0.08, 0.07)
    SHARED_SIGMA = 0.02
    OWN_SIGMA = (0.035, 0.04, 0.04, 0.045)

    def __init__(self, rows: int = 10000, jobs: int = 2):
        self.rows = rows
        self.jobs = jobs

    @classmethod
    def model(cls, matchers, distance: float) -> tuple[float, float]:
        """(mean separation, per-class sigma) of the plain average of ``matchers``."""
        idx = [cls.matchers.index(m) for m in matchers]
        delta = float(np.mean([cls.SEPARATION[j] for j in idx])) / distance**0.5
        own = sum(cls.OWN_SIGMA[j] ** 2 for j in idx) / len(idx) ** 2
        return delta, (cls.SHARED_SIGMA**2 + own) ** 0.5

    def setup(self, work: Path, seed: int, run=None) -> None:
        rng = np.random.default_rng(seed)
        n_subjects = self.rows // 10
        score_files = []
        for distance in self.distances:
            for split in self.splits:
                tag = f"d{distance:g}-{split}"
                probes, refs, psubs, rsubs, mated = _pair_columns(tag, n_subjects)
                prefixes = [
                    f"{p},{r},{ps},{rs},{int(m)},{self.camera},{distance!r},{DATASET},"
                    for p, r, ps, rs, m in zip(probes, refs, psubs, rsubs, mated.tolist())
                ]
                shared = self.SHARED_SIGMA * rng.standard_normal(len(prefixes))
                for j, matcher in enumerate(self.matchers):
                    scores = (
                        self.NONMATED_MEAN
                        + mated * (self.SEPARATION[j] / distance**0.5)
                        + shared
                        + self.OWN_SIGMA[j] * rng.standard_normal(len(prefixes))
                    )
                    if scores.min() < 0.0 or scores.max() > 1.0:
                        raise RuntimeError(f"seed {seed}: a {matcher} score left [0, 1]")
                    name = f"scores/{matcher}__{tag}.csv"
                    _write_lines(
                        work / name,
                        checks.SCORE_HEADER,
                        (f"{matcher},{pre}{s!r}\n" for pre, s in zip(prefixes, scores.tolist())),
                    )
                    score_files.append(
                        {
                            "matcher_id": matcher,
                            "camera_id": self.camera,
                            "distance_m": distance,
                            "dataset_id": DATASET,
                            "split": split,
                            "path": name,
                        }
                    )
        methods = [{"method_id": m, "kind": "single", "matchers": [m]} for m in self.matchers]
        methods += [
            {"method_id": kind, "kind": kind, "matchers": list(self.matchers)}
            for kind in ("avg", "bayes", "pcc_avg")
        ]
        doc = {
            "schema": "scorefuse-grid-config/1",
            "seed": seed,
            "output_dir": "results",
            "kinds": self.kinds,
            "matchers": list(self.matchers),
            "settings": [
                {"camera_id": self.camera, "distance_m": d, "dataset_id": DATASET}
                for d in self.distances
            ],
            "score_files": score_files,
            "methods": methods,
        }
        (work / self.config).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    def commands(self) -> list[list[str]]:
        return [["grid", "--config", self.config, "--jobs", str(self.jobs), "--keep-going"]]

    def clean(self, work: Path) -> None:
        shutil.rmtree(work / "results", ignore_errors=True)

    def check(self, work: Path) -> tuple[int, list[str]]:
        def gaussian_closed_form(grid):
            return checks.gaussian_closed_form(grid, self.model)

        grid = checks.GridOutputs(work / self.config, self.cells)
        return grid.failed_cells(), checks.run_checks(grid, checks.GRID_CHECKS + [gaussian_closed_form])


class ScoreFuseEval:
    """Embeddings scored per matcher, then correlate, pcc_avg fusion and eval.

    Subject i has an identity vector ``u_i ~ N(0, I/DIM)``. Each probe or
    reference image of it gets a quality offset shared by all matchers
    (``SHARED_NOISE``) and each matcher adds its own noise (``OWN_NOISE``), so
    the three matchers correlate but err independently in part.
    """

    name = "score_fuse_eval"
    config = None  # no grid config
    matchers = ("sys_a", "sys_b", "sys_c")
    splits = ("validation", "test")
    camera, distance = "cam1", 1.0
    DIM = 16
    SHARED_NOISE = 0.6
    OWN_NOISE = (0.8, 0.9, 1.0)
    cells = 0

    def __init__(self, subjects: int = 1000):
        self.subjects = subjects

    def setup(self, work: Path, seed: int, run=None) -> None:
        rng = np.random.default_rng(seed)
        n, dim = self.subjects, self.DIM
        for split in self.splits:
            probes, refs, psubs, rsubs, mated = _pair_columns(split, n)
            _write_lines(
                work / "in" / f"pairs_{split}.csv",
                checks.PAIRS_HEADER,
                (
                    f"{p},{r},{ps},{rs},{int(m)},{self.camera},{self.distance!r},{DATASET}\n"
                    for p, r, ps, rs, m in zip(probes, refs, psubs, rsubs, mated.tolist())
                ),
            )
            identity = rng.standard_normal((n, dim)) / dim**0.5
            quality = {
                role: self.SHARED_NOISE * rng.standard_normal((n, dim)) / dim**0.5
                for role in ("reference", "probe")
            }
            for matcher, sigma in zip(self.matchers, self.OWN_NOISE):
                for role, prefix in (("reference", "r"), ("probe", "p")):
                    vectors = identity + quality[role] + sigma * rng.standard_normal((n, dim)) / dim**0.5
                    _write_lines(
                        work / "in" / f"{role}s_{matcher}_{split}.jsonl",
                        None,
                        (
                            json.dumps({"entity_id": f"{split}:{prefix}{i:06d}", "role": role, "vector": v})
                            + "\n"
                            for i, v in enumerate(vectors.tolist())
                        ),
                    )

    def score_csv(self, matcher: str, split: str) -> str:
        return f"out/scores/{matcher}_{split}.csv"

    def commands(self) -> list[list[str]]:
        cmds = [
            [
                "score",
                "--references", f"in/references_{m}_{split}.jsonl",
                "--probes", f"in/probes_{m}_{split}.jsonl",
                "--pairs", f"in/pairs_{split}.csv",
                "--metric", "cosine",
                "--matcher-id", m,
                "--normalize",
                "--out", self.score_csv(m, split),
            ]
            for split in self.splits
            for m in self.matchers
        ]
        tests = [self.score_csv(m, "test") for m in self.matchers]
        vals = [self.score_csv(m, "validation") for m in self.matchers]
        cmds.append(["correlate", "--inputs", *tests, "--out", "out/correlation.csv"])
        cmds.append(["fuse", "--method", "pcc_avg", "--inputs", *tests, "--validation", *vals,
                     "--out-dir", "out/fused"])
        cmds.append(["eval", "--scores", "out/fused/fused_pcc_avg.csv", "--out-dir", "out/eval"])
        return cmds

    def clean(self, work: Path) -> None:
        shutil.rmtree(work / "out", ignore_errors=True)

    def check(self, work: Path) -> tuple[int, list[str]]:
        outputs = checks.PipelineOutputs(work, self)
        return 0, checks.run_checks(outputs, checks.PIPELINE_CHECKS)


WORKLOADS = {w.name: w for w in (DemoGrid, ScaledGrid, ScoreFuseEval)}
