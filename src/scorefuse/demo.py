"""Self-contained synthetic demo: score files plus a ready-to-run grid config.

The demo models one baseline matcher and four complementary matchers over a
2-camera x 2-distance grid. For every (setting, split) all five matchers
share the same comparison pairs (so they align), while each matcher sees the
latent class separation through its own independent noise; greater distance
shrinks the separation, so farther settings are harder, and averaging the
four complementary matchers beats any single one. The generated config
evaluates the baseline, each matcher alone, and the four fusion rules, which
yields a nine-row summary (baseline + 4 single + 4 fused).
"""

from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .provenance import atomic_write_text, canonical_json
from .rng import SplitMix64, substream_seed
from .synth import synthetic_pairs
from .tables import ScoreTable, SettingDescriptor, write_score_table

CAMERAS = ("cam1", "cam2")
DISTANCES = (1.0, 2.6)
DATASET = "demo"
MATCHERS = ("baseline", "m1", "m2", "m3", "m4")
FUSED_SET = ("m1", "m2", "m3", "m4")
SPLITS = ("validation", "test")

N_MATED = 150
N_NONMATED = 450

BASE_SEPARATION = 2.0
BASELINE_SEPARATION = 1.0
NOISE_SIGMAS = {"baseline": 1.0, "m1": 0.9, "m2": 1.0, "m3": 1.1, "m4": 1.2}
AFFINE_LO, AFFINE_HI = -12.0, BASE_SEPARATION + 12.0


def _demo_table(
    matcher_id: str, setting: SettingDescriptor, split: str, seed: int
) -> ScoreTable:
    # class separation decays with distance; the baseline is weaker overall
    base = BASELINE_SEPARATION if matcher_id == "baseline" else BASE_SEPARATION
    separation = base / math.sqrt(setting.distance_m)
    tag = f"{setting.key()}-{split}:"
    stream = SplitMix64(
        substream_seed(seed, "demo", matcher_id, setting.key(), split)
    )
    n = N_MATED + N_NONMATED
    means = np.concatenate([np.full(N_MATED, separation), np.zeros(N_NONMATED)])
    raw = means + NOISE_SIGMAS[matcher_id] * stream.normals(n)
    scores = (raw - AFFINE_LO) / (AFFINE_HI - AFFINE_LO)
    return ScoreTable(matcher_id, (0.0, 1.0), synthetic_pairs(N_MATED, n, tag, setting), scores)


def build_demo(root, seed: int) -> Path:
    """Write the demo score files and grid config under ``root``.

    Returns the path of the generated config JSON.
    """
    root = Path(root)
    scores_dir = root / "scores"
    settings = [
        SettingDescriptor(cam, dist, DATASET) for cam in CAMERAS for dist in DISTANCES
    ]
    score_files = []
    for matcher in MATCHERS:
        for setting in settings:
            for split in SPLITS:
                name = f"{matcher}__{setting.key()}__{split}.csv"
                write_score_table(
                    _demo_table(matcher, setting, split, seed), scores_dir / name
                )
                score_files.append(
                    {"matcher_id": matcher, **asdict(setting), "split": split, "path": f"scores/{name}"}
                )
    methods = [{"method_id": "baseline", "kind": "single", "matchers": ["baseline"]}]
    methods += [
        {"method_id": m, "kind": "single", "matchers": [m]} for m in FUSED_SET
    ]
    methods += [
        {"method_id": "avg", "kind": "avg", "matchers": list(FUSED_SET)},
        {"method_id": "bayes", "kind": "bayes", "matchers": list(FUSED_SET)},
        {"method_id": "pcc_avg", "kind": "pcc_avg", "matchers": list(FUSED_SET)},
        {
            "method_id": "perceptron",
            "kind": "perceptron",
            "matchers": list(FUSED_SET),
            "hyper": {"max_epochs": 2000},
        },
    ]
    config = {
        "schema": "scorefuse-grid-config/1",
        "seed": seed,
        "output_dir": "results",
        "kinds": ["intra"],
        "matchers": list(MATCHERS),
        "settings": [asdict(s) for s in settings],
        "score_files": score_files,
        "methods": methods,
        "group_by": ["method", "method_kind"],
    }
    config_path = root / "config.json"
    atomic_write_text(config_path, canonical_json(config))
    return config_path
