"""Small builders shared across test modules.

A pair row is a tuple (probe_id, reference_id, probe_subject,
reference_subject, mated, setting), optionally followed by a score.
"""

from __future__ import annotations

import numpy as np

from scorefuse.tables import (
    AlignedScores,
    PairColumns,
    ScoreTable,
    SettingDescriptor,
)

SETTING = SettingDescriptor("cam0", 1.0, "unit")


def pair(i: int, mated: bool, tag: str = "", setting: SettingDescriptor = SETTING) -> tuple:
    subject = f"{tag}s{i:05d}"
    return (f"{tag}p{i:05d}", f"{tag}r{i:05d}", subject, subject if mated else f"{tag}q{i:05d}", mated, setting)


def columns(rows) -> PairColumns:
    """The :class:`PairColumns` of pair rows (a trailing score is ignored)."""
    rows = list(rows)
    settings = list(dict.fromkeys(row[5] for row in rows))
    fields = [[row[k] for row in rows] for k in range(5)]
    return PairColumns(*fields, [settings.index(row[5]) for row in rows], settings)


def rows_of(pairs: PairColumns, scores=None) -> list[tuple]:
    """The pair row of every pair, each followed by its score if ``scores`` is given."""
    fields = [
        pairs.probe_ids.tolist(),
        pairs.reference_ids.tolist(),
        pairs.probe_subjects.tolist(),
        pairs.reference_subjects.tolist(),
        pairs.mated.tolist(),
        [pairs.settings[code] for code in pairs.setting_codes],
    ]
    if scores is not None:
        fields.append(np.asarray(scores, dtype=np.float64).tolist())
    return list(zip(*fields))


def table(
    mated_scores,
    nonmated_scores,
    matcher_id: str = "m",
    declared=(0.0, 1.0),
    tag: str = "",
    setting: SettingDescriptor = SETTING,
) -> ScoreTable:
    n_mated = len(mated_scores)
    pair_rows = [pair(i, True, tag, setting) for i in range(n_mated)]
    pair_rows += [pair(n_mated + i, False, tag, setting) for i in range(len(nonmated_scores))]
    scores = [float(s) for s in mated_scores] + [float(s) for s in nonmated_scores]
    return ScoreTable(matcher_id, declared, columns(pair_rows), scores)


def aligned(scores: dict[str, list[float]], mated_flags, tag: str = "", setting=SETTING) -> AlignedScores:
    """Aligned scores from {matcher_id: column} over shared pairs."""
    ids = tuple(scores)
    matrix = np.column_stack([np.asarray(scores[m], dtype=np.float64) for m in ids])
    pairs = columns(pair(i, bool(f), tag, setting) for i, f in enumerate(mated_flags))
    return AlignedScores(ids, pairs, matrix)
