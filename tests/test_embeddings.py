import json
import math

import numpy as np
import pytest

from scorefuse.embeddings import (
    EmbeddingSet,
    batch_score,
    load_embeddings,
    score_cosine,
    score_euclidean,
)
from scorefuse.errors import ContractError, ParseError, UnknownEntityError
from scorefuse.tables import PairColumns

from helpers import SETTING, columns


def test_euclidean_known_values():
    assert score_euclidean([1, 2, 3], [1, 2, 3]) == 1.0
    assert score_euclidean([0.0], [1.0]) == 0.5
    # 3-4-5 triangle: distance 5 -> 1/6
    assert score_euclidean([0, 0], [3, 4]) == pytest.approx(1 / 6, abs=1e-15)


def test_cosine_known_values():
    assert score_cosine([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert score_cosine([1, 0], [0, 1]) == 0.0
    assert score_cosine([2, 0], [-1, 0]) == pytest.approx(-1.0, abs=1e-12)


def test_dimension_mismatch_and_zero_norm():
    with pytest.raises(ContractError, match="dimension"):
        score_euclidean([1, 2], [1, 2, 3])
    with pytest.raises(ContractError, match="zero-norm"):
        score_cosine([0, 0], [1, 0])


def test_symmetry_and_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        assert score_euclidean(x, y) == score_euclidean(y, x)
        assert score_cosine(x, y) == pytest.approx(score_cosine(y, x), abs=1e-15)
        alpha = float(rng.uniform(0.1, 10.0))
        assert score_cosine(alpha * x, y) == pytest.approx(score_cosine(x, y), abs=1e-12)


def test_euclidean_decreases_along_a_ray():
    x = np.array([1.0, 1.0])
    direction = np.array([0.6, 0.8])
    last = 1.0
    for step in (0.5, 1.0, 2.0, 4.0):
        s = score_euclidean(x, x + step * direction)
        assert 0.0 < s < last
        last = s


def test_batch_score_orders_and_ranges():
    refs = EmbeddingSet(["r1", "r2"], [[1, 0], [0, 1]])
    probes = EmbeddingSet(["p1", "p2"], [[1, 0], [1, 1]])
    pairs = columns([("p1", "r1", "s1", "s1", True, SETTING), ("p2", "r2", "s1", "s2", False, SETTING)])
    t = batch_score(refs, probes, pairs, "euclidean_posterior")
    assert t.matcher_id == "euclidean_posterior"
    assert t.declared_range == (0.0, 1.0)
    assert t.columns is pairs
    assert t.scores[0] == 1.0

    t2 = batch_score(refs, probes, pairs, "cosine", matcher_id="ada")
    assert t2.matcher_id == "ada"
    assert t2.declared_range == (-1.0, 1.0)
    assert t2.scores[0] == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(UnknownEntityError, match="nope"):
        batch_score(refs, probes, columns([("nope", "r1", "a", "a", True, SETTING)]), "cosine")


def _reference_scores(refs, probes, pairs, metric):
    """Scores computed one pair at a time: np.dot, np.linalg.norm and the clamp."""
    scores = []
    for probe_id, ref_id in zip(pairs.probe_ids, pairs.reference_ids):
        a = np.asarray(refs.matrix[refs.entries[ref_id]])
        b = np.asarray(probes.matrix[probes.entries[probe_id]])
        if metric == "cosine":
            na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
            scores.append(min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb))))
        else:
            scores.append(1.0 / (float(np.linalg.norm(a - b)) + 1.0))
    return np.array(scores)


@pytest.mark.parametrize("metric", ["cosine", "euclidean_posterior"])
@pytest.mark.parametrize("dim", [1, 16, 512])
def test_batch_score_equals_per_pair_arithmetic_bit_for_bit(metric, dim):
    rng = np.random.default_rng(dim)
    n_refs, n_probes, n_pairs = 120, 150, 10_000
    scale = 10.0 ** rng.uniform(-3, 3, size=(1, 1))

    def vectors(n):
        return rng.normal(size=(n, dim)) * scale * 10.0 ** rng.uniform(-2, 2, size=(n, 1))

    refs = EmbeddingSet([f"r{i}" for i in range(n_refs)], vectors(n_refs))
    probes = EmbeddingSet([f"p{i}" for i in range(n_probes)], vectors(n_probes))
    keys = rng.choice(n_refs * n_probes, size=n_pairs, replace=False)
    probe_ids = [f"p{k % n_probes}" for k in keys]
    ref_ids = [f"r{k // n_probes}" for k in keys]
    pairs = PairColumns(probe_ids, ref_ids, probe_ids, ref_ids, [0] * n_pairs, [SETTING])
    got = batch_score(refs, probes, pairs, metric).scores
    assert np.array_equal(got, _reference_scores(refs, probes, pairs, metric))


VECTORS = {
    "zero": [0.0, 0.0],
    "void": [0.0, 0.0],
    "unit": [1.0, 0.0],
    "huge": [1e300, 1e300],
    "big": [1e200, 0.0],
    "neg-huge": [-1e300, -1e300],
}


@pytest.mark.parametrize(
    "metric, rows, error, message",
    [
        # on one row: the unknown probe, then the unknown reference
        ("cosine", [("nope", "nada")], UnknownEntityError, "unknown entity id 'nope'"),
        ("cosine", [("unit", "nada")], UnknownEntityError, "unknown entity id 'nada'"),
        # the first bad row wins, whatever its check
        ("cosine", [("unit", "zero"), ("nope", "unit")], ContractError,
         "cosine undefined for zero-norm embedding 'zero'"),
        ("cosine", [("unit", "huge"), ("nope", "unit")], ContractError,
         "squared norm of embedding 'huge' is not finite"),
        # a zero-norm reference before a zero-norm probe, and both before overflow
        ("cosine", [("zero", "void")], ContractError, "cosine undefined for zero-norm embedding 'void'"),
        ("cosine", [("zero", "huge")], ContractError, "cosine undefined for zero-norm embedding 'zero'"),
        ("cosine", [("big", "big")], ContractError, "squared norm of embedding 'big' is not finite"),
        ("euclidean_posterior", [("unit", "unit"), ("neg-huge", "huge")], ContractError,
         "squared distance of pair ('neg-huge', 'huge') is not finite"),
    ],
)
def test_batch_score_reports_the_first_bad_row(metric, rows, error, message):
    refs = EmbeddingSet(VECTORS, VECTORS.values())
    probes = EmbeddingSet(VECTORS, VECTORS.values())
    pairs = columns((probe, ref, "s", "t", False, SETTING) for probe, ref in rows)
    with pytest.raises(error) as exc:
        batch_score(refs, probes, pairs, metric)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_batch_score_dimension_mismatch_comes_after_unknown_ids():
    refs = EmbeddingSet(["r"], [[0.0, 0.0]])
    probes = EmbeddingSet(["p"], [[1.0, 0.0, 0.0]])
    pairs = columns([("p", "r", "s", "t", False, SETTING), ("q", "r", "s", "t", False, SETTING)])
    with pytest.raises(ContractError, match=r"^dimension mismatch: 'r' has 2, 'p' has 3$"):
        batch_score(refs, probes, pairs, "cosine")
    pairs = columns([("p", "x", "s", "t", False, SETTING)])
    with pytest.raises(UnknownEntityError, match="'x'"):
        batch_score(refs, probes, pairs, "cosine")


@pytest.mark.parametrize(
    "metric, x, y, words",
    [
        ("cosine", [1e200, 0.0], [1e200, 0.0], "squared norm of embedding 'x'"),  # true cosine 1.0
        ("cosine", [1e300, 1e300], [1.0, 2.0], "squared norm of embedding 'x'"),  # true cosine 0.949
        ("euclidean_posterior", [1e300, 1e300], [-1e300, -1e300], "squared distance"),  # 0.0, outside (0, 1]
    ],
)
def test_float_overflow_is_a_contract_error(metric, x, y, words):
    # unguarded, float64 overflow gives each of these a wrong score
    score = score_cosine if metric == "cosine" else score_euclidean
    with pytest.raises(ContractError, match=words):
        score(x, y)


def test_load_embeddings_jsonl(tmp_path):
    f = tmp_path / "embs.jsonl"
    rows = [
        {"entity_id": "e1", "role": "reference", "vector": [1.0, 2.0]},
        {"entity_id": "e2", "role": "reference", "vector": [3.0, 4.0]},
    ]
    f.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    es = load_embeddings(f, "reference")
    assert es.ids == ("e1", "e2")
    assert es.matrix.shape == (2, 2)
    assert es.matrix[es.entries["e2"]].tolist() == [3.0, 4.0]
    assert not es.matrix.flags.writeable

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"entity_id": "e1"\n', encoding="utf-8")
    with pytest.raises(ParseError, match=r"bad\.jsonl:1"):
        load_embeddings(bad, "reference")

    mixed = tmp_path / "mixed.jsonl"
    rows.append({"entity_id": "e3", "role": "reference", "vector": [1.0]})
    mixed.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="dimension"):
        load_embeddings(mixed, "reference")

    for name, text, message in [
        ("dup", "".join(json.dumps({**r, "entity_id": "r1"}) + "\n" for r in rows[:2]), "duplicate entity_id 'r1'"),
        ("empty", "\n \n", "embedding set is empty"),
    ]:
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_embeddings(path, "reference")
        assert (str(exc.value), exc.value.exit_code) == (f"{path}: {message}", 3)


def test_embedding_validation(tmp_path):
    f = tmp_path / "e.jsonl"
    good = {"entity_id": "g", "role": "probe", "vector": [1.0]}
    for entry, message in [
        ({"role": "gallery", "vector": [1.0]},
         "embedding: 'role' must be one of ['reference', 'probe'], got 'gallery'"),
        ({"role": None, "vector": [1.0]}, "embedding: 'role' must be one of ['reference', 'probe'], got None"),
        ({"vector": [1.0]}, "embedding: missing key 'role'"),
        ({"role": "probe", "vector": []}, "embedding: 'vector' must have at least 1 entry, got []"),
        ({"role": "probe", "vector": [math.nan]}, "embedding: vector entry nan must be a finite number, got nan"),
        ({"role": "probe", "vector": [1.0, 10**400]},
         f"embedding: vector entry {10**400} must be a finite number, got {10**400}"),
        ({"role": "probe", "vector": [True, 0.0]}, "embedding: vector entry True must be a finite number, got True"),
        ({"role": "reference", "vector": [1.0]}, "role must be 'probe' in a file of probes, got 'reference'"),
    ]:
        f.write_text(json.dumps(good) + "\n" + json.dumps({"entity_id": "e", **entry}) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_embeddings(f, "probe")
        assert str(exc.value) == f"{f}:2: {message}"


@pytest.mark.parametrize("entity_id", ["null", "1", "1.0", "true", "[1]", '{"id": "e"}'])
def test_an_entity_id_that_is_not_a_string_is_a_parse_error(tmp_path, entity_id):
    """``1`` would otherwise load as the id ``"1"`` and ``null`` as ``"None"``."""
    f = tmp_path / "e.jsonl"
    f.write_text(
        '{"entity_id": "1", "role": "probe", "vector": [1.0]}\n'
        f'{{"entity_id": {entity_id}, "role": "probe", "vector": [2.0]}}\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        load_embeddings(f, "probe")
    assert str(exc.value) == f"{f}:2: embedding: 'entity_id' must be a string, got {json.loads(entity_id)!r}"
