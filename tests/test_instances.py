"""Schema validation for the versioned JSON documents, and the integrity of
the shipped ones."""
import json
import re
from fractions import Fraction

import pytest

from weakfront.cones import Cone
from weakfront.instances import (
    CONVEX_SHIPPED,
    InstanceFormatError,
    MapPair,
    data_dir,
    dump_json,
    instance_from_json,
    load_instance,
    load_pair,
    pair_from_json,
    points_from_json,
    shipped_instance,
    shipped_pair,
)
from weakfront.numeric import encode_mat, mat_vec
from weakfront.order_sets import FiniteVecSet

from helpers import restricted

LOADERS = {"instance": load_instance, "pair": load_pair}


def _e1_doc() -> dict:
    return json.loads((data_dir() / "E1.json").read_text())


def test_shipped_names():
    for name in CONVEX_SHIPPED + ("gap_toy",):
        P = shipped_instance(name)
        assert P.C  # builds and validates
    with pytest.raises(KeyError):
        shipped_instance("E99")
    assert all(shipped_instance(n).slater_holds() for n in CONVEX_SHIPPED)
    # E2's objective is nonlinear by design; the rest satisfy the full
    # strong-duality hypotheses
    flagged = [n for n in CONVEX_SHIPPED if shipped_instance(n).theorem_flags()]
    assert flagged == ["E1", "E3", "E4", "E5"]


def test_fractions_survive_the_text_form():
    text = dump_json(_e1_doc())
    assert '"1/2"' in text  # the sample grid has half-integer points
    Q = instance_from_json(json.loads(text))
    assert (Fraction(1, 2),) in Q.F.pointset.points


def test_points_from_literal_documents_with_and_without_cone():
    points = [["1/3", -2], [0, 0], ["1/3", -2]]
    cone = {
        "normals": [[1, 0], [0, 1]],
        "generators": [[1, 0], [0, 1]],
        "interior_witness": [1, 1],
    }
    M, K = points_from_json({"format": 1, "kind": "set", "points": points, "K": cone})
    assert M == FiniteVecSet([(0, 0), (Fraction(1, 3), -2)])
    assert K == Cone.orthant(2)
    M2, K2 = points_from_json({"format": 1, "points": points})
    assert M2 == M and K2 is None
    with pytest.raises(InstanceFormatError, match="expected a 'set'"):
        points_from_json({"format": 1, "kind": "pair", "points": points})


def test_schema_errors_have_distinct_messages():
    with pytest.raises(InstanceFormatError, match="JSON object"):
        instance_from_json([1, 2])
    with pytest.raises(InstanceFormatError, match="unsupported format"):
        instance_from_json({"format": 2})
    with pytest.raises(InstanceFormatError, match="missing required field"):
        instance_from_json({"format": 1})
    good = _e1_doc()
    broken = dict(good, C=[999])
    with pytest.raises(InstanceFormatError, match="out of range"):
        instance_from_json(broken)
    broken = dict(good, dims={"n": 2, "m": 1, "p": 1})
    with pytest.raises(InstanceFormatError, match="disagrees"):
        instance_from_json(broken)
    broken = dict(good, F=[None] * len(good["F"]))
    with pytest.raises(InstanceFormatError, match="no finite samples"):
        instance_from_json(broken)
    with pytest.raises(InstanceFormatError, match="expected a 'pair'"):
        pair_from_json(good)


def test_pair_hints_of_the_wrong_shape_are_refused():
    doc = json.loads((data_dir() / "pairs" / "pair01.json").read_text())
    doc["hints"]["L"] = [[[1]]]
    with pytest.raises(InstanceFormatError, match=r"hints\['L'\]\[0\] is 1x1, expected 2x1"):
        pair_from_json(doc)


def test_pair_documents_with_t_hints_are_refused():
    """A pair has no positive operator, so T hints would have no effect."""
    doc = json.loads((data_dir() / "pairs" / "pair01.json").read_text())
    assert "T" not in doc["hints"]
    for hints_T in ([[[5, 7]]], []):
        doc["hints"]["T"] = hints_T
        with pytest.raises(InstanceFormatError, match=r"pair documents take no hints\['T'\]"):
            pair_from_json(doc)
    del doc["hints"]["T"]
    assert pair_from_json(doc).hints_L == shipped_pair(1).hints_L


def test_pair_documents_with_unknown_hints_keys_are_refused():
    doc = json.loads((data_dir() / "pairs" / "pair01.json").read_text())
    doc["hints"]["l"] = []
    with pytest.raises(InstanceFormatError, match="unknown hints key 'l'"):
        pair_from_json(doc)


def test_pair_and_set_documents_refuse_unknown_keys_and_wrong_dims():
    """A pair's dims are checked against F1, and a pair, a set and a cone
    literal refuse any key outside their schemas."""
    doc = json.loads((data_dir() / "pairs" / "pair06.json").read_text())
    assert pair_from_json(doc).F1.in_dim == doc["dims"]["n"] == 2
    for dims, message in (
        ({"n": 1, "m": 2}, r"dims.n/dims.m disagree with F1's points and values"),
        ({"n": 2, "m": 1}, r"dims.n/dims.m disagree with F1's points and values"),
        ({"n": 2, "m": 2, "p": 1}, r"unknown key 'p' in 'dims' \(expected one of n, m\)"),
        ({"n": 2}, r"'dims' must give positive integers n, m"),
    ):
        with pytest.raises(InstanceFormatError, match=message):
            pair_from_json(dict(doc, dims=dims))
    with pytest.raises(InstanceFormatError, match="missing required field 'dims'"):
        pair_from_json({k: v for k, v in doc.items() if k != "dims"})
    with pytest.raises(InstanceFormatError, match="unknown key 'hint' in a pair document"):
        pair_from_json(dict(doc, hint=doc["hints"]))
    points = {"format": 1, "kind": "set", "points": [[0, 0]]}
    with pytest.raises(InstanceFormatError, match="unknown key 'cone' in a set document"):
        points_from_json(dict(points, cone=doc["K"]))
    K = dict(doc["K"], witness=[1, 1])
    with pytest.raises(InstanceFormatError, match="unknown key 'witness' in 'K'"):
        points_from_json(dict(points, K=K))


def test_file_errors(tmp_path):
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load_instance(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        load_instance(bad)


SHIPPED_FILES = sorted(
    p.relative_to(data_dir()).as_posix() for p in data_dir().rglob("*.json")
)


def _readme_sections() -> set:
    """The document names in backticks in the headings of data/README.md."""
    text = (data_dir() / "README.md").read_text()
    return {
        name
        for heading in re.findall(r"^#+ .*$", text, re.M)
        for name in re.findall(r"`([^`]+\.json)`", heading)
    }


@pytest.mark.parametrize("rel", SHIPPED_FILES)
def test_shipped_document_integrity(rel):
    path = data_dir() / rel
    text = path.read_text()
    doc = json.loads(text)
    loaded = LOADERS[doc["kind"]](path)
    assert dump_json(doc) == text  # canonical text form
    assert rel in _readme_sections()
    for key in ("K", "S"):
        if key in doc:  # each cone literal is stored as the cone keeps it
            cone = getattr(loaded, key)
            assert doc[key]["normals"] == encode_mat(cone.normals)
            assert doc[key]["generators"] == encode_mat(cone.generators)


def test_readme_sections_name_shipped_documents():
    assert _readme_sections() <= set(SHIPPED_FILES)


def test_shipped_pairs_follow_the_spec():
    # data/README.md: the split hint is F1's own linear part, and odd
    # pairs use the orthant, even ones the skewed cone
    for index in range(1, 11):
        pair = shipped_pair(index)
        assert pair.name == f"pair{index:02d}"
        (A1,) = pair.hints_L
        b1 = pair.F1.value((Fraction(0),) * pair.F1.in_dim)
        for x, v in pair.F1.samples:
            assert v == tuple(a + b for a, b in zip(mat_vec(A1.entries, x), b1))
        assert (pair.K == Cone.orthant(2)) == (index % 2 == 1)
    for index in (0, 11):
        with pytest.raises(ValueError, match="1..10"):
            shipped_pair(index)


def test_pair_requires_shared_domain():
    pair = shipped_pair(1)
    short = restricted(pair.F1, pair.F1.pointset.points[:2])
    with pytest.raises(ValueError, match="share"):
        MapPair(short, pair.F2, pair.K)
