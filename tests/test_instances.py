"""Round-trips and schema validation for the versioned JSON documents."""
import json
from fractions import Fraction

import pytest

from weakfront.cones import Cone, LinOp
from weakfront.instances import (
    CONVEX_SHIPPED,
    InstanceFormatError,
    MapPair,
    build_linear_pair,
    cone_from_literal,
    cone_to_literal,
    data_dir,
    dump_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_pair,
    load_points,
    pair_from_json,
    pair_to_json,
    points_from_json,
    points_to_json,
    shipped_instance,
    write_shipped_data,
)
from weakfront.order_sets import FiniteVecSet


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


def test_instance_roundtrip_is_exact():
    for name in ("E1", "E2", "gap_toy"):
        P = shipped_instance(name)
        doc = json.loads(dump_json(instance_to_json(P)))
        Q = instance_from_json(doc)
        assert Q.C == P.C
        assert Q.F.samples == P.F.samples
        assert Q.G.samples == P.G.samples
        assert Q.K == P.K and Q.S == P.S
        assert Q.hints_T == P.hints_T and Q.hints_L == P.hints_L
        assert Q.flags == P.flags


def test_fractions_survive_the_text_form():
    P = shipped_instance("E1")
    text = dump_json(instance_to_json(P))
    assert '"1/2"' in text  # the sample grid has half-integer points
    Q = instance_from_json(json.loads(text))
    assert (Fraction(1, 2),) in Q.F.domain()


def test_pair_roundtrip():
    pair = build_linear_pair(2)
    doc = json.loads(dump_json(pair_to_json(pair)))
    back = pair_from_json(doc)
    assert back.name == pair.name
    assert back.F1.samples == pair.F1.samples
    assert back.F2.samples == pair.F2.samples
    assert back.K == pair.K and back.hints_L == pair.hints_L


def test_points_roundtrip_with_and_without_cone():
    M = FiniteVecSet([(Fraction(1, 3), Fraction(-2)), (Fraction(0), Fraction(0))])
    K = Cone.orthant(2)
    M2, K2 = points_from_json(json.loads(dump_json(points_to_json(M, K))))
    assert M2 == M and K2 == K
    M3, K3 = points_from_json(points_to_json(M))
    assert M3 == M and K3 is None


def test_cone_literal_roundtrip():
    K = Cone(
        normals=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(2))),
        generators=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))),
        interior_witness=(Fraction(1), Fraction(1)),
    )
    assert cone_from_literal(cone_to_literal(K)) == K


def test_schema_errors_have_distinct_messages():
    with pytest.raises(InstanceFormatError, match="JSON object"):
        instance_from_json([1, 2])
    with pytest.raises(InstanceFormatError, match="unsupported format"):
        instance_from_json({"format": 2})
    with pytest.raises(InstanceFormatError, match="missing required field"):
        instance_from_json({"format": 1})
    good = instance_to_json(shipped_instance("E1"))
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
    doc = pair_to_json(build_linear_pair(1))
    doc["hints"]["L"] = [[[1]]]
    with pytest.raises(InstanceFormatError, match=r"hints\['L'\]\[0\] is 1x1, expected 2x1"):
        pair_from_json(doc)

def test_file_errors(tmp_path):
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load_instance(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        load_instance(bad)


def test_shipped_files_match_the_builders(tmp_path):
    # the checked-in data files are exactly what the builders write
    written = write_shipped_data(tmp_path)
    assert len(written) == 16
    for path in written:
        rel = path.relative_to(tmp_path)
        shipped = data_dir() / rel
        assert path.read_text() == shipped.read_text(), rel
    # and loaders accept every shipped file
    for name in ("E1", "E2", "E3", "E4", "E5", "gap_toy"):
        load_instance(data_dir() / f"{name}.json")
    for i in range(1, 11):
        load_pair(data_dir() / "pairs" / f"pair{i:02d}.json")


def test_write_shipped_data_is_idempotent(tmp_path):
    first = {p: p.read_text() for p in write_shipped_data(tmp_path)}
    second = {p: p.read_text() for p in write_shipped_data(tmp_path)}
    assert first == second


def test_build_linear_pair_is_deterministic():
    a, b = build_linear_pair(3), build_linear_pair(3)
    assert a.F1.samples == b.F1.samples and a.hints_L == b.hints_L
    with pytest.raises(ValueError):
        build_linear_pair(0)


def test_pair_requires_shared_domain():
    pair = build_linear_pair(1)
    short = pair.F1.restrict(pair.F1.domain()[:2])
    with pytest.raises(ValueError, match="share"):
        MapPair(short, pair.F2, pair.K)
