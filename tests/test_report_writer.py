"""The report's JSON writer against the stdlib: ``report.dump_json`` must
write ``json.dumps(doc, indent=2, sort_keys=True)`` character for character,
on generated documents and on every golden report."""

import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrogeo.report import CheckResult, dump_json

DATA = Path(__file__).resolve().parent / "data"


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# leaves come as (plain, given) pairs: the stdlib oracle reads the plain
# value, the writer the given one, which may be the numpy scalar of it
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1]
EDGE_INTS = [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**80, 0, -1]
EDGE_TEXT = ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é", "☃", "\U0001d11e", "a b", ""]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
ints = st.integers(-(2**80), 2**80) | st.sampled_from(EDGE_INTS)
texts = st.text(max_size=8) | st.sampled_from(EDGE_TEXT)


def _with_numpy(value, cast, fits=lambda v: True):
    pairs = [(value, value)]
    if fits(value):
        pairs.append((value, cast(value)))
    return st.sampled_from(pairs)


leaves = st.one_of(
    floats.flatmap(lambda x: _with_numpy(x, np.float64)),
    ints.flatmap(lambda n: _with_numpy(n, np.int64, lambda v: -(2**63) <= v < 2**63)),
    st.booleans().flatmap(lambda b: _with_numpy(b, np.bool_)),
    st.just((None, None)),
    texts.map(lambda s: (s, s)),
)


def _containers(children):
    lists = st.tuples(st.lists(children, max_size=4), st.booleans()).map(
        lambda t: ([a for a, _ in t[0]], (tuple if t[1] else list)(b for _, b in t[0]))
    )
    dicts = st.dictionaries(texts, children, max_size=4).map(
        lambda d: ({k: a for k, (a, _) in d.items()}, {k: b for k, (_, b) in d.items()})
    )
    return lists | dicts


documents = st.recursive(leaves, _containers, max_leaves=40)


@given(documents)
@settings(max_examples=200, deadline=None)
def test_the_writer_writes_what_the_stdlib_writes(pair):
    plain, given_doc = pair
    assert dump_json(given_doc) == oracle(plain)


@pytest.mark.parametrize("value", EDGE_FLOATS + EDGE_INTS + EDGE_TEXT + [True, False, None])
def test_a_leaf_alone(value):
    assert dump_json(value) == oracle(value)


def test_empty_and_nested_containers():
    doc = {"a": [], "b": {}, "c": [[], [{}], {"x": []}], "": {"": [[[]]]}}
    assert dump_json(doc) == oracle(doc)
    assert dump_json([]) == "[]" and dump_json({}) == "{}"


def test_deep_nesting():
    doc = [0.5]
    for k in range(40):
        doc = {f"k{k}": doc, "z": []} if k % 2 else [doc, k]
    assert dump_json(doc) == oracle(doc)


def test_keys_are_written_as_to_dict_writes_them():
    # non-string keys become str(key), then sort as strings
    doc = {10: "a", 9: np.float64(1.5), (1, 2): None}
    assert dump_json(doc) == oracle({"10": "a", "9": 1.5, "(1, 2)": None})
    mixed = {1: 1, "b": 2, True: 3, None: 4}
    assert dump_json(mixed) == oracle({str(k): v for k, v in mixed.items()})


def test_subclasses_of_the_leaf_types():
    class Name(str):
        pass

    class Count(int):
        pass

    class Ratio(float):
        pass

    doc = {"s": Name('a"b'), "n": Count(7), "r": Ratio(0.1), "nan": Ratio("nan")}
    assert dump_json(doc) == oracle({"s": 'a"b', "n": 7, "r": 0.1, "nan": math.nan})


def test_an_unserializable_value_raises():
    with pytest.raises(TypeError):
        dump_json({"x": object()})
    with pytest.raises(TypeError):
        dump_json([b"bytes"])


def test_a_record_is_written_as_its_dict_view():
    rec = CheckResult(
        "x_d1_y",
        "PASS",
        residual=np.float64(1e-12),
        tolerance=1e-8,
        claim="a claim",
        config={"d": np.int64(1), "lams": (-2.0, -1.0)},
        samples=np.int64(5),
        seed=7,
        extra={"escapes": np.int64(0), "holds": np.bool_(True), "worst": [np.float64(0.5)]},
    )
    assert dump_json(rec) == oracle(rec.to_dict())
    assert dump_json({"checks": [rec, rec]}) == oracle({"checks": [rec.to_dict()] * 2})


def test_a_call_leaves_no_garbage_cycle():
    # the parts of a report go with the call that wrote them, not at the
    # next cyclic collection: a warm run writes many reports
    doc = {"checks": [{"extra": {"audit": [1.5, None]}, "name": "x"}] * 50}
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(20):
            dump_json(doc)
        with pytest.raises(TypeError):
            dump_json({"x": object()})
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_every_golden_report_is_rewritten_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert dump_json(json.loads(text)) + "\n" == text
