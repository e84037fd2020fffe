"""JSON round trips, relabeling-invariant hashing, DOT output."""

import json

import pytest
from hypothesis import given, settings

from conftest import antichain, chain, diamond, relabelings
from posetideals import Poset, are_isomorphic, ideals
from posetideals.morphisms import MonotoneMap, map_kind
from posetideals.serialize import (
    family_order_from_json,
    family_to_json,
    invariant_hash,
    json_dumps,
    map_to_json,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)


def test_poset_round_trip_with_labels():
    P = diamond()
    doc = poset_to_json(P)
    assert doc == {"n": 4, "leq": [[0, 1], [0, 2], [1, 3], [2, 3]],
                   "labels": ["0", "a", "b", "1"]}
    Q = poset_from_json(doc)
    assert Q.up == P.up and Q.labels == P.labels


def test_poset_round_trip_corpus(corpus4):
    for _, P in corpus4.items():
        assert poset_from_json(poset_to_json(P)).up == P.up


def test_poset_from_json_closes_transitively():
    Q = poset_from_json({"n": 3, "leq": [[0, 1], [1, 2]]})
    assert Q.leq(0, 2)


def test_poset_from_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        poset_from_json({"n": -1})
    with pytest.raises(ValueError):
        poset_from_json({"n": 2, "leq": [[0, 5]]})
    with pytest.raises(Exception):
        poset_from_json({"n": 2, "leq": [[0, 1], [1, 0]]})  # a cycle


def test_family_round_trip():
    F = ideals(diamond(), True)
    doc = family_to_json(F)
    assert doc["kind"] == "ideal" and doc["base_n"] == 4
    assert doc["sets"] == [0, 1, 3, 5, 15]
    order = family_order_from_json(doc)
    assert are_isomorphic(order, F.order)
    assert order.labels == ("∅", "{0}", "{1,0}", "{2,0}", "{3,2,1,0}")


def test_json_dumps_is_canonical():
    assert json_dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
    doc = poset_to_json(diamond())
    assert json_dumps(doc) == json_dumps(json.loads(json_dumps(doc)))


@settings(max_examples=60)
@given(relabelings(5))
def test_invariant_hash_is_iso_invariant(triple):
    P, Q, _ = triple
    assert invariant_hash(P) == invariant_hash(Q)


def test_invariant_hash_separates_small_shapes(corpus4):
    # a hash clash would not be wrong, but on this corpus there is none
    hashes = [invariant_hash(P) for _, P in corpus4.items()]
    assert len(set(hashes)) == len(hashes)
    assert invariant_hash(chain(2)) != invariant_hash(antichain(2))


def test_invariant_hash_pins():
    # the empty poset hashes its single empty round: a refinement that
    # recorded a second one would change this digest
    assert invariant_hash(Poset(0, ())) == (
        "8fc8e2570f1b820836c6f8d5a8aa94dac5e556719357b3e20f3f402f1b4b8f19")
    assert invariant_hash(Poset(1, (1,))) == (
        "a0fbd5c5a9ce3c75c8ee5e4f8683a15407fe071309ee4329e266d39bd2fc8465")
    # the three-chain and the diamond take a round that only confirms
    # their colours: a fingerprint that dropped it would change these
    assert invariant_hash(chain(3)) == (
        "373b715f4972e383c52092d90e0d6d348197c295e269d7c93feceba404cef1f4")
    assert invariant_hash(diamond()) == (
        "f1bb61f3e4378a1bae43d5b7ae19299744cefda89d3cee293ca818f276d34cb5")


def test_map_to_json():
    P = diamond()
    f = MonotoneMap(P, P, (0, 1, 2, 3), map_kind(P, P, (0, 1, 2, 3)))
    doc = map_to_json(f)
    assert doc["kind"] == "isomorphism" and doc["image"] == [0, 1, 2, 3]
    assert doc["source"] == poset_to_json(P)
    assert doc["source_hash"] == doc["target_hash"] == invariant_hash(P)


def test_poset_to_dot():
    dot = poset_to_dot(diamond())
    assert dot.startswith("digraph poset {\n  rankdir=BT;\n")
    assert '1 [label="a"];' in dot
    assert "  0 -> 1;\n" in dot and "  2 -> 3;\n" in dot
    assert dot.endswith("}\n")
