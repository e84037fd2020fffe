"""Semilattice classification, join-closed subsets, join homomorphisms,
and the universal property of the union closure."""

import pytest
from hypothesis import given, settings

from conftest import antichain, chain, diamond, posets, vee, wedge
from oracles import free_property_naive, join_table_naive, members, semilattice_homs_naive
from posetideals import (
    classify,
    fdown,
    semilattice_homs,
    subsemilattices,
    substructure,
)
from posetideals.algebra import LATTICE, LOWER, NEITHER, UPPER
from posetideals.poset import Poset


def test_classify_named_shapes():
    assert classify(diamond()).kind == LATTICE
    assert classify(chain(4)).kind == LATTICE
    assert classify(vee()).kind == LOWER
    assert classify(wedge()).kind == UPPER
    assert classify(antichain(2)).kind == NEITHER
    assert classify(Poset(0, ())).kind == LATTICE
    assert classify(chain(1)).kind == LATTICE


def test_classify_tables():
    S = classify(diamond())
    assert S.join[1][2] == 3 and S.join[0][1] == 1
    assert S.join[3][3] == 3
    V = classify(vee())
    assert V.join[1][2] is None
    assert V.is_lower and not V.is_upper and not V.is_lattice


def _assert_classify_matches_the_definitions(P):
    """The join table, and the kind from which pairs have a join and
    which have a meet."""
    S = classify(P)
    joins = meets = True
    for i in range(P.n):
        for j in range(P.n):
            ubs = [m for m in range(P.n) if P.leq(i, m) and P.leq(j, m)]
            least = [m for m in ubs if all(P.leq(m, u) for u in ubs)]
            assert S.join[i][j] == (least[0] if least else None)
            lbs = [m for m in range(P.n) if P.leq(m, i) and P.leq(m, j)]
            great = [m for m in lbs if all(P.leq(l, m) for l in lbs)]
            joins = joins and bool(least)
            meets = meets and bool(great)
    assert S.kind == {(True, True): LATTICE, (True, False): UPPER,
                      (False, True): LOWER, (False, False): NEITHER}[joins, meets]


@settings(max_examples=60)
@given(posets(5))
def test_classify_against_the_definitions(P):
    _assert_classify_matches_the_definitions(P)


def test_classify_against_the_definitions_on_the_corpus(corpus5):
    for _, P in corpus5.items():
        _assert_classify_matches_the_definitions(P)


def test_subsemilattices_of_the_diamond():
    S = classify(diamond())
    subs = list(subsemilattices(S))
    assert subs == sorted(subs)
    assert 0 in subs and all(1 << x in subs for x in range(4))
    # only {a,b} and {0,a,b} are missing: their join 1 falls outside
    assert len(subs) == 14
    assert 0b0110 not in subs and 0b0111 not in subs
    with pytest.raises(ValueError):
        list(subsemilattices(classify(vee())))


def test_subsemilattices_against_the_subset_scan(corpus4):
    # every join-closed subset of each upper semilattice with n <= 4, found
    # by scanning all subsets against the join table read off the order
    uppers = 0
    for _, P in corpus4.items():
        join = join_table_naive(P.n, P.leq)
        if any(j is None for row in join for j in row):
            continue
        uppers += 1
        closed = [m for m in range(1 << P.n)
                  if all(join[a][b] in members(m) for a in members(m) for b in members(m))]
        assert list(subsemilattices(classify(P))) == closed, P.up
    assert uppers == 10


def test_substructure_restricts():
    S = classify(diamond())
    sub = substructure(S, 0b1011)  # 0 < a < 1
    assert sub.kind == LATTICE and sub.base.n == 3


def test_semilattice_homs_counts():
    two = classify(chain(2))
    assert [h.image for h in semilattice_homs(two, two)] == [(0, 1)]
    D = classify(diamond())
    # of the six isotone maps diamond -> 2, upset {1} breaks joins and the
    # two constant maps are not onto
    assert len(list(semilattice_homs(D, two))) == 3
    assert all(h.image[3] == h.image[1] | h.image[2]
               for h in semilattice_homs(D, two))


def test_semilattice_homs_preserve_joins():
    A = classify(diamond())
    B = classify(chain(3))
    seen = set()
    for h in semilattice_homs(A, B):
        seen.add(h.image)
        for x in range(4):
            for y in range(4):
                j = A.join[x][y]
                assert h.image[j] == B.join[h.image[x]][h.image[y]]
    assert seen == {(0, 1, 2, 2), (0, 2, 1, 2)}


def test_semilattice_homs_empty_edges():
    E = classify(Poset(0, ()))
    two = classify(chain(2))
    assert [h.image for h in semilattice_homs(E, E)] == [()]
    assert list(semilattice_homs(E, two)) == []
    assert list(semilattice_homs(two, E)) == []


def test_semilattice_homs_against_the_function_scan(corpus4):
    # pairs with |A| < |B| meet the cut-off at the root, the rest the leaf filter
    uppers = [S for S in (classify(P) for _, P in corpus4.items()) if S.is_upper]
    assert len(uppers) == 10
    for A in uppers:
        for B in uppers:
            got = {h.image for h in semilattice_homs(A, B)}
            assert got == semilattice_homs_naive(A, B, True)


def test_check_free_property_small():
    battery = [classify(Q) for Q in (chain(1), chain(2), chain(3), wedge(), diamond())]
    assert free_property_naive(antichain(2), battery)
    assert free_property_naive(vee(), battery)
    assert free_property_naive(chain(2), battery)
    assert free_property_naive(Poset(0, ()), battery)


def test_check_free_property_default_battery(corpus4):
    # every class with n <= 3 against every upper semilattice with n <= 4
    battery = [S for S in (classify(Q) for _, Q in corpus4.items()) if S.is_upper]
    assert len(battery) == 10
    small = [P for _, P in corpus4.items() if P.n <= 3]
    assert len(small) == 9
    assert all(free_property_naive(P, battery) for P in small)


def test_fdown_joins_are_unions():
    G = fdown(vee())
    S = classify(G.order)
    assert S.is_upper
    for i in range(G.order.n):
        for j in range(G.order.n):
            k = S.join[i][j]
            assert G.sets[k] == G.sets[i] | G.sets[j]
