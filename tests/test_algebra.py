"""Semilattice classification, join-closed subsets, join homomorphisms,
and the universal property of the union closure."""

import pytest
from hypothesis import given, settings

from conftest import antichain, chain, diamond, posets, vee, wedge
from oracles import semilattice_homs_naive
from posetideals import (
    check_free_property,
    classify,
    fdown,
    ideals,
    semilattice_homs,
    subsemilattices,
    substructure,
)
from posetideals.algebra import LATTICE, LOWER, NEITHER, UPPER, induced_ideal_map
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
    assert S.join[1][2] == 3 and S.meet[1][2] == 0
    assert S.join[0][1] == 1 and S.meet[0][1] == 0
    assert S.join[3][3] == 3
    V = classify(vee())
    assert V.join[1][2] is None and V.meet[1][2] == 0
    assert V.is_lower and not V.is_upper and not V.is_lattice


@settings(max_examples=60)
@given(posets(5))
def test_classify_against_the_definitions(P):
    S = classify(P)
    for i in range(P.n):
        for j in range(P.n):
            ubs = [m for m in range(P.n) if P.leq(i, m) and P.leq(j, m)]
            least = [m for m in ubs if all(P.leq(m, u) for u in ubs)]
            assert S.join[i][j] == (least[0] if least else None)
            lbs = [m for m in range(P.n) if P.leq(m, i) and P.leq(m, j)]
            great = [m for m in lbs if all(P.leq(l, m) for l in lbs)]
            assert S.meet[i][j] == (great[0] if great else None)


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


def test_substructure_restricts():
    S = classify(diamond())
    sub = substructure(S, 0b1011)  # 0 < a < 1
    assert sub.kind == LATTICE and sub.base.n == 3


def test_semilattice_homs_counts():
    two = classify(chain(2))
    assert len(list(semilattice_homs(two, two))) == 3
    assert [h.image for h in semilattice_homs(two, two, require_surjective=True)] \
        == [(0, 1)]
    D = classify(diamond())
    # of the six isotone maps diamond -> 2, only upset {1} breaks joins
    assert len(list(semilattice_homs(D, two))) == 5
    assert all(h.image[3] == h.image[1] | h.image[2]
               for h in semilattice_homs(D, two))


def test_semilattice_homs_preserve_joins():
    A = classify(wedge())
    B = classify(diamond())
    seen = set()
    for h in semilattice_homs(A, B):
        seen.add(h.image)
        for x in range(3):
            for y in range(3):
                j = A.join[x][y]
                assert h.image[j] == B.join[h.image[x]][h.image[y]]
    assert (0, 0, 0) in seen and len(seen) > 1


def test_semilattice_homs_empty_edges():
    E = classify(Poset(0, ()))
    two = classify(chain(2))
    assert [h.image for h in semilattice_homs(E, two)] == [()]
    assert list(semilattice_homs(E, two, require_surjective=True)) == []
    assert list(semilattice_homs(two, E)) == []


def test_semilattice_homs_against_the_function_scan(corpus4):
    # pairs with |A| < |B| meet the surjective cut-off, the rest the leaf filter
    uppers = [S for S in (classify(P) for _, P in corpus4.items()) if S.is_upper]
    assert len(uppers) == 10
    for A in uppers:
        for B in uppers:
            for surjective in (False, True):
                got = {h.image for h in semilattice_homs(A, B, surjective)}
                assert got == semilattice_homs_naive(A, B, surjective)


def test_induced_ideal_map_pulls_back():
    P = diamond()
    F = ideals(P, True)
    images = {x: F.index(P.down[x]) for x in range(P.n)}
    # the principal ideals at or below index of down(a) pull back to down(a)
    target = F.index(P.down[1])
    ideal_mask = F.order.down[target]
    assert induced_ideal_map(P, P.full_mask, images, F, ideal_mask) == P.down[1]
    assert induced_ideal_map(P, P.full_mask, images, F, 0) == 0


def test_induced_ideal_map_can_leave_the_ideals():
    # a pulled-back ideal need not be directed
    from posetideals.poset import is_directed

    P = antichain(2)
    F = ideals(chain(1), True)  # two ideals: empty and the point
    images = {0: 1, 1: 1}      # both points sit over the one-element ideal
    full = induced_ideal_map(P, P.full_mask, images, F, 0b11)
    assert full == 0b11 and not is_directed(P, full)


def test_check_free_property_small():
    battery = [classify(Q) for Q in (chain(1), chain(2), chain(3), wedge(), diamond())]
    assert check_free_property(antichain(2), battery)
    assert check_free_property(vee(), battery)
    assert check_free_property(chain(2), battery)
    assert check_free_property(Poset(0, ()), battery)


def test_check_free_property_default_battery():
    assert check_free_property(antichain(2))


def test_fdown_joins_are_unions():
    G = fdown(vee())
    S = classify(G.order)
    assert S.is_upper
    for i in range(G.order.n):
        for j in range(G.order.n):
            k = S.join[i][j]
            assert G.sets[k] == G.sets[i] | G.sets[j]
