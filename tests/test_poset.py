"""Core order structure: validation, closures, predicates, constructions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    antichain,
    chain,
    diamond,
    posets,
    relabel,
    relabelings,
    seeded_relabelings,
    vee,
    wedge,
)
from oracles import (
    covers_naive,
    depths_naive,
    heights_naive,
    is_directed_naive,
    is_downset_naive,
    least_naive,
    refine_colours_reference,
    transitive_closure_naive,
)
from posetideals import (
    CapacityExceeded,
    Poset,
    PosetError,
    adjoin_bounds,
    direct_product,
    disjoint_union,
    from_up_rows,
    generate_corpus,
    hasse_covers,
)
from posetideals.poset import (
    LABEL_CAP,
    NotAntisymmetric,
    NotReflexive,
    NotTransitive,
    bits,
    bits_desc,
    down_closure,
    induced,
    is_directed,
    least_in,
    linear_extension,
    mask_of,
    maximal_elements,
    minimal_elements,
    refine_colours,
    render_elemset,
    transitive_closure,
    validate_up_rows,
)


def test_validate_poset_accepts_diamond():
    P = validate_up_rows([0b1111, 0b1010, 0b1100, 0b1000], labels=("0", "a", "b", "1"))
    assert P.up == diamond().up and P.labels == diamond().labels


def test_validate_poset_rejects_each_axiom():
    with pytest.raises(NotReflexive):
        validate_up_rows([0])
    with pytest.raises(NotAntisymmetric):
        validate_up_rows([0b11, 0b11])
    with pytest.raises(NotTransitive):
        validate_up_rows([0b011, 0b110, 0b100])
    # all three are PosetErrors, so one except clause can catch the lot
    with pytest.raises(PosetError):
        validate_up_rows([0b11, 0b11])


def test_validate_up_rows_bounds():
    with pytest.raises(ValueError):
        validate_up_rows([0b11, 0b110])  # row 1 mentions element 2
    with pytest.raises(ValueError):
        validate_up_rows([0b1], labels=("a", "b"))


def test_capacity_envelope():
    with pytest.raises(CapacityExceeded):
        from_up_rows([1 << i for i in range(65)])
    assert antichain(64).n == 64


def test_leq_lt_label():
    P = diamond()
    assert P.leq(0, 3) and P.leq(1, 1) and not P.leq(1, 2)
    assert P.lt(0, 1) and not P.lt(1, 1)
    assert P.label(1) == "a"
    assert Poset(1, (1,)).label(0) == "0"


def test_bit_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert list(bits_desc(0b1011)) == [3, 1, 0]
    assert mask_of([0, 3]) == 0b1001
    assert mask_of([]) == 0


def test_closures_and_predicates():
    P = diamond()
    assert down_closure(P, 0b0010) == 0b0011  # {a} pulls in 0
    assert is_downset_naive(P, 0b0111) and not is_downset_naive(P, 0b0010)
    assert is_directed(P, 0) and is_directed(P, 0b1110)  # bound is inside
    assert not is_directed(P, 0b0110)  # the bound of {a,b} is not a member
    assert not is_directed(vee(), 0b110)


@settings(max_examples=60)
@given(posets(5), st.integers(min_value=0))
def test_predicates_match_oracles(P, seed):
    s = seed % (1 << P.n) if P.n else 0
    assert is_downset_naive(P, down_closure(P, s))
    assert down_closure(P, down_closure(P, s)) == down_closure(P, s)
    assert is_directed(P, s) == is_directed_naive(P, s)


def test_mask_primitives_on_every_subset_of_the_corpus(corpus5):
    # every class with n <= 5 as generated and under one seeded relabelling,
    # every subset, not only downsets
    rng = random.Random(5)
    cases = []
    for _, P in corpus5.items():
        cases += [P, relabel(P, rng.sample(range(P.n), P.n))]
    assert len(cases) == 2 * 88
    for P in cases:
        assert P.down == tuple(sum(1 << i for i in range(P.n) if P.leq(i, j))
                               for j in range(P.n))
        for s in range(1 << P.n):
            assert is_directed(P, s) == is_directed_naive(P, s), (P.up, s)
            assert least_in(P.up, s) == least_naive(P, s), (P.up, s)


@settings(max_examples=60)
@given(posets(5))
def test_covers_regenerate_the_order(P):
    assert set(hasse_covers(P)) == covers_naive(P)
    # reflexive-transitive closure of the covers gives leq back
    rows = [1 << i for i in range(P.n)]
    for i, j in hasse_covers(P):
        rows[i] |= 1 << j
    assert tuple(transitive_closure_naive(rows)) == P.up


def test_lower_covers_against_the_naive_covers(corpus6):
    cases = [P for _, P in corpus6.items()] + seeded_relabelings(corpus6, 3, seed=5)
    for P in cases:
        naive = covers_naive(P)
        assert P.lower_covers == tuple(tuple(i for i in range(P.n) if (i, j) in naive)
                                       for j in range(P.n)), P.up
        assert hasse_covers(P) == tuple(sorted(naive))


relations = st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))


@settings(max_examples=150)
@given(relations)
def test_transitive_closure_matches_the_pairwise_fixpoint(rows):
    closed = transitive_closure(rows)
    assert closed == transitive_closure_naive(rows)
    # cycles survive the closure; antisymmetry is the validator's check
    n = len(rows)
    refl = [row | 1 << i for i, row in enumerate(closed)]
    cyclic = any(refl[i] >> j & 1 and refl[j] >> i & 1
                 for i in range(n) for j in range(i + 1, n))
    if cyclic:
        with pytest.raises(NotAntisymmetric):
            validate_up_rows(refl)
    else:
        assert validate_up_rows(refl).up == tuple(refl)


@settings(max_examples=60)
@given(posets(5))
def test_least_in_matches_the_definition(P):
    for s in range(1 << P.n):
        assert least_in(P.up, s) == least_naive(P, s)
        assert least_in(P.down, s) == least_naive(Poset(P.n, P.down), s)


@settings(max_examples=60)
@given(posets(5))
def test_dual_is_an_involution(P):
    # swapping up- and down-rows reverses the order
    D = Poset(P.n, P.down)
    assert D.down == P.up
    assert all(P.leq(i, j) == D.leq(j, i) for i in range(P.n) for j in range(P.n))
    assert minimal_elements(P) == maximal_elements(D)


def test_disjoint_union_and_bounds():
    U = disjoint_union([chain(2), chain(1)])
    assert U.n == 3 and U.leq(0, 1) and not U.leq(0, 2) and not U.leq(2, 0)
    B = adjoin_bounds(U)  # bottom lands at index 3, top at 4
    assert B.n == 5
    assert minimal_elements(B) == 1 << 3 and maximal_elements(B) == 1 << 4
    assert B.leq(0, 4) and B.leq(3, 2) and B.leq(0, 1) and not B.leq(1, 2)
    assert adjoin_bounds(diamond()).labels == ("0", "a", "b", "1", "bot", "top")
    E = adjoin_bounds(Poset(0, ()))
    assert E.up == (0b11, 0b10) and E.labels is None


def test_direct_product_orders_componentwise():
    P = direct_product(chain(2), chain(2))
    assert P.n == 4
    # pair (i, j) is encoded as i * 2 + j
    for a in range(4):
        for b in range(4):
            expect = (a // 2 <= b // 2) and (a % 2 <= b % 2)
            assert P.leq(a, b) == expect
    from posetideals.morphisms import are_isomorphic

    assert are_isomorphic(P, diamond())


def test_induced_keeps_the_relation():
    P, elems = induced(diamond(), 0b1110)  # drop the bottom
    assert P.n == 3 and elems == (1, 2, 3)
    assert P.up == wedge().up


@settings(max_examples=40)
@given(posets(5))
def test_linear_extension_is_topological(P):
    ext = linear_extension(P)
    assert sorted(ext) == list(range(P.n))
    pos = {x: t for t, x in enumerate(ext)}
    assert all(pos[i] <= pos[j] for i in range(P.n) for j in range(P.n)
               if P.leq(i, j))


def test_heights_match_the_longest_chains():
    assert Poset(0, ()).height == -1
    rng = random.Random(5)
    for _, P in generate_corpus(6).items():
        if P.n == 0:
            continue
        h = P.height
        assert h == max(heights_naive(P))
        perm = list(range(P.n))
        rng.shuffle(perm)
        assert relabel(P, perm).height == h


def test_the_peel_finds_the_bottoms_of_longest_chains(corpus6):
    # a mask that is too small would let cor23 settle an x that the height
    # bound does not settle, and cor23 would still report vacuous
    assert Poset(0, ()).longest_chain_bottoms == 0
    cases = [P for _, P in corpus6.items()] + seeded_relabelings(corpus6, 3, seed=11)
    for P in cases:
        h, bottoms = P.height, P.longest_chain_bottoms
        depths = depths_naive(P)
        assert bottoms == mask_of(x for x in range(P.n) if depths[x] == h)
        for x in range(P.n):
            assert (induced(P, P.up[x])[0].height < h) == (not bottoms >> x & 1)
        assert h == max(heights_naive(P), default=-1)


def test_refine_colours_against_the_reference(corpus6):
    # the loop stops at the round that confirms the colours, and round 0
    # is built from two counts; the yielded tables are the reference's
    # rounds and the last colours its colours, down to the empty poset's
    # one empty round
    assert list(refine_colours(Poset(0, ()))) == [([], [])]
    cases = [Poset(0, ()), Poset(1, (1,))] + seeded_relabelings(corpus6, 3, seed=7)
    for P in cases:
        rounds = list(refine_colours(P))
        assert ([table for _, table in rounds], rounds[-1][0]) == \
            refine_colours_reference(P)[::-1]


def test_render_elemset():
    P = diamond()
    assert render_elemset(P, 0) == "∅"
    assert render_elemset(P, 0b0011) == "{a,0}"
    assert render_elemset(chain(3), 0b111) == "{2,1,0}"


def test_render_elemset_stops_at_the_label_cap():
    # "{" + label + "}" is exactly LABEL_CAP characters, then one more
    fits = from_up_rows([1], labels=("x" * (LABEL_CAP - 2),))
    assert len(render_elemset(fits, 1)) == LABEL_CAP
    over = from_up_rows([1], labels=("x" * (LABEL_CAP - 1),))
    with pytest.raises(CapacityExceeded):
        render_elemset(over, 1)
    # the sum over members counts, each with its separator
    halves = from_up_rows([1, 2], labels=("x" * (LABEL_CAP // 2),) * 2)
    with pytest.raises(CapacityExceeded):
        render_elemset(halves, 0b11)
    assert len(render_elemset(halves, 0b01)) == LABEL_CAP // 2 + 2


@settings(max_examples=40)
@given(relabelings(4))
def test_relabeling_preserves_degree_data(triple):
    P, Q, perm = triple
    assert sorted(m.bit_count() for m in P.up) == sorted(m.bit_count() for m in Q.up)
    assert all(P.leq(i, j) == Q.leq(perm[i], perm[j])
               for i in range(P.n) for j in range(P.n))
