"""Downset and ideal families and the free join-closure."""

import random
from functools import cached_property

import pytest
from hypothesis import given, settings

from conftest import antichain, chain, diamond, posets, relabel, seeded_relabelings, vee
from oracles import (
    chain_downsets_naive,
    downsets_naive,
    fdown_naive,
    ideals_naive,
    inclusion_rows_pairwise,
    is_downset_naive,
    x_down_naive,
)
from posetideals import (
    CapacityExceeded,
    Poset,
    chain_ideals,
    downsets,
    generate_corpus,
    fdown,
    ideals,
    iterate_id,
    principal_embedding,
    x_down,
)
from posetideals import completions
from posetideals.morphisms import ISOMORPHISM, are_isomorphic
from posetideals.poset import adjoin_bounds, induced, render_elemset
from posetideals.verification import chains_battery


@settings(max_examples=60)
@given(posets(5))
def test_downsets_match_the_subset_scan(P):
    fam = downsets(P)
    assert set(fam.sets) == downsets_naive(P)
    assert list(fam.sets) == sorted(fam.sets)
    assert all(is_downset_naive(P, s) for s in fam.sets)


@settings(max_examples=60)
@given(posets(5))
def test_ideals_match_the_subset_scan(P):
    assert set(ideals(P, True).sets) == ideals_naive(P, True)
    assert set(ideals(P, False).sets) == ideals_naive(P, False)


@settings(max_examples=40)
@given(posets(5))
def test_chain_ideals_match_the_subset_scan(P):
    assert set(chain_ideals(P, True).sets) == chain_downsets_naive(P, True)
    assert set(chain_ideals(P, False).sets) == chain_downsets_naive(P, False)


def test_chain_ideals_match_the_subset_scan_on_the_corpus():
    # every n<=6 class and three seeded relabellings of each, so the fold
    # meets linear extensions in many index orders
    corpus = generate_corpus(6)
    for P in [P for _, P in corpus.items()] + seeded_relabelings(corpus, 3, 26):
        for include_empty in (True, False):
            assert set(chain_ideals(P, include_empty).sets) == \
                chain_downsets_naive(P, include_empty)


def test_chain_ideals_of_a_tall_chain():
    # 2^64 chain subsets, 65 closures: the fold visits each top once
    F = chain_ideals(chain(64), include_empty=True)
    assert F.sets == tuple((1 << k) - 1 for k in range(65))


def test_chain_ideals_coincide_with_ideals(corpus4):
    # nonempty directed downsets of a finite poset have a greatest element,
    # so both enumerations land on principal downsets plus the empty set
    for _, P in corpus4.items():
        assert chain_ideals(P, True).sets == ideals(P, True).sets


def test_family_frozen_examples():
    F = ideals(diamond(), True)
    assert F.sets == (0, 0b0001, 0b0011, 0b0101, 0b1111)
    assert F.kind == "ideal"
    G = fdown(diamond())
    assert G.sets == (0b0001, 0b0011, 0b0101, 0b0111, 0b1111)
    assert downsets(diamond()).sets == (0, 0b0001, 0b0011, 0b0101, 0b0111, 0b1111)


def test_family_poset_protocol():
    F = ideals(diamond(), True)
    assert len(F) == 5
    assert F.index(0b0011) == 2 and 0b0011 in F and 0b0010 not in F
    with pytest.raises(KeyError):
        F.index(0b0010)
    # inclusion order reflects subsetness and keeps display labels
    assert F.order.leq(F.index(0), F.index(0b1111))
    assert F.order.labels[F.index(0b0011)] == "{a,0}"


def corpus6_and_relabelings():
    """Every n<=6 class, then two seeded relabellings of each."""
    rng = random.Random(7)
    classes = [P for _, P in generate_corpus(6).items()]
    out = list(classes)
    for P in classes:
        for _ in range(2):
            perm = list(range(P.n))
            rng.shuffle(perm)
            out.append(relabel(P, perm))
    return out


def test_downset_rows_match_the_pairwise_order():
    # every family kind, all ordered by the one builder
    X = chains_battery(3)
    for P in corpus6_and_relabelings():
        for fam in (downsets(P), ideals(P, True), ideals(P, False),
                    chain_ideals(P, True), chain_ideals(P, False), fdown(P),
                    x_down(P, X)):
            assert fam.order.up == inclusion_rows_pairwise(fam.sets)
    fam = fdown(antichain(10))
    assert len(fam) == 1023
    assert fam.order.up == inclusion_rows_pairwise(fam.sets)


def eager(Q: Poset) -> Poset:
    """Q with its labels rendered into a plain tuple."""
    return Poset(Q.n, Q.up, None if Q.labels is None else tuple(Q.labels))


def test_lazy_labels_read_like_rendered_strings(corpus4):
    for _, P in corpus4.items():
        P = Poset(P.n, P.up, tuple(f"p{i}" for i in range(P.n)))
        for fam in (downsets(P), ideals(P, True), ideals(P, False)):
            rendered = tuple(render_elemset(P, s) for s in fam.sets)
            labels = fam.order.labels
            assert tuple(labels) == rendered and list(labels) == list(rendered)
            assert len(labels) == len(rendered) and labels == rendered
            assert hash(labels) == hash(rendered)
            assert [fam.order.label(i) for i in range(len(fam))] == list(rendered)
            assert fam.order == eager(fam.order)
            assert hash(fam.order) == hash(eager(fam.order))
        # labels of labels: each stage renders over the stage before it
        stage1 = ideals(P, False).order
        stage2 = ideals(eager(stage1), False)
        assert tuple(iterate_id(P, 2).labels) == tuple(
            render_elemset(eager(stage1), s) for s in stage2.sets)


def test_family_cap(monkeypatch):
    monkeypatch.setattr(completions, "FAMILY_CAP", 10)
    with pytest.raises(CapacityExceeded):
        downsets(antichain(5))
    monkeypatch.setattr(completions, "FAMILY_CAP", 3)
    with pytest.raises(CapacityExceeded):
        fdown(antichain(5))
    # the cap counts members: three points have 7 nonempty unions, and the
    # empty one is not a member
    monkeypatch.setattr(completions, "FAMILY_CAP", 7)
    assert len(fdown(antichain(3))) == 7
    monkeypatch.setattr(completions, "FAMILY_CAP", 6)
    with pytest.raises(CapacityExceeded):
        fdown(antichain(3))


@settings(max_examples=40)
@given(posets(4))
def test_fdown_matches_union_closure(P):
    assert set(fdown(P).sets) == fdown_naive(P)


def test_fdown_is_join_closed_and_generated():
    P = vee()
    G = fdown(P)
    for a in G.sets:
        for b in G.sets:
            assert (a | b) in set(G.sets)
    for x in range(P.n):
        assert P.down[x] in set(G.sets)
    assert fdown(Poset(0, ())).sets == ()


def test_iterate_id_fixes_finite_posets():
    P = diamond()
    assert iterate_id(P, 0) is P
    assert are_isomorphic(iterate_id(P, 1), P)
    assert are_isomorphic(iterate_id(P, 3), P)
    with pytest.raises(ValueError):
        iterate_id(P, -1)


@settings(max_examples=40)
@given(posets(5))
def test_principal_embedding_is_an_isomorphism(P):
    emb = principal_embedding(P)
    assert emb.kind == ISOMORPHISM
    fam = ideals(P, False)
    assert all(fam.sets[emb.image[x]] == P.down[x] for x in range(P.n))


def test_ideal_family_is_base_plus_bottom(corpus4):
    for _, P in corpus4.items():
        # adjoin_bounds puts the top last, so the first n + 1 are P and a bottom
        bottomed, _ = induced(adjoin_bounds(P), (1 << P.n + 1) - 1)
        assert are_isomorphic(ideals(P, True).order, bottomed)


def test_x_down_matches_the_function_scan():
    X = [chain(1), chain(2), vee()]
    for P in (diamond(), vee(), chain(3), antichain(3)):
        assert set(x_down(P, X).sets) == x_down_naive(P, X)
    assert x_down(diamond(), []).sets == ()


def test_x_down_finds_each_battery_chains_covers_once(monkeypatch, corpus5):
    # lower covers are cached on each source poset, so a sweep over the
    # corpus walks each member of X once, and never a target
    computed = []
    real = Poset.lower_covers.func
    spy = cached_property(lambda P: computed.append(P) or real(P))
    spy.__set_name__(Poset, "lower_covers")
    monkeypatch.setattr(Poset, "lower_covers", spy)
    battery = chains_battery(3)
    for _, P in corpus5.items():
        x_down(P, battery)
    assert len(computed) == len(battery)
    assert all(Q is C for Q, C in zip(computed, battery))


def test_x_down_with_chains_gives_nonempty_principal_downsets():
    X = [chain(1), chain(2), chain(3)]
    P = diamond()
    assert set(x_down(P, X).sets) == {P.down[x] for x in range(P.n)}
