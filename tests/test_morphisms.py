"""Map search and classification, canonical forms, the ascending replay."""

import inspect
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings

from conftest import (
    antichain,
    chain,
    diamond,
    posets,
    relabel,
    relabelings,
    seeded_relabelings,
    vee,
)
from oracles import (
    canonical_form_naive,
    canonical_form_reference,
    isomorphic_naive,
    isotone_images_naive,
    iter_maps_reference,
    map_kind_naive,
)
from posetideals import (
    BudgetExceeded,
    are_isomorphic,
    build_chain_bundle,
    canonical_form,
    canonical_key,
    exists_map,
    generate_corpus,
    ideals,
    iter_maps,
    kurepa_chain,
    map_kind,
    x_down,
)
from posetideals import morphisms
from posetideals.morphisms import (
    DEFAULT_BUDGET,
    EMBEDDING,
    ISOMORPHISM,
    ISOTONE,
    MAP_KINDS,
    STRICTLY_ISOTONE,
)
from posetideals.poset import Poset, disjoint_union, from_up_rows, previous_twins
from posetideals.verification import (
    CHAIN_EXCEEDS_POSET,
    NOT_AN_IDEAL_OF_CHAINS,
    NOT_STRICTLY_ABOVE,
    AssignUndefined,
)


def test_map_kind_ladder():
    C2, D = chain(2), diamond()
    assert map_kind(C2, D, (0, 3)) == EMBEDDING
    assert map_kind(C2, D, (0, 0)) == ISOTONE
    assert map_kind(C2, C2, (0, 1)) == ISOMORPHISM
    assert map_kind(C2, D, (3, 0)) is None
    # strictly isotone but not an embedding: incomparable sources, ordered images
    A2 = antichain(2)
    assert map_kind(A2, C2, (0, 1)) == STRICTLY_ISOTONE
    assert map_kind(vee(), chain(3), (0, 1, 2)) == STRICTLY_ISOTONE


def test_map_kind_against_the_pairwise_predicates(corpus4):
    # every function from each class with n <= 3 into each class with n <= 4
    targets = [P for _, P in corpus4.items()]
    sources = [P for P in targets if P.n <= 3]
    kinds = Counter()
    for A in sources:
        for B in targets:
            for img in product(range(B.n), repeat=A.n):
                got = map_kind(A, B, img)
                assert got == map_kind_naive(A, B, img), (A.up, B.up, img)
                kinds[got] += 1
    assert sum(kinds.values()) == 6609
    assert set(kinds) == {None, *MAP_KINDS}


def test_iter_maps_counts_and_order():
    got = list(iter_maps(chain(2), diamond(), ISOTONE))
    assert set(got) == isotone_images_naive(chain(2), diamond())
    assert len(got) == 9
    assert got == sorted(got)  # chain source: assignment order is the identity
    # the two strongest classes are classified (map_kind), never searched
    for kind in (EMBEDDING, ISOMORPHISM):
        with pytest.raises(ValueError):
            list(iter_maps(chain(2), chain(2), kind))


@settings(max_examples=30)
@given(posets(3), posets(3))
def test_iter_maps_against_the_function_scan(A, B):
    naive = isotone_images_naive(A, B)
    assert set(iter_maps(A, B, ISOTONE)) == naive
    strict = set(iter_maps(A, B, STRICTLY_ISOTONE))
    assert strict == {img for img in naive
                      if all(B.lt(img[i], img[j])
                             for i in range(A.n) for j in range(A.n)
                             if A.lt(i, j))}


def _run_maps(gen):
    """Everything a map search yields, and the budget it ran out of (or None)."""
    out = []
    try:
        for img in gen:
            out.append(img)
    except BudgetExceeded as exc:
        return out, exc.budget
    return out, None


def test_iter_maps_against_the_reference(corpus4):
    # sources in their canonical labelling and reversed, so that the linear
    # extension the search follows is not always the identity
    targets = [P for _, P in corpus4.items()]
    sources = targets + [relabel(P, tuple(reversed(range(P.n)))) for P in targets]
    exhausted = 0
    for A in sources:
        for B in targets:
            for kind in (ISOTONE, STRICTLY_ISOTONE):
                # every map, in order, against the unbudgeted reference
                # without the height bound: the bound drops no map
                want = _run_maps(iter_maps_reference(A, B, kind, None))
                assert _run_maps(iter_maps(A, B, kind)) == want, (A.up, B.up, kind)
                for budget in (0, 1, 2, 4, 9, 23, 60):
                    want = _run_maps(iter_maps_reference(A, B, kind, budget,
                                                         height_bound=True))
                    assert _run_maps(iter_maps(A, B, kind, budget)) == want, \
                        (A.up, B.up, kind, budget)
                    exhausted += want[1] is not None
    assert exhausted > 0


def test_iter_maps_empty_cases():
    E = Poset(0, ())
    assert list(iter_maps(E, diamond(), ISOTONE)) == [()]
    assert list(iter_maps(diamond(), E, ISOTONE)) == []
    for kind in (EMBEDDING, ISOMORPHISM, "weird"):
        with pytest.raises(ValueError):
            list(iter_maps(E, E, kind))


def test_budget_raises():
    with pytest.raises(BudgetExceeded) as e:
        list(iter_maps(antichain(4), antichain(4), ISOTONE, budget=3))
    assert e.value.budget == 3


def test_every_map_search_is_budgeted_by_default():
    # the budget is always a number: no search runs unbounded by default
    for search in (iter_maps, exists_map, x_down):
        budget = inspect.signature(search).parameters["budget"]
        assert (budget.default, budget.annotation) == (DEFAULT_BUDGET, "int"), search


def test_exists_map_reports_strongest_kind():
    w = exists_map(chain(2), chain(2), ISOTONE)
    assert w.image == (0, 0) and w.kind == ISOTONE
    w = exists_map(chain(2), chain(2), STRICTLY_ISOTONE)
    assert w.image == (0, 1) and w.kind == ISOMORPHISM
    assert exists_map(diamond(), chain(2), STRICTLY_ISOTONE) is None
    assert w.image[0] == 0 and w.image[1] == 1


def test_corpus_members_pairwise_nonisomorphic(corpus4):
    reps = [P for _, P in corpus4.items()]
    keys = [canonical_key(P) for P in reps]
    assert len(set(keys)) == len(reps)
    # the isomorphism search, not the canonical labelling, tells them apart
    for i, P in enumerate(reps):
        for Q in reps[i + 1:]:
            assert not isomorphic_naive(P, Q)
    assert are_isomorphic(Poset(0, ()), Poset(0, ()))


@settings(max_examples=60)
@given(relabelings(7))
def test_canonical_form_is_invariant(triple):
    P, Q, _ = triple
    assert canonical_key(P) == canonical_key(Q)
    canon, perm = canonical_form(P)
    assert sorted(perm) == list(range(P.n))
    assert all(P.leq(perm[i], perm[j]) == canon.leq(i, j)
               for i in range(P.n) for j in range(P.n))
    assert isomorphic_naive(P, canon)


def test_canonical_form_against_the_permutation_scan(corpus5):
    # pins representatives and certificates, hence instance ids: two
    # relabelings of every n<=5 class, one of a sample of n=7 classes, and
    # twin-rich posets, where the search skips twins placed out of order
    rng = random.Random(3)
    cases = [P for _, P in corpus5.items() for _ in range(2)]
    cases += rng.sample(generate_corpus(7, ceiling=7).by_size[7], 25)
    cases += [antichain(k) for k in range(1, 7)]
    cases += [disjoint_union([chain(k) for k in ks])
              for ks in ((2, 2, 2), (3, 3), (1, 1, 2, 2))]
    cases.append(build_chain_bundle(2))
    for P in cases:
        perm = list(range(P.n))
        rng.shuffle(perm)
        Q = relabel(P, perm)
        canon, cert = canonical_form(Q)
        assert (canon.up, cert) == canonical_form_naive(Q)


@settings(max_examples=60)
@given(posets())
def test_canonical_form_against_the_permutation_scan_on_random_posets(P):
    canon, cert = canonical_form(P)
    assert (canon.up, cert) == canonical_form_naive(P)


def test_canonical_form_against_the_search_on_every_class(corpus6):
    # the forced path gives the search's own single leaf: representatives
    # and certificates are those of the search run on every poset
    for P in seeded_relabelings(corpus6, 3, seed=11):
        canon, cert = canonical_form(P)
        assert (canon.up, cert) == canonical_form_reference(P)


@pytest.mark.parametrize("vees, twins", [(2, 5), (2, 7), (3, 3)])
def test_canonical_form_against_the_search_on_tie_heavy_posets(vees, twins):
    # disjoint V's, each of `twins` twins under one top: two colours against
    # 2 * vees twin classes, so the search runs 12 to 16 deep, and every
    # ordering of the V's ties, which no corpus class does
    V = from_up_rows([1 << i | 1 << twins for i in range(twins)] + [1 << twins])
    P = disjoint_union([V] * vees)
    perm = list(range(P.n))
    random.Random(7).shuffle(perm)
    Q = relabel(P, perm)
    canon, cert = canonical_form(Q)
    assert (canon.up, cert) == canonical_form_reference(Q)


@pytest.mark.parametrize("P, searched", [
    (chain(5), False),                            # five colours, five twin classes
    (antichain(5), False),                        # one colour, one twin class
    (disjoint_union([chain(2), chain(2)]), True),  # two colours, four twin classes
], ids=["chain", "antichain", "2+2"])
def test_canonical_form_searches_only_when_not_forced(monkeypatch, P, searched):
    calls = []
    search = morphisms._least_relabelling

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(morphisms, "_least_relabelling", counted)
    perm = list(range(P.n))
    random.Random(1).shuffle(perm)
    Q = relabel(P, perm)
    canon, cert = canonical_form(Q)
    assert bool(calls) == searched
    assert (canon.up, cert) == canonical_form_reference(Q)


def test_canonical_form_pulls_rounds_up_to_the_twin_partition(monkeypatch, corpus6):
    # a round whose colours number the twin classes is final, so the
    # refinement is pulled up to the first such round, or to its end when
    # none is; the colours used are the full refinement's last ones
    pulled = []
    refine = morphisms.refine_colours

    def spy(P):
        for r in refine(P):
            pulled.append(r)
            yield r

    monkeypatch.setattr(morphisms, "refine_colours", spy)
    # the empty poset is refined too: one round, with no colour and no twin class
    cases = [P for _, P in corpus6.items()] + seeded_relabelings(corpus6, 3, seed=5)
    early = 0
    for P in cases:
        pulled.clear()
        canonical_form(P)
        full = list(refine(P))
        classes = previous_twins(P).count(0)
        want = next((t + 1 for t, (_, table) in enumerate(full) if len(table) == classes),
                    len(full))
        assert len(pulled) == want and pulled[-1][0] == full[-1][0]
        early += want < len(full)
    assert early > 0


# --- ascending replay ----------------------------------------------------------


def test_replay_walks_into_a_nonideal():
    # the three-atom stack: each atom is assigned the downset of the one
    # before it; three steps in, the produced elements no longer generate
    # an ideal of chains
    from posetideals import build_atoms_lattice

    M, f = build_atoms_lattice(3)
    F = ideals(M, True)
    table = {F.sets[f.image[x]]: x for x in range(M.n)}
    trace = kurepa_chain(M, lambda d: table[d])
    assert trace.reason == NOT_AN_IDEAL_OF_CHAINS
    assert trace.fail_step == 3
    assert trace.displays == ("∅", "{0}", "{a0,0}", "{a1,a0,0}")
    assert [s.element for s in trace.steps] == [0, 1, 2, None]
    assert [s.ideal for s in trace.steps] == [0, 0b00001, 0b00011, 0b00111]


def test_replay_detects_a_stalled_chain():
    C = chain(3)
    trace = kurepa_chain(C, lambda d: 2)  # always the top
    assert trace.reason == NOT_STRICTLY_ABOVE
    assert trace.fail_step == 2
    assert trace.displays == ("∅", "{2,1,0}", "{2,1,0}")
    assert trace.steps[-1].element is None


def test_replay_surfaces_missing_assignments():
    with pytest.raises(AssignUndefined):
        kurepa_chain(chain(1), {}.__getitem__)


def test_replay_never_outruns_a_finite_poset():
    # any total assignment fails before the guard can fire
    for P in (chain(1), chain(3), diamond(), antichain(3)):
        for target in range(P.n):
            trace = kurepa_chain(P, lambda d, t=target: t)
            assert trace.reason in (NOT_AN_IDEAL_OF_CHAINS, NOT_STRICTLY_ABOVE)
            assert trace.reason != CHAIN_EXCEEDS_POSET
            assert trace.fail_step <= P.n + 1
