"""Corpus generation and the theorem-shaped check battery."""

import sys
import tracemalloc
from collections import Counter
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from conftest import (
    antichain,
    chain,
    diamond,
    posets,
    relabel,
    seeded_relabelings,
    vee,
    wedge,
)
from oracles import (
    all_posets_naive,
    check_acc_reference,
    downsets_naive,
    generate_corpus_reference,
    ideals_naive,
    inclusion_rows_pairwise,
    join_table_naive,
    members,
    semilattice_homs_naive,
)
from posetideals import (
    CapacityExceeded,
    Corpus,
    Poset,
    algebra,
    build_atoms_lattice,
    build_chain_bundle,
    build_idemb_tower,
    check_acc,
    check_corollary_2_3_hypothesis,
    check_corollary_3_2,
    check_lemma_5_1,
    check_theorem_2_1,
    check_theorem_2_1_id,
    check_theorem_3_1,
    classify,
    completions,
    from_up_rows,
    generate_corpus,
    ideals,
    run_suite,
    verification,
)
from posetideals.completions import downset_masks
from posetideals.morphisms import (
    EMBEDDING,
    ISOTONE,
    STRICTLY_ISOTONE,
    BudgetExceeded,
    MonotoneMap,
    are_isomorphic,
    canonical_key,
    map_kind,
)
from posetideals.poset import adjoin_bounds, bits, induced, minimal_elements
from posetideals.verification import (
    FAILS,
    HOLDS,
    UNKNOWN,
    VACUOUS,
    CheckReport,
    chains_battery,
    check_kurepa_atoms,
    summarize,
)

CORPUS_COUNTS = (1, 1, 2, 5, 16, 63)


def test_corpus_counts(corpus5):
    assert tuple(len(row) for row in corpus5.by_size) == CORPUS_COUNTS
    assert corpus5.provenance == "orderly-extension-v2"
    ids = [iid for iid, _ in corpus5.items()]
    assert ids[0] == "n0/00" and ids[-1] == "n5/62" and len(ids) == 88


def test_corpus_counts_to_seven():
    # OEIS A000112
    corpus = generate_corpus(7, ceiling=7)
    assert tuple(len(row) for row in corpus.by_size) == (1, 1, 2, 5, 16, 63, 318, 2045)


def test_corpus_matches_the_unpruned_reference():
    # the skip rules drop children only: same representatives, same order
    got = generate_corpus.__wrapped__(6, ceiling=6)
    want = generate_corpus_reference(6)
    assert [[P.up for P in row] for row in got.by_size] == \
        [[P.up for P in row] for row in want]


def test_corpus_canonical_form_calls(monkeypatch):
    # 939 children without the skip rules, for the 405 classes of sizes 1-6
    calls = []
    canonical_form = verification.canonical_form

    def counted(P):
        calls.append(P)
        return canonical_form(P)

    monkeypatch.setattr(verification, "canonical_form", counted)
    generate_corpus.__wrapped__(6, ceiling=6)
    assert len(calls) == 442


def test_each_child_inherits_its_down_rows(monkeypatch):
    # the rows _extend_by_maximal stores are what a fresh transposition of
    # the child's up-rows gives
    children = []
    extend = verification._extend_by_maximal

    def spy(P, d):
        children.append(extend(P, d))
        return children[-1]

    monkeypatch.setattr(verification, "_extend_by_maximal", spy)
    generate_corpus.__wrapped__(6, ceiling=6)
    assert len(children) == 442
    for Q in children:
        assert Q.__dict__["down"] == from_up_rows(Q.up).down


def test_census_against_a000112(corpus5):
    reports = verification.check_census(corpus5)
    assert [(r.check, r.instance, r.verdict) for r in reports] == \
        [("census", f"n{n}", HOLDS) for n in range(6)]
    assert reports[5].witness == {"classes": 63, "expected": 63}
    # a size past the end of the table has no known count
    point = Poset(0, ())
    rows = tuple((point,) * k for k in verification.A000112) + ((point,),)
    reports = verification.check_census(Corpus(len(rows) - 1, rows, "counts"))
    assert [r.verdict for r in reports] == [HOLDS] * (len(rows) - 1) + [UNKNOWN]
    assert reports[-1].witness == {"classes": 1, "expected": None}


def test_corpus_matches_the_relation_scan(corpus4):
    # independent count: every reflexive transitive antisymmetric relation,
    # deduplicated over relabelings
    for n in range(5):
        assert len(all_posets_naive(n)) == len(corpus4.by_size[n])


def test_corpus_members_are_canonical_and_distinct(corpus5):
    for _, P in corpus5.items():
        assert canonical_key(P) == P.up
    keys = {P.up for _, P in corpus5.items()}
    assert len(keys) == 88


def test_corpus_ceiling():
    with pytest.raises(CapacityExceeded):
        generate_corpus(9)


def test_theorem_2_1_check():
    assert check_theorem_2_1(diamond()).verdict == HOLDS
    assert check_theorem_2_1(Poset(0, ())).verdict == HOLDS
    # the height bound settles it at the root: not one node is spent
    assert check_theorem_2_1(chain(3), budget=0).verdict == HOLDS


def test_theorem_2_1_id_control():
    r = check_theorem_2_1_id(diamond(), "d")
    assert r.verdict == HOLDS and r.witness == {"image": [0, 1, 1, 3]}  # not injective
    assert check_theorem_2_1_id(Poset(0, ())) == CheckReport("thm21-id", "adhoc", VACUOUS)
    r = check_theorem_2_1_id(chain(3), budget=1)
    assert r.verdict == UNKNOWN and r.witness == {"budget": 1}
    # every nonempty class has a witness, re-checked here as well
    for iid, P in generate_corpus(6).items():
        r = check_theorem_2_1_id(P, iid)
        assert r.verdict == (HOLDS if P.n else VACUOUS)
        if P.n:
            F = ideals(P, include_empty=False)
            assert map_kind(F.order, P, r.witness["image"]) not in (None, ISOTONE)


def test_theorem_2_1_id_control_catches_a_search_that_finds_nothing(monkeypatch):
    monkeypatch.setattr(verification, "exists_map", lambda *a, **k: None)
    assert check_theorem_2_1_id(diamond()).verdict == FAILS
    assert check_theorem_2_1(diamond()).verdict == HOLDS


def test_thm21_and_cor23_spend_no_nodes():
    # a budget of 0 gives the default budget's reports on every class
    for iid, P in generate_corpus(6).items():
        r = check_theorem_2_1(P, iid)
        assert r.verdict == HOLDS and check_theorem_2_1(P, iid, 0) == r
        r = check_corollary_2_3_hypothesis(P, iid)
        assert r.verdict == VACUOUS and check_corollary_2_3_hypothesis(P, iid, 0) == r


def test_theorem_2_1_needs_the_extra_point():
    # the family order has one more element than the base, and a strictly
    # isotone map must be injective on a chain, so even the longest chain
    # in the family cannot fit; spot-check the counting on a chain
    F = ideals(chain(3), True)
    assert F.order.n == 4


def test_theorem_3_1_check():
    assert check_theorem_3_1(diamond()).verdict == HOLDS
    assert check_theorem_3_1(wedge()).verdict == HOLDS
    with pytest.raises(ValueError):
        check_theorem_3_1(vee())
    with pytest.raises(ValueError):
        check_theorem_3_1(antichain(2))
    # the same check, given the structure a caller has already classified
    assert check_theorem_3_1(classify(diamond()), "d") == check_theorem_3_1(diamond(), "d")
    with pytest.raises(ValueError):
        check_theorem_3_1(classify(vee()))


def test_theorem_3_1_can_fail(monkeypatch):
    # with S itself missing from the downsets, chain(3) has only three ideals
    def short(P):
        return [d for d in downset_masks(P) if d != P.full_mask]

    monkeypatch.setattr(completions, "downset_masks", short)
    r = check_theorem_3_1(chain(3))
    assert r.verdict == FAILS and r.witness == {"ideals": 3, "n": 3}


def test_thm31_suite_lists_no_carrier_and_searches_no_map(monkeypatch):
    # every binding of the three, in algebra and in any module that
    # imported them by name, raises: the suite must reach none of them
    def refuse(*args, **kwargs):
        raise AssertionError("thm31 is settled by counting")

    for name in ("subsemilattices", "substructure", "semilattice_homs"):
        original = getattr(algebra, name)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("posetideals") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, refuse)
    reports = list(run_suite("thm31", 5))
    assert len(reports) == 25 and {r.verdict for r in reports} == {HOLDS}


def test_theorem_3_1_against_a_brute_force_hom_search(corpus4):
    # the thm31 verdict backed without the count: Id(S) is built from the
    # definition, every join-closed subset of S is found by scanning all
    # subsets, and every function from each onto Id(S) is tried
    uppers = carriers = 0
    for _, S in corpus4.items():
        join = join_table_naive(S.n, S.leq)
        if any(j is None for row in join for j in row):
            continue
        uppers += 1
        sets = sorted(ideals_naive(S, True))
        assert len(sets) == S.n + 1
        rows = inclusion_rows_pairwise(sets)
        T = SimpleNamespace(base=SimpleNamespace(n=len(sets)),
                            join=join_table_naive(len(sets), lambda i, j: rows[i] >> j & 1))
        for m in range(1 << S.n):
            elems = members(m)
            if any(join[a][b] not in elems for a in elems for b in elems):
                continue
            carriers += 1
            A = SimpleNamespace(base=SimpleNamespace(n=len(elems)),
                                join=[[elems.index(join[a][b]) for b in elems] for a in elems])
            assert semilattice_homs_naive(A, T, surjective=True) == set()
        assert check_theorem_3_1(S).verdict == HOLDS
    assert uppers == 10
    # the join-closed subsets of the ten, the empty one and singletons included
    assert carriers == 91


def test_thm31_suite_classifies_each_corpus_poset_once(monkeypatch):
    seen = []
    monkeypatch.setattr(verification, "classify", lambda P: seen.append(P.up) or classify(P))
    reports = list(run_suite("thm31", 4))
    corpus = generate_corpus(4)
    assert seen == [P.up for _, P in corpus.items()]
    assert [r.instance for r in reports] == [
        iid for iid, P in corpus.items() if classify(P).is_upper]


def test_corollary_2_3_check():
    r = check_corollary_2_3_hypothesis(diamond())
    assert r.verdict == VACUOUS and r.witness == {"nonminimal_tried": 3}
    assert check_corollary_2_3_hypothesis(antichain(3)).witness \
        == {"nonminimal_tried": 0}
    assert check_corollary_2_3_hypothesis(chain(4), budget=0).verdict == VACUOUS


def test_corollary_2_3_builds_no_up_set_and_peels_p_once(monkeypatch, corpus6):
    # one peel of P settles the height bound for every nonminimal x, so
    # no up-set is built and no map is searched
    calls = []
    monkeypatch.setattr(verification, "induced", lambda *a: calls.append(a))
    monkeypatch.setattr(verification, "exists_map", lambda *a, **k: calls.append(a))
    real = Poset.height.func
    peeled = []

    def counted(P):
        peeled.append(P)
        return real(P)

    spy = cached_property(counted)
    spy.__set_name__(Poset, "height")
    monkeypatch.setattr(Poset, "height", spy)
    # fresh posets, so that no peel is cached from an earlier test
    fresh = [Poset(P.n, P.up) for _, P in corpus6.items()]
    for P in fresh:
        r = check_corollary_2_3_hypothesis(P)
        assert r.verdict == VACUOUS
        assert r.witness == {"nonminimal_tried": P.n - minimal_elements(P).bit_count()}
    assert calls == []
    assert len(peeled) == len(fresh) == 406
    assert all(Q is P for Q, P in zip(peeled, fresh))


def test_corollary_2_3_can_fail_where_the_bound_settles_nothing(monkeypatch, corpus4):
    # with every element taken for a bottom of a longest chain, the bound
    # settles no x: each nonminimal x gets the full search, in ascending
    # order, and the reports are unchanged
    before = [check_corollary_2_3_hypothesis(P, iid) for iid, P in corpus4.items()]
    monkeypatch.setattr(Poset, "longest_chain_bottoms", property(lambda P: P.full_mask))
    real = verification.exists_map
    targets = []

    def counted(A, B, kind, budget=None):
        targets.append(B.n)
        return real(A, B, kind, budget=budget)

    monkeypatch.setattr(verification, "exists_map", counted)
    for (iid, P), r in zip(corpus4.items(), before):
        targets.clear()
        assert check_corollary_2_3_hypothesis(P, iid) == r
        nonminimal = P.full_mask & ~minimal_elements(P)
        assert targets == [P.up[x].bit_count() for x in bits(nonminimal)]
    # a search that finds a map fails the check at the first nonminimal x
    monkeypatch.setattr(verification, "exists_map",
                        lambda A, B, kind, budget=None: SimpleNamespace(image=(0,) * A.n))
    assert check_corollary_2_3_hypothesis(diamond(), "d") == CheckReport(
        "cor23", "d", FAILS, {"x": 1, "image": [0, 0, 0, 0]})

    # and one that runs out of budget leaves it unknown
    def exhausted(A, B, kind, budget=None):
        raise BudgetExceeded(budget)

    monkeypatch.setattr(verification, "exists_map", exhausted)
    assert check_corollary_2_3_hypothesis(diamond(), "d", 7) == CheckReport(
        "cor23", "d", UNKNOWN, {"budget": 7})


def test_corollary_3_2_check():
    r = check_corollary_3_2(diamond())
    assert r.verdict == HOLDS and r.witness == {"downsets": 6}
    assert check_corollary_3_2(chain(5)).witness == {"downsets": 6}
    # no map is searched, so no budget can run out
    assert check_corollary_3_2(antichain(3), "a", 0).witness == {"downsets": 8}


def test_corollary_3_2_counts_the_downsets(corpus6):
    for iid, P in corpus6.items():
        r = check_corollary_3_2(P, iid)
        assert r.verdict == HOLDS
        assert r.witness == {"downsets": len(downsets_naive(P))}


def test_corollary_3_2_can_fail(monkeypatch):
    # with P itself missing from the downsets, chain(3) has only three
    def short(P):
        return [d for d in downset_masks(P) if d != P.full_mask]

    monkeypatch.setattr(verification, "downset_masks", short)
    r = check_corollary_3_2(chain(3))
    assert r.verdict == FAILS and r.witness == {"downsets": 3, "n": 3}


def test_acc_check(corpus4):
    for iid, P in corpus4.items():
        assert check_acc(P, iid).verdict == HOLDS


# the diamond with its bottom and top swapped: the top has index 0, so the
# principal downsets are out of ascending mask order
TOP_FIRST = (3, 1, 2, 0)


@pytest.mark.parametrize("bad", [1, 2, 3])
def test_acc_reports_the_first_stage_that_is_not_an_isomorphism(monkeypatch, bad):
    # at stage `bad` the principal downsets go into every ideal, the empty
    # one included: an embedding one element short of onto.  The top-first
    # diamond reaches the id fixpoint at stage 2, so for stage 3 to run,
    # stage 2 maps isomorphically onto its target with the rows permuted
    real = verification.principal_embedding
    seen = []

    def principal_embedding(P):
        seen.append(P)
        if len(seen) == bad:
            F = ideals(P, include_empty=True)
            image = tuple(F.index(P.down[x]) for x in range(P.n))
            return MonotoneMap(P, F.order, image, map_kind(P, F.order, image))
        emb = real(P)
        if len(seen) == 2:
            T = relabel(emb.target, TOP_FIRST)
            image = tuple(TOP_FIRST[y] for y in emb.image)
            return MonotoneMap(P, T, image, map_kind(P, T, image))
        return emb

    monkeypatch.setattr(verification, "principal_embedding", principal_embedding)
    r = check_acc(relabel(diamond(), TOP_FIRST), "d")
    assert (r.verdict, r.witness) == (FAILS, {"stage": bad, "kind": EMBEDDING})
    assert len(seen) == bad  # no stage past the first failure is built


def test_acc_stops_at_the_id_fixpoint(monkeypatch, corpus4):
    # a canonical class is labelled along a linear extension, so stage 1
    # is the fixpoint; the top-first diamond needs stage 2 to reach it
    real = verification.principal_embedding
    built = []
    monkeypatch.setattr(verification, "principal_embedding",
                        lambda P: built.append(P) or real(P))
    for iid, P in corpus4.items():
        built.clear()
        assert check_acc(P, iid).verdict == HOLDS and len(built) == 1
    built.clear()
    D = relabel(diamond(), TOP_FIRST)
    assert list(D.down) != sorted(D.down)
    assert check_acc(D).verdict == HOLDS and len(built) == 2


def test_acc_matches_the_three_stage_reference(corpus6):
    for P in seeded_relabelings(corpus6, 3, seed=19):
        r, ref = check_acc(P), check_acc_reference(P)
        assert (r.verdict, r.witness) == (ref.verdict, ref.witness)


def test_the_second_ideal_completion_is_a_fixpoint(corpus6):
    # what check_acc's early exit rests on, from the definitions alone:
    # Q = id(P) lists its ideals in ascending mask order, and the nonempty
    # ideals of Q, in that order, have Q's own inclusion rows
    for P in seeded_relabelings(corpus6, 3, seed=19):
        Q_up = inclusion_rows_pairwise(sorted(ideals_naive(P, False)))
        assert Q_up == ideals(P, False).order.up
        Q = Poset(len(Q_up), Q_up)
        assert inclusion_rows_pairwise(sorted(ideals_naive(Q, False))) == Q.up


def test_chain_bundle_shape():
    assert are_isomorphic(build_chain_bundle(1), chain(3))
    B = build_chain_bundle(3)
    assert B.n == 8
    assert classify(B).is_lattice
    assert B.labels == ("0", "c1.0", "c2.0", "c2.1", "c3.0", "c3.1", "c3.2", "1")
    # chain j climbs from c{j}.0 up to c{j}.{j-1}
    assert B.lt(2, 3) and B.lt(4, 5) and B.lt(5, 6) and not B.leq(1, 2)
    assert check_theorem_2_1(B).verdict == HOLDS
    assert are_isomorphic(ideals(B, True).order,
                          induced(adjoin_bounds(B), (1 << B.n + 1) - 1)[0])
    with pytest.raises(ValueError):
        build_chain_bundle(0)


def test_atoms_lattice_and_its_map():
    M, f = build_atoms_lattice(2)
    assert M.n == 4 and len(ideals(M, True)) == 5
    assert f.kind == STRICTLY_ISOTONE  # strongest class: not an embedding
    assert len(set(f.image)) == M.n    # injective
    assert len(set(f.image)) < f.target.n  # not surjective
    M3, f3 = build_atoms_lattice(3)
    assert M3.n == 5 and len(ideals(M3, True)) == 6
    assert f3.kind == STRICTLY_ISOTONE
    with pytest.raises(ValueError):
        build_atoms_lattice(1)


def test_atoms_map_breaks_order_reflection():
    # a0 and a1 are incomparable, yet their assigned ideals nest
    M, f = build_atoms_lattice(3)
    F = ideals(M, True)
    assert not M.leq(1, 2) and not M.leq(2, 1)
    assert F.order.leq(f.image[1], f.image[2])


def test_idemb_tower():
    T = build_idemb_tower(chain(1), 1)
    assert are_isomorphic(T, diamond())
    T2 = build_idemb_tower(diamond(), 1)
    assert T2.n == 10 and classify(T2).is_lattice
    assert build_idemb_tower(diamond(), 0).n == 6
    with pytest.raises(ValueError):
        build_idemb_tower(vee(), 1)
    with pytest.raises(ValueError):
        build_idemb_tower(Poset(0, ()), 1)
    with pytest.raises(ValueError):
        build_idemb_tower(diamond(), -1)


@pytest.mark.parametrize("build", [
    lambda: build_atoms_lattice(20_000),         # 20 002 elements
    lambda: build_chain_bundle(100),             # 5052 elements
    lambda: build_idemb_tower(diamond(), 20_000),  # 80 006 elements
])
def test_named_constructions_check_capacity_first(build):
    # the size formula is checked before any row or stage is built
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_kurepa_atoms_check():
    for k in (2, 3, 4):
        r = check_kurepa_atoms(k)
        assert r.verdict == HOLDS
        assert r.witness["trace"] == ["∅", "{0}", "{a0,0}", "{a1,a0,0}"]
        assert r.witness["reason"] == "NotAnIdealOfChains"
        assert r.witness["fail_step"] == 3


def test_lemma_5_1_with_chains(corpus4):
    reports = check_lemma_5_1(corpus4, chains_battery(3), "chains<=3")
    assert [r.check for r in reports] == [
        "lemma51.i", "lemma51.iia_to_iib", "lemma51.i_iia_to_iic",
        "lemma51.i_iia_to_iid"]
    assert all(r.verdict == HOLDS for r in reports)
    assert reports[0].witness["every_member_directed"] is True
    assert reports[0].witness["all_downsets_ideals"] is True
    assert reports[1].witness["pair_condition"] is True


def _diamond_lemma_5_1(monkeypatch, dropped):
    # check_lemma_5_1 on a corpus of the diamond alone, with the downsets of
    # x_down that dropped(P) names taken out of every X-generated family
    from posetideals import verification

    real = verification.x_down
    monkeypatch.setattr(verification, "x_down", lambda P, X, **kw: SimpleNamespace(
        sets=tuple(s for s in real(P, X, **kw).sets if s not in dropped(P))))
    corpus = Corpus(4, ((), (), (), (), (diamond(),)), "diamond only")
    return check_lemma_5_1(corpus, chains_battery(3), "chains<=3")


def test_lemma_5_1_join_witness_is_the_least_ideal(monkeypatch):
    # With the whole poset dropped from every X-generated family, the
    # diamond's {0,a} and {0,b} lose their join; the witness must name the
    # least ideal above both, not just some ideal above them.
    reports = _diamond_lemma_5_1(monkeypatch, lambda P: {P.full_mask})
    failure = {"poset": "n4/00", "a": 0b0011, "b": 0b0101, "join": 0b1111}
    assert [(r.verdict, r.witness) for r in reports[2:]] == [
        (FAILS, {"pair_condition": True, "failure": failure})] * 2


def test_lemma_5_1_meet_witness(monkeypatch):
    # Without {0}, the diamond's {0,a} and {0,b} lose their meet, while
    # their join, the whole poset, stays.
    reports = _diamond_lemma_5_1(monkeypatch, lambda P: {P.down[0]})
    failure = {"poset": "n4/00", "a": 0b0011, "b": 0b0101, "meet": 0b0001}
    assert [(r.verdict, r.witness) for r in reports[1:]] == [
        (FAILS, {"pair_condition": True, "failure": failure}),
        (HOLDS, {"pair_condition": True, "failure": None}),
        (FAILS, {"pair_condition": True, "failure": failure})]


def test_lemma_5_1_meet_is_checked_before_join(monkeypatch):
    # Without {0} and the whole poset, the pair {0,a}, {0,b} loses both its
    # meet and its join; the lattice report names the meet, checked first.
    reports = _diamond_lemma_5_1(monkeypatch, lambda P: {P.down[0], P.full_mask})
    pair = {"poset": "n4/00", "a": 0b0011, "b": 0b0101}
    assert [(r.verdict, r.witness["failure"]) for r in reports[1:]] == [
        (FAILS, {**pair, "meet": 0b0001}),
        (FAILS, {**pair, "join": 0b1111}),
        (FAILS, {**pair, "meet": 0b0001})]


def test_lemma_5_1_and_acc_compute_each_structure_once(monkeypatch, corpus5):
    # one x_down search per corpus poset and member, one classify per corpus
    # poset and one ideal family per upper semilattice; acc builds one
    # ideal family per poset, since a canonical class is its own id fixpoint
    from posetideals import completions, verification

    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("x_down", "classify", "ideals"):
        count(verification, name)
    reports = check_lemma_5_1(corpus5, chains_battery(3))
    assert all(r.verdict == HOLDS for r in reports)
    assert calls == {"x_down": 91, "classify": 88, "ideals": 25}

    calls.clear()
    count(completions, "ideals")
    for iid, P in corpus5.items():
        assert check_acc(P, iid).verdict == HOLDS
    assert calls == {"ideals": 88}


def test_lemma_5_1_with_an_antichain_member(corpus4):
    X = chains_battery(2) + [antichain(2)]
    reports = check_lemma_5_1(corpus4, X, "chains+antichain")
    eq = reports[0]
    assert eq.verdict == HOLDS  # both sides of the equivalence go false
    assert eq.witness["every_member_directed"] is False
    assert eq.witness["all_downsets_ideals"] is False
    # n2/00 is the two-element antichain: the antichain member maps onto it,
    # and its whole carrier, a downset, is not directed
    assert eq.witness["ideal_failure"] == {"poset": "n2/00", "downset": 0b11}
    pairs = reports[1]
    assert pairs.verdict == VACUOUS
    assert pairs.witness["pair_condition"] is False
    # the meet closure happens to survive, and the report records that
    assert pairs.witness["consequent_holds"] is True
    assert reports[2].verdict == VACUOUS and reports[3].verdict == VACUOUS


def test_run_suite_and_summarize(corpus4):
    reports = list(run_suite("thm21", max_n=4))
    tally = Counter(r.verdict for r in reports)
    assert summarize(tally, corpus4.by_size) == "16+5+2+1+1 instances: holds"
    assert summarize(tally) == "25 instances: holds"
    vac = Counter(r.verdict for r in run_suite("cor23", max_n=3))
    assert summarize(vac) == "9 instances: vacuous"
    mixed = [CheckReport("x", "a", HOLDS), CheckReport("x", "b", FAILS),
             CheckReport("x", "c", FAILS), CheckReport("x", "d", UNKNOWN)]
    assert summarize(Counter(r.verdict for r in mixed)) \
        == "4 instances: 1 holds, 2 fails, 1 unknown"
    # the name is checked when the first report is asked for
    with pytest.raises(ValueError):
        next(run_suite("nope"))


def test_run_suite_calls_each_check_by_its_module_name(monkeypatch):
    # a patched check is the one the suite runs, as a traced one must be
    calls = []
    check = verification.check_theorem_2_1

    def counted(*args):
        calls.append(args[1])
        return check(*args)

    monkeypatch.setattr(verification, "check_theorem_2_1", counted)
    assert len(list(run_suite("thm21", 3))) == 9
    assert calls == [iid for iid, _ in generate_corpus(3).items()]


def test_run_suite_thm31_filters_to_upper_semilattices(corpus4):
    reports = list(run_suite("thm31", max_n=4))
    expected = sum(1 for _, P in corpus4.items() if classify(P).is_upper)
    assert len(reports) == expected == 10
    assert all(r.verdict == HOLDS for r in reports)


def test_report_shape():
    r = check_theorem_2_1(diamond(), "d")
    assert r.ok and r.to_json() == {"check": "thm21", "instance": "d",
                                    "verdict": "holds", "witness": None}


@settings(max_examples=25)
@given(posets(4))
def test_checks_hold_on_random_posets(P):
    assert check_theorem_2_1(P).verdict == HOLDS
    assert check_acc(P).verdict == HOLDS
    assert check_corollary_2_3_hypothesis(P).verdict == VACUOUS
    S = classify(P)
    if S.is_upper:
        assert check_theorem_3_1(P).verdict == HOLDS
