"""Mutation gate: named faults injected into the layers under the checks.

Each mutant replaces one function, in its own module and in every
posetideals module that imported it by name, or one attribute of a class,
over an n<=5 corpus built before the patch; a mutant of the corpus build
itself (CORPUS_MUTANTS) builds the corpus after it.  Running every suite
must then give some report that is not ok, or raise; a mutant that every
suite passes is a fault the checks cannot see (DeMillo, Lipton and
Sayward, *Hints on test data selection*, 1978).
"""

import sys

import pytest

from conftest import relabel
from posetideals import algebra, completions, morphisms, poset, verification
from posetideals.verification import SUITES, generate_corpus, run_suite

_downset_masks = completions.downset_masks
_chain_ideals = completions.chain_ideals
_classify = algebra.classify


def _no_maps(*args, **kwargs):
    return iter(())


def _downsets_without_the_full_set(P):
    return [d for d in _downset_masks(P) if d != P.full_mask]


def _always_directed(P, d):
    return True


def _chain_ideals_without_the_empty_set(P, include_empty):
    return _chain_ideals(P, False)


def _principal_chain_ideals(P, include_empty):
    if include_empty:
        return completions._family(P, {0, *P.down}, completions.KIND_CHAIN_IDEAL)
    return completions._family(P, set(P.down), completions.KIND_NONEMPTY_CHAIN_IDEAL)


def _principal_x_down(P, X, budget=morphisms.DEFAULT_BUDGET):
    return completions._family(P, set(P.down), completions.KIND_XDOWN)


def _all_neither(P):
    return algebra.SemilatticeStructure(P, algebra.NEITHER)


def _lattices_upper(P):
    S = _classify(P)
    return algebra.SemilatticeStructure(P, algebra.UPPER if S.is_lattice else S.kind)


def _identity_form(P):
    return P, tuple(range(P.n))


def _first_leaf(rel, colours, twin):
    # the search's first leaf, with no code compared: each position takes
    # the lowest-index unplaced element of its colour
    return tuple(sorted(range(len(rel)), key=colours.__getitem__))


def _first_round_order(P):
    # the forced order, whether or not the first round's colours are final
    colours, _ = next(poset.refine_colours(P))
    perm = sorted(range(P.n), key=colours.__getitem__)
    inverse = [0] * P.n
    for new, old in enumerate(perm):
        inverse[old] = new
    return relabel(P, inverse), tuple(perm)


# name -> (module or class, attribute, replacement, {suite: not-ok reports
# at n<=5}); a suite that raises counts as its exception's name
MUTANTS = {
    "iter_maps yields nothing": (
        morphisms, "iter_maps", _no_maps, {"thm21-id": 87}),
    "downset_masks drops the full set": (
        completions, "downset_masks", _downsets_without_the_full_set,
        # the empty poset's full set is its one downset, so n0/00 fails too
        {"thm31": 25, "cor32": 6, "lemma51": 2, "acc": "KeyError", "kurepa": "KeyError"}),
    "is_directed is always true": (
        poset, "is_directed", _always_directed, {"acc": 82, "thm21-id": 82, "lemma51": 2}),
    # every map search then reads no constraint: thm21-id's first map is
    # constant and fails its class in exists_map
    "Poset.lower_covers lists no cover": (
        poset.Poset, "lower_covers", property(lambda P: ((),) * P.n),
        {"thm21-id": "AssertionError", "lemma51": 1}),
    # the family is then isomorphic to P, which maps into itself strictly
    "chain_ideals drops the empty set": (
        completions, "chain_ideals", _chain_ideals_without_the_empty_set,
        {"thm21": 88, "kurepa": 2}),
    # the corpus keeps isomorphic duplicates, 68 classes at n=5 and not 63,
    # which only the census sees
    "canonical_form returns its input": (
        morphisms, "canonical_form", _identity_form, {"census": 1}),
    # colours that are not yet final split isomorphic children: 67 at n=5
    "canonical_form takes the forced order from the first round's colours": (
        morphisms, "canonical_form", _first_round_order, {"census": 1}),
}

# Known mutants that no suite catches, each listed once with its reason and
# not gated: name -> (module or class, attribute, replacement, reason)
UNGATED = {
    "_cofinal_image_exists is always true": (
        verification, "_cofinal_image_exists", lambda *args: True,
        "every suite still passes at n<=5, because the chains of the lemma51 "
        "battery satisfy the pair condition anyway; a lemma51 run over a "
        "2-antichain battery at n<=6 would close it (iia_to_iib fails on n6/275)"),
    "chain_ideals keeps only each element's principal downset": (
        completions, "chain_ideals", _principal_chain_ideals,
        "equivalent on finite posets: the down-closure of a finite chain is "
        "the principal downset of its top"),
    "x_down returns only the principal downsets": (
        completions, "x_down", _principal_x_down,
        "equivalent under the chains battery of lemma51, for the same reason; "
        "a battery holding an antichain would tell them apart"),
    "classify calls every poset neither": (
        algebra, "classify", _all_neither,
        "thm31 then yields no report, and a suite with no report passes; "
        "lemma51 then checks its closures on no semilattice and finds no failure"),
    "classify calls every lattice upper": (
        algebra, "classify", _lattices_upper,
        "thm31 reads only is_upper, and lemma51 then checks meets and both "
        "closures on no lattice, so it finds no failure there"),
    "_least_relabelling returns its first leaf": (
        morphisms, "_least_relabelling", _first_leaf,
        "the class counts stay right through n<=8, so census cannot see a "
        "search that does not minimise; "
        "test_canonical_form_against_the_permutation_scan and the pinned "
        "digests catch it"),
}
# the mutants of the corpus build, whose corpus is built after the patch
CORPUS_MUTANTS = {name for name, m in {**MUTANTS, **UNGATED}.items()
                  if m[1] in ("canonical_form", "_least_relabelling")}


def _patch_everywhere(monkeypatch, module, name, replacement):
    if isinstance(module, type):  # a class attribute is read through the class
        monkeypatch.setattr(module, name, replacement)
        return
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("posetideals") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _mutate(monkeypatch, name, module, attr, replacement):
    """Apply the mutant, and rebuild the corpus under it if it is one of
    the corpus build."""
    _patch_everywhere(monkeypatch, module, attr, replacement)
    if name in CORPUS_MUTANTS:
        corpus = generate_corpus.__wrapped__(5)
        monkeypatch.setattr(verification, "generate_corpus", lambda max_n: corpus)


def _catches(max_n=5):
    """Each suite that gives a report that is not ok, with their number, or
    the name of the exception it raised."""
    out = {}
    for suite in SUITES:
        try:
            bad = sum(not r.ok for r in run_suite(suite, max_n))
        except Exception as exc:  # a mutant that crashes a suite is caught
            out[suite] = type(exc).__name__
            continue
        if bad:
            out[suite] = bad
    return out


@pytest.fixture
def corpus5(monkeypatch):
    corpus = generate_corpus(5)
    monkeypatch.setattr(verification, "generate_corpus", lambda max_n: corpus)
    return corpus


def test_the_unmutated_suites_catch_nothing(corpus5):
    assert _catches() == {}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_every_mutant_is_caught(monkeypatch, corpus5, name):
    module, fname, replacement, expected = MUTANTS[name]
    _mutate(monkeypatch, name, module, fname, replacement)
    caught = _catches()
    assert caught, f"no suite catches: {name}"
    assert expected.items() <= caught.items()


@pytest.mark.parametrize("name", list(UNGATED))
def test_every_ungated_mutant_is_still_uncaught(monkeypatch, corpus5, name):
    # once some suite catches one, it belongs in MUTANTS
    module, fname, replacement, _ = UNGATED[name]
    _mutate(monkeypatch, name, module, fname, replacement)
    assert _catches() == {}
