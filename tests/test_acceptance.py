"""Acceptance gate: the nine headline guarantees, run at full desk scale.

Each test exercises one guarantee end to end and prints an ACCEPTANCE line
on success so a `pytest -s` run doubles as the sign-off transcript.
"""

import json
import subprocess
import sys
import time
from collections import Counter

from conftest import child_env
from oracles import all_posets_naive, id_type_truncated, pairs_to_cnf, triple_to_cnf

from posetideals import (
    chain_ideals,
    downsets,
    fdown,
    ideals,
    iterate_id,
    principal_embedding,
)
from posetideals.algebra import LATTICE, UPPER, classify
from posetideals.morphisms import ISOMORPHISM, STRICTLY_ISOTONE, are_isomorphic
from posetideals.ordinals import (
    ZERO,
    cnf_str,
    cnf_from_int,
    id_order_type,
    parse_descriptor,
    product_has_cofinal_chain,
)
from posetideals.verification import (
    NOT_AN_IDEAL_OF_CHAINS,
    build_atoms_lattice,
    chains_battery,
    check_lemma_5_1,
    generate_corpus,
    kurepa_atoms_trace,
    run_suite,
    summarize,
)
from posetideals.poset import from_up_rows

CORPUS_COUNTS = (1, 1, 2, 5, 16, 63)


def test_acceptance_1_no_strict_map_from_ideals_to_base():
    t0 = time.monotonic()
    corpus = generate_corpus(5)
    assert tuple(len(row) for row in corpus.by_size) == CORPUS_COUNTS
    # independent census: brute-force all posets up to iso for n <= 4
    for n in range(5):
        assert len(all_posets_naive(n)) == CORPUS_COUNTS[n]
    # the checked family really is Id(P): chain-generated ideals coincide
    # with ordinary ideals on finite posets
    for _, P in corpus.items():
        assert chain_ideals(P, include_empty=True).sets == ideals(P, include_empty=True).sets
    reports = list(run_suite("thm21", 5))
    assert len(reports) == 88
    assert all(r.verdict == "holds" for r in reports)
    assert all(r.witness is None for r in reports)  # no witnesses, no budget outs
    assert summarize(Counter(r.verdict for r in reports), corpus.by_size) \
        == "63+16+5+2+1+1 instances: holds"
    assert time.monotonic() - t0 < 300
    print("ACCEPTANCE 1: PASS")


def test_acceptance_2_no_subsemilattice_maps_onto_ideal_semilattice():
    t0 = time.monotonic()
    corpus = generate_corpus(5)
    upper_ids = [iid for iid, P in corpus.items()
                 if classify(P).kind in (UPPER, LATTICE)]
    assert len(upper_ids) == 25
    reports = list(run_suite("thm31", 5))
    assert [r.instance for r in reports] == upper_ids
    assert all(r.verdict == "holds" for r in reports)
    assert summarize(Counter(r.verdict for r in reports)) == "25 instances: holds"
    assert time.monotonic() - t0 < 600
    print("ACCEPTANCE 2: PASS")


def test_acceptance_3_finite_posets_are_fixed_points_of_id():
    reports = list(run_suite("acc", 5))
    assert len(reports) == 88 and all(r.verdict == "holds" for r in reports)
    for _, P in generate_corpus(5).items():
        assert principal_embedding(P).kind == ISOMORPHISM
        assert are_isomorphic(iterate_id(P, 3), P)
    print("ACCEPTANCE 3: PASS")


def test_acceptance_4_downsets_are_ideals_of_finitely_generated_downsets():
    for _, P in generate_corpus(4).items():
        lhs = downsets(P).order
        rhs = ideals(fdown(P).order, include_empty=True).order
        assert are_isomorphic(lhs, rhs)
    print("ACCEPTANCE 4: PASS")


def test_acceptance_5_atoms_lattice_walk_replays_exactly():
    M, f = build_atoms_lattice(3)
    assert f.kind == STRICTLY_ISOTONE
    assert len(set(f.image)) == M.n  # injective
    trace, _ = kurepa_atoms_trace(3)
    assert trace.displays == ("∅", "{0}", "{a0,0}", "{a1,a0,0}")
    assert trace.reason == NOT_AN_IDEAL_OF_CHAINS == "NotAnIdealOfChains"
    assert trace.fail_step == 3
    assert trace.steps[3].element is None
    print("ACCEPTANCE 5: PASS")


def test_acceptance_6_no_strict_self_map_under_a_nonminimal_point():
    reports = list(run_suite("cor23", 5))
    assert len(reports) == 88
    assert all(r.verdict == "vacuous" for r in reports)
    assert all("nonminimal_tried" in r.witness for r in reports)
    print("ACCEPTANCE 6: PASS")


def test_acceptance_7_chain_downsets_satisfy_the_operator_lemma():
    reports = list(run_suite("lemma51", 5))
    assert [r.check for r in reports] == [
        "lemma51.i", "lemma51.iia_to_iib", "lemma51.i_iia_to_iic",
        "lemma51.i_iia_to_iid",
    ]
    assert all(r.verdict == "holds" for r in reports)
    assert reports[0].witness["every_member_directed"] is True
    assert reports[0].witness["all_downsets_ideals"] is True
    assert reports[1].witness == {"pair_condition": True, "failure": None}
    # adding a non-directed generator breaks the ideal property, with a
    # concrete downset as witness
    anti2 = from_up_rows([0b01, 0b10])
    aug = check_lemma_5_1(generate_corpus(4), chains_battery(2) + [anti2],
                          "chains+antichain")
    assert aug[0].verdict == "holds"
    assert aug[0].witness["every_member_directed"] is False
    assert aug[0].witness["all_downsets_ideals"] is False
    assert aug[0].witness["ideal_failure"] is not None
    print("ACCEPTANCE 7: PASS")


def test_acceptance_8_ordinal_calculus_agrees_with_truncation_oracle():
    w = parse_descriptor("w")
    w1 = parse_descriptor("w1")
    assert product_has_cofinal_chain([w, w1]) is False
    assert product_has_cofinal_chain([w, w]) is True
    for n in range(6):
        assert id_order_type(cnf_from_int(n)) == cnf_from_int(n)
    for q in range(4):
        for r in range(4):
            got = id_order_type(pairs_to_cnf(q, r))
            want = triple_to_cnf(id_type_truncated(q, r))
            assert got == want, (q, r)
    # spot values, spelled out
    omega = pairs_to_cnf(1, 0)
    assert cnf_str(id_order_type(omega)) == "w+1"
    assert cnf_str(id_order_type(pairs_to_cnf(1, 1))) == "w+2"
    assert cnf_str(id_order_type(pairs_to_cnf(3, 0))) == "w*3+1"
    assert id_order_type(ZERO) == ZERO
    print("ACCEPTANCE 8: PASS")


def test_acceptance_9_full_run_is_byte_deterministic(tmp_path):
    suites = ["thm21", "thm31", "cor23", "cor32", "lemma51", "acc", "kurepa"]

    def one_run(hashseed):
        env = child_env(PYTHONHASHSEED=hashseed)
        chunks = []
        for s in suites:
            out = subprocess.run(
                [sys.executable, "-m", "posetideals", "--format", "json",
                 "check", "--suite", s, "--max-n", "5"],
                capture_output=True, env=env)
            assert out.returncode == 0, (s, out.stderr)
            chunks.append(out.stdout)
        return b"".join(chunks)

    first = one_run("0")
    second = one_run("1")
    assert first == second
    for line in first.decode().splitlines():
        json.loads(line)  # every line is a well-formed JSON report
    print("ACCEPTANCE 9: PASS")
