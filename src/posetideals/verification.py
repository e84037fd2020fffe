"""Corpus generation and the executable theorem checks.

Everything here is exhaustive at desk scale: the corpus holds one
representative per isomorphism class of finite posets up to a size cap,
and each check either verifies a statement on an instance outright or
reports a replayable witness against it.  `vacuous` is a first-class
verdict: a check whose hypothesis cannot be satisfied at finite scale says
so instead of claiming a verification that never ran.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import product

from .algebra import SemilatticeStructure, classify
from .completions import (
    FamilyPoset,
    chain_ideals,
    downset_masks,
    ideals,
    principal_embedding,
    x_down,
)
from .morphisms import (
    DEFAULT_BUDGET,
    ISOMORPHISM,
    ISOTONE,
    STRICTLY_ISOTONE,
    BudgetExceeded,
    MonotoneMap,
    canonical_form,
    exists_map,
    iter_maps,
    map_kind,
)
from .poset import (
    CapacityExceeded,
    Poset,
    _check_capacity,
    adjoin_bounds,
    bits,
    direct_product,
    disjoint_union,
    down_closure,
    from_up_rows,
    induced,
    is_directed,
    least_in,
    mask_of,
    maximal_elements,
    minimal_elements,
    previous_twins,
    render_elemset,
)
from .record import Record, setfield

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"
UNKNOWN = "unknown"

CORPUS_CEILING = 8
# OEIS A000112: the number of posets on n unlabelled points, n = 0..9
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231)


class CheckReport(Record):
    __slots__ = ("check", "instance", "verdict", "witness")

    def __init__(self, check: str, instance: str, verdict: str, witness: dict | None = None):
        setfield(self, "check", check)
        setfield(self, "instance", instance)
        setfield(self, "verdict", verdict)
        setfield(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.verdict in (HOLDS, VACUOUS)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "verdict": self.verdict,
            "witness": self.witness,
        }


class Corpus(Record):
    __slots__ = ("max_n", "by_size", "provenance")

    def __init__(self, max_n: int, by_size: tuple[tuple[Poset, ...], ...], provenance: str):
        setfield(self, "max_n", max_n)
        setfield(self, "by_size", by_size)
        setfield(self, "provenance", provenance)

    def items(self) -> list[tuple[str, Poset]]:
        out = []
        for n, row in enumerate(self.by_size):
            out.extend((f"n{n}/{i:02d}", P) for i, P in enumerate(row))
        return out


def _extend_by_maximal(P: Poset, downset: int) -> Poset:
    """Adjoin one new maximal element sitting exactly above a downset.

    The child's down-rows are known without a transposition: the new
    element is below no old one, so each old row is P's, and the new row
    is the downset and the element itself.  They are stored the way
    Poset.height stores longest_chain_bottoms, so that previous_twins and
    refine_colours read them instead of transposing the up-rows again."""
    n = P.n
    rows = [P.up[i] | (1 << n if downset >> i & 1 else 0) for i in range(n)]
    rows.append(1 << n)
    child = from_up_rows(rows)
    child.__dict__["down"] = P.down + (downset | 1 << n,)
    return child


@lru_cache(maxsize=None)
def generate_corpus(max_n: int = 5, ceiling: int = CORPUS_CEILING) -> Corpus:
    """All posets up to isomorphism, sizes 0..max_n, stored canonically.

    Orderly extension: every poset on n+1 points arises from one on n
    points by adding a new maximal element over some downset.  Each size-n
    representative is extended over its downsets, the children are
    deduplicated by canonical form, and each row is sorted by canonical
    up-rows.  Two rules skip downsets whose children some kept downset
    already covers (the cheap half of McKay's canonical construction path,
    *Isomorph-free exhaustive generation*, 1998):

    - Canonical deletion: skip when some maximal element outside the
      downset has a larger down-set than the new element.  A class Q on
      n+1 points is still reached: delete a maximal m of Q with the
      largest down-set; extending the representative of Q - m over the
      image of the rest of down(m) gives a child isomorphic to Q that no
      maximal element beats.
    - Twin filter: within each twin class of the parent (previous_twins)
      the downset may hold only a lowest-indexed run.  Permuting twins is
      an automorphism, which maps any downset onto one that passes, keeps
      the child's class and keeps the first rule's verdict.

    Neither rule touches the canonical forms, so the corpus is the same
    sorted set of representatives as extending in every way.
    """
    if max_n > ceiling:
        raise CapacityExceeded(f"corpus size {max_n} exceeds ceiling {ceiling}")
    rows: list[tuple[Poset, ...]] = [(Poset(0, ()),)]
    for n in range(1, max_n + 1):
        seen: dict[tuple[int, ...], Poset] = {}
        for parent in rows[n - 1]:
            tops = [(parent.down[m].bit_count(), 1 << m)
                    for m in bits(maximal_elements(parent))]
            links = [(1 << i, prev) for i, prev in enumerate(previous_twins(parent)) if prev]
            for d in downset_masks(parent):
                size = d.bit_count() + 1
                if any(k > size and not d & m for k, m in tops):
                    continue
                if any(d & i and not d & prev for i, prev in links):
                    continue
                canon, _ = canonical_form(_extend_by_maximal(parent, d))
                seen.setdefault(canon.up, canon)
        rows.append(tuple(sorted(seen.values(), key=lambda Q: Q.up)))
    return Corpus(max_n, tuple(rows), "orderly-extension-v2")


# --- per-instance checks ------------------------------------------------------


def check_theorem_2_1(P: Poset, instance: str = "adhoc",
                      budget: int = DEFAULT_BUDGET) -> CheckReport:
    """No strictly isotone map from the chain-generated ideals of P into P.

    The family holds the empty ideal and the down-set of every element,
    so the empty ideal below the down-sets of a longest chain of P is a
    chain one longer than P's longest.  iter_maps' height bound therefore
    ends every finite search at the root without charging a node, and the
    verdict is never unknown."""
    F = chain_ideals(P, include_empty=True)
    try:
        w = exists_map(F.order, P, STRICTLY_ISOTONE, budget=budget)
    except BudgetExceeded:
        return CheckReport("thm21", instance, UNKNOWN, {"budget": budget})
    if w is None:
        return CheckReport("thm21", instance, HOLDS)
    return CheckReport("thm21", instance, FAILS,
                       {"image": list(w.image), "family": list(F.sets)})


def check_theorem_2_1_id(P: Poset, instance: str = "adhoc",
                         budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Negative control for thm21: with the nonempty ideals id(P) in place
    of the chain-generated ideals, a strictly isotone map into P exists.

    A finite P has only principal ideals, so id(P) is isomorphic to P and
    the same height-bounded search thm21 runs must find a map; fails here
    means that search lost a real witness.  exists_map re-checks the
    witness against its class.  The empty poset has no nonempty ideal:
    vacuous."""
    if P.n == 0:
        return CheckReport("thm21-id", instance, VACUOUS)
    F = ideals(P, include_empty=False)
    try:
        w = exists_map(F.order, P, STRICTLY_ISOTONE, budget=budget)
    except BudgetExceeded:
        return CheckReport("thm21-id", instance, UNKNOWN, {"budget": budget})
    if w is None:
        return CheckReport("thm21-id", instance, FAILS)
    return CheckReport("thm21-id", instance, HOLDS, {"image": list(w.image)})


def check_theorem_3_1(S: Poset | SemilatticeStructure,
                      instance: str = "adhoc") -> CheckReport:
    """No subsemilattice of an upper semilattice S admits a surjective
    join-homomorphism onto the ideals of S (empty ideal included).

    S may come as its classify() structure, so that a caller that has
    already classified it (run_suite does, to pick the upper semilattices)
    does not classify it again.

    Settled by counting, as cor32 is: the image of a subsemilattice has at
    most |S| points, while Id(S) holds the empty ideal and the |S| distinct
    principal ideals, so |Id(S)| >= |S| + 1 and no join-homomorphism is
    onto.  The ideals are counted from the definition, and a count below
    |S| + 1 fails with the count and |S|; no carrier is listed and no map
    is searched."""
    SS = S if isinstance(S, SemilatticeStructure) else classify(S)
    if not SS.is_upper:
        raise ValueError("S must be an upper semilattice")
    n = SS.base.n
    count = len(ideals(SS.base, include_empty=True))
    if count < n + 1:
        return CheckReport("thm31", instance, FAILS, {"ideals": count, "n": n})
    return CheckReport("thm31", instance, HOLDS)


def check_corollary_2_3_hypothesis(P: Poset, instance: str = "adhoc",
                                   budget: int = DEFAULT_BUDGET) -> CheckReport:
    """Search for a strictly isotone self-map of P into a principal up-set
    over a nonminimal element.

    Finite posets can never satisfy this.  A strictly isotone map lowers
    no element's height, so its target must hold a chain as long as P's
    longest; but a longest chain of the up-set of x starts at x, and when
    x is nonminimal it extends below x, so the up-set of x is as high as
    P only when x is a bottom of a longest chain of P, and no such bottom
    is nonminimal.  One peel of P (Poset.longest_chain_bottoms) settles
    this bound for every x at once: no up-set is built for an x it rules
    out.  Any nonminimal x it does not rule out still gets the full
    search, so the verdict never rests on the argument alone.  The
    expected verdict is therefore vacuous, with the number of nonminimal
    elements; an actual witness is reported as fails so it gets
    investigated rather than celebrated.
    """
    nonminimal = P.full_mask & ~minimal_elements(P)
    exhausted = False
    for x in bits(nonminimal & P.longest_chain_bottoms):
        T, _ = induced(P, P.up[x])
        try:
            w = exists_map(P, T, STRICTLY_ISOTONE, budget=budget)
        except BudgetExceeded:
            exhausted = True
            continue
        if w is not None:
            return CheckReport("cor23", instance, FAILS,
                               {"x": x, "image": list(w.image)})
    if exhausted:
        return CheckReport("cor23", instance, UNKNOWN, {"budget": budget})
    return CheckReport("cor23", instance, VACUOUS,
                       {"nonminimal_tried": nonminimal.bit_count()})


def check_corollary_3_2(P: Poset, instance: str = "adhoc",
                        budget: int = DEFAULT_BUDGET) -> CheckReport:
    """No isotone map from any subset of P onto all downsets of P.

    Settled by counting: the image of a subset has at most |P| points,
    while Down(P) holds the empty set and the |P| distinct principal
    downsets, so |Down(P)| >= |P| + 1 and no map is onto.  The downsets
    are counted, and a count below |P| + 1 fails with the count and |P|.
    No map is searched, so budget is unused; it stays in the signature
    for callers that pass it positionally.
    """
    count = len(downset_masks(P))
    if count < P.n + 1:
        return CheckReport("cor32", instance, FAILS, {"downsets": count, "n": P.n})
    return CheckReport("cor32", instance, HOLDS, {"downsets": count})


def check_acc(P: Poset, instance: str = "adhoc") -> CheckReport:
    """Finite posets satisfy the ascending chain condition, so P is
    isomorphic to id^3(P), its third nonempty-ideal completion.

    Each stage's principal-downset map onto the next stage must be an
    isomorphism, as map_kind verifies it; the three compose to P ~ id^3(P).
    The first stage k = 1, 2, 3 whose map is not reports its kind.

    The check stops early at the id fixpoint: once a stage's map is an
    isomorphism onto an order with the stage's own up-rows, every later
    stage would rebuild the same family and the same map, since
    principal_embedding reads only n and up.  On a finite poset that
    happens by stage 2.  A family order lists its members in ascending
    mask order, so each member lies above only members of lower index:
    the order's labelling is a linear extension.  Under such a labelling
    the principal downset of i has i as its highest bit, so once the
    ideals are verified principal they sort in index order and the next
    order has the same rows.  The corpus labels every poset along a
    linear extension, so there stage 1 is already the fixpoint.  Every
    stage that runs still enumerates its ideals from the definition."""
    stage = P
    for k in (1, 2, 3):
        emb = principal_embedding(stage)
        if emb.kind != ISOMORPHISM:
            return CheckReport("acc", instance, FAILS, {"stage": k, "kind": emb.kind})
        if emb.target.up == stage.up:
            break
        stage = emb.target
    return CheckReport("acc", instance, HOLDS)


def check_census(corpus: Corpus) -> list[CheckReport]:
    """One report per corpus size n: the number of classes the corpus
    holds at n against the known count, OEIS A000112.

    A corpus that keeps two isomorphic posets, or loses a class, passes
    every other suite, since each checks its instances one at a time; the
    count is what sees it.  A size past the end of the table is unknown,
    with its count."""
    reports = []
    for n, row in enumerate(corpus.by_size):
        want = A000112[n] if n < len(A000112) else None
        verdict = UNKNOWN if want is None else HOLDS if len(row) == want else FAILS
        reports.append(CheckReport("census", f"n{n}", verdict,
                                   {"classes": len(row), "expected": want}))
    return reports


# --- named constructions ------------------------------------------------------


def build_chain_bundle(k: int) -> Poset:
    """Disjoint chains of lengths 1..k with a shared bottom and top."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = 2 + k * (k + 1) // 2
    _check_capacity(m)
    top = m - 1
    rows = [(1 << m) - 1]  # bottom sees everything
    labels = ["0"]
    pos = 1
    for j in range(1, k + 1):
        for t in range(j):
            above_in_chain = sum(1 << (pos + s) for s in range(j - t))
            rows.append(above_in_chain | 1 << top)
            labels.append(f"c{j}.{t}")
            pos += 1
    rows.append(1 << top)
    labels.append("1")
    return from_up_rows(rows, labels=tuple(labels))


def build_atoms_lattice(k: int) -> tuple[Poset, MonotoneMap]:
    """The height-2 lattice with k atoms, and the ideal-valued map that
    sends each atom to the principal downset of its predecessor.

    The map lands in the ideal completion (empty ideal included), is
    strictly isotone and injective, yet pulling ideals back along it can
    leave the world of ideals; the replay in kurepa_atoms_trace walks
    straight into that.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = k + 2
    _check_capacity(n)
    top = n - 1
    rows = [(1 << n) - 1]
    labels = ["0"]
    for i in range(k):
        rows.append(1 << (1 + i) | 1 << top)
        labels.append(f"a{i}")
    rows.append(1 << top)
    labels.append("1")
    M = from_up_rows(rows, labels=tuple(labels))
    F = ideals(M, include_empty=True)
    image = [F.index(0), F.index(M.down[0])]
    for i in range(1, k):
        image.append(F.index(M.down[i]))  # atom a_i -> downset of a_{i-1}
    image.append(F.index(M.full_mask))
    kind = map_kind(M, F.order, tuple(image))
    if kind is None:
        raise AssertionError("the atom assignment is not isotone")
    return M, MonotoneMap(M, F.order, tuple(image), kind)


def build_idemb_tower(L: Poset, N: int) -> Poset:
    """Disjoint union of the ideal-completion stages of a lattice, bounded."""
    if L.n == 0 or not classify(L).is_lattice:
        raise ValueError("L must be a nonempty lattice")
    if N < 0:
        raise ValueError("N must be >= 0")
    # a finite lattice's nonempty ideals are its principal ones: every
    # stage has L.n elements
    _check_capacity((N + 1) * L.n + 2)
    stages = [L]
    for _ in range(N):
        stages.append(ideals(stages[-1], include_empty=False).order)
    return adjoin_bounds(disjoint_union(stages))


# --- ascending-chain replay ---------------------------------------------------

NOT_AN_IDEAL_OF_CHAINS = "NotAnIdealOfChains"
NOT_STRICTLY_ABOVE = "NotStrictlyAbove"
CHAIN_EXCEEDS_POSET = "ChainExceedsPoset"


class AssignUndefined(Exception):
    """The replay reached an ideal the assignment does not cover."""


class KurepaStep(Record):
    __slots__ = ("ideal", "element", "display")

    def __init__(self, ideal: int, element: int | None, display: str):
        setfield(self, "ideal", ideal)  # mask over P: downset of the elements produced so far
        setfield(self, "element", element)  # assign's answer at this ideal; None on a failing step
        setfield(self, "display", display)  # printable form of the ideal


class KurepaTrace(Record):
    __slots__ = ("steps", "reason", "fail_step")

    def __init__(self, steps: tuple[KurepaStep, ...], reason: str, fail_step: int):
        setfield(self, "steps", steps)
        setfield(self, "reason", reason)
        setfield(self, "fail_step", fail_step)

    @property
    def displays(self) -> tuple[str, ...]:
        return tuple(s.display for s in self.steps)


def kurepa_chain(P: Poset, assign: Callable[[int], int]) -> KurepaTrace:
    """Run the ascending-ideal recursion driven by an element assignment.

    ``assign`` is a partial map from chain-generated ideals of P (masks) to
    elements of P; raising LookupError surfaces as AssignUndefined.

    The recursion's value at step k is the downset x_k of all previously
    assigned elements.  Each x_k must be a chain-generated ideal (else the
    run fails with NotAnIdealOfChains at step k) and must strictly exceed
    its predecessor (else NotStrictlyAbove at step k: the last assigned
    element pushed the ideal nowhere).  Every x_k gets a trace step, the
    failing one included, with its assigned element where one was taken.
    ChainExceedsPoset guards the impossible case of the ideal outgrowing
    the poset; a total assignment always fails earlier, which is the point.
    """
    fam = chain_ideals(P, include_empty=True)
    steps: list[KurepaStep] = []
    d = 0  # the downset of the elements assigned so far
    prev = None
    k = 0
    while True:
        if k > P.n + 1:
            return KurepaTrace(tuple(steps), CHAIN_EXCEEDS_POSET, k)
        if d not in fam:
            steps.append(KurepaStep(d, None, render_elemset(P, d)))
            return KurepaTrace(tuple(steps), NOT_AN_IDEAL_OF_CHAINS, k)
        if prev is not None and d == prev:
            steps.append(KurepaStep(d, None, render_elemset(P, d)))
            return KurepaTrace(tuple(steps), NOT_STRICTLY_ABOVE, k)
        try:
            elem = assign(d)
        except LookupError as exc:
            raise AssignUndefined(f"assignment undefined on ideal mask {d:#x}") from exc
        steps.append(KurepaStep(d, elem, render_elemset(P, d)))
        prev = d
        d |= P.down[elem]
        k += 1


def kurepa_atoms_trace(k: int = 3) -> tuple[KurepaTrace, MonotoneMap]:
    """Replay the ascending recursion against the atoms-lattice map."""
    M, f = build_atoms_lattice(k)
    F = ideals(M, include_empty=True)
    table = {F.sets[f.image[x]]: x for x in range(M.n)}
    return kurepa_chain(M, lambda d: table[d]), f


# --- the downset-operator comparison suite ------------------------------------


def _cofinal_image_exists(R: Poset, Q: Poset, Qp: Poset,
                          budget: int) -> bool:
    prod = direct_product(Q, Qp)
    for img in iter_maps(R, prod, ISOTONE, budget=budget):
        if down_closure(prod, mask_of(img)) == prod.full_mask:
            return True
    return False


def check_lemma_5_1(corpus: Corpus, X: list[Poset], x_name: str = "X",
                    budget: int = DEFAULT_BUDGET) -> list[CheckReport]:
    """Evaluate the downset-operator lemma for a class X of posets.

    Reports, in order:
      [0] the equivalence: every X-generated downset is an ideal in every
          (corpus or X) poset  <=>  every member of X is upward directed;
      [1] directed products: if every pair Q,Q' of members admits some
          member mapping onto a cofinal subset of Q x Q', then X-generated
          downsets of every lower semilattice are closed under meets;
      [2] given [0]'s conditions and [1]'s hypothesis, closure under ideal
          joins in every upper semilattice;
      [3] both hypotheses again, closure under both in every lattice.
    Implications with a false hypothesis report vacuous, with the measured
    sub-facts in the witness payload.  All four are unknown when a map
    search runs out of budget.

    One walk serves all four.  Each corpus poset is classified once; a
    poset is searched by x_down (and an upper semilattice completed to its
    ideals) at most once, only while some report is still open on it, as
    checking each report alone would.  Nothing is kept between posets.
    """
    try:
        return _lemma_5_1_reports(corpus, X, x_name, budget)
    except BudgetExceeded:
        return [CheckReport(f"lemma51.{c}", x_name, UNKNOWN, {"budget": budget})
                for c in ("i", "iia_to_iib", "i_iia_to_iic", "i_iia_to_iid")]


def _pair_failure(iid: str, XD: tuple[int, ...], Id: FamilyPoset | None,
                  want_meet: bool) -> dict | None:
    """The first pair a, b of XD whose meet (when want_meet) or least ideal
    above a | b (when the ideal family Id is given) is missing from XD.
    Each unordered pair is taken once, a first: a pair fails exactly when
    its mirror does, and the mirror comes later in the full scan."""
    members = set(XD)
    for i, a in enumerate(XD):
        for b in XD[i:]:
            if want_meet and (a & b) not in members:
                return {"poset": iid, "a": a, "b": b, "meet": a & b}
            if Id is not None:
                t = a | b
                m = least_in(Id.order.up, mask_of(
                    i for i, d in enumerate(Id.sets) if t & ~d == 0))
                j = None if m is None else Id.sets[m]
                if j is None or j not in members:
                    return {"poset": iid, "a": a, "b": b, "join": j}
    return None


def _lemma_5_1_reports(corpus: Corpus, X: list[Poset], x_name: str,
                       budget: int) -> list[CheckReport]:
    ib = all(is_directed(Q, Q.full_mask) for Q in X)
    iia_witness = next(((Q.up, Qp.up) for Q, Qp in product(X, X)
                        if not any(_cofinal_image_exists(R, Q, Qp, budget) for R in X)),
                       None)
    iia = iia_witness is None
    joins = iia and ib

    ia_witness = meet_failure = join_failure = both_failure = None
    targets = [(iid, P, True) for iid, P in corpus.items()]
    # the members of X come last, for [0] alone
    targets.extend((f"member/{j}", Q, False) for j, Q in enumerate(X))
    for iid, P, in_corpus in targets:
        S = classify(P) if in_corpus else None
        want_meet = S and S.is_lower and meet_failure is None
        want_join = S and joins and S.is_upper and join_failure is None
        want_both = S and joins and S.is_lattice and both_failure is None
        if not (ia_witness is None or want_meet or want_join or want_both):
            continue
        XD = x_down(P, X, budget=budget).sets
        if ia_witness is None:
            ia_witness = next(({"poset": iid, "downset": d} for d in XD
                               if not is_directed(P, d)), None)
        Id = ideals(P, include_empty=True) if want_join or want_both else None
        if want_meet:
            meet_failure = _pair_failure(iid, XD, None, True)
        if want_join:
            join_failure = _pair_failure(iid, XD, Id, False)
        if want_both:
            both_failure = _pair_failure(iid, XD, Id, True)

    ia = ia_witness is None
    reports = [CheckReport(
        "lemma51.i", x_name, HOLDS if ia == ib else FAILS,
        {"every_member_directed": ib, "all_downsets_ideals": ia,
         "ideal_failure": ia_witness})]
    if not iia:
        # the implication is vacuous, but whether the consequent held
        # anyway is worth recording: it can
        reports.append(CheckReport("lemma51.iia_to_iib", x_name, VACUOUS,
                                   {"pair_condition": False, "pair": iia_witness,
                                    "consequent_holds": meet_failure is None,
                                    "failure": meet_failure}))
    else:
        reports.append(CheckReport("lemma51.iia_to_iib", x_name,
                                   HOLDS if meet_failure is None else FAILS,
                                   {"pair_condition": True, "failure": meet_failure}))
    for name, w in (("lemma51.i_iia_to_iic", join_failure),
                    ("lemma51.i_iia_to_iid", both_failure)):
        if joins:
            reports.append(CheckReport(name, x_name, HOLDS if w is None else FAILS,
                                       {"pair_condition": True, "failure": w}))
        else:
            reports.append(CheckReport(name, x_name, VACUOUS,
                                       {"pair_condition": iia, "directed": ib}))
    return reports


def check_kurepa_atoms(k: int = 3) -> CheckReport:
    """The atoms-lattice replay must leave the chain-ideal family at step 3
    with the documented four-step trace."""
    trace, f = kurepa_atoms_trace(k)
    injective = len(set(f.image)) == f.source.n
    expected = ("∅", "{0}", "{a0,0}", "{a1,a0,0}")
    ok = (trace.reason == NOT_AN_IDEAL_OF_CHAINS and trace.fail_step == 3
          and trace.displays == expected
          and f.kind == STRICTLY_ISOTONE and injective)
    payload = {
        "trace": list(trace.displays),
        "reason": trace.reason,
        "fail_step": trace.fail_step,
        "map_kind": f.kind,
        "injective": injective,
    }
    return CheckReport("kurepa", f"atoms(k={k})", HOLDS if ok else FAILS, payload)


# --- suites -------------------------------------------------------------------

SUITES = ("thm21", "thm31", "cor23", "cor32", "lemma51", "acc", "kurepa", "thm21-id",
          "census")
# the suites with one report per corpus instance, each with its check,
# looked up by name at call time so that a patched check is the one called
PER_INSTANCE = {
    "thm21": lambda P, iid, budget: check_theorem_2_1(P, iid, budget),
    "cor23": lambda P, iid, budget: check_corollary_2_3_hypothesis(P, iid, budget),
    "cor32": lambda P, iid, budget: check_corollary_3_2(P, iid, budget),
    "acc": lambda P, iid, budget: check_acc(P, iid),
    "thm21-id": lambda P, iid, budget: check_theorem_2_1_id(P, iid, budget),
}


def chains_battery(max_len: int = 3) -> list[Poset]:
    """All chains with 1..max_len elements."""
    out = []
    for m in range(1, max_len + 1):
        rows = [((1 << m) - 1) & ~((1 << i) - 1) for i in range(m)]
        out.append(from_up_rows(rows))
    return out


def run_suite(name: str, max_n: int = 5, budget: int = DEFAULT_BUDGET,
              k: int = 3) -> Iterator[CheckReport]:
    """Yield the reports of one suite, each as it is made.  Every suite but
    kurepa reads the corpus up to max_n, and only those build it.  Nothing
    runs, not even the name check, until the first report is asked for."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name == "kurepa":
        # both are built before either is yielded, so a bad k yields nothing
        yield from [check_kurepa_atoms(kk) for kk in sorted({2, k})]
    elif name == "lemma51":
        yield from check_lemma_5_1(generate_corpus(max_n), chains_battery(3), "chains<=3",
                                   budget)
    elif name == "census":
        yield from check_census(generate_corpus(max_n))
    elif name == "thm31":
        for iid, P in generate_corpus(max_n).items():
            SS = classify(P)
            if SS.is_upper:
                yield check_theorem_3_1(SS, iid)
    else:
        check = PER_INSTANCE[name]
        yield from (check(P, iid, budget) for iid, P in generate_corpus(max_n).items())


def summarize(tally: Counter[str], by_size: tuple[tuple[Poset, ...], ...] | None = None) -> str:
    """One-line human summary of one suite's verdict tally.  Given the
    corpus rows of a suite that reports once per corpus instance, an
    all-holds run over the whole corpus counts per size."""
    total = sum(tally.values())
    if by_size is not None and tally[HOLDS] == total == sum(len(row) for row in by_size):
        counts = "+".join(str(len(row)) for row in reversed(by_size))
        return f"{counts} instances: holds"
    for v in (HOLDS, VACUOUS):
        if total and tally[v] == total:
            return f"{total} instances: {v}"
    parts = [f"{tally[v]} {v}" for v in (HOLDS, VACUOUS, FAILS, UNKNOWN) if tally[v]]
    return f"{total} instances: " + ", ".join(parts)
