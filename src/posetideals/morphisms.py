"""Order-preserving maps between finite posets: search, classification,
canonical relabeling, and the ascending-chain replay used by the
verification suites.

Map classes form a chain: every embedding is strictly isotone, every
strictly isotone map is isotone.  A strictly isotone map need not be
injective, and the searches below never assume injectivity for that class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .poset import (
    Poset,
    bits,
    down_closure,
    linear_extension,
    mask_of,
    previous_twins,
    refine_colours,
    render_elemset,
)

ISOTONE = "isotone"
STRICTLY_ISOTONE = "strictly_isotone"
EMBEDDING = "embedding"
ISOMORPHISM = "isomorphism"
MAP_KINDS = (ISOTONE, STRICTLY_ISOTONE, EMBEDDING, ISOMORPHISM)

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    """A backtracking search ran past its node budget; the answer is unknown."""

    def __init__(self, budget: int):
        super().__init__(f"search exceeded {budget} nodes")
        self.budget = budget


@dataclass(frozen=True)
class MonotoneMap:
    source: Poset
    target: Poset
    image: tuple[int, ...]
    kind: str  # strongest class the map satisfies

    def __call__(self, i: int) -> int:
        return self.image[i]


def map_kind(A: Poset, B: Poset, img) -> str | None:
    """Strongest class the map satisfies, or None if not even isotone.

    One row test per source element.  pre[y] is the mask of sources
    mapped to y, and pulled[i] the OR of pre over B.up[img[i]]: the
    sources whose images lie above img[i].  The map is isotone iff every
    A.up[i] lies inside pulled[i], strictly isotone iff moreover
    A.up[i] & pre[img[i]] is i alone (nothing strictly above i shares its
    image), and an embedding iff pulled[i] == A.up[i] for every i.  An
    embedding is injective, so it is an isomorphism exactly when
    A.n == B.n.
    """
    pre = [0] * B.n
    for i, y in enumerate(img):
        pre[y] |= 1 << i
    strict = embedding = True
    for i, y in enumerate(img):
        row = B.up[y]
        pulled = 0
        while row:
            low = row & -row
            pulled |= pre[low.bit_length() - 1]
            row ^= low
        a = A.up[i]
        if a & ~pulled:
            return None
        strict = strict and a & pre[y] == 1 << i
        embedding = embedding and a == pulled
    if not strict:
        return ISOTONE
    if not embedding:
        return STRICTLY_ISOTONE
    return ISOMORPHISM if A.n == B.n else EMBEDDING


def iter_maps(A: Poset, B: Poset, kind: str = ISOTONE,
              budget: int | None = DEFAULT_BUDGET) -> Iterator[tuple[int, ...]]:
    """All maps A -> B satisfying the class predicate, as image tuples.

    Source elements are assigned along a fixed linear extension of A with
    candidate targets in ascending index, so the enumeration order (and in
    particular the first witness) is deterministic.

    An element's legal targets are one mask of B, the AND of one mask per
    constraining element assigned before it (forward checking): the targets
    above (strictly, for all but isotone maps) the image of each lower
    cover, and for embeddings and isomorphisms the targets incomparable to
    the image of each incomparable element; isomorphisms also drop the
    targets already used.  Candidates are taken lowest bit first.

    Budget nodes are counted per candidate index, as if each target were
    tried in turn: an element is charged one node per target index up to
    each candidate it takes, and the remaining indices once its mask runs
    out; isomorphisms charge nothing for targets already used.  Exhausting
    the budget raises BudgetExceeded rather than returning a partial answer,
    after exactly the yields a one-candidate-at-a-time search would make.
    """
    if kind not in MAP_KINDS:
        raise ValueError(f"unknown map class {kind!r}")
    if A.n == 0:
        if kind != ISOMORPHISM or B.n == 0:
            yield ()
        return
    if B.n == 0:
        return
    if kind == ISOMORPHISM and A.n != B.n:
        return
    full = B.full_mask
    strict = kind != ISOTONE
    reflect = kind in (EMBEDDING, ISOMORPHISM)
    injective = kind == ISOMORPHISM
    above = [row ^ 1 << f for f, row in enumerate(B.up)] if strict else B.up
    if reflect:
        apart = [full & ~(row | B.down[f]) for f, row in enumerate(B.up)]
    # cons[t]: (earlier element, mask table by its image) pairs bounding the
    # candidates of position t.  Lower covers suffice for the order
    # constraint, since the covers' own images already respect theirs.
    # bits() is inlined: most searches end within a few nodes, so this
    # set-up is a large share of their cost
    order = linear_extension(A)
    up, down = A.up, A.down
    cons = []
    earlier = 0
    for s in order:
        bit = 1 << s
        lower = down[s] ^ bit
        pairs = []
        rest = lower
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            if up[c] & lower == low:
                pairs.append((c, above))
            rest ^= low
        if reflect:
            rest = earlier & ~lower
            while rest:
                low = rest & -rest
                pairs.append((low.bit_length() - 1, apart))
                rest ^= low
        cons.append(pairs)
        earlier |= bit
    last = A.n - 1
    img = [0] * A.n
    cands = [full] * A.n  # candidates not yet taken at each depth
    rest = [full] * A.n   # free target indices not yet charged at each depth
    used = 0
    nodes = 0
    t = 0
    while t >= 0:
        m = cands[t]
        low = m & -m
        if budget is not None:
            if low:
                upto = (low << 1) - 1
                nodes += (rest[t] & upto).bit_count()
                rest[t] &= ~upto
            else:
                nodes += rest[t].bit_count()
            if nodes > budget:
                raise BudgetExceeded(budget)
        if not low:
            t -= 1
            if injective and t >= 0:
                used ^= 1 << img[order[t]]
            continue
        cands[t] = m ^ low
        img[order[t]] = low.bit_length() - 1
        if t == last:
            yield tuple(img)
            continue
        if injective:
            used |= low
        t += 1
        m = rest[t] = full & ~used
        for c, table in cons[t]:
            m &= table[img[c]]
        cands[t] = m


def exists_map(A: Poset, B: Poset, kind: str,
               budget: int | None = DEFAULT_BUDGET) -> MonotoneMap | None:
    """First witness of the requested class, or None if none exists.

    The returned map is re-verified against its class before being handed
    back, and its kind field records the strongest class it satisfies.
    """
    for img in iter_maps(A, B, kind, budget):
        got = map_kind(A, B, img)
        order = MAP_KINDS.index
        assert got is not None and order(got) >= order(kind), "witness failed its class"
        return MonotoneMap(A, B, img, got)
    return None


def _degree_profile(P: Poset):
    return sorted((P.down[i].bit_count(), P.up[i].bit_count()) for i in range(P.n))


def isomorphism(A: Poset, B: Poset, budget: int | None = DEFAULT_BUDGET) -> MonotoneMap | None:
    """Isomorphism witness, with cheap invariant prefilters before search."""
    if A.n != B.n:
        return None
    if _degree_profile(A) != _degree_profile(B):
        return None
    return exists_map(A, B, ISOMORPHISM, budget)


def are_isomorphic(A: Poset, B: Poset, budget: int | None = DEFAULT_BUDGET) -> bool:
    return isomorphism(A, B, budget) is not None


def canonical_form(P: Poset) -> tuple[Poset, tuple[int, ...]]:
    """Canonical relabeling of P.

    Returns (canonical poset, perm) where perm[new] = old.  The elements
    are first coloured by refine_colours, and perm must list them in
    ascending colour: position t takes only elements of colour
    sorted(colours)[t].  Among those relabelings the canonical poset
    minimizes a fixed bit encoding of the relabeled relation, and the
    certificate is the lexicographically least minimizing relabeling.
    Colours and their order are isomorphism-invariant, so isomorphic
    posets produce identical canonical relations.  Branch-and-bound on
    encoding prefixes, within the colour order, does the search.

    Placing element ``old`` at position t contributes the code
    ``up << t | down``: ``up`` has one bit per placed element p, set when
    old <= p, and ``down`` one bit set when p <= old, the first placed
    element most significant.  Both strings are kept up to date for every
    unplaced element as the prefix grows, so each candidate costs O(1),
    and codes of equal t order exactly like the 2t-bit tuples they pack.

    An element is tried only once its previous twin (previous_twins) is
    placed.  Swapping two unplaced twins is an automorphism fixing the
    prefix, so a skipped subtree yields the same codes as a kept one whose
    certificate is lexicographically smaller: the minimum and its least
    certificate are unchanged.
    """
    n = P.n
    if n == 0:
        return Poset(0, (), None), ()
    rel = P.up
    colours, _ = refine_colours(P)
    twin = previous_twins(P)
    slots = [[old for old in range(n) if colours[old] == c] for c in sorted(colours)]
    best: list[int] = []
    best_perm: tuple[int, ...] | None = None
    perm: list[int] = []
    codes: list[int] = []
    used = [False] * n
    up = [0] * n
    down = [0] * n

    def rec(tight: bool, placed: int) -> None:
        # tight: the prefix codes equal best[:t]; otherwise they are less
        nonlocal best, best_perm
        t = len(perm)
        if t == n:
            if not tight:
                best = list(codes)
                best_perm = tuple(perm)
            return
        for old in slots[t]:
            if used[old] or twin[old] & ~placed:
                continue
            code = up[old] << t | down[old]
            if tight and code > best[t]:
                continue
            used[old] = True
            perm.append(old)
            codes.append(code)
            row = rel[old]
            for u in range(n):
                if not used[u]:
                    up[u] = up[u] << 1 | rel[u] >> old & 1
                    down[u] = down[u] << 1 | row >> u & 1
            rec(tight and code == best[t], placed | 1 << old)
            for u in range(n):
                if not used[u]:
                    up[u] >>= 1
                    down[u] >>= 1
            codes.pop()
            perm.pop()
            used[old] = False
            # a leaf below either matched best or replaced it
            tight = True

    rec(False, 0)
    assert best_perm is not None
    new_bit = [0] * n
    for new, old in enumerate(best_perm):
        new_bit[old] = 1 << new
    rows = []
    for old in best_perm:
        row = 0
        for j in bits(rel[old]):
            row |= new_bit[j]
        rows.append(row)
    return Poset(n, tuple(rows), None), best_perm


def canonical_key(P: Poset) -> tuple[int, ...]:
    """Hashable canonical identifier: the up-rows of the canonical form."""
    canon, _ = canonical_form(P)
    return canon.up


# --- ascending-chain replay -------------------------------------------------

NOT_AN_IDEAL_OF_CHAINS = "NotAnIdealOfChains"
NOT_STRICTLY_ABOVE = "NotStrictlyAbove"
CHAIN_EXCEEDS_POSET = "ChainExceedsPoset"


class AssignUndefined(Exception):
    """The replay reached an ideal the assignment does not cover."""


@dataclass(frozen=True)
class KurepaStep:
    ideal: int           # mask over P: downset of the previously produced elements
    element: int | None  # assign's answer at this ideal; None on a failing step
    display: str         # printable form of the ideal


@dataclass(frozen=True)
class KurepaTrace:
    steps: tuple[KurepaStep, ...]
    reason: str
    fail_step: int

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
    from .completions import chain_ideals  # deferred: completions imports this module

    fam = set(chain_ideals(P, include_empty=True).sets)
    steps: list[KurepaStep] = []
    produced: list[int] = []
    prev = None
    k = 0
    while True:
        if k > P.n + 1:
            return KurepaTrace(tuple(steps), CHAIN_EXCEEDS_POSET, k)
        d = down_closure(P, mask_of(produced))
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
        produced.append(elem)
        prev = d
        k += 1
