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

from .poset import Poset, bits, down_closure, linear_extension, mask_of, render_elemset

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


def _is_isotone(A: Poset, B: Poset, img) -> bool:
    for i in range(A.n):
        for j in bits(A.up[i]):
            if not B.leq(img[i], img[j]):
                return False
    return True


def _is_strict(A: Poset, B: Poset, img) -> bool:
    for i in range(A.n):
        for j in bits(A.up[i] & ~(1 << i)):
            if not B.lt(img[i], img[j]):
                return False
    return True


def _is_embedding(A: Poset, B: Poset, img) -> bool:
    for i in range(A.n):
        for j in range(A.n):
            if A.leq(i, j) != B.leq(img[i], img[j]):
                return False
    return True


def map_kind(A: Poset, B: Poset, img) -> str | None:
    """Strongest class the map satisfies, or None if not even isotone."""
    if not _is_isotone(A, B, img):
        return None
    if not _is_strict(A, B, img):
        return ISOTONE
    if not _is_embedding(A, B, img):
        return STRICTLY_ISOTONE
    if A.n == B.n and len(set(img)) == A.n:
        return ISOMORPHISM
    return EMBEDDING


def iter_maps(A: Poset, B: Poset, kind: str = ISOTONE,
              budget: int | None = DEFAULT_BUDGET) -> Iterator[tuple[int, ...]]:
    """All maps A -> B satisfying the class predicate, as image tuples.

    Source elements are assigned along a fixed linear extension of A with
    candidate targets in ascending index, so the enumeration order (and in
    particular the first witness) is deterministic.  Every (element,
    candidate) trial costs one budget node; exhausting the budget raises
    BudgetExceeded rather than returning a partial answer.
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
    order = linear_extension(A)
    img = [-1] * A.n
    nodes = 0
    need_injective = kind == ISOMORPHISM
    used = [False] * B.n

    def ok(t: int, cand: int) -> bool:
        s = order[t]
        for t2 in range(t):
            s2 = order[t2]
            f2 = img[s2]
            below = A.leq(s2, s)  # s <= s2 is impossible along a linear extension
            if kind == ISOTONE:
                if below and not B.leq(f2, cand):
                    return False
            elif kind == STRICTLY_ISOTONE:
                if s2 != s and below and not B.lt(f2, cand):
                    return False
            else:  # embedding / isomorphism
                if below:
                    if not B.lt(f2, cand):
                        return False
                else:
                    if B.leq(f2, cand) or B.leq(cand, f2):
                        return False
        return True

    def search(t: int) -> Iterator[tuple[int, ...]]:
        nonlocal nodes
        if t == A.n:
            yield tuple(img)
            return
        s = order[t]
        for cand in range(B.n):
            if need_injective and used[cand]:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(budget)
            if ok(t, cand):
                img[s] = cand
                if need_injective:
                    used[cand] = True
                yield from search(t + 1)
                if need_injective:
                    used[cand] = False
                img[s] = -1

    yield from search(0)


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

    Returns (canonical poset, perm) where perm[new] = old and the canonical
    poset minimizes a fixed bit encoding of the relabeled relation over all
    relabelings.  Isomorphic posets produce identical canonical relations,
    and the certificate is the lexicographically least minimizing
    relabeling.  Branch-and-bound on encoding prefixes keeps this fast at
    the sizes the corpus generator needs.

    Placing element ``old`` at position t contributes the code
    ``up << t | down``: ``up`` has one bit per placed element p, set when
    old <= p, and ``down`` one bit set when p <= old, the first placed
    element most significant.  Both strings are kept up to date for every
    unplaced element as the prefix grows, so each candidate costs O(1),
    and codes of equal t order exactly like the 2t-bit tuples they pack.
    """
    n = P.n
    if n == 0:
        return Poset(0, (), None), ()
    rel = P.up
    best: list[int] = []
    best_perm: tuple[int, ...] | None = None
    perm: list[int] = []
    codes: list[int] = []
    used = [False] * n
    up = [0] * n
    down = [0] * n

    def rec(tight: bool) -> None:
        # tight: the prefix codes equal best[:t]; otherwise they are less
        nonlocal best, best_perm
        t = len(perm)
        if t == n:
            if not tight:
                best = list(codes)
                best_perm = tuple(perm)
            return
        for old in range(n):
            if used[old]:
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
            rec(tight and code == best[t])
            for u in range(n):
                if not used[u]:
                    up[u] >>= 1
                    down[u] >>= 1
            codes.pop()
            perm.pop()
            used[old] = False
            # a leaf below either matched best or replaced it
            tight = True

    rec(False)
    assert best_perm is not None
    rows = []
    for i in range(n):
        row = 0
        for j in range(n):
            if P.leq(best_perm[i], best_perm[j]):
                row |= 1 << j
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
