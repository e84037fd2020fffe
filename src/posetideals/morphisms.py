"""Order-preserving maps between finite posets: search, classification
and canonical relabeling, which also decides isomorphism.

Map classes form a chain: every isomorphism is an embedding, every
embedding is strictly isotone, every strictly isotone map is isotone.  The
search enumerates the two weakest classes; map_kind names the strongest
class of a given map.  A strictly isotone map need not be injective, and
the search never assumes injectivity for that class.
"""

from __future__ import annotations

from collections.abc import Iterator

from .poset import Poset, linear_extension, previous_twins, refine_colours
from .record import Record, setfield

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


class MonotoneMap(Record):
    __slots__ = ("source", "target", "image", "kind")

    def __init__(self, source: Poset, target: Poset, image: tuple[int, ...], kind: str):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "image", image)
        setfield(self, "kind", kind)  # strongest class the map satisfies


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
              budget: int = DEFAULT_BUDGET) -> Iterator[tuple[int, ...]]:
    """All isotone (or all strictly isotone) maps A -> B, as image tuples.

    Source elements are assigned along a fixed linear extension of A with
    candidate targets in ascending index, so the enumeration order (and in
    particular the first witness) is deterministic.

    An element's legal targets are one mask of B, the AND of one mask per
    lower cover (forward checking, over A.lower_covers, found once per
    poset): the targets above (strictly, for strictly isotone maps) the
    cover's image.  Lower covers suffice, since the covers' own images
    already respect theirs.  Candidates are taken lowest bit first.

    A strictly isotone map sends a chain onto a chain of the same length,
    so it lowers no element's height.  When A's greatest height
    (Poset.height, computed once per poset) exceeds B's, no such map
    exists and the search ends at the root without charging a node.
    Otherwise the bound needs no mask of its own: a non-minimal element
    has a lower cover one below its height, and every target strictly
    above that cover's image is at least as high, so forward checking
    keeps only high enough targets.

    Every search counts budget nodes, per candidate index, as if each
    target were tried in turn: an element is charged one node per target index up to
    each candidate it takes, and the remaining indices once its mask runs
    out.  Exhausting the budget raises BudgetExceeded rather than returning
    a partial answer, after exactly the yields a one-candidate-at-a-time
    search would make.  A search that ends at the root charges nothing,
    so it cannot run out of budget.
    """
    if kind not in (ISOTONE, STRICTLY_ISOTONE):
        raise ValueError(f"iter_maps searches isotone or strictly isotone maps, not {kind!r}")
    if A.n == 0:
        yield ()
        return
    if B.n == 0:
        return
    if kind == STRICTLY_ISOTONE and A.height > B.height:
        return
    full = B.full_mask
    above = B.up if kind == ISOTONE else [row ^ 1 << f for f, row in enumerate(B.up)]
    order = linear_extension(A)
    covers = [A.lower_covers[s] for s in order]  # covers[t]: of order[t]
    last = A.n - 1
    img = [0] * A.n
    cands = [full] * A.n  # candidates not yet taken at each depth
    charged = [0] * A.n   # target indices already charged at each depth
    nodes = 0
    t = 0
    while t >= 0:
        m = cands[t]
        low = m & -m
        upto = low.bit_length() if low else B.n
        nodes += upto - charged[t]
        charged[t] = upto
        if nodes > budget:
            raise BudgetExceeded(budget)
        if not low:
            t -= 1
            continue
        cands[t] = m ^ low
        img[order[t]] = low.bit_length() - 1
        if t == last:
            yield tuple(img)
            continue
        t += 1
        charged[t] = 0
        m = full
        for c in covers[t]:
            m &= above[img[c]]
        cands[t] = m


def exists_map(A: Poset, B: Poset, kind: str,
               budget: int = DEFAULT_BUDGET) -> MonotoneMap | None:
    """First witness of the requested class, or None if none exists.

    The returned map is re-verified against its class before being handed
    back, and its kind field records the strongest class it satisfies.
    """
    for img in iter_maps(A, B, kind, budget):
        got = map_kind(A, B, img)
        order = MAP_KINDS.index
        if got is None or order(got) < order(kind):
            raise AssertionError("witness failed its class")
        return MonotoneMap(A, B, img, got)
    return None


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
    element most significant.  A candidate's code is computed from the
    placed prefix where it is compared.  Codes of equal t order like the
    2t-bit tuples they pack, and prefixes of codes compare as tuples.

    An element is tried only once its previous twin (previous_twins) is
    placed.  Swapping two unplaced twins is an automorphism fixing the
    prefix, so a skipped subtree yields the same codes as a kept one whose
    certificate is lexicographically smaller: the minimum and its least
    certificate are unchanged.

    The search is skipped when it is forced.  Twins share every colour,
    so each twin class lies inside one colour class, and the two
    partitions coincide exactly when there are as many twin classes
    (elements with no previous twin) as colours.  Then the one element a
    position may take is the lowest-index unplaced element of its colour,
    so the search has a single leaf: the elements in ascending colour,
    ties by index.  Sorting by colour gives that leaf directly, and it is
    the canonical relabeling; the empty poset, with no colour and no twin
    class, is forced.  A twin class never splits, so a round that reaches
    the twin partition is final: the refinement is pulled only until it
    does, and run to its end only when it does not.
    """
    n = P.n
    rel = P.up
    twin = previous_twins(P)
    classes = twin.count(0)
    for colours, table in refine_colours(P):
        if len(table) == classes:
            best_perm = tuple(sorted(range(n), key=colours.__getitem__))
            break
    else:
        best_perm = _least_relabelling(rel, colours, twin)
    new_bit = [0] * n
    for new, old in enumerate(best_perm):
        new_bit[old] = 1 << new
    rows = []
    for old in best_perm:
        row = 0
        rest = rel[old]
        while rest:
            low = rest & -rest
            row |= new_bit[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    return Poset(n, tuple(rows), None), best_perm


def _least_relabelling(rel: tuple[int, ...], colours: list[int],
                       twin: list[int]) -> tuple[int, ...]:
    """canonical_form's branch-and-bound: the least relabelling of the
    up-rows rel within the colour order, skipping twins out of order.  A
    prefix of codes above the best leaf's is pruned, and a leaf replaces
    the best only when less: relabellings are visited in lexicographic
    order, so the first least leaf is the least certificate."""
    n = len(rel)
    slots = [[old for old in range(n) if colours[old] == c] for c in sorted(colours)]
    best: tuple[int, ...] = (1,)  # every first code is 0, so above every leaf
    best_perm: tuple[int, ...] | None = None

    def rec(prefix: tuple[int, ...], perm: tuple[int, ...], placed: int) -> None:
        nonlocal best, best_perm
        t = len(prefix)
        if t == n:
            if prefix < best:
                best, best_perm = prefix, perm
            return
        for old in slots[t]:
            if placed >> old & 1 or twin[old] & ~placed:
                continue
            row = rel[old]
            up = down = 0
            for p in perm:
                up = up << 1 | row >> p & 1
                down = down << 1 | rel[p] >> old & 1
            codes = prefix + (up << t | down,)
            if codes > best[:t + 1]:
                continue
            rec(codes, perm + (old,), placed | 1 << old)

    rec((), (), 0)
    if best_perm is None:
        raise AssertionError("the canonical search reached no leaf")
    return best_perm


def canonical_key(P: Poset) -> tuple[int, ...]:
    """Hashable canonical identifier: the up-rows of the canonical form."""
    canon, _ = canonical_form(P)
    return canon.up


def are_isomorphic(A: Poset, B: Poset) -> bool:
    """Whether A and B are isomorphic: whether their canonical forms agree."""
    return canonical_key(A) == canonical_key(B)
