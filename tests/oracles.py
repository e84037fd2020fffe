"""Reference implementations the package is checked against.

Everything here works straight from the definitions with no shortcuts:
subsets are scanned exhaustively, order data is consumed only through
Poset.leq, and the ordinal model is a separate representation (blocks and
degree triples) rather than a second copy of the normal-form code.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from posetideals import CnfOrdinal, classify, fdown
from posetideals.completions import downset_masks, principal_embedding
from posetideals.morphisms import (
    DEFAULT_BUDGET,
    EMBEDDING,
    ISOMORPHISM,
    ISOTONE,
    MAP_KINDS,
    STRICTLY_ISOTONE,
    BudgetExceeded,
    canonical_form,
)
from posetideals.ordinals import ZERO, cnf_from_int
from posetideals.poset import Poset, bits, linear_extension, previous_twins
from posetideals.verification import FAILS, HOLDS, CheckReport, _extend_by_maximal


def members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def is_downset_naive(P, s: int) -> bool:
    for i in members(s):
        for j in range(P.n):
            if P.leq(j, i) and not s >> j & 1:
                return False
    return True


def is_directed_naive(P, s: int) -> bool:
    elems = members(s)
    for a in elems:
        for b in elems:
            if not any(P.leq(a, c) and P.leq(b, c) for c in elems):
                return False
    return True


def is_chain_naive(P, s: int) -> bool:
    elems = members(s)
    return all(P.leq(a, b) or P.leq(b, a) for a in elems for b in elems)


def heights_naive(P) -> list[int]:
    """Entry s is the number of elements below s on a longest chain ending
    at s, found by enumerating every subset of P that is a chain."""
    out = [0] * P.n
    for s in range(1, 1 << P.n):
        if is_chain_naive(P, s):
            elems = members(s)
            top = next(x for x in elems if all(P.leq(y, x) for y in elems))
            out[top] = max(out[top], len(elems) - 1)
    return out


def downsets_naive(P) -> set[int]:
    return {s for s in range(1 << P.n) if is_downset_naive(P, s)}


def ideals_naive(P, include_empty: bool) -> set[int]:
    out = {s for s in downsets_naive(P) if is_directed_naive(P, s)}
    if not include_empty:
        out.discard(0)
    return out


def chain_downsets_naive(P, include_empty: bool) -> set[int]:
    """Down-closures of chain subsets, scanning every subset."""
    out = set()
    for c in range(1 << P.n):
        if not is_chain_naive(P, c):
            continue
        cl = 0
        for i in range(P.n):
            if any(P.leq(i, x) for x in members(c)):
                cl |= 1 << i
        out.add(cl)
    if not include_empty:
        out.discard(0)
    return out


def covers_naive(P) -> set[tuple[int, int]]:
    out = set()
    for i in range(P.n):
        for j in range(P.n):
            if i == j or not P.leq(i, j):
                continue
            between = any(P.leq(i, z) and P.leq(z, j) and z not in (i, j)
                          for z in range(P.n))
            if not between:
                out.add((i, j))
    return out


def transitive_closure_naive(rows) -> list[int]:
    """Closure by the pairwise fixpoint: add (i, k) for every i R j and
    j R k until nothing changes."""
    n = len(rows)
    rel = {(i, j) for i in range(n) for j in range(n) if rows[i] >> j & 1}
    while True:
        more = {(i, k) for i, j in rel for j2, k in rel if j == j2} - rel
        if not more:
            return [sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n)]
        rel |= more


def least_naive(P, s: int):
    """The member of s below every member of s, if there is one."""
    elems = members(s)
    for m in elems:
        if all(P.leq(m, x) for x in elems):
            return m
    return None


def inclusion_rows_pairwise(sets) -> tuple[int, ...]:
    """Up-rows of the inclusion order on sets, comparing every pair."""
    rows = []
    for s in sets:
        row = 0
        for j, t in enumerate(sets):
            if s & ~t == 0:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def fdown_naive(P) -> set[int]:
    """Unions of nonempty sets of principal downsets."""
    principal = []
    for x in range(P.n):
        principal.append(sum(1 << y for y in range(P.n) if P.leq(y, x)))
    out = set()
    for pick in range(1, 1 << P.n):
        u = 0
        for x in members(pick):
            u |= principal[x]
        out.add(u)
    return out


def isotone_images_naive(A, B) -> set[tuple[int, ...]]:
    """Every function A -> B, filtered by the order-preservation clause."""
    out = set()
    for img in product(range(B.n), repeat=A.n):
        if all(B.leq(img[i], img[j])
               for i in range(A.n) for j in range(A.n) if A.leq(i, j)):
            out.add(img)
    return out


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


def map_kind_naive(A: Poset, B: Poset, img) -> str | None:
    """The pairwise classification map_kind used before its row tests,
    kept verbatim: each class predicate is checked pair by pair."""
    if not _is_isotone(A, B, img):
        return None
    if not _is_strict(A, B, img):
        return ISOTONE
    if not _is_embedding(A, B, img):
        return STRICTLY_ISOTONE
    if A.n == B.n and len(set(img)) == A.n:
        return ISOMORPHISM
    return EMBEDDING


def iter_maps_reference(A: Poset, B: Poset, kind: str = ISOTONE,
                        budget: int | None = DEFAULT_BUDGET,
                        height_bound: bool = False) -> Iterator[tuple[int, ...]]:
    """The per-candidate map search iter_maps used before candidate masks,
    kept verbatim but for height_bound: each candidate is tested against
    every earlier assigned element.  Its yields are iter_maps' contract for
    the two classes iter_maps searches, and with height_bound its budget
    accounting too; it keeps all four, and its isomorphism search backs
    isomorphic_naive.

    All maps A -> B satisfying the class predicate, as image tuples.

    Source elements are assigned along a fixed linear extension of A with
    candidate targets in ascending index, so the enumeration order (and in
    particular the first witness) is deterministic.  Every (element,
    candidate) trial costs one budget node; exhausting the budget raises
    BudgetExceeded rather than returning a partial answer.

    With height_bound, a strictly isotone search (or a stronger one) also
    rejects every candidate lower than its element, by heights_naive, and
    ends at the root, charging nothing, when A's greatest height exceeds
    B's: iter_maps' node accounting since it gained the height bound.
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
    high = height_bound and kind != ISOTONE
    if high:
        hA, hB = heights_naive(A), heights_naive(B)
        if max(hA) > max(hB):
            return
    order = linear_extension(A)
    img = [-1] * A.n
    nodes = 0
    need_injective = kind == ISOMORPHISM
    used = [False] * B.n

    def ok(t: int, cand: int) -> bool:
        s = order[t]
        if high and hB[cand] < hA[s]:
            return False
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


def isomorphic_naive(A: Poset, B: Poset) -> bool:
    """Is there an isomorphism A -> B?  Decided by search, with no
    canonical labelling involved."""
    return next(iter_maps_reference(A, B, ISOMORPHISM, None), None) is not None


def join_table_naive(n: int, leq) -> list[list[int | None]]:
    """Least upper bounds read off the order alone, for elements 0..n-1
    under leq(x, y); None where a pair has none."""
    def lub(x, y):
        ubs = [z for z in range(n) if leq(x, z) and leq(y, z)]
        least = [z for z in ubs if all(leq(z, w) for w in ubs)]
        return least[0] if least else None
    return [[lub(x, y) for y in range(n)] for x in range(n)]


def semilattice_homs_naive(A, B, surjective: bool) -> set[tuple[int, ...]]:
    """Every function between two upper semilattices' carriers, filtered by
    the join-preservation clause (and onto-ness when asked)."""
    out = set()
    for img in product(range(B.base.n), repeat=A.base.n):
        if surjective and len(set(img)) != B.base.n:
            continue
        if all(img[A.join[x][y]] == B.join[img[x]][img[y]]
               for x in range(A.base.n) for y in range(A.base.n)):
            out.add(img)
    return out


def free_property_naive(P, battery) -> bool:
    """Is fdown(P) free on P as seen from every upper semilattice T in
    battery?  Restricting a join homomorphism fdown(P) -> T to the
    principal downsets must biject the homomorphisms onto the isotone maps
    P -> T; both sides are found by scanning every function.  False, not
    an error, when fdown(P) is not an upper semilattice or misses a
    principal downset."""
    F = fdown(P)
    SF = classify(F.order)
    if not SF.is_upper or any(P.down[x] not in F for x in range(P.n)):
        return False
    principal = [F.index(P.down[x]) for x in range(P.n)]
    for T in battery:
        homs = semilattice_homs_naive(SF, T, False)
        restrictions = {tuple(h[i] for i in principal) for h in homs}
        if len(restrictions) != len(homs) or restrictions != isotone_images_naive(P, T.base):
            return False
    return True


def x_down_naive(P, X) -> set[int]:
    out = set()
    for Q in X:
        for img in isotone_images_naive(Q, P):
            cl = 0
            for i in range(P.n):
                if any(P.leq(i, v) for v in img):
                    cl |= 1 << i
            out.add(cl)
    return out


# --- unlabeled poset enumeration, the slow way --------------------------------


def all_posets_naive(n: int) -> set[tuple[int, ...]]:
    """Canonical encodings of every poset on n labeled points, deduplicated
    over all relabelings.  Checks every subset of the off-diagonal pairs,
    so keep n at 4 or below."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    canons = set()
    for pick in range(1 << len(offdiag)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for t, (i, j) in enumerate(offdiag):
            if pick >> t & 1:
                rel[i][j] = True
        ok = True
        for i in range(n):
            for j in range(n):
                if rel[i][j] and rel[j][i] and i != j:
                    ok = False
                if rel[i][j] and not all(rel[i][k] or not rel[j][k]
                                         for k in range(n)):
                    ok = False
        if not ok:
            continue
        enc = min(tuple(rel[p[i]][p[j]] for i in range(n) for j in range(n))
                  for p in permutations(range(n)))
        canons.add(enc)
    return canons


def generate_corpus_reference(max_n: int) -> list[tuple[Poset, ...]]:
    """The corpus rows by unpruned orderly extension: every size-n
    representative extended over every downset, canonicalised and
    deduplicated, each row sorted by canonical up-rows."""
    rows: list[tuple[Poset, ...]] = [(Poset(0, ()),)]
    for n in range(1, max_n + 1):
        seen: dict[tuple[int, ...], Poset] = {}
        for parent in rows[n - 1]:
            for d in downset_masks(parent):
                canon, _ = canonical_form(_extend_by_maximal(parent, d))
                seen.setdefault(canon.up, canon)
        rows.append(tuple(sorted(seen.values(), key=lambda Q: Q.up)))
    return rows


def check_acc_reference(P: Poset, instance: str = "adhoc") -> CheckReport:
    """The acc check without the id-fixpoint exit: every one of the three
    stages is built unless an earlier one is not an isomorphism."""
    stage = P
    for k in (1, 2, 3):
        emb = principal_embedding(stage)
        if emb.kind != ISOMORPHISM:
            return CheckReport("acc", instance, FAILS, {"stage": k, "kind": emb.kind})
        stage = emb.target
    return CheckReport("acc", instance, HOLDS)


def colours_naive(P) -> list[int]:
    """The stable colour refinement from its definition, through P.leq only:
    starting from one colour, recolour every element by the rank of
    (its colour, sorted colours strictly below, sorted colours strictly
    above) among the sorted distinct signatures, until the number of
    colours stops growing."""
    n = P.n
    colours = [0] * n
    while True:
        sigs = [(colours[i],
                 tuple(sorted(colours[j] for j in range(n) if j != i and P.leq(j, i))),
                 tuple(sorted(colours[j] for j in range(n) if j != i and P.leq(i, j))))
                for i in range(n)]
        table = sorted(set(sigs))
        nxt = [table.index(s) for s in sigs]
        if len(set(nxt)) == len(set(colours)):
            return nxt
        colours = nxt


def canonical_form_naive(P) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical up-rows and certificate straight from canonical_form's
    contract: over every relabeling perm (perm[new] = old) that lists the
    elements in ascending colour, the least (encoding, perm), where the
    encoding lists, for each position t, whether perm[t] <= perm[s] and then
    whether perm[s] <= perm[t], for s < t."""
    n = P.n
    colours = colours_naive(P)
    want = sorted(colours)

    def encoding(p):
        return tuple(tuple(P.leq(p[t], p[s]) for s in range(t))
                     + tuple(P.leq(p[s], p[t]) for s in range(t))
                     for t in range(n))

    _, perm = min((encoding(p), p) for p in permutations(range(n))
                  if [colours[i] for i in p] == want)
    rows = tuple(sum(1 << j for j in range(n) if P.leq(perm[i], perm[j]))
                 for i in range(n))
    return rows, perm


def refine_colours_reference(P: Poset) -> tuple[list[int], list[list[tuple]]]:
    """poset.refine_colours as it was before its stopping rule: every round
    ranks its signatures and stops once no colour changed, and round 0 is
    built like any other round, from one class."""
    n = P.n
    below = [row ^ 1 << i for i, row in enumerate(P.down)]
    above = [row ^ 1 << i for i, row in enumerate(P.up)]
    colours = [0] * n
    classes = [P.full_mask]  # classes[c]: mask of the elements coloured c
    rounds = []
    for _ in range(n + 1):
        sigs = []
        for i in range(n):
            # sorted colour tuples, built from one popcount per class
            b, a = below[i], above[i]
            sb = sa = ()
            for c, m in enumerate(classes):
                k = (b & m).bit_count()
                if k:
                    sb += (c,) * k
                k = (a & m).bit_count()
                if k:
                    sa += (c,) * k
            sigs.append((colours[i], sb, sa))
        table = sorted(set(sigs))
        rounds.append(table)
        rank = {s: k for k, s in enumerate(table)}
        nxt = [rank[s] for s in sigs]
        if nxt == colours:
            break
        colours = nxt
        classes = [0] * len(table)
        for i, c in enumerate(colours):
            classes[c] |= 1 << i
    return colours, rounds


def canonical_form_reference(P: Poset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical up-rows and certificate by morphisms.canonical_form's
    branch-and-bound, run on every poset: no forced path, and the colours
    from refine_colours_reference."""
    n = P.n
    if n == 0:
        return (), ()
    rel = P.up
    colours, _ = refine_colours_reference(P)
    twin = previous_twins(P)
    slots = [[old for old in range(n) if colours[old] == c] for c in sorted(colours)]
    best: list[int] = []
    best_perm: tuple[int, ...] = ()
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
    new_bit = [0] * n
    for new, old in enumerate(best_perm):
        new_bit[old] = 1 << new
    rows = tuple(sum(new_bit[j] for j in bits(rel[old])) for old in best_perm)
    return rows, best_perm


# --- ordinal models ------------------------------------------------------------
#
# An ordinal below w^3 is modeled two ways.  A block sequence is a list of
# degrees, each block an honest copy of 1, w, or w^2 laid end to end; the
# type of the concatenation is folded left to right, a later block of
# higher degree absorbing everything finite (or w-sized) before it.  A
# degree triple (c2, c1, c0) means w^2*c2 + w*c1 + c0.


def block_type(blocks) -> tuple[int, int, int]:
    c2 = c1 = c0 = 0
    for d in blocks:
        if d == 2:
            c2, c1, c0 = c2 + 1, 0, 0
        elif d == 1:
            c1, c0 = c1 + 1, 0
        else:
            c0 += 1
    return c2, c1, c0


def triple_blocks(t) -> list[int]:
    c2, c1, c0 = t
    return [2] * c2 + [1] * c1 + [0] * c0


def triple_add(a, b) -> tuple[int, int, int]:
    # a sum of orders is their concatenation
    return block_type(triple_blocks(a) + triple_blocks(b))


def triple_mul_finite(a, d: int) -> tuple[int, int, int]:
    return block_type(triple_blocks(a) * d)


def triple_mul_omega(a) -> tuple[int, int, int]:
    """a*w as the limit of a*d.  Only modeled below w^2, where the limit
    stays below w^3."""
    c2, c1, c0 = a
    if c2:
        raise ValueError("a*w would leave the modeled range")
    if c1:
        return (1, 0, 0)
    if c0:
        return (0, 1, 0)
    return (0, 0, 0)


def triple_to_cnf(t) -> CnfOrdinal:
    c2, c1, c0 = t
    terms = []
    if c2:
        terms.append((cnf_from_int(2), c2))
    if c1:
        terms.append((cnf_from_int(1), c1))
    if c0:
        terms.append((ZERO, c0))
    return CnfOrdinal(tuple(terms))


def id_type_truncated(q: int, r: int, n1: int = 3, n2: int = 4):
    """Order type of the nonempty-ideal poset of the chain w*q + r, read off
    finite truncations.

    Each w copy is truncated to its first N elements.  The ideals of a
    finite chain are its nonempty initial segments, enumerated here by
    scanning every subset of the truncated chain.  Segments ending exactly
    at a copy boundary persist as the copy's limit segment; maximal runs of
    segments ending inside a copy grow with N (an w block in the limit)
    while runs in the finite tail stay put.  Comparing two truncation
    levels separates the two.
    """

    def runs(N):
        m = N * q + r
        assert m <= 16, "subset scan would blow up"
        segs = []
        for s in range(1, 1 << m):
            mem = members(s)
            if all(j in mem for i in mem for j in range(i)):
                segs.append(len(mem))
        segs.sort()
        assert segs == list(range(1, m + 1))
        out = []
        run = 0
        for size in segs:
            if size <= N * q and size % N == 0:
                if run:
                    out.append(run)
                    run = 0
                out.append("boundary")
            else:
                run += 1
        if run:
            out.append(run)
        return out

    r1, r2 = runs(n1), runs(n2)
    assert len(r1) == len(r2)
    blocks = []
    for a, b in zip(r1, r2):
        if a == "boundary":
            assert b == "boundary"
            blocks.append(0)
        elif a == b:
            blocks.extend([0] * a)
        else:
            blocks.append(1)  # grew with the truncation level
    return block_type(blocks)


def pairs_to_cnf(q: int, r: int) -> CnfOrdinal:
    """w*q + r as a normal form, built from parts."""
    terms = ()
    if q:
        terms += ((cnf_from_int(1), q),)
    if r:
        terms += ((ZERO, r),)
    return CnfOrdinal(terms)
