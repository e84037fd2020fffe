"""Semilattice structure detection and semilattice homomorphisms.

classify() decides, per pair, whether least upper bounds and greatest
lower bounds exist, and tags the poset upper / lower / lattice / neither.
A poset with no pairs (n <= 1) is vacuously a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .completions import FamilyPoset, fdown
from .morphisms import MonotoneMap, iter_maps, map_kind
from .poset import Poset, bits, down_closure, induced, least_in

UPPER = "upper"
LOWER = "lower"
LATTICE = "lattice"
NEITHER = "neither"


@dataclass(frozen=True)
class SemilatticeStructure:
    base: Poset
    join: tuple[tuple[int | None, ...], ...]
    meet: tuple[tuple[int | None, ...], ...]
    kind: str

    @property
    def is_upper(self) -> bool:
        return self.kind in (UPPER, LATTICE)

    @property
    def is_lower(self) -> bool:
        return self.kind in (LOWER, LATTICE)

    @property
    def is_lattice(self) -> bool:
        return self.kind == LATTICE


def classify(P: Poset) -> SemilatticeStructure:
    """Join and meet tables plus the structure tag."""
    join = []
    meet = []
    join_total = True
    meet_total = True
    up, down = P.up, P.down
    for i in range(P.n):
        jrow = []
        mrow = []
        for j in range(P.n):
            v = least_in(up, up[i] & up[j])
            w = least_in(down, down[i] & down[j])
            jrow.append(v)
            mrow.append(w)
            join_total &= v is not None
            meet_total &= w is not None
        join.append(tuple(jrow))
        meet.append(tuple(mrow))
    if join_total and meet_total:
        kind = LATTICE
    elif join_total:
        kind = UPPER
    elif meet_total:
        kind = LOWER
    else:
        kind = NEITHER
    return SemilatticeStructure(P, tuple(join), tuple(meet), kind)


def substructure(S: SemilatticeStructure, carrier: int) -> SemilatticeStructure:
    """The induced structure on a join-closed subset; bounds restrict."""
    sub, _ = induced(S.base, carrier)
    return classify(sub)


def subsemilattices(S: SemilatticeStructure) -> Iterator[int]:
    """All join-closed subsets of an upper semilattice, ascending mask order.

    Includes the empty set and every singleton.
    """
    if not S.is_upper:
        raise ValueError("subsemilattices requires an upper semilattice")
    n = S.base.n
    for m in range(1 << n):
        elems = list(bits(m))
        ok = True
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                j = S.join[elems[a]][elems[b]]
                if j is None or not m >> j & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield m


def _join_irreducibles(S: SemilatticeStructure) -> list[int]:
    out = []
    for x in range(S.base.n):
        reducible = False
        below = S.base.down[x] & ~(1 << x)
        lows = list(bits(below))
        for a in range(len(lows)):
            for b in range(a, len(lows)):
                if S.join[lows[a]][lows[b]] == x:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            out.append(x)
    return out


def _fold_join(T: SemilatticeStructure, xs: Sequence[int]) -> int:
    acc = xs[0]
    for x in xs[1:]:
        nxt = T.join[acc][x]
        assert nxt is not None
        acc = nxt
    return acc


def semilattice_homs(S0: SemilatticeStructure, T: SemilatticeStructure,
                     require_surjective: bool = False) -> Iterator[MonotoneMap]:
    """All join-preserving maps S0 -> T, optionally only the surjective ones.

    Images of the join-irreducible elements determine the rest: every
    element of a finite upper semilattice is the join of the irreducibles
    below it.  The search assigns irreducibles along a linear extension
    with ascending targets (pruning non-monotone prefixes), extends, and
    then verifies the join-preservation and surjectivity of the full map,
    never trusting the generator coverage.  A surjective search with
    |S0| < |T| returns before assigning anything: an image has at most
    |S0| points.
    """
    if not (S0.is_upper and T.is_upper):
        raise ValueError("semilattice_homs requires upper semilattices")
    A, B = S0.base, T.base
    if require_surjective and A.n < B.n:
        return
    if A.n == 0:
        yield MonotoneMap(A, B, (), map_kind(A, B, ()) or "isotone")
        return
    if B.n == 0:
        return
    ji = sorted(_join_irreducibles(S0), key=lambda x: (A.down[x].bit_count(), x))
    ji_below = [[j for j in ji if A.leq(j, x)] for x in range(A.n)]
    assert all(ji_below[x] for x in range(A.n))
    assignment: dict[int, int] = {}

    def extend() -> tuple[int, ...] | None:
        img = []
        for x in range(A.n):
            img.append(_fold_join(T, [assignment[j] for j in ji_below[x]]))
        for x in range(A.n):
            for y in range(A.n):
                j = S0.join[x][y]
                assert j is not None
                if img[j] != T.join[img[x]][img[y]]:
                    return None
        return tuple(img)

    def rec(t: int) -> Iterator[MonotoneMap]:
        if t == len(ji):
            img = extend()
            if img is None:
                return
            if require_surjective and len(set(img)) != B.n:
                return
            kind = map_kind(A, B, img)
            assert kind is not None, "join homomorphisms are isotone"
            yield MonotoneMap(A, B, img, kind)
            return
        x = ji[t]
        for cand in range(B.n):
            ok = True
            for t2 in range(t):
                x2 = ji[t2]
                if A.leq(x2, x) and not B.leq(assignment[x2], cand):
                    ok = False
                    break
            if ok:
                assignment[x] = cand
                yield from rec(t + 1)
                del assignment[x]

    yield from rec(0)


def induced_ideal_map(S: Poset, carrier: int, images: Mapping[int, int],
                      family: FamilyPoset, ideal: int) -> int:
    """Down-closure in S of the preimage of a set of family members.

    ``images`` sends elements of ``carrier`` to indices of ``family``;
    ``ideal`` is a mask over the family's order poset.  The result is the
    mask over S of S-down of f^{-1}(ideal).
    """
    pre = 0
    for x in bits(carrier):
        if ideal >> images[x] & 1:
            pre |= 1 << x
    return down_closure(S, pre)


def check_free_property(P: Poset, battery: Sequence[SemilatticeStructure] | None = None) -> bool:
    """Does restriction along the principal-downset map biject semilattice
    homomorphisms out of fdown(P) with isotone maps out of P?

    Checked by direct enumeration against every upper semilattice in the
    battery (default: all upper semilattices on at most 4 elements): the
    canonical extension of each isotone map must be a homomorphism, the
    extension map must be injective, and every homomorphism must arise as
    the extension of its own restriction.
    """
    if battery is None:
        from .verification import generate_corpus  # deferred, verification imports us

        corpus = generate_corpus(4)
        battery = [s for s in (classify(Q) for size in corpus.by_size for Q in size)
                   if s.is_upper]
    F = fdown(P)
    SF = classify(F.order)
    for T in battery:
        isotone_maps = list(iter_maps(P, T.base, "isotone"))
        homs = {h.image for h in semilattice_homs(SF, T)}
        if P.n == 0:
            if len(homs) != 1 or len(isotone_maps) != 1:
                return False
            continue
        extensions = set()
        for g in isotone_maps:
            ext = tuple(_fold_join(T, [g[x] for x in bits(F.sets[i])])
                        for i in range(len(F)))
            if ext not in homs:
                return False
            extensions.add(ext)
        if len(extensions) != len(isotone_maps):
            return False  # not injective
        for h in homs:
            g = tuple(h[F.index(P.down[x])] for x in range(P.n))
            ext = tuple(_fold_join(T, [g[x] for x in bits(F.sets[i])])
                        for i in range(len(F)))
            if ext != h:
                return False  # a homomorphism not induced by any isotone map
        if len(homs) != len(isotone_maps):
            return False
    return True
