"""Semilattice structure detection and semilattice homomorphisms.

classify() decides, per pair, whether least upper bounds and greatest
lower bounds exist, and tags the poset upper / lower / lattice / neither.
A poset with no pairs (n <= 1) is vacuously a lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .completions import FamilyPoset, fdown
from .morphisms import ISOTONE, MonotoneMap, iter_maps, map_kind
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


def _join_irreducibles(S: SemilatticeStructure) -> int:
    """The mask of the elements that are not the join of two elements
    strictly below them (every minimal element among them)."""
    out = 0
    for x in range(S.base.n):
        lows = list(bits(S.base.down[x] & ~(1 << x)))
        if all(S.join[a][b] != x for a in lows for b in lows):
            out |= 1 << x
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
    below it.  iter_maps enumerates the isotone maps from the irreducibles'
    subposet into T, unbounded; each extends by joins and is then verified
    for join preservation and surjectivity on the full map, never trusting
    the generator coverage.  A surjective search with |S0| < |T| returns
    before searching: an image has at most |S0| points.
    """
    if not (S0.is_upper and T.is_upper):
        raise ValueError("semilattice_homs requires upper semilattices")
    A, B = S0.base, T.base
    if require_surjective and A.n < B.n:
        return
    J, ji = induced(A, _join_irreducibles(S0))
    below = [[k for k, j in enumerate(ji) if A.leq(j, x)] for x in range(A.n)]
    pairs = [(x, y) for x in range(A.n) for y in range(A.n)]
    for g in iter_maps(J, B, ISOTONE, budget=None):
        img = tuple(_fold_join(T, [g[k] for k in ks]) for ks in below)
        if any(img[S0.join[x][y]] != T.join[img[x]][img[y]] for x, y in pairs):
            continue
        if require_surjective and len(set(img)) != B.n:
            continue
        kind = map_kind(A, B, img)
        assert kind is not None, "join homomorphisms are isotone"
        yield MonotoneMap(A, B, img, kind)


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

    def extension(T: SemilatticeStructure, g) -> tuple[int, ...]:
        # each member of fdown(P) goes to the join of g over its elements
        return tuple(_fold_join(T, [g[x] for x in bits(s)]) for s in F.sets)

    for T in battery:
        isotone_maps = list(iter_maps(P, T.base, ISOTONE))
        homs = {h.image for h in semilattice_homs(SF, T)}
        extensions = set()
        for g in isotone_maps:
            ext = extension(T, g)
            if ext not in homs:
                return False
            extensions.add(ext)
        if len(extensions) != len(isotone_maps):
            return False  # not injective
        for h in homs:
            g = tuple(h[F.index(P.down[x])] for x in range(P.n))
            if extension(T, g) != h:
                return False  # a homomorphism not induced by any isotone map
        if len(homs) != len(isotone_maps):
            return False
    return True
