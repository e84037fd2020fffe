"""Semilattice structure detection and semilattice homomorphisms.

classify() tabulates the least upper bound of every pair, decides
whether every pair has a greatest lower bound, and tags the poset
upper / lower / lattice / neither.  A poset with no pairs (n <= 1) is
vacuously a lattice.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .morphisms import ISOTONE, MonotoneMap, iter_maps, map_kind
from .poset import Poset, bits, induced, least_in
from .record import Record, setfield

UPPER = "upper"
LOWER = "lower"
LATTICE = "lattice"
NEITHER = "neither"


class SemilatticeStructure(Record):
    """A poset, its join table (None where a pair has no join) and its
    structure tag.  No meet table is kept: only whether every meet
    exists is read, through is_lower and is_lattice."""

    __slots__ = ("base", "join", "kind")

    def __init__(self, base: Poset, join: tuple[tuple[int | None, ...], ...], kind: str):
        setfield(self, "base", base)
        setfield(self, "join", join)
        setfield(self, "kind", kind)

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
    """The join table plus the structure tag.

    Each unordered pair {i, j} is looked at once: its join is the least
    member of up[i] & up[j], written into both (i, j) and (j, i), and the
    diagonal is i itself.  Its meet, the greatest member of
    down[i] & down[j] (least_in on the down-rows), is only tested for
    existence, and no longer once some pair has none.
    """
    n = P.n
    up, down = P.up, P.down
    join = [[None] * n for _ in range(n)]
    join_total = meet_total = True
    for i in range(n):
        join[i][i] = i
        for j in range(i + 1, n):
            v = join[i][j] = join[j][i] = least_in(up, up[i] & up[j])
            join_total = join_total and v is not None
            meet_total = meet_total and least_in(down, down[i] & down[j]) is not None
    if join_total and meet_total:
        kind = LATTICE
    elif join_total:
        kind = UPPER
    elif meet_total:
        kind = LOWER
    else:
        kind = NEITHER
    return SemilatticeStructure(P, tuple(map(tuple, join)), kind)


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
        if nxt is None:
            raise AssertionError("a join is missing from an upper semilattice")
        acc = nxt
    return acc


def semilattice_homs(S0: SemilatticeStructure, T: SemilatticeStructure) -> Iterator[MonotoneMap]:
    """All surjective join-preserving maps S0 -> T.

    Images of the join-irreducible elements determine the rest: every
    element of a finite upper semilattice is the join of the irreducibles
    below it.  iter_maps enumerates the isotone maps from the irreducibles'
    subposet into T, within its default budget; each extends by joins and
    is then verified for join preservation and surjectivity on the full
    map, never trusting the generator coverage.  With |S0| < |T| it
    returns before searching: an image has at most |S0| points.
    """
    if not (S0.is_upper and T.is_upper):
        raise ValueError("semilattice_homs requires upper semilattices")
    A, B = S0.base, T.base
    if A.n < B.n:
        return
    J, ji = induced(A, _join_irreducibles(S0))
    below = [[k for k, j in enumerate(ji) if A.leq(j, x)] for x in range(A.n)]
    pairs = [(x, y) for x in range(A.n) for y in range(A.n)]
    for g in iter_maps(J, B, ISOTONE):
        img = tuple(_fold_join(T, [g[k] for k in ks]) for ks in below)
        if any(img[S0.join[x][y]] != T.join[img[x]][img[y]] for x, y in pairs):
            continue
        if len(set(img)) != B.n:
            continue
        kind = map_kind(A, B, img)
        if kind is None:
            raise AssertionError("join homomorphisms are isotone")
        yield MonotoneMap(A, B, img, kind)
