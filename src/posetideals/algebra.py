"""Semilattice structure detection and semilattice homomorphisms.

classify() tabulates the least upper bound of every pair, decides
whether every pair has a greatest lower bound, and tags the poset
upper / lower / lattice / neither.  A poset with no pairs (n <= 1) is
vacuously a lattice.

subsemilattices and semilattice_homs search from their definitions.  No
suite calls them: thm31 and cor32 are settled by counting.
"""

from __future__ import annotations

from collections.abc import Iterator

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
    """All join-closed subsets of an upper semilattice, ascending mask
    order, the empty set and every singleton included."""
    if not S.is_upper:
        raise ValueError("subsemilattices requires an upper semilattice")
    for m in range(1 << S.base.n):
        elems = list(bits(m))
        if all(m >> S.join[a][b] & 1 for i, a in enumerate(elems) for b in elems[i + 1:]):
            yield m


def semilattice_homs(S0: SemilatticeStructure, T: SemilatticeStructure) -> Iterator[MonotoneMap]:
    """All surjective join-preserving maps S0 -> T: the isotone maps that
    iter_maps finds within its default budget, kept when onto T and when
    they preserve every pair's join.  None is missed, since x <= y makes
    x v y = y, so a join homomorphism is isotone.  The search runs over all
    of S0, not only the join-irreducibles whose images fix the rest, so a
    large S0 spends far more of the budget: the 16-element Boolean lattice
    onto the 8- or 16-element one exhausts the default.  With |S0| < |T|
    it returns at once: an image has at most |S0| points."""
    if not (S0.is_upper and T.is_upper):
        raise ValueError("semilattice_homs requires upper semilattices")
    A, B = S0.base, T.base
    if A.n < B.n:
        return
    pairs = [(x, y) for x in range(A.n) for y in range(x + 1, A.n)]
    for img in iter_maps(A, B, ISOTONE):
        if len(set(img)) < B.n or any(img[S0.join[x][y]] != T.join[img[x]][img[y]]
                                       for x, y in pairs):
            continue
        kind = map_kind(A, B, img)
        if kind is None:
            raise AssertionError("join homomorphisms are isotone")
        yield MonotoneMap(A, B, img, kind)
