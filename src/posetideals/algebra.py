"""Semilattice structure detection and semilattice homomorphisms.

classify() decides whether every pair has a least upper bound and
whether every pair has a greatest lower bound, and tags the poset
upper / lower / lattice / neither.  A poset with no pairs (n <= 1) is
vacuously a lattice.

subsemilattices and semilattice_homs search from their definitions.  No
suite calls them: thm31 and cor32 are settled by counting.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .morphisms import ISOTONE, MonotoneMap, iter_maps, map_kind
from .poset import Poset, bits, induced, least_in
from .record import Record, setfield

UPPER = "upper"
LOWER = "lower"
LATTICE = "lattice"
NEITHER = "neither"


class SemilatticeStructure(Record):
    """A poset and its structure tag.  No meet table is kept, and the
    join table (None where a pair has no join) is built on first read:
    no verdict reads it, only the two searches below."""

    __slots__ = ("base", "kind", "__dict__")

    def __init__(self, base: Poset, kind: str):
        setfield(self, "base", base)
        setfield(self, "kind", kind)

    @cached_property
    def join(self) -> tuple[tuple[int | None, ...], ...]:
        up = self.base.up
        return tuple(tuple(least_in(up, a & b) for b in up) for a in up)

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
    """The structure tag alone.

    A pair i < j has a join when up[i] & up[j] has a least member, and a
    meet when down[i] & down[j] has one (least_in on the down-rows); each
    test stops at the first pair without.
    """
    up, down = P.up, P.down
    pairs = [(i, j) for i in range(P.n) for j in range(i + 1, P.n)]
    join_total = all(least_in(up, up[i] & up[j]) is not None for i, j in pairs)
    meet_total = all(least_in(down, down[i] & down[j]) is not None for i, j in pairs)
    kind = {(True, True): LATTICE, (True, False): UPPER,
            (False, True): LOWER, (False, False): NEITHER}[join_total, meet_total]
    return SemilatticeStructure(P, kind)


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
