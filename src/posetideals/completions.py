"""Families of downsets over a base poset, ordered by inclusion.

Every completion here returns a :class:`FamilyPoset`: the base, the member
sets in ascending bitmask order, and the inclusion order on them as a
poset of its own (so each completion can be fed back into any operation).
Each family is ordered by one builder, _inclusion_order, whatever its kind.

Family sizes can explode, so every enumerator raises CapacityExceeded past
FAMILY_CAP sets rather than truncating.  An N-set family carries an N x
N-bit order, so the cap of 2^14 sets also bounds that order at 32 MB.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from .morphisms import DEFAULT_BUDGET, MonotoneMap, iter_maps, map_kind
from .poset import (
    CapacityExceeded,
    Poset,
    bits,
    is_directed,
    linear_extension,
    render_elemset,
)
from .record import Record, setfield

FAMILY_CAP = 1 << 14

KIND_DOWN = "down"
KIND_IDEAL = "ideal"
KIND_NONEMPTY_IDEAL = "nonempty_ideal"
KIND_CHAIN_IDEAL = "chain_ideal"
KIND_NONEMPTY_CHAIN_IDEAL = "nonempty_chain_ideal"
KIND_FDOWN = "fdown"
KIND_XDOWN = "xdown"


class FamilyPoset(Record):
    """A family of sets over ``base`` with its inclusion order.

    ``order.labels`` are the members' display forms (render_elemset over
    the base), rendered each time one is read and never stored, so a
    family nobody prints pays nothing for them.
    """

    __slots__ = ("base", "sets", "order", "kind", "__dict__")

    def __init__(self, base: Poset, sets: tuple[int, ...], order: Poset, kind: str):
        setfield(self, "base", base)
        setfield(self, "sets", sets)    # ascending mask order
        setfield(self, "order", order)  # inclusion order; element i is sets[i]
        setfield(self, "kind", kind)

    @cached_property
    def _index(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.sets)}

    def index(self, mask: int) -> int:
        return self._index[mask]

    def __contains__(self, mask: int) -> bool:
        return mask in self._index

    def __len__(self) -> int:
        return len(self.sets)


class _SetLabels(Sequence):
    """The labels of a family order, rendered from (base, sets) on read.

    Reads like the tuple of rendered strings: indexing, iteration, len,
    ``==`` and hash all agree with it.  A base that is itself a family
    order gives labels of labels.
    """

    __slots__ = ("_base", "_sets")

    def __init__(self, base: Poset, sets: tuple[int, ...]):
        self._base = base
        self._sets = sets

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, i: int) -> str:
        return render_elemset(self._base, self._sets[i])

    def __eq__(self, other):
        if isinstance(other, (tuple, _SetLabels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


def _inclusion_order(base: Poset, sets: tuple[int, ...]) -> Poset:
    """The inclusion order on ascending masks, rendering set labels on read.

    Row i holds the members containing sets[i]: the AND, over the elements
    x of sets[i], of the members containing x (every member when sets[i]
    is empty).  That is O(sum of |s|) big-int ANDs for N members, not the
    N^2 comparisons of checking each pair.
    """
    # bits() is inlined: most families are tiny, and a generator per member
    # would cost more than the ANDs
    containing = [0] * base.n
    member = 1
    for s in sets:
        while s:
            low = s & -s
            containing[low.bit_length() - 1] |= member
            s ^= low
        member <<= 1
    everyone = member - 1
    rows = []
    for s in sets:
        row = everyone
        while s:
            low = s & -s
            row &= containing[low.bit_length() - 1]
            s ^= low
        rows.append(row)
    return Poset(len(sets), tuple(rows), _SetLabels(base, sets))


def _family(base: Poset, sets, kind: str) -> FamilyPoset:
    ordered = tuple(sorted(sets))
    if len(ordered) > FAMILY_CAP:
        raise CapacityExceeded(f"family of {len(ordered)} sets exceeds cap {FAMILY_CAP}")
    return FamilyPoset(base, ordered, _inclusion_order(base, ordered), kind)


def downset_masks(P: Poset) -> list[int]:
    """The masks of all downsets of P, ascending, without their order.

    Walks a linear extension deciding membership element by element; an
    element may enter only once everything strictly below it has, so each
    downset of the walked prefix arises exactly once.
    """
    out = [0]
    for e in linear_extension(P):
        below, bit = P.down[e], 1 << e
        out += [m | bit for m in out if below & ~m == bit]
        if len(out) > FAMILY_CAP:
            raise CapacityExceeded(f"downset family exceeds cap {FAMILY_CAP}")
    out.sort()
    return out


def downsets(P: Poset) -> FamilyPoset:
    """All downsets of P, including the empty set and P itself."""
    return _family(P, downset_masks(P), KIND_DOWN)


def ideals(P: Poset, include_empty: bool) -> FamilyPoset:
    """Upward directed downsets.  The empty set is directed; the flag says
    whether to keep it.

    Filters the downset masks, so the cap bounds them too; on a finite
    poset the survivors number at most n + 1.
    """
    keep = [s for s in downset_masks(P) if (s or include_empty) and is_directed(P, s)]
    kind = KIND_IDEAL if include_empty else KIND_NONEMPTY_IDEAL
    return _family(P, keep, kind)


def chain_ideals(P: Poset, include_empty: bool) -> FamilyPoset:
    """Downsets generated by chains: down-closures of totally ordered subsets.

    Enumerated from the definition, by a fold along a linear extension: a
    nonempty chain topped by e is {e} or a chain topped by some t < e with
    e added, so the closures of the chains topped by e are down[e] and
    down[e] | c for each closure c of a chain topped by such a t.  Each
    closure is ORed from its members' principal downsets and never read
    off the chain's top, so the coincidence with ideals(P) on finite
    posets stays an observable fact rather than an assumption.
    """
    found = {0} if include_empty else set()
    topped: dict[int, set[int]] = {}  # e -> the closures of the chains topped by e
    for e in linear_extension(P):
        below, closures = P.down[e], {P.down[e]}
        for t in bits(below ^ 1 << e):
            closures |= {below | c for c in topped[t]}
        topped[e] = closures
        found |= closures
        if len(found) > FAMILY_CAP:
            raise CapacityExceeded(f"chain ideal family exceeds cap {FAMILY_CAP}")
    kind = KIND_CHAIN_IDEAL if include_empty else KIND_NONEMPTY_CHAIN_IDEAL
    return _family(P, found, kind)


def fdown(P: Poset) -> FamilyPoset:
    """Finite nonempty unions of principal downsets.

    This is the free upper semilattice on P: the inclusion order has all
    binary joins (unions) and the principal downsets generate.  Empty P
    gives the empty family.
    """
    # fold in one principal downset at a time; 0, the empty union, goes last
    family = {0}
    for x in range(P.n):
        family |= {s | P.down[x] for s in family}
        if len(family) > FAMILY_CAP + 1:
            raise CapacityExceeded(f"fdown family exceeds cap {FAMILY_CAP}")
    family.discard(0)
    return _family(P, family, KIND_FDOWN)


def iterate_id(P: Poset, k: int) -> Poset:
    """Apply the nonempty-ideal completion k times, re-basing each stage;
    returns the final stage's order poset.  k = 0 returns P itself."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cur = P
    for _ in range(k):
        cur = ideals(cur, include_empty=False).order
    return cur


def principal_embedding(P: Poset) -> MonotoneMap:
    """x |-> principal downset of x, as a map into ideals(P, nonempty).

    On a finite poset every nonempty ideal is principal, so this comes out
    an isomorphism; the kind field records what was actually verified.
    """
    fam = ideals(P, include_empty=False)
    image = tuple(fam.index(P.down[x]) for x in range(P.n))
    kind = map_kind(P, fam.order, image)
    if kind is None:
        raise AssertionError("the principal embedding is not isotone")
    return MonotoneMap(P, fam.order, image, kind)


def x_down(P: Poset, X: Sequence[Poset], budget: int = DEFAULT_BUDGET) -> FamilyPoset:
    """Downsets of P arising as down-closures of isotone images of members
    of X.  The maps are enumerated by backtracking, one source poset at a
    time, each within budget; distinct maps with the same closure collapse."""
    found: set[int] = set()
    down = P.down
    for Q in X:
        for img in iter_maps(Q, P, "isotone", budget):
            cl = 0
            for y in img:
                cl |= down[y]
            found.add(cl)
            if len(found) > FAMILY_CAP:
                raise CapacityExceeded(f"x_down family exceeds cap {FAMILY_CAP}")
    return _family(P, found, KIND_XDOWN)
