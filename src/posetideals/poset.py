"""Finite partial orders over elements 0..n-1, with bitmask element sets.

The relation is stored as one bitmask row per element: ``up[i]`` has bit j
set exactly when i <= j.  An element set ("mask") is a plain int whose bit i
marks membership of element i.  Keeping everything in machine words makes
the exhaustive enumerations in the rest of the package cheap and keeps all
iteration orders deterministic: sets are always produced in ascending mask
value, elements in ascending index.

The hard size envelope is 64 elements so a mask never outgrows one word.
Anything that would enumerate past a configured bound raises
:class:`CapacityExceeded` instead of silently truncating.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cached_property

from .record import Record, setfield

MAX_ELEMENTS = 64
# the longest display form render_elemset builds, in characters
LABEL_CAP = 1 << 20


class PosetError(Exception):
    """Base class for order-axiom violations and capacity errors."""


class NotReflexive(PosetError):
    def __init__(self, i: int):
        super().__init__(f"relation is not reflexive at element {i}")
        self.element = i


class NotAntisymmetric(PosetError):
    def __init__(self, i: int, j: int):
        super().__init__(f"relation is not antisymmetric on pair ({i}, {j})")
        self.pair = (i, j)


class NotTransitive(PosetError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"relation is not transitive on ({i}, {j}, {k})")
        self.triple = (i, j, k)


class CapacityExceeded(PosetError):
    """An input or enumeration exceeded a configured size bound."""


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_desc(mask: int) -> Iterator[int]:
    """Indices of set bits, descending."""
    while mask:
        i = mask.bit_length() - 1
        yield i
        mask ^= 1 << i


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class Poset(Record):
    """An immutable finite poset.

    ``up[i]`` is the bitmask of elements j with i <= j (always including i
    itself).  ``labels`` is an optional display name per element, a tuple
    or a sequence that reads like one; it plays no role in any algorithm.
    """

    __slots__ = ("n", "up", "labels", "__dict__")

    def __init__(self, n: int, up: tuple[int, ...], labels: Sequence[str] | None = None):
        setfield(self, "n", n)
        setfield(self, "up", up)
        setfield(self, "labels", labels)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """down[j] = bitmask of elements i with i <= j."""
        rows = [0] * self.n
        for i, row in enumerate(self.up):
            bit = 1 << i
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= bit
                row ^= low
        return tuple(rows)

    @cached_property
    def height(self) -> int:
        """The greatest height in P: the number of elements below the top of
        a longest chain, so one less than its length; -1 when P is empty.

        Peels minimal layers, starting from all of P.  The elements strictly
        above some member of an up-set are its non-minimal members, and they
        form an up-set again, so each layer costs one OR of strict up-rows
        per remaining element; the k-th layer peeled holds the elements of
        height k, and the last one peeled the greatest."""
        strict = [row ^ 1 << i for i, row in enumerate(self.up)]
        rest = self.full_mask
        k = -1
        while rest:
            above = 0
            m = rest
            while m:
                low = m & -m
                above |= strict[low.bit_length() - 1]
                m ^= low
            rest = above
            k += 1
        return k

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def lt(self, i: int, j: int) -> bool:
        return i != j and bool(self.up[i] >> j & 1)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __repr__(self):
        return f"Poset(n={self.n})"


def _check_capacity(n: int):
    if n > MAX_ELEMENTS:
        raise CapacityExceeded(f"{n} elements exceeds the {MAX_ELEMENTS}-element envelope")


def validate_up_rows(rows: Sequence[int], labels=None) -> Poset:
    """Build a Poset from up-set masks, checking the order axioms."""
    n = len(rows)
    _check_capacity(n)
    rows = list(rows)
    for i in range(n):
        if rows[i] >> n:
            raise ValueError(f"row {i} mentions elements beyond {n}")
        if not rows[i] >> i & 1:
            raise NotReflexive(i)
    for i in range(n):
        for j in bits(rows[i] & ~((1 << (i + 1)) - 1)):
            if rows[j] >> i & 1:
                raise NotAntisymmetric(i, j)
    for i in range(n):
        for j in bits(rows[i]):
            missing = rows[j] & ~rows[i]
            if missing:
                k = (missing & -missing).bit_length() - 1
                raise NotTransitive(i, j, k)
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError("labels length does not match element count")
    return Poset(n, tuple(rows), labels)


def from_up_rows(rows: Sequence[int], labels=None) -> Poset:
    """Trusted constructor for internally built relations (no axiom checks)."""
    _check_capacity(len(rows))
    return Poset(len(rows), tuple(rows), labels)


def transitive_closure(rows: Sequence[int]) -> list[int]:
    """Transitive closure of a relation given as bitmask rows (bit j of
    rows[i] says i R j): Warshall's algorithm, one pass over the middle
    element k, ORing row k into every row that reaches k."""
    rows = list(rows)
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    return rows


def least_in(rows: Sequence[int], mask: int) -> int | None:
    """The least member of mask under up-rows: the m in mask with
    mask & ~rows[m] == 0, else None.  Pass down-rows for the greatest."""
    rest = mask
    while rest:
        low = rest & -rest
        m = low.bit_length() - 1
        if mask & ~rows[m] == 0:
            return m
        rest ^= low
    return None


def down_closure(P: Poset, x: int) -> int:
    """Least downset containing the elements of mask x."""
    out = 0
    for i in bits(x):
        out |= P.down[i]
    return out


def is_directed(P: Poset, d: int) -> bool:
    """Upward directed: every pair in d has an upper bound in d.

    Row by row: for each a in d, the row up[a] & d must meet up[b] for
    every b in d of higher index, so each pair is tested once with one
    AND.  The empty set and singletons are directed.
    """
    up = P.up
    rest = d
    while rest:
        low = rest & -rest
        rest ^= low
        row = up[low.bit_length() - 1] & d
        later = rest
        while later:
            b = later & -later
            if not row & up[b.bit_length() - 1]:
                return False
            later ^= b
    return True


def hasse_covers(P: Poset) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j): i < j with nothing strictly between, ascending.

    Starts from everything strictly above i and walks what is left in
    ascending index order, clearing everything strictly above each element
    it meets.  A cover is never strictly above another candidate, so it
    survives, and every other candidate lies above some cover, so it is
    cleared: one mask operation per surviving candidate, in any index order.
    """
    out = []
    for i, row in enumerate(P.up):
        cov = row ^ 1 << i
        rest = cov
        while rest:
            j = (rest & -rest).bit_length() - 1
            cov &= ~P.up[j] | 1 << j
            rest = cov >> (j + 1) << (j + 1)
        out.extend((i, j) for j in bits(cov))
    return tuple(out)


def disjoint_union(parts: Sequence[Poset]) -> Poset:
    total = sum(p.n for p in parts)
    _check_capacity(total)
    rows = []
    offset = 0
    for p in parts:
        rows.extend(row << offset for row in p.up)
        offset += p.n
    labels = None
    if parts and all(p.labels is not None for p in parts):
        labels = tuple(lab for p in parts for lab in p.labels)
    return Poset(total, tuple(rows), labels)


def direct_product(P: Poset, Q: Poset) -> Poset:
    """Componentwise order on pairs; (i, j) is encoded as i * Q.n + j."""
    _check_capacity(P.n * Q.n)
    rows = []
    for i in range(P.n):
        for j in range(Q.n):
            row = 0
            for i2 in bits(P.up[i]):
                # bits of Q.up[j] shifted into block i2
                row |= Q.up[j] << (i2 * Q.n)
            rows.append(row)
    labels = None
    if P.labels is not None and Q.labels is not None:
        labels = tuple(f"({a},{b})" for a in P.labels for b in Q.labels)
    return Poset(P.n * Q.n, tuple(rows), labels)


def adjoin_bounds(P: Poset) -> Poset:
    """Add a new global bottom (index n) and top (index n + 1)."""
    n = P.n
    _check_capacity(n + 2)
    b, t = 1 << n, 1 << n + 1
    rows = [r | t for r in P.up] + [P.full_mask | b | t, t]
    labels = tuple(P.labels) + ("bot", "top") if P.labels is not None else None
    return Poset(n + 2, tuple(rows), labels)


def induced(P: Poset, carrier: int) -> tuple[Poset, tuple[int, ...]]:
    """Subposet on the elements of mask carrier.

    Returns the subposet plus the tuple mapping new index -> old index.
    """
    elems = tuple(bits(carrier))
    pos = {e: k for k, e in enumerate(elems)}
    rows = []
    for e in elems:
        row = 0
        for j in bits(P.up[e] & carrier):
            row |= 1 << pos[j]
        rows.append(row)
    labels = tuple(P.labels[e] for e in elems) if P.labels is not None else None
    return Poset(len(elems), tuple(rows), labels), elems


def linear_extension(P: Poset) -> tuple[int, ...]:
    """A deterministic linear extension: ascending |down(x)|, ties by index
    (sorted is stable)."""
    return tuple(sorted(range(P.n), key=[row.bit_count() for row in P.down].__getitem__))


def refine_colours(P: Poset) -> tuple[list[int], list[list[tuple]]]:
    """Stable colour refinement of P, and every round's signature table.

    All elements start with colour 0.  A round gives element i the
    signature (colour of i, sorted colours strictly below i, sorted colours
    strictly above i) and recolours i by the rank of its signature in the
    sorted table of distinct signatures; rounds repeat until no colour
    changes.  Ranks of sorted signatures make the colours, and their
    order, invariant under isomorphism.  Each round refines the previous
    partition, so the loop settles within n + 1 rounds.

    A signature begins with the element's old colour, so a round whose
    table has exactly one entry per old colour ranks every element by its
    old colour: that round changes nothing, and the loop stops at it,
    having recorded its table.  The empty poset has no colour, and its
    one round has an empty table.
    """
    n = P.n
    below = [row ^ 1 << i for i, row in enumerate(P.down)]
    above = [row ^ 1 << i for i, row in enumerate(P.up)]
    colours = [0] * n
    k = min(n, 1)  # the number of colours
    # with one colour, a signature is two counts
    sigs = [(0, (0,) * b.bit_count(), (0,) * a.bit_count()) for b, a in zip(below, above)]
    rounds = []
    for _ in range(n + 1):
        table = sorted(set(sigs))
        rounds.append(table)
        if len(table) == k:
            break
        rank = {s: c for c, s in enumerate(table)}
        colours = [rank[s] for s in sigs]
        k = len(table)
        classes = [0] * k  # classes[c]: mask of the elements coloured c
        for i, c in enumerate(colours):
            classes[c] |= 1 << i
        sigs = []
        for i in range(n):
            # sorted colour tuples, built from one popcount per class
            b, a = below[i], above[i]
            sb = sa = ()
            for c, m in enumerate(classes):
                j = (b & m).bit_count()
                if j:
                    sb += (c,) * j
                j = (a & m).bit_count()
                if j:
                    sa += (c,) * j
            sigs.append((colours[i], sb, sa))
    return colours, rounds


def previous_twins(P: Poset) -> list[int]:
    """Twin links: entry i is the mask of i's twin with the next lower
    index, 0 if i is the lowest of its twin class.

    Twins have the same strict up-set and the same strict down-set, so
    they are incomparable and any permutation of one twin class is an
    automorphism of P fixing every other element.
    """
    last: dict[tuple[int, int], int] = {}
    out = []
    for i in range(P.n):
        key = (P.up[i] ^ 1 << i, P.down[i] ^ 1 << i)
        out.append(last.get(key, 0))
        last[key] = 1 << i
    return out


def minimal_elements(P: Poset) -> int:
    return mask_of(i for i in range(P.n) if P.down[i] == 1 << i)


def maximal_elements(P: Poset) -> int:
    return mask_of(i for i in range(P.n) if P.up[i] == 1 << i)


def render_elemset(P: Poset, mask: int) -> str:
    """Display form of an element set; members listed by descending index.

    A family order's labels are rendered over its base's labels, so each
    iterated completion nests them one level deeper and their length grows
    without bound; a form longer than LABEL_CAP characters raises
    CapacityExceeded, checked as each member's label is added."""
    if not mask:
        return "∅"
    parts = []
    size = 1
    for i in bits_desc(mask):
        label = P.label(i)
        size += len(label) + 1
        if size > LABEL_CAP:
            raise CapacityExceeded(f"an element set's label exceeds {LABEL_CAP} characters")
        parts.append(label)
    return "{" + ",".join(parts) + "}"
