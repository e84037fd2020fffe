"""JSON and DOT emitters plus loaders.

Poset JSON stores the covering pairs only; the loader rebuilds the full
order as a reflexive-transitive closure and re-validates antisymmetry, so
hand-written files may list any generating set of pairs.  All dumps go
through json_dumps for byte-stable output.
"""

from __future__ import annotations

import json

from .completions import FamilyPoset, _family
from .morphisms import MonotoneMap
from .poset import (
    MAX_ELEMENTS,
    Poset,
    _check_capacity,
    from_up_rows,
    hasse_covers,
    refine_colours,
    transitive_closure,
    validate_up_rows,
)


# the keys a document may hold: the ones the matching loader reads
POSET_KEYS = ("n", "leq", "labels")
FAMILY_KEYS = ("kind", "base_n", "sets", "leq")


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def poset_to_json(P: Poset) -> dict:
    doc = {"n": P.n, "leq": [[i, j] for i, j in hasse_covers(P)]}
    if P.labels is not None:
        doc["labels"] = list(P.labels)
    return doc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_keys(doc: dict, allowed: tuple[str, ...], what: str) -> None:
    """A key the loader would not read is an error, not something to skip:
    {"n": 3, "up": [7, 6, 4]} must not load as a 3-antichain."""
    unknown = sorted(set(doc).difference(allowed), key=str)
    if unknown:
        raise ValueError(f"unknown {what} document key(s) {unknown}; "
                         f"expected only {', '.join(allowed)}")


def poset_from_json(doc: dict) -> Poset:
    """Poset from a JSON document; a malformed document, one with a key
    outside POSET_KEYS included, raises ValueError (CapacityExceeded for
    more than MAX_ELEMENTS elements) before anything is built from it."""
    if not isinstance(doc, dict):
        raise ValueError(f"a poset document must be an object, got {type(doc).__name__}")
    _check_keys(doc, POSET_KEYS, "poset")
    n = doc.get("n")
    if not _is_int(n) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    _check_capacity(n)
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, (list, tuple)) and len(labels) == n):
        raise ValueError(f"labels must be a list of {n} names")
    rows = _leq_rows(doc.get("leq", []), n)
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    # antisymmetry is validated on the closure
    return validate_up_rows(transitive_closure(rows), labels=labels)


def _leq_rows(leq, n: int) -> list[int]:
    """The pairs of a document's leq list as reflexive up-rows over n
    elements, not closed; ValueError unless leq is a list of pairs of
    integers in range."""
    if not isinstance(leq, (list, tuple)):
        raise ValueError("leq must be a list of pairs")
    rows = [1 << i for i in range(n)]
    for pair in leq:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(_is_int, pair))):
            raise ValueError(f"leq entry {pair!r} is not a pair of integers")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"leq pair {pair} out of range")
        rows[i] |= 1 << j
    return rows


def family_to_json(F: FamilyPoset) -> dict:
    return {
        "kind": F.kind,
        "base_n": F.base.n,
        "sets": list(F.sets),
        "leq": [[i, j] for i, j in hasse_covers(F.order)],
    }


def family_order_from_json(doc: dict) -> Poset:
    """Rebuild just the inclusion order of a dumped family, for rendering.

    The order comes from the sets alone, by the builder every family uses
    (so past FAMILY_CAP sets it raises CapacityExceeded), and leq must
    agree with it: every pair an inclusion, every cover pair given.  Sets
    that are not strictly ascending, a contradictory leq, a key outside
    FAMILY_KEYS or a document that is not an object raise ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a family document must be an object, got {type(doc).__name__}")
    _check_keys(doc, FAMILY_KEYS, "family")
    base_n, sets = doc.get("base_n"), doc.get("sets")
    if not _is_int(base_n) or not 0 <= base_n <= MAX_ELEMENTS:
        raise ValueError(f"base_n must be an integer in 0..{MAX_ELEMENTS}")
    if not (isinstance(sets, list)
            and all(_is_int(m) and 0 <= m < 1 << base_n for m in sets)):
        raise ValueError(f"sets must be a list of masks over {base_n} elements")
    if any(a >= b for a, b in zip(sets, sets[1:])):
        raise ValueError("sets must be strictly ascending")
    base = from_up_rows([1 << i for i in range(base_n)])  # no labels: members print as indices
    order = _family(base, sets, doc.get("kind")).order
    rows = _leq_rows(doc.get("leq", []), order.n)
    for i, row in enumerate(rows):
        extra = row & ~order.up[i]
        if extra:
            raise ValueError(f"leq pair {[i, extra.bit_length() - 1]} is not an inclusion")
    for i, j in hasse_covers(order):
        if not rows[i] >> j & 1:
            raise ValueError(f"leq omits the cover pair {[i, j]}")
    return order


def invariant_hash(P: Poset) -> str:
    """Isomorphism-stable fingerprint: the rounds of refine_colours.

    Cheaper than a canonical form; equal posets hash equal, and unequal
    hashes certify non-isomorphism (the converse can fail).  The digest
    covers every round's signature table, not just the final partition:
    the partition shape alone cannot tell a three-chain from a chain plus
    a point.
    """
    import hashlib  # imported here: only this function needs it, and it is slow to load

    rounds = []
    for colours, table in refine_colours(P):
        rounds.append(table)
    payload = json_dumps([P.n, rounds, sorted(colours)])
    return hashlib.sha256(payload.encode()).hexdigest()


def map_to_json(f: MonotoneMap) -> dict:
    return {
        "kind": f.kind,
        "image": list(f.image),
        "source": poset_to_json(f.source),
        "target": poset_to_json(f.target),
        "source_hash": invariant_hash(f.source),
        "target_hash": invariant_hash(f.target),
    }


def poset_to_dot(P: Poset) -> str:
    """Hasse diagram in DOT, drawn bottom-up.  Labels are quoted with
    backslash and double quote escaped, so no label can end its string."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(P.n):
        label = P.label(i).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{label}"];')
    for i, j in hasse_covers(P):
        lines.append(f"  {i} -> {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
