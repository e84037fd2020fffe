"""Symbolic ordinal arithmetic below epsilon_0, plus chain descriptors for
cofinality bookkeeping that includes uncountable regular stages.

A CnfOrdinal is a sum of terms w^e * c with strictly descending exponents
(themselves CnfOrdinals) and positive integer coefficients; the empty term
tuple is 0.  Uncountable cofinalities like w1 never appear as CnfOrdinal
values: they exist only as ChainDescriptor tags, which keeps "w1 is not a
number here" a type-level fact.
"""

from __future__ import annotations

import re
from functools import total_ordering

from .record import Record, setfield


@total_ordering
class CnfOrdinal(Record):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[CnfOrdinal, int], ...] = ()):
        prev = None
        for e, c in terms:
            if not isinstance(e, CnfOrdinal) or not isinstance(c, int) or c < 1:
                raise ValueError("term must be (CnfOrdinal exponent, coefficient >= 1)")
            if prev is not None and not e < prev:
                raise ValueError("exponents must be strictly descending")
            prev = e
        # tuples arriving as lists would break hashing
        setfield(self, "terms", tuple(tuple(t) for t in terms))

    def __lt__(self, other: "CnfOrdinal") -> bool:
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self.terms) < len(other.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def __int__(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    def __repr__(self):
        return f"CnfOrdinal({cnf_str(self)!r})"


ZERO = CnfOrdinal()
ONE = CnfOrdinal(((ZERO, 1),))
OMEGA = CnfOrdinal(((ONE, 1),))


def cnf_from_int(n: int) -> CnfOrdinal:
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    return CnfOrdinal(((ZERO, n),)) if n else ZERO


def omega_power(e: CnfOrdinal) -> CnfOrdinal:
    return CnfOrdinal(((e, 1),))


def cnf_add(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Ordinal sum: terms of a below b's leading exponent are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    e = b.terms[0][0]
    keep = [t for t in a.terms if t[0] > e]
    rest = list(b.terms)
    for t in a.terms:
        if t[0] == e:
            rest[0] = (e, t[1] + rest[0][1])
    return CnfOrdinal(tuple(keep) + tuple(rest))


def cnf_mul(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Ordinal product, distributed over the right factor's terms."""
    if a.is_zero or b.is_zero:
        return ZERO
    out = ZERO
    e1, c1 = a.terms[0]
    for f, d in b.terms:
        if not f.is_zero:
            out = cnf_add(out, CnfOrdinal(((cnf_add(e1, f), d),)))
        elif e1.is_zero:
            out = cnf_add(out, cnf_from_int(c1 * d))
        else:
            bumped = ((e1, c1 * d),) + a.terms[1:]
            out = cnf_add(out, CnfOrdinal(bumped))
    return out


def id_order_type(a: CnfOrdinal) -> CnfOrdinal:
    """Order type of the chain of nonempty ideals of the chain a.

    The nonempty initial segments of a chain of type a are the ordinals in
    (0, a], so a finite chain is unchanged and an infinite one gains a top.
    """
    return a if a.is_finite else cnf_add(a, ONE)


# --- chain descriptors -------------------------------------------------------

COF_EMPTY = "empty"
COF_HAS_MAX = "has_max"
_REGULAR_RE = re.compile(r"^w\d*$")


class ChainDescriptor(Record):
    """A chain known only through its cofinality class.

    cof is 'empty', 'has_max', or a regular-cardinal symbol from the
    ordered list w, w1, w2, ...  Symbols beyond w never reduce to
    CnfOrdinal values.
    """

    __slots__ = ("cof",)

    def __init__(self, cof: str):
        if cof not in (COF_EMPTY, COF_HAS_MAX) and not _REGULAR_RE.match(cof):
            raise ValueError(f"bad cofinality tag {cof!r}")
        setfield(self, "cof", cof)


def product_has_cofinal_chain(chains: list[ChainDescriptor]) -> bool:
    """Does a direct product of chains contain a cofinal subchain?

    Any empty factor empties the product: false.  Factors with a maximum
    contribute their top coordinate and drop out.  What remains must agree
    on one regular cofinality (or be at most a single factor).
    """
    if not chains:
        raise ValueError("need at least one factor")
    if any(c.cof == COF_EMPTY for c in chains):
        return False
    regs = [c.cof for c in chains if c.cof != COF_HAS_MAX]
    return len(set(regs)) <= 1


# --- literal grammar ---------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(w|id|\d+|[\^*+()])")
# Literals nest at most this deep (each ^ operand and each parenthesis is a
# level), so neither the parser nor the recursion over the ordinal it builds
# (cnf_str, comparisons) meets Python's limit.  cnf_str puts an infinite
# exponent in parentheses, so a tower taller than half this does not parse back.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ValueError(f"bad ordinal literal at {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, tok=None):
        got = self.peek()
        if got is None or (tok is not None and got != tok):
            raise ValueError(f"expected {tok or 'a token'}, got {got!r}")
        self.i += 1
        return got

    def parse(self) -> CnfOrdinal:
        v = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.tokens[self.i:]}")
        return v

    def expr(self) -> CnfOrdinal:
        v = self.product()
        while self.peek() == "+":
            self.take("+")
            v = cnf_add(v, self.product())
        return v

    def product(self) -> CnfOrdinal:
        v = self.atom()
        while self.peek() == "*":
            self.take("*")
            v = cnf_mul(v, self.atom())
        return v

    def atom(self) -> CnfOrdinal:
        if self.depth == MAX_NESTING:
            raise ValueError(f"ordinal literal nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        v = self._atom()
        self.depth -= 1
        return v

    def _atom(self) -> CnfOrdinal:
        tok = self.take()
        if tok == "w":
            if self.peek() == "^":
                self.take("^")
                return omega_power(self.atom())
            return OMEGA
        if tok == "id":
            self.take("(")
            v = self.expr()
            self.take(")")
            return id_order_type(v)
        if tok == "(":
            v = self.expr()
            self.take(")")
            return v
        if tok.isdigit():
            return cnf_from_int(int(tok))
        raise ValueError(f"unexpected token {tok!r}")


def cnf_parse(text: str) -> CnfOrdinal:
    """Parse literals like ``w^2*3 + w + 5`` or ``id(w+1)``."""
    return _Parser(text).parse()


def _exp_str(e: CnfOrdinal) -> str:
    if e == ONE:
        return ""
    if e.is_finite:
        return f"^{int(e)}"
    return f"^({cnf_str(e)})"


def cnf_str(a: CnfOrdinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero:
            parts.append(str(c))
        else:
            body = "w" + _exp_str(e)
            parts.append(body if c == 1 else f"{body}*{c}")
    return "+".join(parts)


def parse_descriptor(text: str) -> ChainDescriptor:
    """Descriptor tokens for the command line: max, empty, w, w1, w2, ..."""
    t = text.strip()
    if t == "max":
        return ChainDescriptor(COF_HAS_MAX)
    if t == "empty":
        return ChainDescriptor(COF_EMPTY)
    if _REGULAR_RE.match(t):
        return ChainDescriptor(t)
    raise ValueError(f"bad chain descriptor {text!r}")
