"""Normal-form arithmetic below epsilon_0, cofinality descriptors, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    id_type_truncated,
    pairs_to_cnf,
    triple_add,
    triple_mul_finite,
    triple_mul_omega,
    triple_to_cnf,
)
from posetideals import (
    ChainDescriptor,
    CnfOrdinal,
    cnf_add,
    cnf_mul,
    cnf_parse,
    cnf_str,
    id_order_type,
    product_has_cofinal_chain,
)
from posetideals.ordinals import (
    COF_EMPTY,
    COF_HAS_MAX,
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    cnf_from_int,
    omega_power,
    parse_descriptor,
)

W_PLUS_1 = CnfOrdinal(((ONE, 1), (ZERO, 1)))
W_TIMES_2 = CnfOrdinal(((ONE, 2),))
W_SQUARED = omega_power(cnf_from_int(2))

_EXP_POOL = (ZERO, ONE, cnf_from_int(2), cnf_from_int(3), OMEGA, W_PLUS_1, W_TIMES_2)


@st.composite
def ordinals(draw) -> CnfOrdinal:
    idxs = draw(st.sets(st.integers(0, len(_EXP_POOL) - 1), max_size=3))
    exps = sorted((_EXP_POOL[i] for i in idxs), reverse=True)
    return CnfOrdinal(tuple((e, draw(st.integers(1, 4))) for e in exps))


def test_constructor_validation():
    with pytest.raises(ValueError):
        CnfOrdinal(((ZERO, 0),))  # zero coefficient
    with pytest.raises(ValueError):
        CnfOrdinal(((ZERO, 1), (ONE, 1)))  # ascending exponents
    with pytest.raises(ValueError):
        CnfOrdinal(((ZERO, 1), (ZERO, 1)))  # repeated exponent
    with pytest.raises(ValueError):
        CnfOrdinal(((1, 1),))  # exponent must be an ordinal
    with pytest.raises(ValueError):
        cnf_from_int(-1)


def test_basic_predicates():
    assert ZERO.is_zero and ZERO.is_finite
    assert ONE.is_finite
    assert not OMEGA.is_finite
    assert int(cnf_from_int(7)) == 7 and int(ZERO) == 0
    with pytest.raises(ValueError):
        int(OMEGA)


def test_frozen_sums_and_products():
    assert cnf_add(OMEGA, ONE) == W_PLUS_1
    assert cnf_add(ONE, OMEGA) == OMEGA
    assert cnf_add(W_PLUS_1, OMEGA) == W_TIMES_2
    assert cnf_add(cnf_from_int(2), cnf_from_int(3)) == cnf_from_int(5)
    assert cnf_mul(OMEGA, cnf_from_int(2)) == W_TIMES_2
    assert cnf_mul(cnf_from_int(2), OMEGA) == OMEGA
    assert cnf_mul(OMEGA, OMEGA) == W_SQUARED
    assert cnf_mul(W_PLUS_1, OMEGA) == W_SQUARED
    assert cnf_mul(W_PLUS_1, cnf_from_int(2)) == CnfOrdinal(((ONE, 2), (ZERO, 1)))
    assert cnf_mul(W_SQUARED, ZERO) == ZERO


def test_id_order_type_examples():
    assert id_order_type(ZERO) == ZERO
    assert id_order_type(cnf_from_int(5)) == cnf_from_int(5)
    assert id_order_type(OMEGA) == W_PLUS_1
    assert id_order_type(W_PLUS_1) == CnfOrdinal(((ONE, 1), (ZERO, 2)))
    assert cnf_str(id_order_type(W_TIMES_2)) == "w*2+1"


@settings(max_examples=120)
@given(ordinals(), ordinals(), ordinals())
def test_arithmetic_laws(a, b, c):
    assert cnf_add(cnf_add(a, b), c) == cnf_add(a, cnf_add(b, c))
    assert cnf_mul(cnf_mul(a, b), c) == cnf_mul(a, cnf_mul(b, c))
    assert cnf_mul(a, cnf_add(b, c)) == cnf_add(cnf_mul(a, b), cnf_mul(a, c))
    assert cnf_add(a, ZERO) == a == cnf_add(ZERO, a)
    assert cnf_mul(a, ONE) == a == cnf_mul(ONE, a)
    assert cnf_mul(a, ZERO) == ZERO == cnf_mul(ZERO, a)


@settings(max_examples=120)
@given(ordinals(), ordinals(), ordinals())
def test_order_laws(a, b, c):
    assert (a < b) + (a == b) + (b < a) == 1
    assert a <= cnf_add(a, b)
    assert b <= cnf_add(a, b)
    assert (cnf_add(a, b) == a) == b.is_zero
    if a < b:
        assert cnf_add(c, a) < cnf_add(c, b)
        assert cnf_add(a, c) <= cnf_add(b, c)
    if not a.is_finite:
        assert cnf_add(ONE, a) == a


@settings(max_examples=120)
@given(ordinals())
def test_render_parse_round_trip(a):
    assert cnf_parse(cnf_str(a)) == a


def test_parse_examples():
    assert cnf_str(cnf_parse("w^2*3 + w + 5")) == "w^2*3+w+5"
    assert cnf_str(cnf_parse("id(w+1)")) == "w+2"
    assert cnf_str(cnf_parse("id(7)")) == "7"
    assert cnf_parse("0") == ZERO and cnf_str(ZERO) == "0"
    assert cnf_parse("w^0") == ONE
    assert cnf_parse("(w+1)*w") == W_SQUARED
    assert cnf_str(cnf_parse("w^(w+1)")) == "w^(w+1)"
    assert cnf_parse("w*1") == OMEGA


@pytest.mark.parametrize("bad", ["", "w^^2", "w+", "3 3", "x", "id", "id(w",
                                 "()", "w^(w", "+1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        cnf_parse(bad)


def test_parse_bounds_nesting():
    tower = "^".join(["w"] * MAX_NESTING)
    assert cnf_str(cnf_parse(tower)).count("w") == MAX_NESTING
    # one level past the bound, and nestings deep enough to overflow the stack
    for deep in ("w^" + tower, "id(" + "^".join(["w"] * 3000) + ")",
                 "(" * 3000 + "w" + ")" * 3000):
        with pytest.raises(ValueError, match="nested"):
            cnf_parse(deep)


# --- agreement with the block and truncation models ----------------------------

TRIPLES = [(c2, c1, c0) for c2 in range(3) for c1 in range(3) for c0 in range(3)]


def test_addition_matches_block_concatenation():
    for a in TRIPLES:
        for b in TRIPLES:
            want = triple_to_cnf(triple_add(a, b))
            assert cnf_add(triple_to_cnf(a), triple_to_cnf(b)) == want


def test_finite_multiples_match_block_repetition():
    for a in TRIPLES:
        for d in range(4):
            want = triple_to_cnf(triple_mul_finite(a, d))
            assert cnf_mul(triple_to_cnf(a), cnf_from_int(d)) == want


def test_omega_multiples_match_the_limit_rule():
    for a in TRIPLES:
        if a[0]:
            continue  # a*w would leave the modeled range
        want = triple_to_cnf(triple_mul_omega(a))
        assert cnf_mul(triple_to_cnf(a), OMEGA) == want


def test_id_order_type_matches_truncations():
    for q in range(4):
        for r in range(4):
            got = id_order_type(pairs_to_cnf(q, r))
            assert got == triple_to_cnf(id_type_truncated(q, r))


# --- cofinality descriptors -----------------------------------------------------


def test_descriptor_validation_and_labels():
    assert ChainDescriptor("w1").cof == "w1"
    with pytest.raises(ValueError):
        ChainDescriptor("omega")


def test_parse_descriptor():
    assert parse_descriptor("max").cof == COF_HAS_MAX
    assert parse_descriptor("empty").cof == COF_EMPTY
    assert parse_descriptor(" w ").cof == "w"
    assert parse_descriptor("w12").cof == "w12"
    with pytest.raises(ValueError):
        parse_descriptor("w-1")


def test_product_cofinal_chain_cases():
    w, w1 = ChainDescriptor("w"), ChainDescriptor("w1")
    mx, empty = ChainDescriptor(COF_HAS_MAX), ChainDescriptor(COF_EMPTY)
    assert product_has_cofinal_chain([w, w]) is True
    assert product_has_cofinal_chain([w, w1]) is False
    assert product_has_cofinal_chain([mx, w1]) is True
    assert product_has_cofinal_chain([mx, mx]) is True
    assert product_has_cofinal_chain([w]) is True
    assert product_has_cofinal_chain([empty, w]) is False
    assert product_has_cofinal_chain([w, empty, w]) is False
    assert product_has_cofinal_chain([w, w1, w1, mx]) is False
    with pytest.raises(ValueError):
        product_has_cofinal_chain([])


@settings(max_examples=60)
@given(st.permutations([ChainDescriptor("w"), ChainDescriptor("w1"),
                        ChainDescriptor(COF_HAS_MAX), ChainDescriptor("w"),
                        ChainDescriptor(COF_EMPTY)]))
def test_product_cofinal_chain_is_permutation_invariant(perm):
    canon = sorted(perm, key=lambda d: d.cof)
    assert product_has_cofinal_chain(list(perm)) == product_has_cofinal_chain(canon)