"""The package's immutable records: value equality and hash, the
constructor signature, the repr, frozen fields, copying and pickling."""

import copy
import inspect
import pickle

import pytest

from conftest import chain
from posetideals import (
    ChainDescriptor,
    CheckReport,
    CnfOrdinal,
    Corpus,
    FamilyPoset,
    KurepaStep,
    KurepaTrace,
    MonotoneMap,
    Poset,
    SemilatticeStructure,
    classify,
    cnf_parse,
    ideals,
)
from posetideals.ordinals import ZERO


def c2() -> Poset:
    return chain(2)


# class -> (positional args, keyword args of another equal record, args of
# a record that differs in one field, signature as (name, default), repr)
RECORDS = {
    Poset: (
        lambda: (2, (0b11, 0b10)),
        lambda: {"labels": None, "up": (0b11, 0b10), "n": 2},
        lambda: (2, (0b11, 0b10), ("a", "b")),
        [("n", inspect.Parameter.empty), ("up", inspect.Parameter.empty), ("labels", None)],
        "Poset(n=2)",
    ),
    FamilyPoset: (
        lambda: (c2(), (0, 1, 3), chain(3), "ideal"),
        lambda: {"kind": "ideal", "order": chain(3), "sets": (0, 1, 3), "base": c2()},
        lambda: (c2(), (0, 1, 3), chain(3), "down"),
        [("base", inspect.Parameter.empty), ("sets", inspect.Parameter.empty),
         ("order", inspect.Parameter.empty), ("kind", inspect.Parameter.empty)],
        "FamilyPoset(base=Poset(n=2), sets=(0, 1, 3), order=Poset(n=3), kind='ideal')",
    ),
    MonotoneMap: (
        lambda: (c2(), c2(), (0, 1), "isomorphism"),
        lambda: {"kind": "isomorphism", "image": (0, 1), "target": c2(), "source": c2()},
        lambda: (c2(), c2(), (1, 1), "isotone"),
        [("source", inspect.Parameter.empty), ("target", inspect.Parameter.empty),
         ("image", inspect.Parameter.empty), ("kind", inspect.Parameter.empty)],
        "MonotoneMap(source=Poset(n=2), target=Poset(n=2), image=(0, 1), kind='isomorphism')",
    ),
    SemilatticeStructure: (
        lambda: (c2(), ((0, 1), (1, 1)), "lattice"),
        lambda: {"kind": "lattice", "join": ((0, 1), (1, 1)), "base": c2()},
        lambda: (c2(), ((0, 1), (1, 1)), "upper"),
        [("base", inspect.Parameter.empty), ("join", inspect.Parameter.empty),
         ("kind", inspect.Parameter.empty)],
        "SemilatticeStructure(base=Poset(n=2), join=((0, 1), (1, 1)), kind='lattice')",
    ),
    CheckReport: (
        lambda: ("thm21", "n1/00", "holds"),
        lambda: {"verdict": "holds", "instance": "n1/00", "check": "thm21", "witness": None},
        lambda: ("thm21", "n1/00", "holds", 7),
        [("check", inspect.Parameter.empty), ("instance", inspect.Parameter.empty),
         ("verdict", inspect.Parameter.empty), ("witness", None)],
        "CheckReport(check='thm21', instance='n1/00', verdict='holds', witness=None)",
    ),
    Corpus: (
        lambda: (1, ((chain(0),), (chain(1),)), "orderly-extension-v2"),
        lambda: {"provenance": "orderly-extension-v2", "by_size": ((chain(0),), (chain(1),)),
                 "max_n": 1},
        lambda: (1, ((chain(0),), (chain(1),)), "frozen"),
        [("max_n", inspect.Parameter.empty), ("by_size", inspect.Parameter.empty),
         ("provenance", inspect.Parameter.empty)],
        "Corpus(max_n=1, by_size=((Poset(n=0),), (Poset(n=1),)), "
        "provenance='orderly-extension-v2')",
    ),
    KurepaStep: (
        lambda: (1, 0, "{0}"),
        lambda: {"display": "{0}", "element": 0, "ideal": 1},
        lambda: (1, None, "{0}"),
        [("ideal", inspect.Parameter.empty), ("element", inspect.Parameter.empty),
         ("display", inspect.Parameter.empty)],
        "KurepaStep(ideal=1, element=0, display='{0}')",
    ),
    KurepaTrace: (
        lambda: ((KurepaStep(0, 0, "∅"),), "ChainExceedsPoset", 1),
        lambda: {"fail_step": 1, "reason": "ChainExceedsPoset",
                 "steps": (KurepaStep(0, 0, "∅"),)},
        lambda: ((KurepaStep(0, 0, "∅"),), "NotStrictlyAbove", 1),
        [("steps", inspect.Parameter.empty), ("reason", inspect.Parameter.empty),
         ("fail_step", inspect.Parameter.empty)],
        "KurepaTrace(steps=(KurepaStep(ideal=0, element=0, display='∅'),), "
        "reason='ChainExceedsPoset', fail_step=1)",
    ),
    CnfOrdinal: (
        lambda: (((CnfOrdinal(), 2),),),
        lambda: {"terms": ((ZERO, 2),)},
        lambda: (((CnfOrdinal(), 3),),),
        [("terms", ())],
        "CnfOrdinal('2')",
    ),
    ChainDescriptor: (
        lambda: ("w1",),
        lambda: {"cof": "w1"},
        lambda: ("w",),
        [("cof", inspect.Parameter.empty)],
        "ChainDescriptor(cof='w1')",
    ),
}
CASES = [pytest.param(cls, *spec, id=cls.__name__) for cls, spec in RECORDS.items()]


@pytest.mark.parametrize("cls, args, kwargs, other_args, signature, text", CASES)
def test_records_are_values(cls, args, kwargs, other_args, signature, text):
    a, b, other = cls(*args()), cls(**kwargs()), cls(*other_args())
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other and len({a, b, other}) == 2
    # a record equals only records of its own class, not its field values
    # nor a subclass instance with the same fields
    assert a != args() and a != type("Sub", (cls,), {})(*args())
    assert [(p.name, p.default) for p in inspect.signature(cls).parameters.values()] == signature
    assert repr(a) == text


@pytest.mark.parametrize("cls, args, kwargs, other_args, signature, text", CASES)
def test_records_are_frozen(cls, args, kwargs, other_args, signature, text):
    a = cls(*args())
    for name, _ in signature:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@pytest.mark.parametrize("cls, args, kwargs, other_args, signature, text", CASES)
def test_records_copy_and_pickle(cls, args, kwargs, other_args, signature, text):
    a = cls(*args())
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and type(b) is cls


def test_cached_attributes_survive_freezing():
    P = Poset(3, (0b111, 0b110, 0b100))
    assert P.down == (0b001, 0b011, 0b111) and P.down is P.down
    F = ideals(c2(), include_empty=True)
    assert isinstance(F, FamilyPoset)
    assert F.index(3) == 2 and 3 in F and 2 not in F and len(F) == 3
    S = classify(chain(3))
    assert isinstance(S, SemilatticeStructure) and S.is_lattice


def test_cnf_ordinal_normalises_checks_and_orders():
    two = CnfOrdinal([[ZERO, 2]])
    assert two.terms == ((ZERO, 2),) and type(two.terms[0]) is tuple
    assert two == CnfOrdinal(((ZERO, 2),)) and hash(two) == hash(CnfOrdinal(((ZERO, 2),)))
    for bad in ([(ZERO, 0)], [(2, 1)], [(ZERO, 1), (ZERO, 1)], [(ZERO, 1), (two, 1)]):
        with pytest.raises(ValueError):
            CnfOrdinal(bad)
    chain_ = [cnf_parse(s) for s in ("0", "1", "5", "w", "w+1", "w*2", "w^2", "w^w")]
    assert sorted(reversed(chain_)) == chain_
    for lo, hi in zip(chain_, chain_[1:]):
        assert lo < hi and lo <= hi and hi > lo and hi >= lo and not hi <= lo
    assert cnf_parse("w") <= cnf_parse("w") >= cnf_parse("w")
    with pytest.raises(ValueError):
        ChainDescriptor("omega")
