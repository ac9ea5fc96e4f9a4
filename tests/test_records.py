"""The record contract: every value, functor, coalgebra and result class is an
immutable `__slots__` record (see `coalg.base.Record`) that builds from
positional or keyword arguments, compares and hashes by its fields, keeps
its repr, and refuses assignment; and importing the CLI stays cheap."""

from __future__ import annotations

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from coalg import (
    Bag, BagVal, Compose, Const, ConstVal, Coproduct, Counterexample, Edge,
    Exponent, FMap, FiniteSet, FunVal, HomReport, HomSet, IdVal, Identity,
    LeastBound, LevelSequence, Multigraph, PartialDFA, PointedCoalgebra, Pow,
    PreciseFactorization, Product, ReachablePart, SetVal, TagVal, TotalMap,
    TreeLevels, TreeReport, TupleVal, UnravelResult, parse_functor,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

AB = FiniteSet(("a", "b"))
BOT = Const(FiniteSet(("⊥",)))
COALG = PointedCoalgebra(Bag(), AB, {"a": BagVal([("b", 1)]), "b": BagVal()},
                         "a")
FMAP = FMap(AB, AB, Bag(), COALG.structure)
IDENT = TotalMap.identity(AB)


def cases():
    """(class, positional arguments, keyword arguments) for every record
    class; both argument lists give the same fields."""
    def kw(cls, *args):
        names = cls._fields
        return (cls, args, dict(zip(names, args)))
    return [
        kw(IdVal, "p"),
        kw(ConstVal, "p"),
        kw(TupleVal, (IdVal("a"), ConstVal("0"))),
        kw(TagVal, 1, IdVal("a")),
        (FunVal, ([("a", IdVal("x")), ("b", IdVal("y"))],),
         {"entries": [("a", IdVal("x")), ("b", IdVal("y"))]}),
        kw(BagVal, (("a", 2), ("b", 1))),
        kw(SetVal, ("a", "b")),
        kw(Identity),
        kw(Bag),
        kw(Pow),
        kw(Const, AB),
        kw(Product, (Identity(), Bag())),
        kw(Coproduct, (Identity(), BOT)),
        kw(Exponent, Identity(), AB),
        kw(Compose, Bag(), Identity()),
        kw(PointedCoalgebra, Bag(), AB, dict(COALG.structure), "a",
           FiniteSet()),
        kw(Edge, "0", "a", "b"),
        kw(Multigraph, AB, (Edge("0", "a", "b"),), "a"),
        kw(HomReport, True, True, (), ()),
        kw(LeastBound, AB, FMAP, IDENT),
        kw(PreciseFactorization, AB, FMAP, IDENT),
        kw(LevelSequence, (AB,), (IDENT,), (FMAP,)),
        kw(ReachablePart, AB, dict(COALG.structure), IDENT, "a", COALG),
        kw(TreeLevels, (AB,), (FMAP,), (IDENT,), False),
        kw(UnravelResult, COALG, IDENT, True, FiniteSet()),
        kw(TreeReport, False, "cycle", "a -> a"),
        kw(PartialDFA, AB, AB, frozenset({"a"}), {("a", "a"): "b"}, "a"),
        kw(HomSet, (IDENT,), COALG, COALG),
        kw(Counterexample, COALG, IDENT),
    ]


CASES = cases()
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_class_is_covered():
    assert len(CASES) == 29


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert type(a) is cls and not hasattr(a, "__dict__")


@pytest.mark.parametrize("cls, args", [
    (TreeLevels, ((AB,), (FMAP,), (IDENT,), False)),
    (Compose, (Bag(), Identity())),
], ids=["TreeLevels", "Compose"])
def test_record_init_refuses_a_field_unknown_missing_or_given_twice(cls, args):
    assert "__init__" not in cls.__dict__
    named = dict(zip(cls._fields, args))
    first, *rest = cls._fields
    for bad in (lambda: cls(*args, bogus=1), lambda: cls(**named, bogus=1),
                lambda: cls(*args[:-1]), lambda: cls(**dict.fromkeys(rest)),
                lambda: cls(*args, **{first: args[0]}),
                lambda: cls(args[0], **named)):
        with pytest.raises(TypeError):
            bad()


# classes holding a dict, an FMap or a PointedCoalgebra are unhashable, as
# they always were
UNHASHABLE = {PointedCoalgebra, LeastBound, PreciseFactorization,
              LevelSequence, ReachablePart, TreeLevels, UnravelResult,
              PartialDFA, HomSet, Counterexample}


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_equal_fields_give_equal_hashes(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert table == {a: "second"}


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_fields_refuse_assignment(cls, args, kwargs):
    obj = cls(*args)
    for name in cls._fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_records_survive_copy_and_pickle(cls, args, kwargs):
    obj = cls(*args)
    for again in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(again) is cls and again == obj


def test_records_differ_across_classes():
    assert IdVal("p") != ConstVal("p")
    assert Identity() != Bag() and Bag() != Pow()
    assert Identity() == Identity() and hash(Identity()) == hash(Bag())
    assert TagVal(0, IdVal("a")) != TagVal(1, IdVal("a"))
    assert TupleVal((IdVal("a"),)) != (IdVal("a"),)


def test_defaults():
    c = PointedCoalgebra(Bag(), AB, COALG.structure, "a")
    assert c.frontier == FiniteSet() and c.is_total()
    report = TreeReport(True)
    assert (report.reason, report.detail) == (None, None)
    assert HomReport(True, True, ()).skipped == ()
    assert BagVal().entries == () and SetVal().members == ()


def test_hashes_are_those_of_the_field_tuples():
    assert hash(IdVal("p")) == hash(("p",))
    assert hash(TagVal(1, IdVal("p"))) == hash((1, IdVal("p")))
    assert hash(Edge("0", "a", "b")) == hash(("0", "a", "b"))
    assert hash(Identity()) == hash(())


def test_parsed_functors_equal_hand_built_ones():
    assert parse_functor("Id") == Identity()
    assert parse_functor("2 x (Id + 1)^{a,b} . Bag + Pow") == Coproduct((
        Product((Const(FiniteSet(("0", "1"))),
                 Compose(Exponent(Coproduct((Identity(), BOT)), AB), Bag()))),
        Pow()))
    assert hash(parse_functor("Bag . Id")) == hash(Compose(Bag(), Identity()))


def test_value_reprs_are_unchanged():
    assert repr(IdVal("p")) == "IdVal(member='p')"
    assert repr(ConstVal("p")) == "ConstVal(element='p')"
    assert repr(TupleVal((IdVal("a"), ConstVal("0")))) == (
        "TupleVal(items=(IdVal(member='a'), ConstVal(element='0')))")
    assert repr(TagVal(1, IdVal("a"))) == "TagVal(tag=1, value=IdVal(member='a'))"
    assert repr(FunVal([("a", IdVal("x"))])) == (
        "FunVal(entries=(('a', IdVal(member='x')),))")
    assert repr(BagVal([("a", 2), ("b", 1), ("a", 1)])) == (
        "BagVal(entries=(('a', 3), ('b', 1)))")
    assert repr(SetVal(["a", "b", "a"])) == "SetVal(members=('a', 'b'))"


def test_functor_and_result_reprs_are_unchanged():
    assert repr(parse_functor("2 x (Id + 1)^{a,b} . Bag + Pow")) == (
        "Coproduct(summands=(Product(factors=(Const({0,1}), Compose(outer="
        "Exponent(base=Coproduct(summands=(Id, Const({⊥}))), alphabet="
        "FiniteSet(a, b)), inner=Bag))), Pow))")
    assert repr(Edge("0", "a", "b")) == "Edge(id='0', src='a', tgt='b')"
    assert repr(TreeReport(True)) == ("TreeReport(ok=True, reason=None, "
                                      "detail=None)")
    assert repr(COALG) == "PointedCoalgebra(2 states, point='a')"


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        Const(FiniteSet())
    with pytest.raises(ValueError):
        Product(())
    with pytest.raises(TypeError):
        Identity("x")
    with pytest.raises(TypeError):
        IdVal()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import json, sys; before = set(sys.modules); import coalg.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    added = json.loads(out.stdout)
    assert "coalg.cli" in added
    assert not {"dataclasses", "inspect", "graphlib"} & set(added)
