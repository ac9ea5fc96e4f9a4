"""The column walks `FunctorExpr.show`, `FunctorExpr.edges`,
`FunctorExpr.precise` and `FunctorExpr.map`: a column of values gives what
its values give one at a time, and what a plain recursive walk over one
value gives.

The columns mix every constructor: coproduct tags in any order, empty bags
and powersets, compositions inside compositions, exponent letters and
constants that must be quoted, and state names that must be quoted.
Nothing here iterates a set, so the outcomes do not depend on the hash
seed."""

from __future__ import annotations

import random
from operator import attrgetter

import pytest

from coalg import (Bag, BagVal, Compose, Const, ConstVal, Coproduct,
                   Exponent, FiniteSet, FunVal, Identity, IdVal, Pow, Product,
                   SetVal, TagVal, TupleVal, format_value, parse_value)
from coalg.functors import quote_name

import generators

CONSTRUCTORS = (Identity, Const, Product, Coproduct, Exponent, Compose, Bag,
                Pow)
# letters and constants with a space, a comma, a colon or a brace, and
# state names with reserved characters, beside plain ones
LETTERS = ("a", "b c", "d,e", "f:g", "{h}")
CARRIER = FiniteSet(("s0", "s 1", "p,q", "x=y", "[r]", "ü", "#t"))


def text(f, v, name) -> str:
    """One value's spec-file text, by a walk over the value alone."""
    if isinstance(f, Identity):
        return "@" + name(v.member)
    if isinstance(f, Const):
        return "#" + quote_name(v.element)
    if isinstance(f, Product):
        return "(" + ", ".join(text(g, w, name)
                               for g, w in zip(f.factors, v.items)) + ")"
    if isinstance(f, Coproduct):
        return f"{v.tag}: {text(f.summands[v.tag], v.value, name)}"
    if isinstance(f, Exponent):
        return "{" + ", ".join(f"{quote_name(a)}: {text(f.base, v[a], name)}"
                               for a in f.alphabet) + "}"
    if isinstance(f, Compose):
        return text(f.outer, v, lambda m: text(f.inner, m, name))
    if isinstance(f, Bag):
        return "[" + ", ".join(f"{name(m)}*{n}" for m, n in v.entries) + "]"
    if isinstance(f, Pow):
        return "{|" + ", ".join(map(name, v.members)) + "|}"
    raise AssertionError(f)


def slots(f, v) -> list:
    """One value's (member, weight) slots, by a walk over the value alone."""
    if isinstance(f, Identity):
        return [(v.member, 1)]
    if isinstance(f, Const):
        return []
    if isinstance(f, Product):
        return [s for g, w in zip(f.factors, v.items) for s in slots(g, w)]
    if isinstance(f, Coproduct):
        return slots(f.summands[v.tag], v.value)
    if isinstance(f, Exponent):
        return [s for a in f.alphabet for s in slots(f.base, v[a])]
    if isinstance(f, Compose):
        return [(m2, n * n2) for m, n in slots(f.outer, v)
                for m2, n2 in slots(f.inner, m)]
    if isinstance(f, Bag):
        return list(v.entries)
    if isinstance(f, Pow):
        return [(m, 1) for m in v.members]
    raise AssertionError(f)


def precise(f, v) -> bool:
    """Whether one value has no non-empty powerset in it, by a walk over
    the value alone."""
    if isinstance(f, Pow):
        return not v.members
    if isinstance(f, Product):
        return all(precise(g, w) for g, w in zip(f.factors, v.items))
    if isinstance(f, Coproduct):
        return precise(f.summands[v.tag], v.value)
    if isinstance(f, Exponent):
        return all(precise(f.base, v[a]) for a in f.alphabet)
    if isinstance(f, Compose):
        return precise(f.outer, v) and all(
            precise(f.inner, m) for m, _ in slots(f.outer, v))
    return True


def relabel(f, v, fn, seen, nested=False):
    """One value with `fn` applied to its members, by a walk over the value
    alone; adds to `seen` the merges and collapses it makes, marked
    "nested" when the members that met are inner values under
    composition."""
    if isinstance(f, Identity):
        return IdVal(fn(v.member))
    if isinstance(f, Const):
        return v
    if isinstance(f, Product):
        return TupleVal(tuple(relabel(g, w, fn, seen, nested)
                              for g, w in zip(f.factors, v.items)))
    if isinstance(f, Coproduct):
        return TagVal(v.tag, relabel(f.summands[v.tag], v.value, fn, seen,
                                     nested))
    if isinstance(f, Exponent):
        return FunVal((a, relabel(f.base, v[a], fn, seen, nested))
                      for a in f.alphabet)
    if isinstance(f, Compose):
        return relabel(f.outer, v,
                       lambda m: relabel(f.inner, m, fn, seen, nested),
                       seen, True)
    if isinstance(f, Bag):
        out = BagVal((fn(m), n) for m, n in v.entries)
        if len(out.entries) < len(v.entries):
            seen.add(("bag merged", nested))
        return out
    if isinstance(f, Pow):
        out = SetVal(fn(m) for m in v.members)
        if len(out.members) < len(v.members):
            seen.add(("set collapsed", nested))
        return out
    raise AssertionError(f)


# non-injective relabellings of CARRIER: onto two states, and onto one
FOLDS = ({x: ("s0", "p,q")[i % 2] for i, x in enumerate(CARRIER)},
         dict.fromkeys(CARRIER, "ü"))


def nodes(f):
    yield f
    for g in f.children():
        yield from nodes(g)


def names(ms):
    return [quote_name(m) for m in ms]


def draws(seed: int, count: int):
    """Seeded (functor, column) pairs over CARRIER and LETTERS."""
    rng = random.Random(seed)
    for _ in range(count):
        f = generators.random_functor(rng, depth=3, letters=LETTERS)
        yield f, [generators.random_value(rng, f, CARRIER)
                  for _ in range(rng.randint(0, 12))]


def seen_in(f, column) -> set[str]:
    """The features of a draw the tests must meet at least once."""
    seen = {type(g).__name__ for g in nodes(f)}
    if isinstance(f, Coproduct) and len({v.tag for v in column}) > 1:
        seen.add("mixed tags")
    if any(isinstance(h, Compose) for g in nodes(f) if isinstance(g, Compose)
           for k in g.children() for h in nodes(k)):
        seen.add("nested compose")
    shown = [format_value(f, v) for v in column]
    if any("[]" in s for s in shown):
        seen.add("empty bag")
    if any("{||}" in s for s in shown):
        seen.add("empty powerset")
    if any(f'"{a}": ' in s for a in LETTERS[1:] for s in shown):
        seen.add("quoted letter")
    if any(f'@"{x}"' in s or f'"{x}"*' in s for x in list(CARRIER)[1:]
           for s in shown):
        seen.add("quoted state")
    return seen


FEATURES = {c.__name__ for c in CONSTRUCTORS} | {
    "mixed tags", "nested compose", "empty bag", "empty powerset",
    "quoted letter", "quoted state"}


def test_the_draws_meet_every_feature():
    seen: set[str] = set()
    for f, column in draws(3, 300):
        seen |= seen_in(f, column)
    assert seen == FEATURES


@pytest.mark.parametrize("seed", [3, 5])
def test_show_of_a_column_is_each_value_shown_alone(seed):
    for f, column in draws(seed, 300):
        shown = f.show(column, names)
        assert len(shown) == len(column)
        assert shown == [f.show([v], names)[0] for v in column]
        assert shown == [format_value(f, v) for v in column]
        assert shown == [text(f, v, quote_name) for v in column]


@pytest.mark.parametrize("seed", [3, 5])
def test_edges_of_a_column_are_each_value_read_alone(seed):
    for f, column in draws(seed, 300):
        read = f.edges(column)
        assert all(type(e) is tuple for e in read)
        assert read == [f.edges([v])[0] for v in column]
        assert list(map(list, read)) == [slots(f, v) for v in column]
        assert list(map(list, read)) == [list(f.slots(v)) for v in column]


@pytest.mark.parametrize("seed", [3, 5])
def test_precise_of_a_column_is_each_value_judged_alone(seed):
    judged = set()
    for f, column in draws(seed, 300):
        flags = f.precise(column)
        assert flags == [f.precise([v])[0] for v in column]
        assert flags == [precise(f, v) for v in column]
        judged.update(flags)
    assert judged == {True, False}


@pytest.mark.parametrize("seed", [3, 5])
def test_map_of_a_column_is_each_value_relabelled_alone(seed):
    seen: set = set()
    for f, column in draws(seed, 300):
        for fold in map(attrgetter("__getitem__"), FOLDS):
            mapped = f.map(column, fold)
            assert mapped == [f.map([v], fold)[0] for v in column]
            alone = [relabel(f, v, fold, seen) for v in column]
            assert mapped == alone
            # the same stored form: entries and members in the same order
            assert [format_value(f, v) for v in mapped] == [
                format_value(f, v) for v in alone]
    assert seen == {("bag merged", False), ("bag merged", True),
                    ("set collapsed", False), ("set collapsed", True)}


def test_the_shown_values_read_back():
    for f, column in draws(7, 200):
        for v, line in zip(column, f.show(column, names)):
            assert parse_value(f, line) == v


def test_a_column_walk_calls_member_once_per_column():
    # the bag's members are read as one column, and so are the pairs'
    # states under them
    f = Compose(Bag(), Product((Identity(), Const(FiniteSet(("0", "1"))))))
    column = [BagVal(((TupleVal((IdVal(x), ConstVal("1"))), n),))
              for x, n in (("s0", 2), ("p,q", 1))] + [BagVal(())]
    calls = []

    def member(ms):
        calls.append(list(ms))
        return names(ms)

    assert f.show(column, member) == ['[(@s0, #1)*2]', '[(@"p,q", #1)*1]',
                                      "[]"]
    assert calls == [["s0", "p,q"]]
    assert f.edges(column) == [(("s0", 2),), (("p,q", 1),), ()]


def test_an_empty_column_writes_nothing():
    # not even the letters of an exponent, which may hold a double quote
    bad = Exponent(Identity(), FiniteSet(('say "hi"',)))
    assert bad.show([], names) == []
    for f, _ in draws(11, 100):
        assert f.show([], names) == f.edges([]) == f.precise([]) == []
        assert f.map([], str.upper) == f.factor([], str.upper) == []
    assert Pow().show([SetVal(())], names) == ["{||}"]
