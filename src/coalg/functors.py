"""Functor grammar over finite sets, and the values of those functors.

A functor expression is one of::

    Id | {e1,...,en} | F x G | F + G | F ^ {a,...} | F . G | Bag | Pow

with `^` binding tightest, then `.` (right-associative), then `x`, then `+`.
The numeral 1 abbreviates the constant singleton {⊥}; a numeral n >= 2
abbreviates {0,...,n-1}, and one above the guard (`COALG_GUARD`) is refused
before the set is built.  Set-literal names holding a delimiter are written
in double quotes.

Values are immutable and normalized on construction: bag entries with equal
members are merged (zero multiplicities dropped), powerset duplicates are
collapsed.  Under composition the member slots of the outer layer hold values
of the inner layer instead of state identifiers.

Each constructor is one class that carries every operation the library runs
on the grammar (see `FunctorExpr`): validation, one rebuild walk for the
action on members and precise factorization, slot traversal, the powerset
test, fingerprints and the text syntax of its expressions and values.
Spec-file values written with bare names are read column-wise from one
scan of the document (`reader`), any other from the tokens of their line
(`Cursor`); functor expressions are read by one loop over a precedence
table of the infix operators (`_INFIX`).

Every walk over the values of a document is column-wise: slot reading
(`edges`), writing (`show`), relabelling (`map`), precise factorization
(`factor`) and its powerset test (`precise`), and the reader's `build`
take one list of values per node.  Products and exponents walk a column
per factor or letter, bags and powersets one column of all their members,
coproducts one part per tag; `Compose` runs the outer walk with the inner
one as its member walk.  Only the checks (`validate`, `pair`,
`fingerprint`) take one value, `Compose` applying the inner check at each
member slot of the outer one.  An exponent F^A is |A| copies of F, so
products and exponents share their walks and `pair` on the `_Fields`
base; a powerset is a bag that forgets multiplicity, so bags and
powersets share their checks and `Cursor` reading on `_Collection`.
Adding a constructor touches one class, and the hooks of its shape base.

Only `validate` checks a value; every other operation, `map` among them,
takes values that `validate` accepted.  Other modules call the methods
directly on values that were validated or that the library built.  The
three entry points below (`used_states`, `fmap`, `validate_value`) take
any value: each runs `validate` once, and `validate_value`'s member check
is the one test that bottom members are state ids.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, attrgetter, itemgetter, not_, setitem, sub
from typing import Union

from .base import (CoalgebraError, FiniteSet, FunctorSyntaxError, NotIsomorphic,
                   PowNotPrecise, Record, SearchSpaceTooLarge, ShapeError,
                   SpecFormatError, StateId, _guard)

BOTTOM = "⊥"

# characters that force a name in spec-file values into double quotes
RESERVED = set(' \t\r\n"#@(){}[]|*:,=')
# a bare name in a spec-file line, and the group `reader` takes it as (the
# class written with the one escape it needs: `re` compiles it the faster)
BARE = "[^%s]+" % "".join(sorted(RESERVED)).replace("]", r"\]")
NAME = f"({BARE})[ \t]*"
# characters that end a bare name in a functor set literal
_NAME_DELIMS = set(" \t\r\n,;()[]{}|*=")
# deepest functor expression `parse_functor` accepts, counting both the nodes
# on a root-to-leaf path and nested parentheses: every walk over a functor
# or its values recurses once or a few times per level, so this keeps them
# all far below Python's recursion limit
MAX_FUNCTOR_DEPTH = 64


def quote_name(name: str, reserved: set[str] = RESERVED) -> str:
    """`name` as written in text: bare unless it is empty, holds a reserved
    character or opens with a double quote, else double-quoted."""
    if name and name[0] != '"' and reserved.isdisjoint(name):
        return name
    if '"' in name:
        raise SpecFormatError(f"name {name!r} contains a double quote")
    return f'"{name}"'


# --------------------------------------------------------------------------
# values

# Member slots hold state ids at the bottom layer and inner values under
# composition.
Member = Union[StateId, "FValue"]


# The value classes are built once per slot, so their constructors set
# their fields through the slot descriptors' `__set__` (the `_set_*` names
# below the classes) instead of Record.__init__ or object.__setattr__.


class IdVal(Record):
    __slots__ = ("member",)

    def __init__(self, member: Member):
        _set_member(self, member)


class ConstVal(Record):
    __slots__ = ("element",)

    def __init__(self, element: StateId):
        _set_element(self, element)


class TupleVal(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["FValue", ...]):
        _set_items(self, items)


class TagVal(Record):
    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: "FValue"):
        _set_tag(self, tag)
        _set_value(self, value)


class FunVal(Record):
    """Total map from letters to values; compared pointwise.  Held as one
    dict in entry order, so a letter's value is found in O(1)."""

    __slots__ = ("_index",)

    def __init__(self, entries: Iterable[tuple[str, "FValue"]]):
        pairs = tuple(entries)
        index = dict(pairs)
        if len(index) != len(pairs):
            raise ValueError("duplicate letter in exponent value")
        _set_index(self, index)

    @classmethod
    def _trusted(cls, index: dict[str, "FValue"]) -> "FunVal":
        """Unchecked and uncopied: the caller guarantees that `index` is a
        fresh dict from letters to values, in entry order."""
        v = cls.__new__(cls)
        _set_index(v, index)
        return v

    @property
    def entries(self) -> tuple[tuple[str, "FValue"], ...]:
        return tuple(self._index.items())

    def __getitem__(self, letter: str) -> "FValue":
        return self._index[letter]

    def letters(self) -> tuple[str, ...]:
        return tuple(self._index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunVal):
            return NotImplemented
        return self._index == other._index

    def __hash__(self) -> int:
        return hash(frozenset(self._index.items()))

    def __repr__(self) -> str:
        return f"FunVal(entries={self.entries!r})"

    def __reduce__(self):
        return (FunVal, (self.entries,))


class BagVal(Record):
    """Finite multiset of members; merged and zero-free in stored form."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[Member, int]] = ()):
        merged: dict[Member, int] = {}
        for m, n in entries:
            if n < 0:
                raise ValueError(f"negative multiplicity {n} for {m!r}")
            if n == 0:
                continue
            # one hash for a new member; a duplicate is merged with a second
            size = len(merged)
            old = merged.setdefault(m, n)
            if len(merged) == size:
                merged[m] = old + n
        _set_entries(self, tuple(merged.items()))

    @classmethod
    def _trusted(cls, entries: tuple[tuple[Member, int], ...]) -> "BagVal":
        """Unchecked: the caller guarantees distinct members with positive
        multiplicities, the stored form the constructor would give."""
        v = cls.__new__(cls)
        _set_entries(v, entries)
        return v

    def multiplicity(self, m: Member) -> int:
        return dict(self.entries).get(m, 0)

    def total(self) -> int:
        return sum(n for _, n in self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BagVal):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash(frozenset(self.entries))


class SetVal(Record):
    """Finite set of members; duplicates collapse on construction."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Member] = ()):
        _set_members(self, tuple(dict.fromkeys(members)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetVal):
            return NotImplemented
        return frozenset(self.members) == frozenset(other.members)

    def __hash__(self) -> int:
        return hash(frozenset(self.members))


FValue = Union[IdVal, ConstVal, TupleVal, TagVal, FunVal, BagVal, SetVal]
_set_member, _set_element, _set_items = (
    IdVal.member.__set__, ConstVal.element.__set__, TupleVal.items.__set__)
_set_tag, _set_value, _set_index = (
    TagVal.tag.__set__, TagVal.value.__set__, FunVal._index.__set__)
_set_entries, _set_members = BagVal.entries.__set__, SetVal.members.__set__
# the fields of a column of values, read without a Python call each
_member, _element, _items, _tag, _index, _entries, _members = map(attrgetter, (
    "member", "element", "items", "tag", "_index", "entries", "members"))

# --------------------------------------------------------------------------
# functor expressions


class FunctorExpr(Record):
    """Base of the constructor classes, each of which implements:

    text(ctx, name): expression text at precedence ctx, the level of its
      operator in `_INFIX` (coproduct 0 < product 1 < compose 2) or 3 for
      postfix, set-literal names written by `name` (`describe` gives a
      text for messages that never raises);
    children(): the direct subexpressions;
    validate(value, member, path): shape check, `member(m, path)` per slot;
    edges(values): per value of a column, its (member, weight) slots in
      order as one tuple (a bag's own entries);
    _rebuild(values, fn, precise): the values of a column with `fn(member)`
      in each member slot, run by `map(values, fn)`, where bags and sets
      merge the members that `fn` makes equal, and by `factor(values,
      emit)`, where `emit` is called once per unit of each slot's
      multiplicity, in the order that fixes the middle names, and a
      non-empty powerset raises PowNotPrecise;
    precise(values): per value of a column, False when `factor` raises
      PowNotPrecise on it, decided without expanding bag multiplicities;
    pair(va, vb, img_a, img_b): matched slots of two values with equal images;
    fingerprint(value, leaf): name-free canonical text;
    parse(cur, member): spec-file value syntax, read from a line;
    show(values, member): the text of each value of a column, with
      `member(ms)` giving the texts of a whole column of members;
    reader(member): for values written with bare names only, a pattern
      (with the spaces and tabs after a value) that never spans a line
      break, its number of groups, and `build(columns)`, the values of all
      the rows of a document from one column per group; None leaves the
      values to `parse` (see `specfile`).
    Members are state ids, or inner values under composition.  `validate`
    alone checks each node's value class, product arity, coproduct tag and
    exponent letters; the other operations take values that it accepted.
    `slots(value)` is one value's `edges` after `validate`'s shape check.
    The column walks (`edges`, `precise`, `_rebuild`, `show`, `reader`'s
    `build`) take one list per node for all the values of a document:
    composite nodes split it into the columns of their parts and regroup
    the results.
    A subclass of a shape base gets some of these from it, and gives hooks:
    `_Fields` (`edges`, `_rebuild`, `precise`, `pair`) needs `_split(values)`,
    each field's functor with its column of the values, and `_pack(rows)`,
    the values of rows of fields; `_Collection` (`text`, `validate`,
    `pair`, `fingerprint`, `parse`) needs `_entries(value)`, its (member,
    multiplicity) pairs, and the constants `opening`, `stop`, `closing`
    (tokens of the listing) and `times` (whether `*n` is written).
    """

    __slots__ = ()
    value_type: type

    def describe(self) -> str:
        """Expression text for messages: like `format_functor`, but a
        set-literal name that no text can hold is written as its repr."""
        return self.text(0, _loose_name)

    def children(self) -> tuple["FunctorExpr", ...]:
        return ()

    def expect(self, value: FValue) -> FValue:
        if not isinstance(value, self.value_type):
            raise ShapeError(
                f"expected {self.value_type.__name__} for {self.describe()}, "
                f"got {type(value).__name__}")
        return value

    def map(self, values: list[FValue], fn) -> list[FValue]:
        return self._rebuild(values, fn, False)

    def factor(self, values: list[FValue], emit) -> list[FValue]:
        return self._rebuild(values, emit, True)

    def precise(self, values: list[FValue]) -> list[bool]:
        return [True] * len(values)

    def slots(self, value: FValue) -> Iterator[tuple[Member, int]]:
        self.validate(value, lambda m, path: None, "value")
        return iter(self.edges([value])[0])

    def reader(self, member):
        return None


class Identity(FunctorExpr):
    __slots__ = ()
    value_type = IdVal
    __repr__ = FunctorExpr.describe

    def text(self, ctx, name):
        return "Id"

    def validate(self, value, member, path):
        member(self.expect(value).member, path)

    def edges(self, values):
        return list(zip(zip(map(_member, values), repeat(1))))

    def _rebuild(self, values, fn, precise):
        return _made(IdVal, _set_member, list(map(fn, map(_member, values))))

    def pair(self, va, vb, img_a, img_b):
        yield (va.member, vb.member)

    def fingerprint(self, value, leaf):
        return leaf(value.member)

    def parse(self, cur, member):
        cur.take("@")
        return IdVal(member(cur))

    def reader(self, member):
        pat, n, build = member
        return "@[ \t]*" + pat, n, lambda cols: _made(IdVal, _set_member,
                                                      build(cols))

    def show(self, values, member):
        return list(map("@".__add__, member(list(map(_member, values)))))


class Const(FunctorExpr):
    __slots__ = ("values",)
    value_type = ConstVal

    def __init__(self, values: FiniteSet):
        if len(values) == 0:
            raise ValueError("constant functor needs a non-empty set")
        Record.__init__(self, values)

    def __repr__(self) -> str:
        return f"Const({{{','.join(self.values)}}})"

    def text(self, ctx, name):
        elems = tuple(self.values)
        if elems == (BOTTOM,):
            return "1"
        if len(elems) >= 2 and elems == tuple(str(i) for i in range(len(elems))):
            return str(len(elems))
        return _format_set(self.values, name)

    def validate(self, value, member, path):
        if self.expect(value).element not in self.values:
            raise ShapeError(f"{path}: {value.element!r} not in constant set "
                             f"{{{','.join(self.values)}}}")

    def edges(self, values):
        return [()] * len(values)

    def _rebuild(self, values, fn, precise):
        return values

    def pair(self, va, vb, img_a, img_b):
        if va != vb:
            raise NotIsomorphic(f"constant values differ: {va} vs {vb}")
        return iter(())

    def fingerprint(self, value, leaf):
        return f"#{value.element!r}"

    def parse(self, cur, member):
        cur.take("#")
        element = cur.name()
        if element not in self.values:
            # the one value check the shape-first read leaves open: noted,
            # so that the caller's validation reports it (see Cursor)
            cur.outside = True
        return ConstVal(element)

    def reader(self, member):
        return "#[ \t]*" + NAME, 1, lambda cols: _made(
            ConstVal, _set_element, _within(cols[0], self.values._keys))

    def show(self, values, member):
        elements = list(map(_element, values))
        text = {e: "#" + quote_name(e) for e in dict.fromkeys(elements)}
        return list(map(text.__getitem__, elements))


class _Fields(FunctorExpr):
    """Base of the constructors whose values hold one value per field: a
    product's factors, or an exponent's base once per letter."""

    __slots__ = ()

    def edges(self, values):
        return _joined([g.edges(col) for g, col in self._split(values)])

    def _rebuild(self, values, fn, precise):
        cols = [g._rebuild(col, fn, precise) for g, col in self._split(values)]
        return self._pack(list(zip(*cols)))

    def precise(self, values):
        return _every([g.precise(col) for g, col in self._split(values)])

    def pair(self, va, vb, img_a, img_b):
        for (g, [a]), (_, [b]) in zip(self._split([va]), self._split([vb])):
            yield from g.pair(a, b, img_a, img_b)


class Product(_Fields):
    __slots__ = ("factors",)
    value_type = TupleVal

    def __init__(self, factors: tuple[FunctorExpr, ...]):
        if not factors:
            raise ValueError("product needs at least one factor")
        Record.__init__(self, factors)

    def text(self, ctx, name):
        body = " x ".join(g.text(2, name) for g in self.factors)
        return f"({body})" if ctx > 1 else body

    def children(self):
        return self.factors

    def validate(self, value, member, path):
        if len(self.expect(value).items) != len(self.factors):
            raise ShapeError(f"{path}: product arity mismatch")
        for i, (g, v) in enumerate(zip(self.factors, value.items)):
            g.validate(v, member, f"{path}.{i}")

    def _split(self, values):
        """Each factor with its column of the values' items."""
        return zip(self.factors, _columns(list(map(_items, values)),
                                          len(self.factors)))

    def _pack(self, rows):
        return _made(TupleVal, _set_items, rows)

    def fingerprint(self, value, leaf):
        return "(" + ",".join(g.fingerprint(w, leaf)
                              for g, w in zip(self.factors, value.items)) + ")"

    def parse(self, cur, member):
        cur.take("(")
        items = []
        for g in self.factors:
            if items:
                cur.take(",")
            items.append(g.parse(cur, member))
        cur.take(")")
        return TupleVal(tuple(items))

    def reader(self, member):
        parts = [g.reader(member) for g in self.factors]
        if None not in parts:
            ends = list(accumulate(n for _, n, _ in parts))
            pat = r"\([ \t]*" + ",[ \t]*".join(p for p, _, _ in parts)
            return pat + r"\)[ \t]*", ends[-1], lambda cols: _made(
                TupleVal, _set_items, list(zip(
                    *[b(cols[e - n:e]) for (_, n, b), e in zip(parts, ends)])))

    def show(self, values, member):
        cols = [g.show(col, member) for g, col in self._split(values)]
        return ["(" + ", ".join(row) + ")" for row in zip(*cols)]


class Coproduct(FunctorExpr):
    __slots__ = ("summands",)
    value_type = TagVal

    def __init__(self, summands: tuple[FunctorExpr, ...]):
        if not summands:
            raise ValueError("coproduct needs at least one summand")
        Record.__init__(self, summands)

    def text(self, ctx, name):
        body = " + ".join(g.text(1, name) for g in self.summands)
        return f"({body})" if ctx > 0 else body

    def children(self):
        return self.summands

    def validate(self, value, member, path):
        if not 0 <= self.expect(value).tag < len(self.summands):
            raise ShapeError(f"{path}: coproduct tag {value.tag} out of range")
        self.summands[value.tag].validate(value.value, member,
                                          f"{path}.t{value.tag}")

    def edges(self, values):
        return self._by_tag(values, lambda tag, g, part: g.edges(part))

    def _rebuild(self, values, fn, precise):
        return self._by_tag(values, lambda tag, g, part: list(
            map(TagVal, repeat(tag), g._rebuild(part, fn, precise))))

    def _by_tag(self, values, walk):
        """`walk(tag, summand, part)` on the inner values of each tag that
        occurs, in summand order, the results put back in column order."""
        rows: dict[int, list[int]] = {}
        for j, tag in enumerate(map(_tag, values)):
            rows.setdefault(tag, []).append(j)
        out: list = [None] * len(values)
        for tag in sorted(rows):
            idxs = rows[tag]
            done = walk(tag, self.summands[tag],
                        [values[j].value for j in idxs])
            any(map(setitem, repeat(out), idxs, done))
        return out

    def precise(self, values):
        return self._by_tag(values, lambda tag, g, part: g.precise(part))

    def pair(self, va, vb, img_a, img_b):
        if va.tag != vb.tag:
            raise NotIsomorphic(f"coproduct tags differ: {va.tag} vs {vb.tag}")
        return self.summands[va.tag].pair(va.value, vb.value, img_a, img_b)

    def fingerprint(self, value, leaf):
        inner = self.summands[value.tag].fingerprint(value.value, leaf)
        return f"{value.tag}:{inner}"

    def parse(self, cur, member):
        tag = cur.integer()
        if tag >= len(self.summands):
            raise cur.error(f"coproduct tag {tag} out of range")
        cur.take(":")
        return TagVal(tag, self.summands[tag].parse(cur, member))

    def show(self, values, member):
        return self._by_tag(values, lambda tag, g, part: list(
            map(f"{tag}: ".__add__, g.show(part, member))))


class Exponent(_Fields):
    __slots__ = ("base", "alphabet")
    value_type = FunVal

    def __init__(self, base: FunctorExpr, alphabet: FiniteSet):
        if len(alphabet) == 0:
            raise ValueError("exponent needs a non-empty alphabet")
        Record.__init__(self, base, alphabet)

    def text(self, ctx, name):
        return self.base.text(3, name) + "^" + _format_set(self.alphabet, name)

    def children(self):
        return (self.base,)

    def validate(self, value, member, path):
        have = set(self.expect(value).letters())
        want = self.alphabet.as_set()
        if have != want:
            raise ShapeError(f"{path}: exponent letters {sorted(have)} do not "
                             f"match alphabet {sorted(want)}")
        for a in self.alphabet:
            self.base.validate(value[a], member, f"{path}.{a}")

    def _split(self, values):
        """The base with its column at each letter, in alphabet order."""
        index = list(map(_index, values))
        return [(self.base, list(map(itemgetter(a), index)))
                for a in self.alphabet]

    def _pack(self, rows):
        return [FunVal._trusted(dict(zip(self.alphabet, row))) for row in rows]

    def fingerprint(self, value, leaf):
        parts = sorted((a, self.base.fingerprint(w, leaf)) for a, w in value.entries)
        return "{" + ",".join(f"{a}:{s}" for a, s in parts) + "}"

    def parse(self, cur, member):
        cur.take("{")
        entries = {}
        while cur.more("}", entries):
            a = cur.name()
            if a not in self.alphabet:
                raise cur.error(f"letter {a!r} outside the alphabet")
            if a in entries:
                raise cur.error(f"duplicate letter {a!r}")
            cur.take(":")
            entries[a] = self.base.parse(cur, member)
        missing = [a for a in self.alphabet if a not in entries]
        if missing:
            raise cur.error(f"missing letter {missing[0]!r}")
        return FunVal(entries.items())

    def show(self, values, member):
        if not values:  # no letter is quoted when none is written
            return []
        cols = [list(map(f"{quote_name(a)}: ".__add__, g.show(col, member)))
                for a, (g, col) in zip(self.alphabet, self._split(values))]
        return ["{" + ", ".join(row) + "}" for row in zip(*cols)]


class Compose(FunctorExpr):
    """Outer functor whose member slots hold values of the inner functor."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: FunctorExpr, inner: FunctorExpr):
        Record.__init__(self, outer, inner)

    def text(self, ctx, name):
        body = self.outer.text(3, name) + " . " + self.inner.text(2, name)
        return f"({body})" if ctx > 2 else body

    def children(self):
        return (self.outer, self.inner)

    def validate(self, value, member, path):
        def check_inner(m: Member, p: str) -> None:
            if isinstance(m, str):
                raise ShapeError(f"{p}: expected an inner value under composition, "
                                 f"got state id {m!r}")
            self.inner.validate(m, member, p)
        self.outer.validate(value, check_inner, path)

    def edges(self, values):
        # the outer slots of all values, the inner values at them read as
        # one column, weighted by their outer multiplicity, regrouped
        outer = self.outer.edges(values)
        ms, ns = _columns(list(chain.from_iterable(outer)), 2)
        inner = self.inner.edges(ms)
        if ns.count(1) < len(ns):
            for j in compress(count(), map((1).__ne__, ns)):
                inner[j] = tuple((m, ns[j] * k) for m, k in inner[j])
        return list(map(tuple, map(chain.from_iterable,
                                   _pieces(inner, map(len, outer)))))

    def _rebuild(self, values, fn, precise):
        # the outer slots of every value first, then all their inner values
        # in one column-wise pass: this order fixes the fresh middle names
        collected: list[Member] = []

        def grab(member: Member) -> Member:
            collected.append(member)
            return len(collected) - 1  # placeholder token, substituted below

        outer_new = self.outer._rebuild(values, grab, precise)
        inner_new = self.inner._rebuild(collected, fn, precise)
        # the placeholders are distinct, so only this last step merges
        return self.outer.map(outer_new, inner_new.__getitem__)

    def precise(self, values):
        # the inner values at the outer slots of all values, as one column
        outer = self.outer.edges(values)
        inner = self.inner.precise(list(map(itemgetter(0),
                                            chain.from_iterable(outer))))
        return _every([self.outer.precise(values),
                       list(map(all, _slices(inner, map(len, outer))))])

    def pair(self, va, vb, img_a, img_b):
        images = []  # each value's outer members, mapped as one column
        for v, img in ((va, img_a), (vb, img_b)):
            ms = list(map(itemgetter(0), self.outer.edges([v])[0]))
            images.append(dict(zip(ms, self.inner.map(ms, img))).__getitem__)
        for ma, mb in self.outer.pair(va, vb, *images):
            yield from self.inner.pair(ma, mb, img_a, img_b)

    def fingerprint(self, value, leaf):
        return self.outer.fingerprint(value, lambda m: self.inner.fingerprint(m, leaf))

    def parse(self, cur, member):
        return self.outer.parse(cur, lambda c: self.inner.parse(c, member))

    def reader(self, member):
        inner = self.inner.reader(member)  # no listing inside a listing
        if inner and not (_lists(self.outer) and _lists(self.inner)):
            return self.outer.reader(inner)

    def show(self, values, member):
        return self.outer.show(values, lambda ms: self.inner.show(ms, member))


class _Collection(FunctorExpr):
    """Base of the constructors whose values list their members: a bag is
    a list up to order, a powerset a bag that forgets multiplicity.  A
    listing is the `opening` tokens, the members separated by commas (each
    with its `*n` when `times`), the `stop` token and the `closing` ones."""

    __slots__ = ()
    __repr__ = FunctorExpr.describe

    def text(self, ctx, name):
        return type(self).__name__

    def validate(self, value, member, path):
        for m, n in self._entries(self.expect(value)):
            if n < 1:
                raise ShapeError(f"{path}: non-positive multiplicity")
            member(m, path)

    def pair(self, va, vb, img_a, img_b):
        """The members of the two values, a copy per unit of multiplicity,
        grouped by their images and paired in stored order within each
        group; fails when the image multisets differ."""
        groups: tuple[dict, dict] = ({}, {})
        for g, v, img in zip(groups, (va, vb), (img_a, img_b)):
            for m, n in self._entries(v):
                g.setdefault(img(m), []).extend(repeat(m, n))
        ga, gb = groups
        if set(ga) != set(gb):
            raise NotIsomorphic("factorizations use different member images")
        for key, la in ga.items():
            lb = gb[key]
            if len(la) != len(lb):
                raise NotIsomorphic(
                    f"image {key!r} used {len(la)} vs {len(lb)} times")
            yield from zip(la, lb)

    def fingerprint(self, value, leaf):
        tally = Counter()
        for m, n in self._entries(value):
            tally[leaf(m)] += n
        items = [f"{s}*{n}" if self.times else s
                 for s, n in sorted(tally.items())]
        return self.opening + ",".join(items) + self.stop + self.closing

    def parse(self, cur, member):
        any(map(cur.take, self.opening))
        items = []
        while cur.more(self.stop, items):
            m = member(cur)
            items.append((m, cur.integer() if cur.skip("*") else 1)
                         if self.times else m)
        any(map(cur.take, self.closing))
        return self.value_type(items)


class Bag(_Collection):
    __slots__ = ()
    value_type = BagVal
    opening, stop, closing, times = "[", "]", "", True

    def _entries(self, value):
        return value.entries

    def edges(self, values):
        return list(map(_entries, values))

    def _rebuild(self, values, fn, precise):
        if not precise:
            return [BagVal((fn(m), n) for m, n in v.entries) for v in values]
        return [BagVal._trusted(tuple((fn(m), 1) for m, n in v.entries
                                      for _ in range(n)))
                for v in values]

    def reader(self, member):
        return _listing(member, r"\[", "]", "", r"(?:\*[ \t]*([0-9]+)[ \t]*)?")

    def show(self, values, member):
        entries = list(map(_entries, values))
        ms, ns = _columns(list(chain.from_iterable(entries)), 2)
        times = {n: f"*{n}" for n in set(ns)}
        items = list(map(add, member(ms), map(times.__getitem__, ns)))
        return _listed("[", items, map(len, entries), "]")


class Pow(_Collection):
    __slots__ = ()
    value_type = SetVal
    opening, stop, closing, times = "{|", "|", "}", False

    def _entries(self, value):
        return zip(value.members, repeat(1))

    def edges(self, values):
        # one endless iterator of 1s serves every zip
        return list(map(tuple, map(zip, map(_members, values),
                                   repeat(repeat(1)))))

    def _rebuild(self, values, fn, precise):
        if not precise:
            return [SetVal(map(fn, v.members)) for v in values]
        if not all(self.precise(values)):
            raise PowNotPrecise
        return values

    def precise(self, values):
        return list(map(not_, map(_members, values)))

    def reader(self, member):
        return _listing(member, r"\{[ \t]*\|", "|", r"[ \t]*\}", "")

    def show(self, values, member):
        members = list(map(_members, values))
        shown = member(list(chain.from_iterable(members)))
        return _listed("{|", shown, map(len, members), "|}")


def _lists(f: FunctorExpr) -> bool:
    return isinstance(f, _Collection) or any(map(_lists, f.children()))


def _within(names, known):
    """`names`, when `known` (a set or dict) holds each of them; else
    KeyError, which leaves the line to `parse`."""
    if all(map(known.__contains__, names)):
        return names
    raise KeyError(names)


def _listing(member, opening: str, stop: str, closing: str, times: str):
    """`reader` of a bag (with a `times` group) or powerset: its group takes
    a listing before its `stop`.  `build` splits the non-empty listings of
    all rows, each with its `stop`, into items (with comma or `stop`,
    groups, multiplicity) by one `findall`, which covers them exactly when
    they are written right; the stops give each row's item count.  Equal
    items share one member: a listing that repeats one is left to `parse`,
    so that no value is hashed to merge or collapse them."""
    pat, n, build = member
    end = re.escape(stop)
    items = re.compile(f"({pat}{times}(?:,[ \t]*|({end})))")

    def read(cols):
        full = list(filter(None, cols[0]))
        text = stop.join(full + [""])
        whole, *groups, stops = _columns(items.findall(text), items.groups)
        if sum(map(len, whole)) != len(text):
            raise ValueError("a listing for `parse`")
        if n == 1:
            keys, members = groups[0], build(groups[:1])
        else:
            keys = list(zip(*groups[:n]))
            new = list(dict.fromkeys(keys))
            made = dict(zip(new, build(_columns(new, n)) if new else ()))
            members = list(map(made.__getitem__, keys))
        if len(keys) > len(full):  # some listing holds several items
            ends = list(compress(count(1), stops))
            sizes = list(map(sub, ends, chain((0,), ends)))
            if len(set(keys)) < len(keys) and sum(map(
                    len, map(set, _pieces(keys, sizes)))) < len(keys):
                raise ValueError("a listing repeats an item")
        if times:
            counts = list(map(_COUNTS.get, groups[n]))
            if None in counts:
                counts = [int(t) if t else 1 for t in groups[n]]
            if 0 in counts:
                raise ValueError("*0")  # `parse` drops the entry
            members = zip(members, counts)
        rows = list(zip(members) if len(keys) == len(full)
                    else map(tuple, _pieces(members, sizes)))
        if len(full) < len(cols[0]):  # the empty listings hold no item
            rows, full = [()] * len(cols[0]), rows
            any(map(setitem, repeat(rows), compress(count(), cols[0]), full))
        return _made(*((BagVal, _set_entries) if times else
                       (SetVal, _set_members)), rows)
    return f"{opening}[ \t]*([^{end}\n]*){end}{closing}[ \t]*", 1, read


# the multiplicities written most often, looked up instead of read by `int`
_COUNTS = {str(k) if k else "": k or 1 for k in range(100)}


def _made(cls, setter, fields):
    """One record of `cls` per field value, made without a Python call each
    (`any` runs the slot setter, which returns None, over them all)."""
    out = list(map(cls.__new__, repeat(cls, len(fields))))
    any(map(setter, out, fields))
    return out


def _columns(rows, width: int) -> list[list]:
    """The `width` columns of a list of rows, one pass each: `zip(*rows)`
    makes an iterator per row and takes about twice as long."""
    return [list(map(itemgetter(k), rows)) for k in range(width)]


def _pieces(items, sizes):
    """`items` cut into consecutive iterators of `sizes` items."""
    return map(islice, repeat(iter(items)), sizes)


def _slices(items: list, sizes) -> Iterator[list]:
    """`items` cut into consecutive lists of `sizes` items; unlike
    `_pieces`, each is whole whether or not it is read to its end."""
    ends = list(accumulate(sizes))
    return map(items.__getitem__, map(slice, chain((0,), ends), ends))


def _listed(opening: str, items: list[str], sizes, closing: str) -> list[str]:
    """The text of each listing: its `sizes` items of `items` in turn,
    comma-separated between `opening` and `closing`."""
    return [opening + ", ".join(p) + closing for p in _slices(items, sizes)]


def _every(cols: list[list[bool]]) -> list[bool]:
    """Per row, whether every column holds True."""
    return list(map(all, zip(*cols)))


def _joined(cols: list[list[tuple]]) -> list[tuple]:
    """Per row, the tuples of all the columns concatenated in order."""
    out = cols[0]
    for col in cols[1:]:
        out = list(map(add, out, col))
    return out


# --------------------------------------------------------------------------
# entry points


def used_states(functor: FunctorExpr, value: FValue) -> FiniteSet:
    """States that actually occur in the value, in first-occurrence order."""
    validate_value(functor, value)
    return FiniteSet(dict.fromkeys(m for m, _ in functor.edges([value])[0]))


def fmap(functor: FunctorExpr, h, value: FValue) -> FValue:
    """Apply the functor to a carrier relabelling.

    `h` may be a mapping, or a callable on state ids such as a TotalMap.
    """
    validate_value(functor, value)
    return functor.map([value], h.__getitem__ if isinstance(h, Mapping)
                       else h)[0]


def validate_value(functor: FunctorExpr, value: FValue,
                   carrier: FiniteSet | None = None) -> None:
    """Check that `value` inhabits `functor` applied to `carrier`.

    With carrier=None only the shape is checked, not state membership.
    """

    def check_member(m: Member, path: str) -> None:
        if not isinstance(m, str):
            raise ShapeError(f"{path}: expected a state id, got {type(m).__name__}")
        if carrier is not None and m not in carrier:
            raise ShapeError(f"{path}: state {m!r} not in carrier")

    functor.validate(value, check_member, "value")


# --------------------------------------------------------------------------
# concrete syntax


class Cursor:
    """Reading position in one line of spec-file text.  The line is split
    once, by `_TOKEN`, into tokens: a quoted name (a double quote and the
    text up to the next one, or to the end of the line when there is none),
    a bare name (a run of characters outside RESERVED), or one reserved
    character; spaces and tabs only separate tokens.  An empty token closes
    the list, so reading at the end of the line finds "".  The methods
    index the token list; `take`, `skip` and `more` take only reserved
    characters other than the double quote, each a token of its own.
    Errors name the line `no`.  `outside` is set when a constant read from
    the line lies outside its set: `parse` reads the members of a value
    against the carrier and its shape against the functor, so this is the
    one fault of a parsed value that `validate_value` would still find.
    The split happens when the tokens are first read."""

    __slots__ = ("text", "toks", "i", "no", "outside")

    def __init__(self, text: str, no: int = 0):
        self.text, self.no, self.i = text, no, 0
        self.outside = False

    def __getattr__(self, name: str):  # the tokens, split on first use
        if name != "toks":
            raise AttributeError(name)
        self.toks = _TOKEN.findall(self.text) + [""]
        return self.toks

    def error(self, msg: str) -> CoalgebraError:
        return SpecFormatError(f"line {self.no}: {msg}")

    def take(self, ch: str) -> None:
        if self.toks[self.i] != ch:
            found = self.toks[self.i][:1] or "end of line"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.i += 1

    def skip(self, ch: str) -> bool:
        """Take `ch` if it comes next."""
        if self.toks[self.i] != ch:
            return False
        self.i += 1
        return True

    def more(self, close: str, started: bool) -> bool:
        """Whether another item of a comma-separated list ending at `close`
        follows: takes `close` and gives False at the end of the list, else
        takes the comma that goes before every item but the first."""
        tok = self.toks[self.i]
        if tok == close:
            self.i += 1
            return False
        if started:
            if tok != ",":
                self.take(",")  # raises
            self.i += 1
        return True

    def name(self) -> StateId:
        tok = self.toks[self.i]
        if tok in _NOT_NAMES:
            raise self.error(f"expected a name, found {tok or 'end of line'!r}")
        if tok[0] == '"':
            if len(tok) == 1 or tok[-1] != '"':
                raise self.error("unterminated quoted name")
            tok = tok[1:-1]
        self.i += 1
        return tok

    def integer(self) -> int:
        """A run of decimal digits (`str.isdecimal`), which may end inside
        a bare name; the rest of that name stays the next token."""
        tok = self.toks[self.i]
        if tok.isdecimal():
            self.i += 1
            return self._digits(tok)
        k = 0
        while k < len(tok) and tok[k].isdecimal():
            k += 1
        if k == 0:
            raise self.error("expected a number")
        self.toks[self.i] = tok[k:]
        return self._digits(tok[:k])

    def _digits(self, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() reads: an input error
            raise self.error(f"number too long ({len(digits)} digits)") from None

    def rest(self) -> str:
        """The text of the line from the next token on, stripped."""
        if not self.i:  # only spaces and tabs come before the first token
            return self.text.strip()
        for k, m in enumerate(_TOKEN.finditer(self.text)):
            if k == self.i:
                return self.text[m.end() - len(self.toks[k]):].strip()
        return ""


# the tokens of a spec-file line (see Cursor)
_TOKEN = re.compile('"[^"]*"?|%s|[^ \t]' % BARE)
# tokens that cannot open a name: the end of the line, and every reserved
# character but the double quote, which opens a quoted name
_NOT_NAMES = frozenset(RESERVED - {'"'}) | {""}


class _ExprCursor:
    """Reading position in a functor expression, moved by compiled patterns:
    any whitespace separates tokens, a bare name in a set literal ends at
    `_NAME_DELIMS`, errors carry the offset, `parens` counts the open
    parentheses."""

    __slots__ = ("text", "pos", "parens")

    def __init__(self, text: str):
        self.text, self.pos, self.parens = text, 0, 0

    def error(self, msg: str) -> CoalgebraError:
        return FunctorSyntaxError(msg, self.pos)

    def peek(self) -> str:
        self.pos = _SPACES.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, ch: str) -> None:
        if not self.skip(ch):
            found = self.peek() or "end of line"
            raise self.error(f"expected {ch!r}, found {found!r}")

    def name(self) -> str:
        ch = self.peek()
        if ch == '"':
            end = self.text.find('"', self.pos + 1)
            if end < 0:
                raise self.error("unterminated quoted name")
            out = self.text[self.pos + 1:end]
            self.pos = end + 1
            return out
        m = _SET_NAME.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected a name, found {ch or 'end of line'!r}")
        self.pos = m.end()
        return m.group()

    def word(self) -> str:
        """Maximal run of letters, digits and _ at the position `peek` left."""
        m = _WORD.match(self.text, self.pos)
        self.pos = m.end()
        return m.group()

    def skip(self, ch: str) -> bool:
        """Take `ch` if it comes next; `x` only as a word of its own."""
        if self.peek() != ch or (
                ch == "x" and _WORD.match(self.text, self.pos).end() > self.pos + 1):
            return False
        self.pos += 1
        return True


# whitespace (`str.isspace`), a bare set-literal name (its class written
# as BARE's is), and identifier characters (`str.isalnum` or `_`) from a
# position of an expression
_SPACES = re.compile(r"\s*")
_SET_NAME = re.compile("[^%s]+" % "".join(sorted(_NAME_DELIMS)).replace("]", r"\]"))
_WORD = re.compile(r"\w*")


def _parse_set_literal(cur: _ExprCursor) -> FiniteSet:
    cur.take("{")
    if cur.peek() == "}":
        raise FunctorSyntaxError("empty set is not allowed", cur.pos)
    names = [cur.name()]
    while not cur.skip("}"):
        cur.take(",")
        names.append(cur.name())
    try:
        return FiniteSet(names)
    except ValueError as e:
        raise FunctorSyntaxError(str(e), cur.pos) from None


def _parse_atom(cur: _ExprCursor) -> FunctorExpr:
    if cur.skip("("):
        cur.parens += 1
        if cur.parens > MAX_FUNCTOR_DEPTH:
            raise cur.error(f"more than {MAX_FUNCTOR_DEPTH} nested parentheses")
        inner = _parse_expr(cur)
        cur.take(")")
        cur.parens -= 1
        return inner
    ch = cur.peek()
    if ch == "{":
        return Const(_parse_set_literal(cur))
    start, word = cur.pos, cur.word()
    if word in _KEYWORDS:
        return _KEYWORDS[word]()
    if not ch.isdecimal():
        raise FunctorSyntaxError(f"expected a functor, got {word!r}" if word
                                 else "expected a functor", start)
    if not word.isdecimal():
        raise FunctorSyntaxError(f"bad numeral {word!r}", start)
    try:
        n = int(word)
    except ValueError:  # more digits than int() reads: an input error
        raise FunctorSyntaxError(f"numeral too long ({len(word)} digits)",
                                 start) from None
    if n == 0:
        raise FunctorSyntaxError("numeral 0 denotes the empty constant, "
                                 "which is not allowed", start)
    limit = _guard()
    if n > limit:
        raise SearchSpaceTooLarge(
            f"numeral {n} would make a constant of more than "
            f"COALG_GUARD={limit} elements")
    if n == 1:
        return Const(FiniteSet((BOTTOM,)))
    return Const(FiniteSet(str(i) for i in range(n)))


# the functors named by a word
_KEYWORDS = {"Id": Identity, "Bag": Bag, "Pow": Pow}
# the infix operators, loosest first, and the node each makes of the
# operands it joins: sums and products stay flat, compositions nest to the
# right; the postfix `^` binds tighter than all three
_INFIX = (("+", lambda fs: Coproduct(tuple(fs))),
          ("x", lambda fs: Product(tuple(fs))),
          (".", lambda fs: reduce(lambda g, f: Compose(f, g), reversed(fs))))


def _parse_expr(cur: _ExprCursor, level: int = 0) -> FunctorExpr:
    """An expression whose operators are those of `_INFIX` from `level` on,
    outside parentheses; past the last level, an atom and its exponents."""
    if level == len(_INFIX):
        f = _parse_atom(cur)
        while cur.skip("^"):
            f = Exponent(f, _parse_set_literal(cur))
        return f
    op, join = _INFIX[level]
    fs = [_parse_expr(cur, level + 1)]
    while cur.skip(op):
        fs.append(_parse_expr(cur, level + 1))
    return fs[0] if len(fs) == 1 else join(fs)


def parse_functor(text: str) -> FunctorExpr:
    """Parse a functor expression; round-trips with `format_functor`.

    Expressions deeper than MAX_FUNCTOR_DEPTH levels are rejected."""
    cur = _ExprCursor(text)
    f = _parse_expr(cur)
    if cur.peek():
        raise FunctorSyntaxError("trailing input after functor expression", cur.pos)
    depth, layer = 0, [f]
    while layer:
        depth += 1
        if depth > MAX_FUNCTOR_DEPTH:
            raise FunctorSyntaxError(
                f"functor nests deeper than {MAX_FUNCTOR_DEPTH} levels", 0)
        layer = [g for h in layer for g in h.children()]
    return f


def _set_name(name: str) -> str:
    return quote_name(name, _NAME_DELIMS)


def _loose_name(name: str) -> str:
    try:
        return _set_name(name)
    except SpecFormatError:
        return repr(name)


def _format_set(s: FiniteSet, name: Callable[[str], str]) -> str:
    return "{" + ",".join(map(name, s)) + "}"


def format_functor(f: FunctorExpr) -> str:
    """Canonical text for a functor expression."""
    return f.text(0, _set_name)
