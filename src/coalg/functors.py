"""Functor grammar over finite sets, and the values of those functors.

A functor expression is one of::

    Id | {e1,...,en} | F x G | F + G | F ^ {a,...} | F . G | Bag | Pow

with `^` binding tightest, then `.` (right-associative), then `x`, then `+`.
The numeral 1 abbreviates the constant singleton {⊥}; a numeral n >= 2
abbreviates {0,...,n-1}.  Set-literal names holding a delimiter are written
in double quotes.

Values are immutable and normalized on construction: bag entries with equal
members are merged (zero multiplicities dropped), powerset duplicates are
collapsed.  Under composition the member slots of the outer layer hold values
of the inner layer instead of state identifiers.

Each constructor is one class that carries every operation the library runs
on the grammar (see `FunctorExpr`): validation, the action on members, slot
traversal, both factorization walks and the powerset test, fingerprints and
the text syntax of its expressions and values, read with one `Cursor`.  Composite constructors recurse into their parts;
`Compose` runs the outer operation with the inner one applied at each member
slot.  Adding a constructor touches one class.  The module-level functions
below are the entry points the other modules call.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Union

from .base import (CoalgebraError, FiniteSet, FunctorSyntaxError, NotIsomorphic,
                   PowNotPrecise, Record, ShapeError, SpecFormatError, StateId,
                   TotalMap)

BOTTOM = "⊥"

# characters that force a name in spec-file values into double quotes
RESERVED = set(' \t\r\n"#@(){}[]|*:,=')
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
# their fields directly instead of through Record.__init__.
_set = object.__setattr__


class IdVal(Record):
    __slots__ = ("member",)

    def __init__(self, member: Member):
        _set(self, "member", member)


class ConstVal(Record):
    __slots__ = ("element",)

    def __init__(self, element: StateId):
        _set(self, "element", element)


class TupleVal(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple["FValue", ...]):
        _set(self, "items", items)


class TagVal(Record):
    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: "FValue"):
        _set(self, "tag", tag)
        _set(self, "value", value)


class FunVal(Record):
    """Total map from letters to values; compared pointwise.  Held as one
    dict in entry order, so a letter's value is found in O(1)."""

    __slots__ = ("_index",)

    def __init__(self, entries: Iterable[tuple[str, "FValue"]]):
        pairs = tuple(entries)
        index = dict(pairs)
        if len(index) != len(pairs):
            raise ValueError("duplicate letter in exponent value")
        _set(self, "_index", index)

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
            merged[m] = merged.get(m, 0) + n
        _set(self, "entries", tuple(merged.items()))

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
        out: list[Member] = []
        seen: set[Member] = set()
        for m in members:
            if m not in seen:
                seen.add(m)
                out.append(m)
        _set(self, "members", tuple(out))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetVal):
            return NotImplemented
        return frozenset(self.members) == frozenset(other.members)

    def __hash__(self) -> int:
        return hash(frozenset(self.members))


FValue = Union[IdVal, ConstVal, TupleVal, TagVal, FunVal, BagVal, SetVal]

# --------------------------------------------------------------------------
# functor expressions


class FunctorExpr(Record):
    """Base of the constructor classes, each of which implements:

    text(ctx, name): expression text at precedence ctx (coproduct 0 <
      product 1 < compose 2 < postfix 3), set-literal names written by
      `name` (`describe` gives a text for messages that never raises);
    children(): the direct subexpressions;
    validate(value, member, path): shape check, `member(m, path)` per slot;
    map(value, fn): the value with `fn` applied to every member slot;
    slots(value): (member, weight) per slot, in order;
    factor(items, emit): (prefix, value) items rebuilt column by column,
      `emit(prefix, member)` called once per slot occurrence;
    precise(value): False when `factor` raises PowNotPrecise on the value,
      decided without expanding bag multiplicities;
    pair(va, vb, img_a, img_b): matched slots of two values with equal images;
    fingerprint(value, leaf): name-free canonical text;
    parse(cur, member) / show(value, member): spec-file value syntax.
    Members are state ids, or inner values under composition.  `validate`,
    `map` and `slots` check each node's value class, product arity and
    coproduct tag; the other operations take values that `validate` accepted.
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

    def precise(self, value: FValue) -> bool:
        return True


def _pair_by_image(ms_a, ms_b, img_a, img_b) -> Iterator[tuple[Member, Member]]:
    """Pair two member lists by their projected images, position by position
    within each image group; fails when the image multisets differ."""
    ga: dict = {}
    for m in ms_a:
        ga.setdefault(img_a(m), []).append(m)
    gb: dict = {}
    for m in ms_b:
        gb.setdefault(img_b(m), []).append(m)
    if set(ga) != set(gb):
        raise NotIsomorphic("factorizations use different member images")
    for key, la in ga.items():
        lb = gb[key]
        if len(la) != len(lb):
            raise NotIsomorphic(f"image {key!r} used {len(la)} vs {len(lb)} times")
        yield from zip(la, lb)


class Identity(FunctorExpr):
    __slots__ = ()
    value_type = IdVal
    __repr__ = FunctorExpr.describe

    def text(self, ctx, name):
        return "Id"

    def validate(self, value, member, path):
        member(self.expect(value).member, path)

    def map(self, value, fn):
        return IdVal(fn(self.expect(value).member))

    def slots(self, value):
        yield (self.expect(value).member, 1)

    def factor(self, items, emit):
        return [IdVal(emit(p, v.member)) for p, v in items]

    def pair(self, va, vb, img_a, img_b):
        yield (va.member, vb.member)

    def fingerprint(self, value, leaf):
        return leaf(value.member)

    def parse(self, cur, member):
        cur.take("@")
        return IdVal(member(cur))

    def show(self, value, member):
        return "@" + member(value.member)


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

    def map(self, value, fn):
        return self.expect(value)

    def slots(self, value):
        self.expect(value)
        return iter(())

    def factor(self, items, emit):
        return [v for _, v in items]

    def pair(self, va, vb, img_a, img_b):
        if va != vb:
            raise NotIsomorphic(f"constant values differ: {va} vs {vb}")
        return iter(())

    def fingerprint(self, value, leaf):
        return f"#{value.element!r}"

    def parse(self, cur, member):
        cur.take("#")
        return ConstVal(cur.name())

    def show(self, value, member):
        return "#" + quote_name(value.element)


class Product(FunctorExpr):
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

    def _items(self, value, path="value"):
        if len(self.expect(value).items) != len(self.factors):
            raise ShapeError(f"{path}: product arity mismatch")
        return value.items

    def validate(self, value, member, path):
        for i, (g, v) in enumerate(zip(self.factors, self._items(value, path))):
            g.validate(v, member, f"{path}.{i}")

    def map(self, value, fn):
        return TupleVal(tuple(g.map(v, fn)
                              for g, v in zip(self.factors, self._items(value))))

    def slots(self, value):
        for g, v in zip(self.factors, self._items(value)):
            yield from g.slots(v)

    def factor(self, items, emit):
        cols = [g.factor([(f"{p}.{i}", v.items[i]) for p, v in items], emit)
                for i, g in enumerate(self.factors)]
        return [TupleVal(row) for row in zip(*cols)]

    def precise(self, value):
        return all(g.precise(v) for g, v in zip(self.factors, value.items))

    def pair(self, va, vb, img_a, img_b):
        for g, a, b in zip(self.factors, va.items, vb.items):
            yield from g.pair(a, b, img_a, img_b)

    def fingerprint(self, value, leaf):
        return "(" + ",".join(g.fingerprint(w, leaf)
                              for g, w in zip(self.factors, value.items)) + ")"

    def parse(self, cur, member):
        cur.take("(")
        items = []
        for i, g in enumerate(self.factors):
            if i:
                cur.take(",")
            items.append(g.parse(cur, member))
        cur.take(")")
        return TupleVal(tuple(items))

    def show(self, value, member):
        return "(" + ", ".join(g.show(v, member) for g, v in
                               zip(self.factors, value.items)) + ")"


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

    def _summand(self, value, path="value"):
        if not 0 <= self.expect(value).tag < len(self.summands):
            raise ShapeError(f"{path}: coproduct tag {value.tag} out of range")
        return self.summands[value.tag]

    def validate(self, value, member, path):
        self._summand(value, path).validate(value.value, member, f"{path}.t{value.tag}")

    def map(self, value, fn):
        return TagVal(value.tag, self._summand(value).map(value.value, fn))

    def slots(self, value):
        return self._summand(value).slots(value.value)

    def factor(self, items, emit):
        out: list = [None] * len(items)
        for tag, g in enumerate(self.summands):
            idxs = [j for j, (_, v) in enumerate(items) if v.tag == tag]
            sub = g.factor([(items[j][0], items[j][1].value) for j in idxs], emit)
            for j, inner in zip(idxs, sub):
                out[j] = TagVal(tag, inner)
        return out

    def precise(self, value):
        return self.summands[value.tag].precise(value.value)

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

    def show(self, value, member):
        inner = self.summands[value.tag].show(value.value, member)
        return f"{value.tag}: {inner}"


class Exponent(FunctorExpr):
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

    def map(self, value, fn):
        self.expect(value)
        return FunVal((a, self.base.map(value[a], fn)) for a in self.alphabet)

    def slots(self, value):
        self.expect(value)
        for a in self.alphabet:
            yield from self.base.slots(value[a])

    def factor(self, items, emit):
        cols = [self.base.factor([(f"{p}.{a}", v[a]) for p, v in items], emit)
                for a in self.alphabet]
        return [FunVal(zip(self.alphabet, row)) for row in zip(*cols)]

    def precise(self, value):
        return all(self.base.precise(v) for _, v in value.entries)

    def pair(self, va, vb, img_a, img_b):
        for a in self.alphabet:
            yield from self.base.pair(va[a], vb[a], img_a, img_b)

    def fingerprint(self, value, leaf):
        parts = sorted((a, self.base.fingerprint(w, leaf)) for a, w in value.entries)
        return "{" + ",".join(f"{a}:{s}" for a, s in parts) + "}"

    def parse(self, cur, member):
        seen = set()

        def entry():
            a = cur.name()
            if a not in self.alphabet:
                raise cur.error(f"letter {a!r} outside the alphabet")
            if a in seen:
                raise cur.error(f"duplicate letter {a!r}")
            seen.add(a)
            cur.take(":")
            return (a, self.base.parse(cur, member))
        cur.take("{")
        entries = cur.until("}", entry)
        missing = [a for a in self.alphabet if a not in seen]
        if missing:
            raise cur.error(f"missing letter {missing[0]!r}")
        return FunVal(entries)

    def show(self, value, member):
        parts = (f"{quote_name(a)}: {self.base.show(value[a], member)}"
                 for a in self.alphabet)
        return "{" + ", ".join(parts) + "}"


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

    def map(self, value, fn):
        return self.outer.map(value, lambda m: self.inner.map(m, fn))

    def slots(self, value):
        for m, n in self.outer.slots(value):
            for m2, n2 in self.inner.slots(m):
                yield (m2, n * n2)

    def factor(self, items, emit):
        # the outer slots of every item first, then all their inner values in
        # one column-wise pass: this order fixes the fresh middle names
        collected: list[tuple[str, Member]] = []

        def grab(prefix: str, member: Member) -> Member:
            collected.append((prefix, member))
            return len(collected) - 1  # placeholder token, substituted below

        outer_new = self.outer.factor(items, grab)
        inner_new = self.inner.factor(collected, emit)
        return [self.outer.map(v, inner_new.__getitem__) for v in outer_new]

    def precise(self, value):
        return self.outer.precise(value) and all(
            self.inner.precise(m) for m, _ in self.outer.slots(value))

    def pair(self, va, vb, img_a, img_b):
        outer = self.outer.pair(va, vb, lambda m: self.inner.map(m, img_a),
                                lambda m: self.inner.map(m, img_b))
        for ma, mb in outer:
            yield from self.inner.pair(ma, mb, img_a, img_b)

    def fingerprint(self, value, leaf):
        return self.outer.fingerprint(value, lambda m: self.inner.fingerprint(m, leaf))

    def parse(self, cur, member):
        return self.outer.parse(cur, lambda c: self.inner.parse(c, member))

    def show(self, value, member):
        return self.outer.show(value, lambda m: self.inner.show(m, member))


class Bag(FunctorExpr):
    __slots__ = ()
    value_type = BagVal
    __repr__ = FunctorExpr.describe

    def text(self, ctx, name):
        return "Bag"

    def validate(self, value, member, path):
        for m, n in self.expect(value).entries:
            if n < 1:
                raise ShapeError(f"{path}: non-positive multiplicity")
            member(m, path)

    def map(self, value, fn):
        return BagVal((fn(m), n) for m, n in self.expect(value).entries)

    def slots(self, value):
        return iter(self.expect(value).entries)

    def factor(self, items, emit):
        out = []
        for p, v in items:
            entries = []
            for i, (m, n) in enumerate(v.entries):
                seg = m if isinstance(m, str) else f"e{i}"
                entries.extend((emit(f"{p}/{seg}#{k}", m), 1) for k in range(1, n + 1))
            out.append(BagVal(entries))
        return out

    def pair(self, va, vb, img_a, img_b):
        return _pair_by_image([m for m, n in va.entries for _ in range(n)],
                              [m for m, n in vb.entries for _ in range(n)],
                              img_a, img_b)

    def fingerprint(self, value, leaf):
        tally = Counter()
        for m, n in value.entries:
            tally[leaf(m)] += n
        return "[" + ",".join(f"{s}*{n}" for s, n in sorted(tally.items())) + "]"

    def parse(self, cur, member):
        cur.take("[")
        return BagVal(cur.until("]", lambda: (
            member(cur), cur.integer() if cur.skip("*") else 1)))

    def show(self, value, member):
        return "[" + ", ".join(f"{member(m)}*{n}" for m, n in value.entries) + "]"


class Pow(FunctorExpr):
    __slots__ = ()
    value_type = SetVal
    __repr__ = FunctorExpr.describe

    def text(self, ctx, name):
        return "Pow"

    def validate(self, value, member, path):
        for m in self.expect(value).members:
            member(m, path)

    def map(self, value, fn):
        return SetVal(fn(m) for m in self.expect(value).members)

    def slots(self, value):
        return ((m, 1) for m in self.expect(value).members)

    def factor(self, items, emit):
        for p, v in items:
            if not self.precise(v):
                raise PowNotPrecise(
                    f"powerset value at {p!r} is non-empty; the powerset functor "
                    "admits no precise factorization of it")
        return [v for _, v in items]

    def precise(self, value):
        return not value.members

    def pair(self, va, vb, img_a, img_b):
        return _pair_by_image(va.members, vb.members, img_a, img_b)

    def fingerprint(self, value, leaf):
        return "{|" + ",".join(sorted({leaf(m) for m in value.members})) + "|}"

    def parse(self, cur, member):
        cur.take("{")
        cur.take("|")
        members = cur.until("|", lambda: member(cur))
        cur.take("}")
        return SetVal(members)

    def show(self, value, member):
        return "{|" + ", ".join(member(m) for m in value.members) + "|}"


# --------------------------------------------------------------------------
# entry points


def map_members(functor: FunctorExpr, value: FValue,
                fn: Callable[[Member], Member]) -> FValue:
    """Rebuild `value` with `fn` applied to every bottom member slot.

    This is the functor's action on maps, generalized to an arbitrary member
    transform; `fmap` is the instance where `fn` relabels state ids.  Bag
    images merge multiplicities of collided members; Pow images collapse
    duplicates.
    """
    return functor.map(value, fn)


def iter_slots(functor: FunctorExpr, value: FValue) -> Iterator[tuple[Member, int]]:
    """Yield every bottom member slot with its multiplicity weight."""
    return functor.slots(value)


def used_states(functor: FunctorExpr, value: FValue) -> FiniteSet:
    """States that actually occur in the value, in first-occurrence order."""
    out: list[StateId] = []
    seen: set[StateId] = set()
    for m, _ in functor.slots(value):
        if not isinstance(m, str):
            raise ShapeError(f"bottom member is not a state id: {m!r}")
        if m not in seen:
            seen.add(m)
            out.append(m)
    return FiniteSet(out)


def leaf_count(functor: FunctorExpr, value: FValue) -> int:
    """Number of bottom member slots, counting multiplicity."""
    return sum(n for _, n in functor.slots(value))


def fmap(functor: FunctorExpr, h, value: FValue) -> FValue:
    """Apply the functor to a carrier relabelling.

    `h` may be a TotalMap, a mapping, or a callable on state ids.
    """
    hf = h.__getitem__ if isinstance(h, (TotalMap, Mapping)) else h

    def rename(m: Member) -> Member:
        if not isinstance(m, str):
            raise ShapeError(f"bottom member is not a state id: {m!r}")
        return hf(m)

    return functor.map(value, rename)


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


def fvalue_equal(functor: FunctorExpr, v1: FValue, v2: FValue) -> bool:
    """Structural equality of two values of the same functor.

    Both values are shape-checked first; bags compare by multiplicity,
    powerset values as sets, exponent values pointwise.
    """
    validate_value(functor, v1)
    validate_value(functor, v2)
    return v1 == v2


# --------------------------------------------------------------------------
# concrete syntax


class Cursor:
    """Reading position in one line of spec-file text, with the tokens that
    spec-file values share with functor expressions.  A name opening with a
    double quote runs to the next one; a bare name runs up to a character of
    `delims`.  Errors name the line `no`."""

    __slots__ = ("text", "pos", "no")
    delims = RESERVED

    def __init__(self, text: str, no: int = 0):
        self.text, self.pos, self.no = text, 0, no

    def error(self, msg: str) -> CoalgebraError:
        return SpecFormatError(f"line {self.no}: {msg}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of line"
            raise self.error(f"expected {ch!r}, found {found!r}")
        self.pos += 1

    def skip(self, ch: str) -> bool:
        """Take `ch` if it comes next."""
        if self.peek() != ch:
            return False
        self.pos += 1
        return True

    def at_end(self) -> bool:
        return self.peek() == ""

    def until(self, close: str, item: Callable[[], object]) -> list:
        """Comma-separated `item()`s up to `close`, which is taken too."""
        out = []
        while self.peek() != close:
            if out:
                self.take(",")
            out.append(item())
        self.take(close)
        return out

    def name(self) -> StateId:
        ch = self.peek()
        if ch == '"':
            end = self.text.find('"', self.pos + 1)
            if end < 0:
                raise self.error("unterminated quoted name")
            out = self.text[self.pos + 1:end]
            self.pos = end + 1
            return out
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in self.delims:
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected a name, found {ch or 'end of line'!r}")
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])


class _ExprCursor(Cursor):
    """Cursor over a functor expression: any whitespace separates tokens, set
    literals end a bare name at `_NAME_DELIMS`, errors carry the offset,
    `parens` counts the open parentheses."""

    __slots__ = ("parens",)
    delims = _NAME_DELIMS

    def __init__(self, text: str):
        super().__init__(text)
        self.parens = 0

    def error(self, msg: str) -> CoalgebraError:
        return FunctorSyntaxError(msg, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def word(self) -> str:
        """Maximal run of identifier characters (letters, digits, _)."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]


def _parse_set_literal(cur: _ExprCursor) -> FiniteSet:
    cur.take("{")
    if cur.peek() == "}":
        raise FunctorSyntaxError("empty set is not allowed", cur.pos)
    names = cur.until("}", cur.name)
    try:
        return FiniteSet(names)
    except ValueError as e:
        raise FunctorSyntaxError(str(e), cur.pos) from None


def _parse_atom(cur: _ExprCursor) -> FunctorExpr:
    ch = cur.peek()
    if ch == "(":
        cur.take("(")
        cur.parens += 1
        if cur.parens > MAX_FUNCTOR_DEPTH:
            raise FunctorSyntaxError(
                f"more than {MAX_FUNCTOR_DEPTH} nested parentheses", cur.pos)
        inner = _parse_coproduct(cur)
        cur.take(")")
        cur.parens -= 1
        return inner
    if ch == "{":
        return Const(_parse_set_literal(cur))
    if ch.isdecimal():
        start = cur.pos
        word = cur.word()
        if not word.isdecimal():
            raise FunctorSyntaxError(f"bad numeral {word!r}", start)
        n = int(word)
        if n == 0:
            raise FunctorSyntaxError("numeral 0 denotes the empty constant, "
                                     "which is not allowed", start)
        if n == 1:
            return Const(FiniteSet((BOTTOM,)))
        return Const(FiniteSet(str(i) for i in range(n)))
    start = cur.pos
    word = cur.word()
    if word == "Id":
        return Identity()
    if word == "Bag":
        return Bag()
    if word == "Pow":
        return Pow()
    raise FunctorSyntaxError(
        f"expected a functor, got {word!r}" if word else "expected a functor", start)


def _parse_postfix(cur: _ExprCursor) -> FunctorExpr:
    f = _parse_atom(cur)
    while cur.peek() == "^":
        cur.take("^")
        f = Exponent(f, _parse_set_literal(cur))
    return f


def _parse_compose(cur: _ExprCursor) -> FunctorExpr:
    parts = [_parse_postfix(cur)]
    while cur.peek() == ".":
        cur.take(".")
        parts.append(_parse_postfix(cur))
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Compose(p, out)
    return out


def _parse_product(cur: _ExprCursor) -> FunctorExpr:
    factors = [_parse_compose(cur)]
    while True:
        cur.peek()
        mark = cur.pos
        if cur.peek() == "x":
            word = cur.word()
            if word == "x":
                factors.append(_parse_compose(cur))
                continue
            cur.pos = mark
        break
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_coproduct(cur: _ExprCursor) -> FunctorExpr:
    summands = [_parse_product(cur)]
    while cur.skip("+"):
        summands.append(_parse_product(cur))
    return summands[0] if len(summands) == 1 else Coproduct(tuple(summands))


def parse_functor(text: str) -> FunctorExpr:
    """Parse a functor expression; round-trips with `format_functor`.

    Expressions deeper than MAX_FUNCTOR_DEPTH levels are rejected."""
    cur = _ExprCursor(text)
    f = _parse_coproduct(cur)
    if not cur.at_end():
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
