"""Shared primitives: finite carriers, total maps, and the error taxonomy.

State identifiers are plain strings.  Carriers are `FiniteSet`s: duplicate-free
sequences with a fixed, deterministic iteration order (insertion order), so
every construction downstream is reproducible byte for byte.  A `FiniteSet`
holds its elements once, as the keys of one insertion-ordered dict whose
values it never reads.

Validation happens once, at the boundary: `parse_spec` and the public
constructors (`FiniteSet(...)`, `TotalMap(...)`, and `FMap(...)`,
`PointedCoalgebra(...)`, `FunVal(...)` and `BagVal(...)` in their modules)
check or normalize every invariant.  Each of these classes also has one
private trusted constructor, `_trusted`, which sets the fields and checks
nothing.  The library's own constructions use it
for objects they derive from already validated ones; its caller guarantees
the invariants, and a dict passed to it is not copied, so it must be freshly
built and not shared, with one exception: `FiniteSet._trusted` may adopt the
private mapping of the `TotalMap` whose domain the set is (a construction
builds the carrier and its map onto C as one dict), since neither object
ever writes to it.

Records (values, functors, coalgebras and the results of the constructions)
are immutable `__slots__` classes derived from `Record`, with explicit
constructors, for the sake of start-up time: the standard library's record
decorator and the module it lives in cost more per CLI process, in import
and in code generated for each class, than most calls spend on their work.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable

StateId = str


class CoalgebraError(Exception):
    """Base class for all library errors."""


class FunctorSyntaxError(CoalgebraError):
    """Functor expression text is malformed; carries the offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ShapeError(CoalgebraError):
    """A value does not fit the functor/carrier it is claimed to inhabit."""


class PowNotPrecise(CoalgebraError):
    """Raised when a precise factorization is requested for a powerset map
    with a non-empty value; the powerset functor admits none."""


class NotIsomorphic(CoalgebraError):
    """Two factorizations are not related by a mediating bijection."""


class NotAHomomorphism(CoalgebraError):
    """An operation required a coalgebra homomorphism and got something else."""


class SearchSpaceTooLarge(CoalgebraError):
    """A brute-force oracle, an unfolding or a functor numeral refused to go
    past the guard (see `_guard`)."""


class SpecFormatError(CoalgebraError):
    """A spec document is malformed; message carries the line number."""


def _guard() -> int:
    """The size limit, env var COALG_GUARD (default 10^7), on the candidates
    a brute-force oracle enumerates, on the tree states an unfolding builds
    and on the constant a functor numeral names; a non-integer is an error."""
    text = os.environ.get("COALG_GUARD", "10000000")
    try:
        return int(text)
    except ValueError:
        raise CoalgebraError(
            f"COALG_GUARD={text!r} is not an integer") from None


def _getter(fields: tuple[str, ...]) -> Callable[[object], tuple]:
    """The tuple of a record's fields; read by one C call when there are two
    or more, since records are compared and hashed on hot paths."""
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return attrgetter(*fields) if fields else lambda record: ()


class Record:
    """Immutable record.  A subclass lists its slots in `__slots__`; the
    slots not opening with `_` are its fields, in order.  Its `__init__`
    sets them with `object.__setattr__` (or `Record.__init__`, which takes
    every field's value in order).  Records compare equal when they are of
    the same class with equal fields, hash like the tuple of their fields,
    print as `Name(field=value, ...)`, refuse assignment, and copy and
    pickle as a call of the class on their fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ())
                             if not name.startswith("_"))
        cls._values = property(_getter(cls._fields))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._values)


class FiniteSet:
    """An ordered finite set of state identifiers: the keys of one
    insertion-ordered dict, `_keys`, whose values are never read.

    Equality and hashing are order-sensitive (it is a duplicate-free
    sequence, hashed as the tuple of its elements); use `as_set()` when only
    membership matters.
    """

    __slots__ = ("_keys",)

    def __init__(self, elems: Iterable[StateId] = ()):
        elems = tuple(elems)
        self._keys: dict[StateId, object] = dict.fromkeys(elems)
        if len(self._keys) != len(elems):
            seen: set[StateId] = set()
            for e in elems:
                if e in seen:
                    raise ValueError(f"duplicate element {e!r} in finite set")
                seen.add(e)
        if not all(map(isinstance, elems, repeat(str))) or "" in self._keys:
            bad = next(e for e in elems if not isinstance(e, str) or not e)
            raise ValueError(f"set elements must be non-empty strings, got {bad!r}")

    @classmethod
    def _trusted(cls, keys: dict[StateId, object]) -> "FiniteSet":
        """Unchecked and uncopied: the caller guarantees that the keys of
        `keys` are non-empty strings, and that the dict is fresh or is the
        private mapping of the `TotalMap` whose domain the set is.  Its
        values are never read, and neither object writes to it."""
        s = cls.__new__(cls)
        s._keys = keys
        return s

    def __iter__(self) -> Iterator[StateId]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, item: object) -> bool:
        return item in self._keys

    def __getitem__(self, i: int) -> StateId:
        return tuple(self._keys)[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return tuple(self._keys) == tuple(other._keys)

    def __hash__(self) -> int:
        return hash(tuple(self._keys))

    def __repr__(self) -> str:
        return "FiniteSet(" + ", ".join(self._keys) + ")"

    def as_set(self) -> frozenset[StateId]:
        return frozenset(self._keys)

    def union(self, *others: Iterable[StateId]) -> "FiniteSet":
        """Order-preserving union in one pass: self first, then the unseen
        elements of each other in turn."""
        return FiniteSet(dict.fromkeys(chain(self._keys, *others)))


class TotalMap:
    """A total function between finite carriers, validated at construction."""

    __slots__ = ("domain", "codomain", "_mapping")

    def __init__(self, domain: FiniteSet, codomain: FiniteSet,
                 mapping: Mapping[StateId, StateId]):
        self.domain = domain
        self.codomain = codomain
        self._mapping = dict(mapping)
        missing = [x for x in domain if x not in self._mapping]
        if missing:
            raise ValueError(f"map is not total: no image for {missing[:3]}")
        extra = [x for x in self._mapping if x not in domain]
        if extra:
            raise ValueError(f"map defined outside its domain: {extra[:3]}")
        bad = [x for x in domain if self._mapping[x] not in codomain]
        if bad:
            raise ValueError(
                f"image of {bad[0]!r} ({self._mapping[bad[0]]!r}) not in codomain")

    @classmethod
    def _trusted(cls, domain: FiniteSet, codomain: FiniteSet,
                 mapping: dict[StateId, StateId]) -> "TotalMap":
        """Unchecked and uncopied: the caller guarantees that `mapping` is a
        fresh dict with exactly the keys of domain, all images in codomain."""
        m = cls.__new__(cls)
        m.domain, m.codomain, m._mapping = domain, codomain, mapping
        return m

    @classmethod
    def identity(cls, carrier: FiniteSet) -> "TotalMap":
        return cls._trusted(carrier, carrier, {x: x for x in carrier})

    def __getitem__(self, x: StateId) -> StateId:
        return self._mapping[x]

    def __call__(self, x: StateId) -> StateId:
        return self._mapping[x]

    def items(self):
        return zip(self.domain, map(self._mapping.__getitem__, self.domain))

    def mapping(self) -> dict[StateId, StateId]:
        return {x: self._mapping[x] for x in self.domain}

    def image(self) -> FiniteSet:
        return FiniteSet._trusted(dict.fromkeys(map(self._mapping.__getitem__,
                                                    self.domain)))

    def is_injective(self) -> bool:
        return len(self.image()) == len(self.domain)

    def is_surjective(self) -> bool:
        return self.image().as_set() == self.codomain.as_set()

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TotalMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and all(self[x] == other[x] for x in self.domain))

    def __hash__(self) -> int:
        return hash((self.domain, self.codomain,
                     tuple(self._mapping[x] for x in self.domain)))

    def __repr__(self) -> str:
        body = ", ".join(f"{x}->{self._mapping[x]}" for x in self.domain)
        return f"TotalMap({body})"


def fresh_namer(taken: Iterable[StateId] = ()) -> Callable[[str], StateId]:
    """Allocator of fresh names: returns the candidate itself when free,
    otherwise the first `candidate~k` (k >= 2) that is.

    Names are never released, so every `candidate~j` a probe has passed stays
    taken: each candidate's probe resumes at the counter where its last one
    stopped, and a candidate repeated n times costs O(n) in all, not O(n^2)."""
    used = set(taken)
    resume: dict[str, int] = {}

    def alloc(candidate: str) -> StateId:
        if candidate not in used:
            used.add(candidate)
            return candidate
        k = resume.get(candidate, 2)
        while f"{candidate}~{k}" in used:
            k += 1
        resume[candidate] = k + 1
        name = f"{candidate}~{k}"
        used.add(name)
        return name

    return alloc
