"""Factorization of carrier-valued maps: least bounds and precise factorizations.

A map f: X -> F(Y) factors as F(h) . p with middle carrier R.  Two kinds of
factorization drive everything downstream:

* least bounds: p lands in the least sub-carrier Z of Y whose states f
  actually uses, and h: Z -> Y is the inclusion.  This is the image-style
  factorization behind reachability.
* precise factorizations: every element of R is used exactly once across all
  of p's values, and h: R -> Y restores the original map.  This is the
  copying factorization behind tree unravellings.  The powerset functor
  admits no precise factorization of a non-empty value (PowNotPrecise).

Middle elements of precise factorizations are named after their provenance:
origin domain element, structural path, and a copy index for bag entries.

`FMap(...)` validates every value against the functor and the codomain.  Both
factorizations take an FMap that is already valid (checked by that
constructor, or derived by the library from checked data), and build their
results with the unchecked `_trusted` constructors (see `coalg.base`): their
carriers, maps and values are valid by construction.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from .base import (FiniteSet, NotIsomorphic, Record, ShapeError, StateId,
                   TotalMap, fresh_namer)
from .functors import FValue, FunctorExpr, Member, fmap, validate_value


class FMap:
    """A map from a finite carrier into a functor application F(codomain)."""

    __slots__ = ("domain", "codomain", "functor", "values")

    def __init__(self, domain: FiniteSet, codomain: FiniteSet,
                 functor: FunctorExpr, values: Mapping[StateId, FValue]):
        self.domain = domain
        self.codomain = codomain
        self.functor = functor
        self.values = dict(values)
        missing = [x for x in domain if x not in self.values]
        if missing:
            raise ValueError(f"no value for domain element {missing[0]!r}")
        extra = [x for x in self.values if x not in domain]
        if extra:
            raise ValueError(f"value for non-domain element {extra[0]!r}")
        for x in domain:
            validate_value(functor, self.values[x], codomain)

    @classmethod
    def _trusted(cls, domain: FiniteSet, codomain: FiniteSet,
                 functor: FunctorExpr,
                 values: dict[StateId, FValue]) -> "FMap":
        """Unchecked and uncopied: the caller guarantees that `values` is a
        fresh dict with exactly the keys of domain, each value valid for
        functor over codomain."""
        f = cls.__new__(cls)
        f.domain, f.codomain, f.functor = domain, codomain, functor
        f.values = values
        return f

    def value(self, x: StateId) -> FValue:
        return self.values[x]

    def items(self) -> Iterator[tuple[StateId, FValue]]:
        return ((x, self.values[x]) for x in self.domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMap):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.functor == other.functor
                and all(self.values[x] == other.values[x] for x in self.domain))

    def __repr__(self) -> str:
        return (f"FMap({len(self.domain)} states -> "
                f"{type(self.functor).__name__}({len(self.codomain)}))")


class PreciseFactorization(Record):
    """f = F(h) . p with p precise; middle is p's codomain carrier."""

    __slots__ = ("middle", "p", "h")

    def __init__(self, middle: FiniteSet, p: FMap, h: TotalMap):
        Record.__init__(self, middle, p, h)

    def parts(self) -> tuple[FiniteSet, FMap, TotalMap]:
        return (self.middle, self.p, self.h)


class LeastBound(Record):
    """f = F(m) . g with m the inclusion of the used sub-carrier."""

    __slots__ = ("sub", "g", "m")

    def __init__(self, sub: FiniteSet, g: FMap, m: TotalMap):
        Record.__init__(self, sub, g, m)

    def parts(self) -> tuple[FiniteSet, FMap, TotalMap]:
        return (self.sub, self.g, self.m)


def least_bound(f: FMap) -> LeastBound:
    """Restrict f's codomain to the states it actually uses, in first-use
    order; one pass over the slots of f's values."""
    slots = f.functor.slots
    sub = FiniteSet._trusted(dict.fromkeys(
        z for x in f.domain for z, _ in slots(f.values[x])))
    g = FMap._trusted(f.domain, sub, f.functor, dict(f.values))
    m = TotalMap._trusted(sub, f.codomain, dict(zip(sub, sub)))
    return LeastBound(sub, g, m)


def precise_factorize(f: FMap) -> PreciseFactorization:
    """Factor f through a middle carrier whose every element is used once.

    Raises PowNotPrecise when a powerset layer carries a non-empty value.
    """
    order: list[StateId] = []
    h_map: dict[StateId, StateId] = {}
    alloc = fresh_namer()

    def emit(prefix: str, member: Member) -> Member:
        if not isinstance(member, str):
            raise ShapeError(f"unfactored inner value at {prefix!r}")
        name = alloc(prefix)
        order.append(name)
        h_map[name] = member
        return name

    new_values = f.functor.factor([(x, f.values[x]) for x in f.domain], emit)
    middle = FiniteSet._trusted(order)
    p = FMap._trusted(f.domain, middle, f.functor,
                      dict(zip(f.domain, new_values)))
    h = TotalMap._trusted(middle, f.codomain, h_map)
    return PreciseFactorization(middle, p, h)


def is_precise(f: FMap) -> bool:
    """Decide whether f is already precise.

    Factoring any map through a precise one forces an isomorphism on middles,
    so f is precise exactly when the h of its own precise factorization is a
    bijection onto f's codomain carrier.
    """
    return precise_factorize(f).h.is_bijective()


# --------------------------------------------------------------------------
# mediating isomorphism between two precise factorizations of the same map


def factorization_iso(a: PreciseFactorization, b: PreciseFactorization) -> TotalMap:
    """The mediating bijection d: a.middle -> b.middle with b.h . d = a.h and
    F(d) . a.p = b.p.

    Middle elements are matched by the leaf position at which each is used;
    within a bag, entries are grouped by their projected image and matched in
    stored order.  Raises NotIsomorphic when the factorizations do not factor
    the same map or no such bijection exists.
    """
    functor = a.p.functor
    if functor != b.p.functor or a.p.domain.as_set() != b.p.domain.as_set():
        raise NotIsomorphic("factorizations do not factor the same map")
    if a.h.codomain.as_set() != b.h.codomain.as_set():
        raise NotIsomorphic("factorizations have different final codomains")
    for x in a.p.domain:
        if fmap(functor, a.h, a.p.values[x]) != fmap(functor, b.h, b.p.values[x]):
            raise NotIsomorphic(f"underlying maps differ at {x!r}")

    d: dict[StateId, StateId] = {}
    hit_b: set[StateId] = set()
    for x in a.p.domain:
        for ma, mb in functor.pair(a.p.values[x], b.p.values[x],
                                   a.h.__getitem__, b.h.__getitem__):
            if not (isinstance(ma, str) and isinstance(mb, str)):
                raise NotIsomorphic("unmatched inner structure")
            if d.get(ma, mb) != mb:
                raise NotIsomorphic(f"middle element {ma!r} matched twice")
            d[ma] = mb
            hit_b.add(mb)
    if len(d) != len(a.middle) or hit_b != b.middle.as_set():
        raise NotIsomorphic("matching is not a bijection of middles")

    iso = TotalMap(a.middle, b.middle, d)
    if not iso.is_bijective():
        raise NotIsomorphic("matching is not a bijection of middles")
    for r in a.middle:
        if b.h[iso[r]] != a.h[r]:
            raise NotIsomorphic(f"matching does not commute with h at {r!r}")
    for x in a.p.domain:
        if fmap(functor, iso, a.p.values[x]) != b.p.values[x]:
            raise NotIsomorphic(f"matching does not transport p at {x!r}")
    return iso
