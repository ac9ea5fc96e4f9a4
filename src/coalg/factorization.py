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

The functor's `factor` walk, its action `map` in copying mode, only
rebuilds a column of values and reports each slot's member;
`precise_factorize` alone names the middle elements.  Given a tag, it
names each one after the state it projects to, as it is made (the tree
unravelling tags level k with `k:`); by default the element in slot j of
x's value is `x.j`, a name fixed by the map and not by its domain's order.

`FMap(...)` validates every value against the functor and the codomain.  Both
factorizations take an FMap that is already valid (checked by that
constructor, or derived by the library from checked data), and build their
results with the unchecked `_trusted` constructors (see `coalg.base`): their
carriers, maps and values are valid by construction.  A least bound's g
keeps f's values, so it shares f's values dict: no FMap writes to its
values, which is what `FMap._trusted` asks of a dict it is given.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping

from .base import (FiniteSet, NotIsomorphic, PowNotPrecise, Record,
                   StateId, TotalMap, fresh_namer)
from .functors import FValue, FunctorExpr, Member, validate_value


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
        fresh dict, or the values of another FMap, with exactly the keys of
        domain, each value valid for functor over codomain; no FMap writes
        to it."""
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
        _set_middle(self, middle)
        _set_p(self, p)
        _set_h(self, h)

    def parts(self) -> tuple[FiniteSet, FMap, TotalMap]:
        return (self.middle, self.p, self.h)


class LeastBound(Record):
    """f = F(m) . g with m the inclusion of the used sub-carrier."""

    __slots__ = ("sub", "g", "m")

    def __init__(self, sub: FiniteSet, g: FMap, m: TotalMap):
        _set_sub(self, sub)
        _set_g(self, g)
        _set_m(self, m)

    def parts(self) -> tuple[FiniteSet, FMap, TotalMap]:
        return (self.sub, self.g, self.m)


# both records are built once per level of the iterations: their
# constructors set the fields through the slot descriptors, as the value
# records do
_set_middle, _set_p, _set_h = (PreciseFactorization.middle.__set__,
                               PreciseFactorization.p.__set__,
                               PreciseFactorization.h.__set__)
_set_sub, _set_g, _set_m = (LeastBound.sub.__set__, LeastBound.g.__set__,
                            LeastBound.m.__set__)


def least_bound(f: FMap,
                edges: Callable[[StateId], Iterable[tuple[StateId, int]]]
                | None = None) -> LeastBound:
    """Restrict f's codomain to the states it actually uses, in first-use
    order; one pass over the slots of f's values, or over `edges(x)` for
    each x when given (the reachability levels pass a successor table).
    """
    if edges is None:
        slots = f.functor.edges(list(map(f.values.__getitem__, f.domain)))
    else:
        slots = map(edges, f.domain)
    # the sub-carrier is m's domain: it holds m's dict
    inclusion = {y: y for e in slots for y, _ in e}
    sub = FiniteSet._trusted(inclusion)
    g = FMap._trusted(f.domain, sub, f.functor, f.values)
    m = TotalMap._trusted(sub, f.codomain, inclusion)
    return LeastBound(sub, g, m)


def precise_factorize(f: FMap, tag: str | None = None) -> PreciseFactorization:
    """Factor f through a middle carrier whose every element is used once.

    With a `tag`, the middle element made for a slot that holds y is named
    `tag + y` (with a `~n` counter for each further copy), in middle order.
    Without one, the element in slot j of x's value (in `edges` order) is
    named `x.j`, whatever the order of f's domain.

    Raises PowNotPrecise, naming the first domain element whose value it
    meets, when a powerset layer carries a non-empty value.
    """
    functor, h_map = f.functor, {}
    alloc, prefix = fresh_namer(), tag or ""

    def emit(member: Member) -> StateId:
        r = alloc(prefix + member)
        h_map[r] = member
        return r

    try:
        values = dict(zip(f.domain, functor.factor(
            [f.values[x] for x in f.domain], emit)))
    except PowNotPrecise:
        flags = functor.precise([f.values[x] for x in f.domain])
        x = next(x for x, ok in zip(f.domain, flags) if not ok)
        raise PowNotPrecise(
            f"powerset value at {x!r} is non-empty; the powerset functor "
            "admits no precise factorization of it") from None
    if tag is None:
        slots = functor.edges(list(values.values()))
        name = {r: f"{x}.{j}" for x, e in zip(values, slots)
                for j, (r, _) in enumerate(e)}
        # precise values, injective renaming: `factor` gives what `map` would
        values = dict(zip(values, functor.factor(list(values.values()),
                                                 name.__getitem__)))
        h_map = {name[r]: y for r, y in h_map.items()}
    # the middle is h's domain: it holds h's dict
    middle = FiniteSet._trusted(h_map)
    p = FMap._trusted(f.domain, middle, functor, values)
    h = TotalMap._trusted(middle, f.codomain, h_map)
    return PreciseFactorization(middle, p, h)


def is_precise(f: FMap) -> bool:
    """Decide whether f is already precise.

    Factoring any map through a precise one forces an isomorphism on middles,
    so f is precise exactly when the h of its own precise factorization is a
    bijection onto f's codomain carrier.
    """
    return precise_factorize(f, "").h.is_bijective()


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
    pa, pb = ([f.values[x] for x in a.p.domain] for f in (a.p, b.p))
    for x, fa, fb in zip(a.p.domain, functor.map(pa, a.h),
                         functor.map(pb, b.h)):
        if fa != fb:
            raise NotIsomorphic(f"underlying maps differ at {x!r}")

    d: dict[StateId, StateId] = {}
    hit_b: set[StateId] = set()
    for x in a.p.domain:
        for ma, mb in functor.pair(a.p.values[x], b.p.values[x],
                                   a.h.__getitem__, b.h.__getitem__):
            if d.get(ma, mb) != mb:
                raise NotIsomorphic(f"middle element {ma!r} matched twice")
            d[ma] = mb
            hit_b.add(mb)
    if d.keys() != a.middle.as_set() or hit_b != b.middle.as_set():
        raise NotIsomorphic("matching is not a bijection of middles")

    iso = TotalMap._trusted(a.middle, b.middle, d)
    if not iso.is_bijective():
        raise NotIsomorphic("matching is not a bijection of middles")
    for r in a.middle:
        if b.h[iso[r]] != a.h[r]:
            raise NotIsomorphic(f"matching does not commute with h at {r!r}")
    for x, moved, vb in zip(a.p.domain, functor.map(pa, iso), pb):
        if moved != vb:
            raise NotIsomorphic(f"matching does not transport p at {x!r}")
    return iso
