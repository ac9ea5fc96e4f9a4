"""Brute-force oracles for the definitional (quantified) properties.

Everything here enumerates: homomorphisms, sections, subcoalgebras, and
small refuting coalgebras.  The implementations are deliberately naive and
independent of the constructions they validate; hard search-space guards
(env var COALG_GUARD, default 10^7) raise SearchSpaceTooLarge instead of
running away.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from .base import (FiniteSet, NotAHomomorphism, Record, SearchSpaceTooLarge,
                   ShapeError, StateId, TotalMap, _guard)
from .coalgebra import Multigraph, PointedCoalgebra, check_morphism
from .functors import (Bag, BagVal, Compose, Const, Coproduct, Exponent,
                       FunVal, FunctorExpr, FValue, IdVal, Identity, Pow,
                       Product, SetVal, TagVal, TupleVal, used_states)


class HomSet(Record):
    """All pointed homomorphisms from source to target."""

    __slots__ = ("homs", "source", "target")

    def __len__(self) -> int:
        return len(self.homs)

    def __iter__(self):
        return iter(self.homs)


class Counterexample(Record):
    """A pointed coalgebra with a homomorphism onto the tested coalgebra
    that is not a split epimorphism."""

    __slots__ = ("source", "hom")


def enumerate_homs(src: PointedCoalgebra,
                   tgt: PointedCoalgebra) -> HomSet:
    """All total maps src -> tgt that pass check_morphism.

    The point's image is pinned, so the walk is over |tgt|^(|src|-1)
    candidates; the guard compares against the full |tgt|^|src|.
    """
    if src.functor != tgt.functor:
        raise ShapeError("coalgebras live over different functors")
    if len(tgt.carrier) ** len(src.carrier) > _guard():
        raise SearchSpaceTooLarge(
            f"{len(tgt.carrier)}^{len(src.carrier)} candidate maps")
    rest = [x for x in src.carrier if x != src.point]
    found = []
    for images in itertools.product(tgt.carrier, repeat=len(rest)):
        mapping = dict(zip(rest, images))
        mapping[src.point] = tgt.point
        h = TotalMap(src.carrier, tgt.carrier, mapping)
        if check_morphism(h, src, tgt).ok:
            found.append(h)
    return HomSet(tuple(found), src, tgt)


def is_split_epi(h: TotalMap, src: PointedCoalgebra,
                 tgt: PointedCoalgebra) -> bool:
    """Does some pointed homomorphism s: tgt -> src satisfy h . s = id?

    Candidate sections are built fiber by fiber (s(y) must lie in h^-1(y)),
    with the target point forced onto the source point.
    """
    report = check_morphism(h, src, tgt)
    if not report.ok:
        raise NotAHomomorphism("is_split_epi needs a homomorphism as input")
    fibers: dict[StateId, list[StateId]] = {y: [] for y in tgt.carrier}
    for x in src.carrier:
        fibers[h[x]].append(x)
    fibers[tgt.point] = [src.point]
    sizes = 1
    for y in tgt.carrier:
        if not fibers[y]:
            return False
        sizes *= len(fibers[y])
        if sizes > _guard():
            raise SearchSpaceTooLarge(f"more than {_guard()} candidate sections")
    order = list(tgt.carrier)
    for choice in itertools.product(*(fibers[y] for y in order)):
        s = TotalMap(tgt.carrier, src.carrier, dict(zip(order, choice)))
        if check_morphism(s, tgt, src).ok:
            return True
    return False


def reachable_by_definition(c: PointedCoalgebra) -> bool:
    """No proper subset containing the point is closed under used_states.

    Mono-reachability says every subcoalgebra inclusion is an isomorphism;
    over finite sets that is exactly the absence of a proper closed subset.
    """
    if len(c.carrier) > 5:
        raise SearchSpaceTooLarge("definitional check is limited to 5 states")
    others = [x for x in c.carrier if x != c.point]
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            sub = {c.point, *extra}
            if len(sub) == len(c.carrier):
                continue
            closed = all(
                x in c.frontier
                or all(y in sub for y in used_states(c.functor, c.structure[x]))
                for x in sub)
            if closed:
                return False
    return True


def bfs_reachable(g: Multigraph) -> FiniteSet:
    """Textbook breadth-first closure from the root, over its own
    adjacency lists (not the library's out-edge index)."""
    adjacency: dict[StateId, list[StateId]] = {}
    for e in g.edges:
        adjacency.setdefault(e.src, []).append(e.tgt)
    seen = {g.root}
    out = [g.root]
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                out.append(v)
                queue.append(v)
    return FiniteSet(out)


def tree_refute_by_definition(c: PointedCoalgebra,
                              size_bound: int) -> Counterexample | None:
    """Search for a pointed coalgebra with a non-split hom onto c.

    Trees are the coalgebras all of whose incoming pointed homomorphisms
    split; a found counterexample disproves tree-ness, while None only says
    no refuter exists up to size_bound (not a proof).  Search order is by
    carrier size, then point images, then structure choices, so the first
    hit is minimal and reproducible.  Size n costs at most |C|^n steps
    (|C|^(n-1) image maps of n states each), checked against the guard
    before the size is searched.  An image map is dropped before its fibres
    are built when its images miss a state that the value of one of them
    uses (that value then has no preimage), before any candidate is counted
    against the guard, and otherwise at its first state whose value has no
    preimage, before its TotalMap is built.
    """
    if size_bound > 6:
        raise SearchSpaceTooLarge("refutation search is limited to size 6")
    if not c.is_total():
        raise ShapeError("refutation search needs a total coalgebra")
    budget = _guard()
    work = 0
    used = {y: used_states(c.functor, c.structure[y]).as_set()
            for y in c.carrier}
    for n in range(1, size_bound + 1):
        steps = len(c.carrier) ** n
        if steps > budget:
            raise SearchSpaceTooLarge(
                f"refutation search at size {n} needs {steps} steps of "
                f"image maps, more than {budget}")
        carrier = FiniteSet(f"x{i}" for i in range(1, n + 1))
        names = list(carrier)
        for images in itertools.product(c.carrier, repeat=n - 1):
            targets = (c.point, *images)
            hit = set(targets)
            if not all(map(hit.issuperset, map(used.__getitem__, hit))):
                continue
            pre: dict[StateId, list[StateId]] = {}
            for x, y in zip(names, targets):
                pre.setdefault(y, []).append(x)
            choices = []
            for y in targets:
                choices.append(value_preimages(c.functor, c.structure[y],
                                               lambda m: pre.get(m, [])))
                if not choices[-1]:
                    break
            else:
                h = TotalMap(carrier, c.carrier, dict(zip(names, targets)))
                for values in itertools.product(*choices):
                    work += 1
                    if work > budget:
                        raise SearchSpaceTooLarge(
                            f"refutation search exceeded {budget} candidates")
                    source = PointedCoalgebra(c.functor, carrier,
                                              dict(zip(carrier, values)), "x1")
                    if not is_split_epi(h, source, c):
                        return Counterexample(source, h)
    return None


def _within_guard(count: int) -> None:
    if count > _guard():
        raise SearchSpaceTooLarge(
            f"{count} candidate preimages, more than {_guard()}")


def value_preimages(functor: FunctorExpr, value: FValue,
                    member_pre) -> list[FValue]:
    """All values v with fmap(member map, v) = value, where member_pre(y)
    lists the source members mapping to y.

    Distinct targets have disjoint preimages (the member map is a function),
    so bag fragments and set unions below never interfere.  The candidates
    of each layer are counted before any is built, and more than the guard
    raise SearchSpaceTooLarge; a bag candidate counts once per member it
    lists, since one of multiplicity 10^9 alone is too large to build.
    """
    if isinstance(functor, Identity):
        return [IdVal(x) for x in member_pre(value.member)]
    if isinstance(functor, Const):
        return [value]
    if isinstance(functor, Product):
        pools = [value_preimages(f, v, member_pre)
                 for f, v in zip(functor.factors, value.items)]
        _within_guard(math.prod(map(len, pools)))
        return [TupleVal(combo) for combo in itertools.product(*pools)]
    if isinstance(functor, Coproduct):
        inner = value_preimages(functor.summands[value.tag], value.value,
                                member_pre)
        return [TagVal(value.tag, w) for w in inner]
    if isinstance(functor, Exponent):
        letters = [a for a, _ in value.entries]
        pools = [value_preimages(functor.base, v, member_pre)
                 for _, v in value.entries]
        _within_guard(math.prod(map(len, pools)))
        return [FunVal(zip(letters, combo))
                for combo in itertools.product(*pools)]
    if isinstance(functor, Bag):
        entries = [(member_pre(m), mult) for m, mult in value.entries]
        count = math.prod(math.comb(len(pool) + mult - 1, mult)
                          for pool, mult in entries)
        if count == 0:
            return []
        _within_guard(count * max(1, sum(mult for _, mult in entries)))
        per_entry = []
        for pool, mult in entries:
            per_entry.append([
                tuple((x, 1) for x in pick)
                for pick in itertools.combinations_with_replacement(pool, mult)])
        return [BagVal(itertools.chain.from_iterable(parts))
                for parts in itertools.product(*per_entry)]
    if isinstance(functor, Pow):
        pools = [member_pre(m) for m in value.members]
        count = math.prod(2 ** len(pool) - 1 for pool in pools)
        if count == 0:
            return []
        _within_guard(count)
        per_member = []
        for pool in pools:
            subsets = [combo for k in range(1, len(pool) + 1)
                       for combo in itertools.combinations(pool, k)]
            per_member.append(subsets)
        return [SetVal(itertools.chain.from_iterable(parts))
                for parts in itertools.product(*per_member)]
    if isinstance(functor, Compose):
        def inner_pre(m):
            return value_preimages(functor.inner, m, member_pre)
        return value_preimages(functor.outer, value, inner_pre)
    raise NotAHomomorphism(f"unknown functor {functor!r}")
