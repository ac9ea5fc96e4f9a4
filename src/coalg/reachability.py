"""Iterative reachability via least bounds, and the level iteration it
shares with the tree unravelling.

`_iterate` is the paper's generalized reachability as one loop: level k+1
is the middle of a factorization of the structure composed with
h_k: level_k -> carrier, its p is the step map of level k and its h is
h_{k+1}, and the iteration stops at the first level that adds no state to
the union of the levels before it.  With least bounds (`reach_levels`) the
levels are the states used by the level before, h_k are their inclusions,
and the union of all levels carries the reachable part; the coalgebra is
reachable iff that union is the whole carrier.  With precise
factorizations and fresh names (`unravelling.tree_levels`) the levels are
the tree's, and the stop rule ends the iteration at the first empty level.

Each step costs time linear in the states plus slots of its level: the
factorization is one pass over the level's values, and the stop test checks
the new level's dict against a set of the states seen so far.  The fixed
cost of a level is a few calls (h_k's dict is read once, a least bound's
inclusion is one comprehension), so a chain costs its states, not a dozen
objects per level.  The least bounds read the slots from the coalgebra's
successor table, so a state on several levels has its value read once.  The
tree levels are built only when a tree is asked for (see
`coalg.unravelling`).  The levels are a fact about the coalgebra:
`reach_levels` keeps them on it, so `reachable_part`, `is_reachable` and
every later call read the kept levels, and the iteration runs once per
coalgebra.

The input coalgebra was validated when it was built; every level, step map,
inclusion and the reachable part are derived from it, so they are built with
the unchecked `_trusted` constructors (see `coalg.base`) and no value is
validated again.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .base import FiniteSet, Record, StateId, TotalMap
from .coalgebra import PointedCoalgebra
from .factorization import FMap, least_bound
from .functors import FValue


class LevelSequence(Record):
    """Levels C_k of the reachability construction.

    levels[0] = {point}; levels[k+1] = states used by the structure of
    levels[k].  inclusions[k] embeds level k into the carrier; step_maps[k]
    restricts the structure map of level k to codomain levels[k+1] (open
    states are dropped from the step map's domain, so for total coalgebras
    the domain is exactly levels[k]).
    """

    __slots__ = ("levels", "inclusions", "step_maps")

    def __init__(self, levels: tuple[FiniteSet, ...],
                 inclusions: tuple[TotalMap, ...],
                 step_maps: tuple[FMap, ...]):
        Record.__init__(self, levels, inclusions, step_maps)

    def union(self) -> FiniteSet:
        """All reached states, in first-appearance order."""
        return FiniteSet().union(*self.levels)


class ReachablePart(Record):
    """The union of levels together with the restricted structure, which
    is the structure of the restricted coalgebra: one dict, held by both."""

    __slots__ = ("sub", "structure", "embedding", "point", "coalgebra")

    def __init__(self, sub: FiniteSet, structure: Mapping[StateId, FValue],
                 embedding: TotalMap, point: StateId,
                 coalgebra: PointedCoalgebra):
        Record.__init__(self, sub, structure, embedding, point, coalgebra)


def _iterate(c: PointedCoalgebra, h0: TotalMap,
             factor: Callable[[FMap, int], tuple[FiniteSet, FMap, TotalMap]],
             max_depth: int | None = None) -> tuple[tuple, tuple, tuple]:
    """The iteration both constructions are instances of: the levels, the
    step maps and the maps h_k: level_k -> carrier, from h0.

    Level k+1 is the middle of `factor(f, k+1)`, where f = c . h_k on the
    states of level k whose image is not open; its p is the step map of
    level k and its h is h_{k+1}, so fmap(h_{k+1}, p(x)) = c(h_k(x)).  The
    iteration stops after max_depth steps, or at the first level that adds
    no state to the union of the levels before it, which is still recorded:
    no later level could add one.  On fresh names (the tree levels) that
    level is the empty one.
    """
    structure, frontier, h = c.structure, c.frontier.as_set(), h0
    step_maps, maps = [], [h0]
    seen = set(h0.domain)
    while max_depth is None or len(step_maps) < max_depth:
        # every h_k is a factorization's h (or h0), whose domain holds its
        # dict: its items are level k's states and their images, in order
        level = h._mapping
        values = {x: structure[y] for x, y in level.items()
                  if y not in frontier}
        cur = h.domain if len(values) == len(level) else \
            FiniteSet._trusted(dict.fromkeys(values))
        middle, p, h = factor(
            FMap._trusted(cur, c.carrier, c.functor, values), len(maps))
        step_maps.append(p)
        maps.append(h)
        if seen.issuperset(middle._keys):
            break
        seen.update(middle._keys)
    # level k is the domain of h_k
    return tuple(h.domain for h in maps), tuple(step_maps), tuple(maps)


def reach_levels(c: PointedCoalgebra) -> LevelSequence:
    """The iteration with least bounds, from the point, until the union
    stabilizes; each level's inclusion is its least bound's m.

    The first level whose states are all already known is still recorded
    (it may be non-empty, e.g. on a cycle).  The levels are a fact about c:
    the first call builds them and keeps them on c, later calls return the
    same object.
    """
    try:
        return c._levels
    except AttributeError:
        pass
    point = {c.point: c.point}
    edges = c.successor_table().__getitem__
    levels, step_maps, inclusions = _iterate(
        c, TotalMap._trusted(FiniteSet._trusted(point), c.carrier, point),
        lambda f, k: least_bound(f, edges).parts())
    seq = LevelSequence(levels, inclusions, step_maps)
    object.__setattr__(c, "_levels", seq)
    return seq


def reachable_part(c: PointedCoalgebra) -> ReachablePart:
    union = reach_levels(c).union()
    # the part's carrier adopts its embedding's dict, as a least bound's does
    inclusion = dict(zip(union, union))
    sub = FiniteSet._trusted(inclusion)
    frontier = c.frontier.as_set()
    structure = {x: c.structure[x] for x in sub if x not in frontier}
    embedding = TotalMap._trusted(sub, c.carrier, inclusion)
    restricted = PointedCoalgebra._trusted(
        c.functor, sub, structure, c.point,
        FiniteSet._trusted(dict.fromkeys(x for x in sub if x in frontier)))
    return ReachablePart(sub, structure, embedding, c.point, restricted)


def is_reachable(c: PointedCoalgebra) -> bool:
    """The union of the levels is the carrier; nothing is restricted.  The
    levels' states are all in the carrier, so it is enough to count the
    distinct ones, without building the union as a carrier."""
    return len(set().union(*reach_levels(c).levels)) == len(c.carrier)
