"""Iterative reachability via least bounds.

Level k+1 collects the states actually used by the structure values of level
k; the construction starts at the point and stops once the cumulative union
stops growing.  The union of all levels carries the reachable part, and the
coalgebra is reachable iff that union is the whole carrier.

Each step costs time linear in the states plus slots of its level: the
least bound is one pass over the level's values, and the stop test checks
the new level against a set of the states seen so far.

The input coalgebra was validated when it was built; every level, step map,
inclusion and the reachable part are derived from it, so they are built with
the unchecked `_trusted` constructors (see `coalg.base`) and no value is
validated again.
"""

from __future__ import annotations

from collections.abc import Mapping

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
    """The union of levels together with the restricted structure."""

    __slots__ = ("sub", "structure", "embedding", "point", "coalgebra")

    def __init__(self, sub: FiniteSet, structure: Mapping[StateId, FValue],
                 embedding: TotalMap, point: StateId,
                 coalgebra: PointedCoalgebra):
        Record.__init__(self, sub, structure, embedding, point, coalgebra)


def reach_levels(c: PointedCoalgebra) -> LevelSequence:
    """Run the levels construction until the union stabilizes.

    The first level whose states are all already known is still recorded
    (it may be non-empty, e.g. on a cycle); no further level can add a new
    state after that, so the union is complete.
    """
    levels = [FiniteSet._trusted((c.point,))]
    inclusions = [TotalMap._trusted(levels[0], c.carrier, {c.point: c.point})]
    step_maps: list[FMap] = []
    seen = {c.point}
    while True:
        closed = FiniteSet._trusted(x for x in levels[-1]
                                    if x not in c.frontier)
        f = FMap._trusted(closed, c.carrier, c.functor,
                          {x: c.structure[x] for x in closed})
        nxt, g, _ = least_bound(f).parts()
        levels.append(nxt)
        inclusions.append(TotalMap._trusted(nxt, c.carrier,
                                            dict(zip(nxt, nxt))))
        step_maps.append(g)
        if seen.issuperset(nxt):
            break
        seen.update(nxt)
    return LevelSequence(tuple(levels), tuple(inclusions), tuple(step_maps))


def reachable_part(c: PointedCoalgebra) -> ReachablePart:
    sub = reach_levels(c).union()
    structure = {x: c.structure[x] for x in sub if x not in c.frontier}
    embedding = TotalMap._trusted(sub, c.carrier, dict(zip(sub, sub)))
    restricted = PointedCoalgebra._trusted(
        c.functor, sub, dict(structure), c.point,
        FiniteSet._trusted(x for x in sub if x in c.frontier))
    return ReachablePart(sub, structure, embedding, c.point, restricted)


def is_reachable(c: PointedCoalgebra) -> bool:
    return reachable_part(c).sub.as_set() == c.carrier.as_set()
