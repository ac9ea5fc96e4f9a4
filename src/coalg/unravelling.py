"""Tree unravelling via iterated precise factorization.

Level k+1 is the middle carrier of the precise factorization of the structure
map restricted to level k, so every slot of every level-k value gets a private
copy of its successor.  The coproduct of all levels is the unravelled tree;
the coalgebra is itself a tree iff the combined projection is a bijection
onto the carrier.

Each step costs time linear in the states plus slots of its level (one
precise factorization, one renaming, and fresh names that resume their
counters), and the coproduct's carrier and projection are one pass over the
levels, so a whole unravelling is linear in the tree it builds.  Every level,
map and the tree itself are derived from the validated input coalgebra, so
they are built with the unchecked `_trusted` constructors (see `coalg.base`):
no tree state's value is validated.

Cyclic inputs unravel forever, so the constructions take a depth cap and the
decision procedure checks the canonical graph for reachable cycles up front
instead of waiting for a level overflow (the two are equivalent: a copy in
level k spawns a successor copy in level k+1 exactly along canonical-graph
edges).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

from .base import (FiniteSet, Record, ShapeError, StateId, TotalMap,
                   fresh_namer)
from .coalgebra import (PointedCoalgebra, canonical_graph, is_acyclic,
                        reachable_subgraph)
from .factorization import FMap, precise_factorize
from .functors import FValue, fmap, iter_slots


class TreeLevels(Record):
    """Levels T_k with precise step maps t_k: T_k -> F(T_{k+1}) and
    projections h_k: T_k -> C satisfying fmap(h_{k+1}, t_k(x)) = c(h_k(x)).

    Level states are named `<k>:<projected state>` (with `~n` counters when
    a state gets several copies on one level), globally unique across levels.
    """

    __slots__ = ("levels", "step_maps", "projections", "truncated")

    def __init__(self, levels: tuple[FiniteSet, ...],
                 step_maps: tuple[FMap, ...],
                 projections: tuple[TotalMap, ...], truncated: bool):
        Record.__init__(self, levels, step_maps, projections, truncated)

    def states(self) -> FiniteSet:
        """All level states, level by level: the coproduct's carrier."""
        return FiniteSet().union(*self.levels)

    def projection(self) -> TotalMap:
        """The combined map [h_k] from the coproduct of levels."""
        target = self.projections[0].codomain
        mapping = {}
        for h in self.projections:
            for x in h.domain:
                mapping[x] = h[x]
        return TotalMap._trusted(self.states(), target, mapping)


class UnravelResult(Record):
    __slots__ = ("tree", "projection", "complete", "frontier")

    def __init__(self, tree: PointedCoalgebra, projection: TotalMap,
                 complete: bool, frontier: FiniteSet):
        Record.__init__(self, tree, projection, complete, frontier)


class TreeReport(Record):
    """Verdict of the tree decision with a diagnostic on failure.

    reason is one of "powerset-degenerate", "cycle", "not-reachable",
    "sharing", or None when ok.  levels/projection are filled when the
    level construction ran (they are skipped for the two early checks).
    """

    __slots__ = ("ok", "reason", "detail", "levels", "projection")

    def __init__(self, ok: bool, reason: str | None = None,
                 detail: str | None = None, levels: TreeLevels | None = None,
                 projection: TotalMap | None = None):
        Record.__init__(self, ok, reason, detail, levels, projection)


def tree_levels(c: PointedCoalgebra, max_depth: int) -> TreeLevels:
    """Iterate precise factorization of c . h_k, at most max_depth steps.

    Stops early once a level is empty (the unravelling is finite and fully
    built); otherwise the last level is left without a step map and the
    result is marked truncated.
    """
    if not c.is_total():
        raise ShapeError("tree levels need a total coalgebra, found open states")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    alloc = fresh_namer()
    root = alloc(f"0:{c.point}")
    levels = [FiniteSet._trusted((root,))]
    projections = [TotalMap._trusted(levels[0], c.carrier, {root: c.point})]
    step_maps: list[FMap] = []
    while len(levels[-1]) > 0 and len(step_maps) < max_depth:
        cur, h = levels[-1], projections[-1]
        f = FMap._trusted(cur, c.carrier, c.functor,
                          {x: c.structure[h[x]] for x in cur})
        middle, p, hm = precise_factorize(f).parts()
        depth = len(step_maps) + 1
        ren = {r: alloc(f"{depth}:{hm[r]}") for r in middle}
        nxt = FiniteSet._trusted(ren.values())
        levels.append(nxt)
        projections.append(TotalMap._trusted(
            nxt, c.carrier, {ren[r]: hm[r] for r in middle}))
        step_maps.append(FMap._trusted(
            cur, nxt, c.functor,
            {x: fmap(c.functor, ren, p.value(x)) for x in cur}))
    return TreeLevels(tuple(levels), tuple(step_maps), tuple(projections),
                      truncated=len(levels[-1]) > 0)


def unravel(c: PointedCoalgebra, max_depth: int) -> UnravelResult:
    """Assemble the coproduct of tree levels into one pointed coalgebra.

    When truncated, the whole deepest level becomes the frontier: those
    states stay open even if their structure would still be expressible.
    """
    tl = tree_levels(c, max_depth)
    states = tl.states()
    structure: dict[StateId, FValue] = {}
    for t in tl.step_maps:
        for x, v in t.items():
            structure[x] = v
    frontier = tl.levels[-1] if tl.truncated else FiniteSet()
    root = next(iter(tl.levels[0]))
    tree = PointedCoalgebra._trusted(c.functor, states, structure, root,
                                     frontier)
    return UnravelResult(tree, tl.projection(), not tl.truncated, frontier)


def tree_check(c: PointedCoalgebra) -> TreeReport:
    """Decide whether c is a tree; diagnose the failure if not.

    Checks run in order: non-empty powerset values on reachable states
    (nothing with successors can be a powerset tree), reachable cycles
    (levels would never empty), then the level construction with the
    projection checked for surjectivity (reachability) and injectivity
    (no shared successors).
    """
    if not c.is_total():
        raise ShapeError("tree check needs a total coalgebra, found open states")
    graph = reachable_subgraph(canonical_graph(c))
    for x in graph.vertices:
        if not c.functor.precise(c.structure[x]):
            return TreeReport(False, "powerset-degenerate",
                              f"state {x} carries a non-empty powerset value")
    if not is_acyclic(graph):
        return TreeReport(False, "cycle", "levels non-empty past bound")
    tl = tree_levels(c, len(c.carrier) + 1)
    proj = tl.projection()
    if not proj.is_surjective():
        image = proj.image().as_set()
        missing = [x for x in c.carrier if x not in image]
        return TreeReport(False, "not-reachable",
                          f"states never reached: {', '.join(missing)}",
                          tl, proj)
    if not proj.is_injective():
        return TreeReport(False, "sharing",
                          f"coproduct of levels has {len(proj.domain)} states, "
                          f"carrier has {len(c.carrier)}", tl, proj)
    return TreeReport(True, levels=tl, projection=proj)


def is_tree(c: PointedCoalgebra) -> bool:
    return tree_check(c).ok


def tree_unravelling(c: PointedCoalgebra,
                     truncate_at: int | None = None) -> UnravelResult:
    """Full unravelling when finite, else truncated with complete=False.

    Finiteness is the absence of reachable cycles; in that case every root
    path has fewer than |carrier| steps, so depth |carrier| suffices.  The
    default truncation depth 3*|carrier| shows any cycle unrolled at least
    three times.
    """
    if not c.is_total():
        raise ShapeError("unravelling needs a total coalgebra, found open states")
    if is_acyclic(reachable_subgraph(canonical_graph(c))):
        return unravel(c, len(c.carrier))
    depth = truncate_at if truncate_at is not None else 3 * len(c.carrier)
    return unravel(c, depth)


def copy_counts(projection: TotalMap) -> dict[StateId, int]:
    """Preimage sizes of an unravelling projection, keyed by target state."""
    counts = Counter(projection[x] for x in projection.domain)
    return {y: counts.get(y, 0) for y in projection.codomain}


def tree_fingerprint(c: PointedCoalgebra) -> str:
    """Canonical serialization of the unfolding from the point.

    Two total coalgebras over the same functor have equal fingerprints iff
    their unfoldings are isomorphic; on trees this decides isomorphism.
    Bags are rendered as sorted child fingerprints with merged counts and
    sets as sorted deduplicated fingerprints, so sibling order and state
    names cannot leak in.  Cyclic inputs have infinite unfoldings and are
    rejected.
    """
    memo: dict[StateId, str] = {x: "?" for x in c.frontier}
    # explicit DFS stack of (state, its remaining slots): states are
    # fingerprinted in post-order, so long chains need no recursion
    path: list[tuple[StateId, Iterator]] = []
    on_path: set[StateId] = set()

    def enter(x: StateId) -> None:
        on_path.add(x)
        path.append((x, iter_slots(c.functor, c.structure[x])))

    if c.point not in memo:
        enter(c.point)
    while path:
        x, slots = path[-1]
        for y, _ in slots:
            if y in memo:
                continue
            if y in on_path:
                raise ShapeError(f"cannot fingerprint a cyclic coalgebra ({y})")
            enter(y)
            break
        else:
            path.pop()
            on_path.discard(x)
            memo[x] = c.functor.fingerprint(c.structure[x], memo.__getitem__)
    return memo[c.point]
