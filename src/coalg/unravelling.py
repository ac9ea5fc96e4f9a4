"""Tree unravelling via iterated precise factorization, and the tree
decision by counting root paths.

Level k+1 is the middle carrier of the precise factorization of the structure
map restricted to level k, so every slot of every level-k value gets a private
copy of its successor.  The coproduct of all levels is the unravelled tree;
the coalgebra is itself a tree iff the combined projection is a bijection
onto the carrier.  The levels come from the iteration that also gives the
reachability levels (`reachability._iterate`), with precise factorization in
place of the least bound: the paper's tree construction as an instance of
its generalized reachability.

Each step is one precise factorization, which names every middle element
`<k>:<projected state>` as it makes it (fresh names resume their counters),
so its middle, p and h are the next level, its step map and its projection:
each tree state's value is built once and named once.  A step costs time
linear in the states plus slots of its level, and the coproduct's carrier
and projection are one pass over the levels, so a whole unravelling is
linear in the tree it builds.  Every level, map and the tree itself are
derived from the validated input coalgebra, so they are built with the
unchecked `_trusted` constructors (see `coalg.base`): no tree state's value
is validated.

The tree decision builds no level.  The copies a state gets in the complete
unravelling are its weighted root paths (a slot of multiplicity n is n
copies), and one rooted walk over the slots counts them exactly
(`coalgebra._root_paths`): the coalgebra is a tree iff every reachable value
is precise, no cycle is reachable, every state is reachable and the counts
sum to the size of the carrier.  The walk is linear in the states plus
slots, whatever the size of the tree.  It reads the coalgebra's successor
table, as do the size prediction below and `tree_fingerprint`.  A complete
unravelling that nothing reads needs no level either: `complete_counts`
gives each state's copies, and their sum is the tree's size, so `coalg
unravel` prints its copies from them whenever they answer, and builds the
tree only for --depth, --emit or --dot, or when the walk finds a
reachable cycle or an imprecise value.

Cyclic inputs unravel forever, so the constructions take a depth cap, and
`tree_unravelling` unravels completely only when the walk finds no
reachable cycle; the sum of its counts is then the size of the tree, which
is checked against the guard (`COALG_GUARD`) before any level is built.
A depth-capped unravelling is guarded too: before level 1 is built, the
size of every level up to the cap is predicted from the copies of each
state on the level before, and the prediction stops at the guard.
`_tree_size` is that prediction for any rooted unfolding with weighted
edges; the truncated word and path trees of `coalg.automata` use it too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from operator import itemgetter

from .base import (FiniteSet, Record, SearchSpaceTooLarge, ShapeError,
                   StateId, TotalMap, _guard)
from .coalgebra import PointedCoalgebra, Successors, _root_paths
from .factorization import FMap, precise_factorize
from .functors import FValue
from .reachability import _iterate


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
        """The combined map [h_k] from the coproduct of levels, whose
        domain, the coproduct's carrier, holds its mapping's dict."""
        mapping: dict[StateId, StateId] = {}
        for h in self.projections:
            mapping.update(h.items())
        return TotalMap._trusted(FiniteSet._trusted(mapping),
                                 self.projections[0].codomain, mapping)


class UnravelResult(Record):
    """An unravelling: the tree, its projection onto the input, whether it
    is complete, and its frontier.

    A result made by `_deferred` holds, in place of its tree, the function
    that builds it: the first read of `tree` calls that function once and
    keeps the tree it gives.  The word and path trees of `coalg.automata`
    are made so, and their listings read the projection alone, so a listing
    costs the tree's names and never its values.  The function is not a
    field: a deferred result compares, prints, copies and pickles as the
    result built with its tree, and each of these reads the tree.
    """

    # `_grow` (the deferred tree's builder, until the first read) is not a
    # field
    __slots__ = ("tree", "projection", "complete", "frontier", "_grow")

    def __init__(self, tree: PointedCoalgebra, projection: TotalMap,
                 complete: bool, frontier: FiniteSet):
        Record.__init__(self, tree, projection, complete, frontier)

    @classmethod
    def _deferred(cls, grow: Callable[[], PointedCoalgebra],
                  projection: TotalMap, complete: bool,
                  frontier: FiniteSet) -> "UnravelResult":
        """The result whose tree is `grow()`, called on the first read of
        `tree`; `projection.domain` is the tree's carrier and `frontier` its
        frontier."""
        r = cls.__new__(cls)
        for name, value in (("projection", projection), ("complete", complete),
                            ("frontier", frontier), ("_grow", grow)):
            object.__setattr__(r, name, value)
        return r

    def __getattr__(self, name: str):
        # reached only when a slot is unset: `tree` on a deferred result
        if name != "tree":
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        tree = self._grow()
        object.__setattr__(self, "tree", tree)
        object.__delattr__(self, "_grow")
        return tree


class TreeReport(Record):
    """Verdict of the tree decision with a diagnostic on failure.

    reason is one of "powerset-degenerate", "cycle", "not-reachable",
    "sharing", or None when ok.
    """

    __slots__ = ("ok", "reason", "detail")

    def __init__(self, ok: bool, reason: str | None = None,
                 detail: str | None = None):
        Record.__init__(self, ok, reason, detail)


def _within_guard(size: int) -> None:
    """Refuse a complete unfolding of more than COALG_GUARD tree states."""
    limit = _guard()
    if size > limit:
        raise SearchSpaceTooLarge(
            f"the complete unfolding would have {size} tree states, "
            f"more than COALG_GUARD={limit}")


def _tree_size(root: StateId, successors: Successors, max_depth: int) -> int:
    """The number of states of the unfolding from root to max_depth, where
    `successors(x)` gives x's out-edges as (successor, weight) pairs and an
    edge of weight w makes w copies of its successor for each copy of x;
    SearchSpaceTooLarge when it is more than COALG_GUARD.

    Level k+1 has count_{k+1}[y] = sum of count_k[x] * weight(x -> y) copies
    of y, so the levels' sizes follow from the distinct states of each level
    without building a copy.  Each edge read stands for at least one state
    of the next level, and the walk stops at the first level that takes the
    total past the guard, so it reads no more edges than the tree has
    states, nor more than the guard plus one pass over the input's edges.
    """
    limit = _guard()
    level, total = {root: 1}, 1
    for _ in range(max_depth):
        nxt: dict[StateId, int] = {}
        for x, n in level.items():
            for y, w in successors(x):
                nxt[y] = nxt.get(y, 0) + n * w
        if not nxt:
            break
        total += sum(nxt.values())
        if total > limit:
            raise SearchSpaceTooLarge(
                f"the unravelling to depth {max_depth} would have more than "
                f"COALG_GUARD={limit} tree states")
        level = nxt
    return total


def tree_levels(c: PointedCoalgebra, max_depth: int) -> TreeLevels:
    """The iteration with precise factorizations, at most max_depth steps.

    Stops early once a level is empty (the unravelling is finite and fully
    built); otherwise the last level is left without a step map and the
    result is marked truncated.  The size of the levels is checked against
    the guard (`COALG_GUARD`) before level 1 is built.  The factorization
    of level k-1 is tagged `k:`, so it names its middle elements
    `<k>:<projected state>` as it makes them, and its middle, p and h are
    level k, its step map and its projection as they stand; no two levels
    can share a name, as their tags differ.
    """
    if not c.is_total():
        raise ShapeError("tree levels need a total coalgebra, found open states")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    _tree_size(c.point, c.successor_table().__getitem__, max_depth)
    h0 = {f"0:{c.point}": c.point}
    levels, step_maps, projections = _iterate(
        c, TotalMap._trusted(FiniteSet._trusted(h0), c.carrier, h0),
        lambda f, k: precise_factorize(f, f"{k}:").parts(), max_depth)
    return TreeLevels(levels, step_maps, projections,
                      truncated=len(levels[-1]) > 0)


def unravel(c: PointedCoalgebra, max_depth: int) -> UnravelResult:
    """Assemble the coproduct of tree levels into one pointed coalgebra.

    When truncated, the whole deepest level becomes the frontier: those
    states stay open even if their structure would still be expressible.
    """
    tl = tree_levels(c, max_depth)
    projection = tl.projection()
    structure: dict[StateId, FValue] = {}
    for t in tl.step_maps:
        for x, v in t.items():
            structure[x] = v
    frontier = tl.levels[-1] if tl.truncated else FiniteSet()
    root = next(iter(tl.levels[0]))
    tree = PointedCoalgebra._trusted(c.functor, projection.domain, structure,
                                     root, frontier)
    return UnravelResult(tree, projection, not tl.truncated, frontier)


def tree_check(c: PointedCoalgebra) -> TreeReport:
    """Decide whether c is a tree; diagnose the failure if not.

    One walk over the slots from the point gives the reachable states and
    their root-path counts.  Checks run in order: non-empty powerset values
    on reachable states, in discovery order (nothing with successors can be
    a powerset tree), reachable cycles (the levels would never empty),
    unreached states (the projection from the levels is not surjective),
    then shared successors: the counts sum to the size of the coproduct of
    the levels, which is the carrier's exactly when the projection is
    injective.
    """
    if not c.is_total():
        raise ShapeError("tree check needs a total coalgebra, found open states")
    reached, counts = _root_paths(c.point, c.successor_table().__getitem__)
    flags = c.functor.precise(list(map(c.structure.__getitem__, reached)))
    if False in flags:
        x = reached[flags.index(False)]
        return TreeReport(False, "powerset-degenerate",
                          f"state {x} carries a non-empty powerset value")
    if counts is None:
        return TreeReport(False, "cycle", "levels non-empty past bound")
    if len(counts) < len(c.carrier):
        missing = [x for x in c.carrier if x not in counts]
        return TreeReport(False, "not-reachable",
                          f"states never reached: {', '.join(missing)}")
    size = sum(counts.values())
    if size != len(c.carrier):
        return TreeReport(False, "sharing",
                          f"coproduct of levels has {size} states, "
                          f"carrier has {len(c.carrier)}")
    return TreeReport(True)


def is_tree(c: PointedCoalgebra) -> bool:
    return tree_check(c).ok


def complete_counts(c: PointedCoalgebra) -> dict[StateId, int] | None:
    """The copies of each reachable state in the complete unravelling, its
    weighted root paths, from one walk; None when a cycle or an imprecise
    value is reachable.  Their sum, the tree's size, is checked against the
    guard first."""
    if not c.is_total():
        raise ShapeError("unravelling needs a total coalgebra, found open states")
    reached, counts = _root_paths(c.point, c.successor_table().__getitem__)
    if counts is None:
        return None
    _within_guard(sum(counts.values()))
    if all(c.functor.precise(list(map(c.structure.__getitem__, reached)))):
        return counts
    return None


def tree_unravelling(c: PointedCoalgebra) -> UnravelResult:
    """Full unravelling when finite, else truncated with complete=False.

    Finiteness is the absence of reachable cycles; in that case every root
    path has fewer than |carrier| steps, so depth |carrier| suffices, and
    the tree has as many states as there are weighted root paths, a number
    checked against the guard before any level is built
    (`complete_counts`).  The truncation depth 3*|carrier| shows any cycle
    unrolled at least three times; a value that is not precise fails at
    the same level at either depth.
    """
    if complete_counts(c) is not None:
        return unravel(c, len(c.carrier))
    return unravel(c, 3 * len(c.carrier))


def copy_counts(projection: TotalMap) -> dict[StateId, int]:
    """Preimage sizes of an unravelling projection, keyed by target state."""
    counts = Counter(map(itemgetter(1), projection.items()))
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
    table = c.successor_table()
    # explicit DFS stack of (state, its remaining slots): states are
    # fingerprinted in post-order, so long chains need no recursion
    path: list[tuple[StateId, Iterator]] = []
    on_path: set[StateId] = set()

    def enter(x: StateId) -> None:
        on_path.add(x)
        path.append((x, iter(table[x])))

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
