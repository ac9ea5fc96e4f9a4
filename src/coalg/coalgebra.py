"""Pointed coalgebras and rooted multigraphs, homomorphism checking,
coproducts.

A pointed coalgebra fixes a functor, a finite carrier, a structure map, and a
distinguished point.  Carriers may declare a `frontier` of open states with no
structure entry: depth-truncated constructions end in such states instead of
inventing bottom values (the grammar has no universal bottom).  Ordinary
coalgebras have an empty frontier.

`PointedCoalgebra(...)` validates the point, the frontier and every structure
value against the carrier; `Multigraph(...)` validates its root and edges.
The constructions that derive a coalgebra or a graph from a valid one
(reachable parts, unravellings, the DFA and path trees, coproducts, the
canonical graph and the reachable subgraph) build it with the unchecked
`_trusted` constructors instead (see `coalg.base`), and relabel values by
`FunctorExpr.map`, which checks nothing.  The spec parser, which checks each
value as it reads it, builds with `_trusted` and then runs the carrier
checks of the public constructor alone (`_check(values=False)`), without
its second pass over the values.

Every walk over a coalgebra's slots (the reachability levels, the path
counts, the size prediction, the canonical graph, DOT and fingerprints)
reads its successor table, which the first walk builds and keeps on it:
each state's value is read for its slots once.  The oracles do not use it.
The reachability levels are kept on the coalgebra the same way (see
`reachability.reach_levels`).  Neither is a field: equality, repr, copies
and pickles do not see them, and a copy starts without them.

`_root_paths` is the one rooted walk that counts paths without building
them: the tree decision, and the DFA, multigraph and coalgebra unfoldings
before they build a complete tree, read reachability, acyclicity and the
size of the tree from it, and `reachable_subgraph` reads its vertices.
Its counts are keyed in a topological order, which
`unravelling.tree_fingerprint` reads backwards, children before parents.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter

from .base import FiniteSet, Record, ShapeError, StateId, TotalMap
from .functors import Bag, BagVal, FunctorExpr, FValue, validate_value

# a state's out-edges as (successor, weight) pairs
Successors = Callable[[StateId], Iterable[tuple[StateId, int]]]


class PointedCoalgebra(Record):
    # `_succ` (the successor table) and `_levels` (the reachability levels,
    # kept by `reachability.reach_levels`) are not fields
    __slots__ = ("functor", "carrier", "structure", "point", "frontier",
                 "_succ", "_levels")

    def __init__(self, functor: FunctorExpr, carrier: FiniteSet,
                 structure: Mapping[StateId, FValue], point: StateId,
                 frontier: FiniteSet = FiniteSet()):
        Record.__init__(self, functor, carrier, structure, point, frontier)
        self.__post_init__()

    def __post_init__(self):
        """The checks of the public constructor; a method of its own, which
        the benchmark's span recorder (perfbench/spans.py) times by name."""
        object.__setattr__(self, "structure", dict(self.structure))
        self._check(values=True)

    def _check(self, values: bool) -> None:
        """The point, the frontier, a structure entry for each closed state
        (and `validate_value` on it, when `values`), then no entry for any
        other state: the first failure raises.  Without `values` these are
        the carrier checks alone, for values that were checked as they were
        built (see `specfile`)."""
        if self.point not in self.carrier:
            raise ShapeError(f"point {self.point!r} not in carrier")
        for x in self.frontier:
            if x not in self.carrier:
                raise ShapeError(f"frontier state {x!r} not in carrier")
        structure = self.structure
        carrier, frontier = self.carrier.as_set(), self.frontier.as_set()
        if not values and structure.keys() == carrier - frontier:
            return  # every closed state has its entry, and no other state
        for x in self.carrier:
            if x in frontier:
                continue
            if x not in structure:
                raise ShapeError(f"no structure for state {x!r}")
            if values:
                validate_value(self.functor, structure[x], self.carrier)
        for x in structure:
            if x not in carrier or x in frontier:
                raise ShapeError(f"structure given for unexpected state {x!r}")

    @classmethod
    def _trusted(cls, functor: FunctorExpr, carrier: FiniteSet,
                 structure: dict[StateId, FValue], point: StateId,
                 frontier: FiniteSet) -> "PointedCoalgebra":
        """Unchecked and uncopied: the caller guarantees the invariants that
        `__post_init__` checks, and that `structure` is a fresh dict."""
        c = cls.__new__(cls)
        Record.__init__(c, functor, carrier, structure, point, frontier)
        return c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointedCoalgebra):
            return NotImplemented
        return (self.functor == other.functor and self.carrier == other.carrier
                and self.point == other.point and self.frontier == other.frontier
                and all(self.structure[x] == other.structure[x]
                        for x in self.carrier if x not in self.frontier))

    def is_total(self) -> bool:
        return len(self.frontier) == 0

    def successor_table(self) -> dict[StateId, tuple[tuple[StateId, int], ...]]:
        """Each closed state's slots as (successor, weight) pairs, in slot
        order; built on first use by one `FunctorExpr.edges` walk over the
        column of all values, which checks nothing: the values were
        validated when c was built."""
        try:
            return self._succ
        except AttributeError:
            structure = self.structure
            table = dict(zip(structure, self.functor.edges(
                list(structure.values()))))
            object.__setattr__(self, "_succ", table)
            return table

    def __repr__(self) -> str:
        return (f"PointedCoalgebra({len(self.carrier)} states, "
                f"point={self.point!r})")


class Edge(Record):
    __slots__ = ("id", "src", "tgt")

    def __init__(self, id: str, src: StateId, tgt: StateId):
        # built once per edge: the fields are set by the slot setters
        _set_id(self, id)
        _set_src(self, src)
        _set_tgt(self, tgt)


_set_id, _set_src, _set_tgt = (Edge.id.__set__, Edge.src.__set__,
                               Edge.tgt.__set__)


class Multigraph(Record):
    """Directed multigraph with named edges and a root vertex."""

    __slots__ = ("vertices", "edges", "root", "_out")

    def __init__(self, vertices: FiniteSet, edges: tuple[Edge, ...],
                 root: StateId):
        Record.__init__(self, vertices, edges, root)
        if self.root not in self.vertices:
            raise ShapeError(f"root {self.root!r} not a vertex")
        ids = [e.id for e in self.edges]
        if not all(isinstance(i, str) and i for i in ids):
            raise ShapeError("edge ids must be non-empty strings")
        if len(set(ids)) != len(ids):
            raise ShapeError("duplicate edge id")
        known = self.vertices.as_set()
        for e in self.edges:
            if e.src not in known or e.tgt not in known:
                raise ShapeError(f"edge {e.id!r} touches a non-vertex")
        self._index()

    @classmethod
    def _trusted(cls, vertices: FiniteSet, edges: tuple[Edge, ...],
                 root: StateId) -> "Multigraph":
        """Unchecked: the caller guarantees the invariants that `__init__`
        checks (root and edge ends are vertices, edge ids are distinct
        non-empty strings).  The out-edge index is built all the same."""
        g = cls.__new__(cls)
        Record.__init__(g, vertices, edges, root)
        g._index()
        return g

    def _index(self) -> None:
        out: dict[StateId, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e)
        object.__setattr__(self, "_out", {v: tuple(es)
                                          for v, es in out.items()})

    def out_edges(self, v: StateId) -> tuple[Edge, ...]:
        """The edges leaving v, in edge order."""
        return self._out.get(v, ())


class HomReport(Record):
    """Outcome of a homomorphism check: square failures per state, plus the
    point-preservation flag.  Frontier states of the source are skipped (they
    have no structure to compare) and recorded."""

    __slots__ = ("ok", "point_ok", "failures", "skipped")

    def __init__(self, ok: bool, point_ok: bool,
                 failures: tuple[tuple[StateId, FValue | None,
                                       FValue | None], ...],
                 skipped: tuple[StateId, ...] = ()):
        Record.__init__(self, ok, point_ok, failures, skipped)


def check_morphism(h: TotalMap, source: PointedCoalgebra,
                   target: PointedCoalgebra) -> HomReport:
    """Check that h is a pointed coalgebra homomorphism from source to target.

    For every closed source state x the square requires
    target.structure[h(x)] == fmap(h, source.structure[x]), and the point must
    map to the point.
    """
    if source.functor != target.functor:
        raise ShapeError("source and target live over different functors")
    if h.domain != source.carrier or h.codomain != target.carrier:
        raise ShapeError("map carriers do not match the coalgebras")
    point_ok = h[source.point] == target.point
    failures: list[tuple[StateId, FValue | None, FValue | None]] = []
    closed = [x for x in source.carrier if x not in source.frontier]
    skipped = [x for x in source.carrier if x in source.frontier]
    mapped = source.functor.map([source.structure[x] for x in closed], h)
    for x, actual in zip(closed, mapped):
        y = h[x]
        if y in target.frontier:
            failures.append((x, None, actual))
            continue
        expected = target.structure[y]
        if expected != actual:
            failures.append((x, expected, actual))
    return HomReport(ok=point_ok and not failures, point_ok=point_ok,
                     failures=tuple(failures), skipped=tuple(skipped))


def coproduct(c1: PointedCoalgebra, c2: PointedCoalgebra) -> PointedCoalgebra:
    """Coproduct of two coalgebras over the same functor.

    Carriers are kept apart by systematic `left.`/`right.` prefixes; the point
    is the left point.
    """
    if c1.functor != c2.functor:
        raise ShapeError("coproduct needs a common functor")
    ren1 = {x: f"left.{x}" for x in c1.carrier}
    ren2 = {x: f"right.{x}" for x in c2.carrier}
    structure: dict[StateId, FValue] = {}
    for c, ren in ((c1, ren1), (c2, ren2)):
        closed = [x for x in c.carrier if x not in c.frontier]
        structure.update(zip(map(ren.__getitem__, closed), c.functor.map(
            [c.structure[x] for x in closed], ren.__getitem__)))
    carrier = dict.fromkeys([*ren1.values(), *ren2.values()])
    frontier = dict.fromkeys([ren1[x] for x in c1.frontier]
                             + [ren2[x] for x in c2.frontier])
    return PointedCoalgebra._trusted(
        c1.functor, FiniteSet._trusted(carrier), structure, ren1[c1.point],
        FiniteSet._trusted(frontier))


def _root_paths(root: StateId, successors: Successors
                ) -> tuple[list[StateId], dict[StateId, int] | None]:
    """One rooted walk: the states reachable from root, in breadth-first
    discovery order, and the exact number of weighted root paths to each,
    keyed in a topological order (each state after every state with an edge
    into it), or None for the counts when a cycle is reachable.

    `successors(x)` yields (successor, weight) pairs, one per edge; a path's
    weight is the product of its edges' weights (slot multiplicities in a
    coalgebra), so the counts are the copies each state gets in the complete
    unravelling.  They come from Kahn's algorithm on the in-degrees of the
    reached edges: paths(y) = sum of paths(x) * weight over edges x -> y,
    keyed as settled (`tree_fingerprint` reads that order).  A reachable
    cycle leaves some state with in-edges never counted down.
    """
    order = [root]
    indegree = {root: 0}
    out: dict[StateId, tuple[tuple[StateId, int], ...]] = {}
    # the list grows behind the walk: a breadth-first queue
    for x in order:
        edges = out[x] = tuple(successors(x))
        for y, _ in edges:
            if y in indegree:
                indegree[y] += 1
            else:
                indegree[y] = 1
                order.append(y)
    paths = dict.fromkeys(order, 0)
    paths[root] = 1
    ready = [root] if indegree[root] == 0 else []
    counts: dict[StateId, int] = {}
    while ready:
        x = ready.pop()
        n = counts[x] = paths[x]
        for y, w in out[x]:
            paths[y] += n * w
            indegree[y] -= 1
            if indegree[y] == 0:
                ready.append(y)
    return order, counts if len(counts) == len(order) else None


def canonical_graph(c: PointedCoalgebra) -> Multigraph:
    """Simple directed graph with an edge x -> y whenever y occurs in c(x).

    Frontier states contribute no out-edges and multiplicities are
    forgotten.  Edges are named by their position, so names never collide.
    """
    edges = tuple(Edge(str(k), x, y)
                  for k, (x, y) in enumerate(_successor_pairs(c)))
    return Multigraph._trusted(c.carrier, edges, c.point)


def _successor_pairs(c: PointedCoalgebra) -> list[tuple[StateId, StateId]]:
    """The distinct (x, y) with y in c(x): x in carrier order, each x's
    successors in slot order, none for frontier states."""
    table = c.successor_table()
    return [(x, y) for x in c.carrier
            for y in dict.fromkeys(map(itemgetter(0), table.get(x, ())))]


def multigraph_to_bag(g: Multigraph) -> PointedCoalgebra:
    """Bag coalgebra of a multigraph: c(u)(v) = number of edges u -> v,
    in the order of u's first edge to each v.  The graph was checked when
    it was built, so these counts, made in one pass over the edges, are the
    stored form `BagVal` gives."""
    counts: dict[StateId, dict[StateId, int]] = {u: {} for u in g.vertices}
    for e in g.edges:
        row = counts[e.src]
        row[e.tgt] = row.get(e.tgt, 0) + 1
    structure = {u: BagVal._trusted(tuple(row.items()))
                 for u, row in counts.items()}
    return PointedCoalgebra._trusted(Bag(), g.vertices, structure, g.root,
                                     FiniteSet._trusted({}))


def is_acyclic(g: Multigraph) -> bool:
    import graphlib  # loaded only when called: no command calls it
    ts = graphlib.TopologicalSorter({v: set() for v in g.vertices})
    for e in g.edges:
        ts.add(e.tgt, e.src)
    try:
        ts.prepare()
    except graphlib.CycleError:
        return False
    return True


def reachable_subgraph(g: Multigraph) -> Multigraph:
    """Induced subgraph on the root-reachable vertices, in breadth-first
    discovery order."""
    order, _ = _root_paths(
        g.root, lambda v: ((e.tgt, 1) for e in g.out_edges(v)))
    seen = dict.fromkeys(order)
    edges = tuple(e for e in g.edges if e.src in seen)
    return Multigraph._trusted(FiniteSet._trusted(seen), edges, g.root)
