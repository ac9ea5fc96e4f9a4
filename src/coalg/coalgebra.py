"""Pointed coalgebras, homomorphism checking, coproducts, multigraph views.

A pointed coalgebra fixes a functor, a finite carrier, a structure map, and a
distinguished point.  Carriers may declare a `frontier` of open states with no
structure entry: depth-truncated constructions end in such states instead of
inventing bottom values (the grammar has no universal bottom).  Ordinary
coalgebras have an empty frontier.

`PointedCoalgebra(...)` validates the point, the frontier and every structure
value against the carrier; `Multigraph(...)` validates its root and edges.
The constructions that derive a coalgebra from a valid one (reachable parts,
unravellings, the DFA and path trees) build it with the unchecked
`PointedCoalgebra._trusted` instead (see `coalg.base`).
"""

from __future__ import annotations

import graphlib
from collections import deque
from collections.abc import Mapping

from .base import FiniteSet, Record, ShapeError, StateId, TotalMap
from .functors import (Bag, BagVal, FunctorExpr, FValue, fmap, used_states,
                       validate_value)


class PointedCoalgebra(Record):
    __slots__ = ("functor", "carrier", "structure", "point", "frontier")

    def __init__(self, functor: FunctorExpr, carrier: FiniteSet,
                 structure: Mapping[StateId, FValue], point: StateId,
                 frontier: FiniteSet = FiniteSet()):
        Record.__init__(self, functor, carrier, structure, point, frontier)
        self.__post_init__()

    def __post_init__(self):
        """The checks of the public constructor; a method of its own, which
        the benchmark's span recorder (perfbench/spans.py) times by name."""
        object.__setattr__(self, "structure", dict(self.structure))
        if self.point not in self.carrier:
            raise ShapeError(f"point {self.point!r} not in carrier")
        for x in self.frontier:
            if x not in self.carrier:
                raise ShapeError(f"frontier state {x!r} not in carrier")
        closed = [x for x in self.carrier if x not in self.frontier]
        for x in closed:
            if x not in self.structure:
                raise ShapeError(f"no structure for state {x!r}")
            validate_value(self.functor, self.structure[x], self.carrier)
        for x in self.structure:
            if x not in self.carrier or x in self.frontier:
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

    def __repr__(self) -> str:
        return (f"PointedCoalgebra({len(self.carrier)} states, "
                f"point={self.point!r})")


class Edge(Record):
    __slots__ = ("id", "src", "tgt")

    def __init__(self, id: str, src: StateId, tgt: StateId):
        # built once per edge: the fields are set directly
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)


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
        out: dict[StateId, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            if e.src not in self.vertices or e.tgt not in self.vertices:
                raise ShapeError(f"edge {e.id!r} touches a non-vertex")
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
    skipped: list[StateId] = []
    for x in source.carrier:
        if x in source.frontier:
            skipped.append(x)
            continue
        actual = fmap(source.functor, h, source.structure[x])
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
    carrier = FiniteSet([ren1[x] for x in c1.carrier]
                        + [ren2[x] for x in c2.carrier])
    structure: dict[StateId, FValue] = {}
    for x in c1.carrier:
        if x not in c1.frontier:
            structure[ren1[x]] = fmap(c1.functor, ren1, c1.structure[x])
    for x in c2.carrier:
        if x not in c2.frontier:
            structure[ren2[x]] = fmap(c2.functor, ren2, c2.structure[x])
    frontier = FiniteSet([ren1[x] for x in c1.frontier]
                         + [ren2[x] for x in c2.frontier])
    return PointedCoalgebra(c1.functor, carrier, structure,
                            ren1[c1.point], frontier)


def canonical_graph(c: PointedCoalgebra) -> Multigraph:
    """Simple directed graph with an edge x -> y whenever y occurs in c(x).

    Frontier states contribute no out-edges.  Multiplicities are forgotten;
    use bag_to_multigraph for the multiplicity-faithful view of a bag
    coalgebra.  Edges are named by their position, so names never collide.
    """
    edges = []
    for x in c.carrier:
        if x in c.frontier:
            continue
        for y in used_states(c.functor, c.structure[x]):
            edges.append(Edge(str(len(edges)), x, y))
    return Multigraph(c.carrier, tuple(edges), c.point)


def multigraph_to_bag(g: Multigraph) -> PointedCoalgebra:
    """Bag coalgebra of a multigraph: c(u)(v) = number of edges u -> v."""
    structure = {u: BagVal((e.tgt, 1) for e in g.out_edges(u))
                 for u in g.vertices}
    return PointedCoalgebra(Bag(), g.vertices, structure, g.root)


def bag_to_multigraph(c: PointedCoalgebra) -> Multigraph:
    """Multigraph with c(u)(v) parallel edges u -> v; inverse of
    multigraph_to_bag up to edge names, which are the edges' positions."""
    if not isinstance(c.functor, Bag):
        raise ShapeError("bag_to_multigraph needs a Bag coalgebra")
    if not c.is_total():
        raise ShapeError("coalgebra has open states")
    edges = []
    for u in c.carrier:
        for v, n in c.structure[u].entries:
            for _ in range(n):
                edges.append(Edge(str(len(edges)), u, v))
    return Multigraph(c.carrier, tuple(edges), c.point)


def reachable_vertices(g: Multigraph) -> FiniteSet:
    """Vertices with a directed path from the root, in BFS discovery order."""
    order = [g.root]
    seen = {g.root}
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for e in g.out_edges(u):
            if e.tgt not in seen:
                seen.add(e.tgt)
                order.append(e.tgt)
                queue.append(e.tgt)
    return FiniteSet(order)


def is_acyclic(g: Multigraph) -> bool:
    ts = graphlib.TopologicalSorter({v: set() for v in g.vertices})
    for e in g.edges:
        ts.add(e.tgt, e.src)
    try:
        ts.prepare()
    except graphlib.CycleError:
        return False
    return True


def reachable_subgraph(g: Multigraph) -> Multigraph:
    """Induced subgraph on the root-reachable vertices."""
    verts = reachable_vertices(g)
    edges = tuple(e for e in g.edges if e.src in verts)
    return Multigraph(verts, edges, g.root)
