"""Partial deterministic automata and rooted multigraphs as coalgebras.

A partial DFA is a coalgebra for 2 x (Id + 1)^A; its defined inputs (the
words on which the run from the initial state stays defined) form a tree
coalgebra projecting onto the automaton via the extended transition map.
A rooted multigraph is a Bag coalgebra; its rooted paths form the analogous
tree, projecting each path to its target vertex.

Both trees are one unfolding, `_unfold`: a breadth-first walk of the rooted
paths in letter/edge order, so truncated carriers are prefix-closed and
reproducible.  Each path's name is its parent's name plus one label (`ε`
for the root), so the walk costs time linear in the total length of the
names it writes.  The automaton or graph was validated when it was built,
and the names are checked for collisions once, so both trees and
projections are built with the unchecked `_trusted` constructors (see
`coalg.base`).
"""

from __future__ import annotations

import graphlib
import math
from collections import Counter
from collections.abc import Callable, Mapping

from .base import FiniteSet, Record, ShapeError, StateId, TotalMap
from .coalgebra import (Edge, Multigraph, PointedCoalgebra, is_acyclic,
                        reachable_subgraph, reachable_vertices)
from .functors import (BOTTOM, Bag, BagVal, Const, ConstVal, Coproduct,
                       Exponent, FunVal, FunctorExpr, FValue, IdVal, Identity,
                       Product, TagVal, TupleVal)
from .unravelling import UnravelResult

# Both trees are unravellings: tree, projection, complete flag and frontier.
DefinedInputs = RootedPaths = UnravelResult


class PartialDFA(Record):
    __slots__ = ("alphabet", "states", "accepting", "delta", "initial")

    def __init__(self, alphabet: FiniteSet, states: FiniteSet,
                 accepting: frozenset[StateId],
                 delta: dict[tuple[StateId, str], StateId], initial: StateId):
        Record.__init__(self, alphabet, states, frozenset(accepting),
                        dict(delta), initial)
        if len(self.alphabet) == 0:
            raise ShapeError("alphabet must be non-empty")
        if self.initial not in self.states:
            raise ShapeError(f"initial state {self.initial!r} not a state")
        for q in self.accepting:
            if q not in self.states:
                raise ShapeError(f"accepting state {q!r} not a state")
        for (q, a), q2 in self.delta.items():
            if q not in self.states:
                raise ShapeError(f"transition from unknown state {q!r}")
            if a not in self.alphabet:
                raise ShapeError(f"transition on unknown letter {a!r}")
            if q2 not in self.states:
                raise ShapeError(f"transition into unknown state {q2!r}")


def dfa_functor(alphabet: FiniteSet) -> FunctorExpr:
    """The partial-DFA shape 2 x (Id + 1)^A."""
    return Product((Const(FiniteSet(("0", "1"))),
                    Exponent(Coproduct((Identity(),
                                        Const(FiniteSet((BOTTOM,))))),
                             alphabet)))


def _transitions(d: PartialDFA, q: StateId) -> list[tuple[str, StateId]]:
    """The defined transitions out of q, in alphabet order."""
    return [(a, d.delta[(q, a)]) for a in d.alphabet if (q, a) in d.delta]


def _dfa_value(d: PartialDFA, q: StateId,
               successor: Mapping[str, StateId]) -> TupleVal:
    """q's output with a transition to successor[a] on each letter a it
    maps, and bottom on the others."""
    out = ConstVal("1" if q in d.accepting else "0")
    return TupleVal((out, FunVal(
        (a, TagVal(0, IdVal(successor[a])) if a in successor
         else TagVal(1, ConstVal(BOTTOM))) for a in d.alphabet)))


def dfa_to_coalgebra(d: PartialDFA) -> PointedCoalgebra:
    structure = {q: _dfa_value(d, q, dict(_transitions(d, q)))
                 for q in d.states}
    return PointedCoalgebra(dfa_functor(d.alphabet), d.states, structure,
                            d.initial)


def delta_star(d: PartialDFA, word) -> StateId | None:
    """Run the automaton on a word (any iterable of letters); None once a
    transition is undefined."""
    at = d.initial
    for a in word:
        if a not in d.alphabet:
            raise ShapeError(f"letter {a!r} outside the alphabet")
        nxt = d.delta.get((at, a))
        if nxt is None:
            return None
        at = nxt
    return at


def _dfa_graph(d: PartialDFA) -> Multigraph:
    edges = tuple(Edge(str(k), q, q2)
                  for k, ((q, _), q2) in enumerate(d.delta.items()))
    return Multigraph(d.states, edges, d.initial)


def _unfold(functor: FunctorExpr, states: FiniteSet, root: StateId,
            successors: Callable[[StateId], list[tuple[str, StateId]]],
            max_len: int, complete: bool, sep: str,
            build: Callable[[StateId, list[tuple[str, StateId]]], FValue],
            collision: str) -> UnravelResult:
    """The tree of rooted paths, breadth-first in successor order.

    A path is named by its parent's name, `sep` and its last label (`ε` for
    the root), so each name costs its own length once.  `build(x, kids)`
    gives the value of a closed path ending at x from its children's
    `(label, name)` pairs.  Unless complete, paths of length max_len stay
    open.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    names, targets, lengths = ["ε"], [root], [0]
    structure: dict[StateId, FValue] = {}
    frontier = []
    # the three lists grow in step behind the walk: a breadth-first queue
    for name, x, n in zip(names, targets, lengths):
        if not complete and n == max_len:
            frontier.append(name)
            continue
        prefix = name + sep if n else ""
        kids = []
        for label, y in successors(x):
            child = prefix + label
            kids.append((label, child))
            names.append(child)
            targets.append(y)
            lengths.append(n + 1)
        structure[name] = build(x, kids)
    if len(set(names)) != len(names):
        raise ShapeError(collision)
    carrier = FiniteSet._trusted(names)
    tree = PointedCoalgebra._trusted(functor, carrier, structure, "ε",
                                     FiniteSet._trusted(frontier))
    projection = TotalMap._trusted(carrier, states, dict(zip(names, targets)))
    return UnravelResult(tree, projection, complete, tree.frontier)


def defined_inputs(d: PartialDFA, max_len: int) -> UnravelResult:
    """The coalgebra of words on which the run stays defined.

    Complete (all of P, ignoring max_len) iff no cycle is reachable from the
    initial state; otherwise truncated to length max_len, with every word of
    exactly that length left open.  Words are named by their letters, joined
    by `·` unless every letter is one character.
    """
    sep = "" if all(len(a) == 1 for a in d.alphabet) else "·"
    return _unfold(dfa_functor(d.alphabet), d.states, d.initial,
                   lambda q: _transitions(d, q), max_len,
                   is_acyclic(reachable_subgraph(_dfa_graph(d))), sep,
                   lambda q, kids: _dfa_value(d, q, dict(kids)),
                   "word names collide; rename the alphabet letters")


def rooted_paths(g: Multigraph, max_len: int) -> UnravelResult:
    """The Bag coalgebra of paths from the root, each successor with
    multiplicity 1; projection sends a path to its target vertex.

    Complete iff the root-reachable part is acyclic; otherwise truncated to
    max_len edges with the longest paths left open.  Paths are named by
    their edge ids joined by `·`.
    """
    return _unfold(Bag(), g.vertices, g.root,
                   lambda v: [(e.id, e.tgt) for e in g.out_edges(v)],
                   max_len, is_acyclic(reachable_subgraph(g)), "·",
                   lambda v, kids: BagVal((p, 1) for _, p in kids),
                   "path names collide; rename the edge ids")


def path_count(g: Multigraph, v: StateId):
    """|Path(root, v)| as an int, or math.inf when a cycle lies on a route.

    Any path from the root to v stays inside R ∩ B (reachable from the root,
    able to reach v), so a cycle there pumps infinitely many paths and an
    acyclic induced graph admits a topological dynamic program.
    """
    if v not in g.vertices:
        raise ShapeError(f"unknown vertex {v!r}")
    reach = reachable_vertices(g)
    if v not in reach:
        return 0
    reverse = Multigraph(g.vertices, tuple(Edge(e.id, e.tgt, e.src)
                                           for e in g.edges), v)
    coreach = reachable_vertices(reverse)
    inside = reach.as_set() & coreach.as_set()
    edges = [e for e in g.edges if e.src in inside and e.tgt in inside]
    ts = graphlib.TopologicalSorter({u: set() for u in inside})
    for e in edges:
        ts.add(e.tgt, e.src)
    try:
        order = list(ts.static_order())
    except graphlib.CycleError:
        return math.inf
    counts = {u: 0 for u in inside}
    counts[g.root] = 1
    incoming: dict[StateId, list[StateId]] = {u: [] for u in inside}
    for e in edges:
        incoming[e.tgt].append(e.src)
    for u in order:
        counts[u] += sum(counts[w] for w in incoming[u])
    return counts[v]


def graph_is_tree(g: Multigraph) -> bool:
    """Exactly one rooted path per vertex: every vertex is reachable from the
    root, the root has no in-edge and every other vertex exactly one."""
    indegree = Counter(e.tgt for e in g.edges)
    return (indegree[g.root] == 0
            and all(indegree[v] == 1 for v in g.vertices if v != g.root)
            and len(reachable_vertices(g)) == len(g.vertices))

