"""Partial deterministic automata and rooted multigraphs as coalgebras.

A partial DFA is a coalgebra for 2 x (Id + 1)^A; its defined inputs (the
words on which the run from the initial state stays defined) form a tree
coalgebra projecting onto the automaton via the extended transition map.
A rooted multigraph is a Bag coalgebra; its rooted paths form the analogous
tree, projecting each path to its target vertex.  Both enumerations are
breadth-first with deterministic letter/edge order, so truncated carriers
are prefix-closed and reproducible.  The automaton or graph was validated
when it was built, and the word and path names are checked for collisions,
so both trees and projections are built with the unchecked `_trusted`
constructors (see `coalg.base`).
"""

from __future__ import annotations

import graphlib
import math
from collections import Counter, deque
from dataclasses import dataclass

from .base import FiniteSet, ShapeError, StateId, TotalMap
from .coalgebra import (Edge, Multigraph, PointedCoalgebra, is_acyclic,
                        reachable_subgraph)
from .functors import (BOTTOM, Bag, BagVal, Const, ConstVal, Coproduct,
                       Exponent, FunVal, FunctorExpr, IdVal, Identity,
                       Product, TagVal, TupleVal)


@dataclass(frozen=True)
class PartialDFA:
    alphabet: FiniteSet
    states: FiniteSet
    accepting: frozenset[StateId]
    delta: dict[tuple[StateId, str], StateId]
    initial: StateId

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "delta", dict(self.delta))
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


@dataclass(frozen=True)
class DefinedInputs:
    tree: PointedCoalgebra
    projection: TotalMap
    complete: bool


@dataclass(frozen=True)
class RootedPaths:
    tree: PointedCoalgebra
    projection: TotalMap
    complete: bool


def dfa_functor(alphabet: FiniteSet) -> FunctorExpr:
    """The partial-DFA shape 2 x (Id + 1)^A."""
    return Product((Const(FiniteSet(("0", "1"))),
                    Exponent(Coproduct((Identity(),
                                        Const(FiniteSet((BOTTOM,))))),
                             alphabet)))


def _dfa_value(d: PartialDFA, q: StateId) -> TupleVal:
    out = ConstVal("1" if q in d.accepting else "0")
    entries = []
    for a in d.alphabet:
        q2 = d.delta.get((q, a))
        if q2 is None:
            entries.append((a, TagVal(1, ConstVal(BOTTOM))))
        else:
            entries.append((a, TagVal(0, IdVal(q2))))
    return TupleVal((out, FunVal(entries)))


def dfa_to_coalgebra(d: PartialDFA) -> PointedCoalgebra:
    structure = {q: _dfa_value(d, q) for q in d.states}
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
    edges = tuple(Edge(f"{q}/{a}", q, q2) for (q, a), q2 in
                  sorted(d.delta.items()))
    return Multigraph(d.states, edges, d.initial)


def _word_name(word: tuple[str, ...], alphabet: FiniteSet) -> str:
    if not word:
        return "ε"
    if all(len(a) == 1 for a in alphabet):
        return "".join(word)
    return "·".join(word)


def defined_inputs(d: PartialDFA, max_len: int) -> DefinedInputs:
    """The coalgebra of words on which the run stays defined.

    Complete (all of P, ignoring max_len) iff no cycle is reachable from the
    initial state; otherwise truncated to length max_len, with every word of
    exactly that length left open.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    complete = is_acyclic(reachable_subgraph(_dfa_graph(d)))
    words: list[tuple[str, ...]] = [()]
    runs: dict[tuple[str, ...], StateId] = {(): d.initial}
    queue = deque([()])
    while queue:
        w = queue.popleft()
        if not complete and len(w) >= max_len:
            continue
        q = runs[w]
        for a in d.alphabet:
            q2 = d.delta.get((q, a))
            if q2 is not None:
                wa = w + (a,)
                words.append(wa)
                runs[wa] = q2
                queue.append(wa)

    names = {w: _word_name(w, d.alphabet) for w in words}
    if len(set(names.values())) != len(words):
        raise ShapeError("word names collide; rename the alphabet letters")
    carrier = FiniteSet._trusted(names.values())
    frontier = FiniteSet._trusted(names[w] for w in words
                                  if not complete and len(w) == max_len)
    functor = dfa_functor(d.alphabet)
    structure = {}
    for w in words:
        if names[w] in frontier:
            continue
        q = runs[w]
        out = ConstVal("1" if q in d.accepting else "0")
        entries = []
        for a in d.alphabet:
            if d.delta.get((q, a)) is None:
                entries.append((a, TagVal(1, ConstVal(BOTTOM))))
            else:
                entries.append((a, TagVal(0, IdVal(names[w + (a,)]))))
        structure[names[w]] = TupleVal((out, FunVal(entries)))
    tree = PointedCoalgebra._trusted(functor, carrier, structure, names[()],
                                     frontier)
    projection = TotalMap._trusted(carrier, d.states,
                                   {names[w]: runs[w] for w in words})
    return DefinedInputs(tree, projection, complete)


def _path_name(edge_ids: tuple[str, ...]) -> str:
    return "·".join(edge_ids) if edge_ids else "ε"


def rooted_paths(g: Multigraph, max_len: int) -> RootedPaths:
    """The Bag coalgebra of paths from the root, each successor with
    multiplicity 1; projection sends a path to its target vertex.

    Complete iff the root-reachable part is acyclic; otherwise truncated to
    max_len edges with the longest paths left open.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    complete = is_acyclic(reachable_subgraph(g))
    paths: list[tuple[str, ...]] = [()]
    target: dict[tuple[str, ...], StateId] = {(): g.root}
    queue = deque([()])
    while queue:
        p = queue.popleft()
        if not complete and len(p) >= max_len:
            continue
        for e in g.out_edges(target[p]):
            pe = p + (e.id,)
            paths.append(pe)
            target[pe] = e.tgt
            queue.append(pe)

    names = {p: _path_name(p) for p in paths}
    if len(set(names.values())) != len(paths):
        raise ShapeError("path names collide; rename the edge ids")
    carrier = FiniteSet._trusted(names.values())
    frontier = FiniteSet._trusted(names[p] for p in paths
                                  if not complete and len(p) == max_len)
    structure = {}
    for p in paths:
        if names[p] in frontier:
            continue
        structure[names[p]] = BagVal(
            (names[p + (e.id,)], 1) for e in g.out_edges(target[p]))
    tree = PointedCoalgebra._trusted(Bag(), carrier, structure, names[()],
                                     frontier)
    projection = TotalMap._trusted(carrier, g.vertices,
                                   {names[p]: target[p] for p in paths})
    return RootedPaths(tree, projection, complete)


def path_count(g: Multigraph, v: StateId):
    """|Path(root, v)| as an int, or math.inf when a cycle lies on a route.

    Any path from the root to v stays inside R ∩ B (reachable from the root,
    able to reach v), so a cycle there pumps infinitely many paths and an
    acyclic induced graph admits a topological dynamic program.
    """
    if v not in g.vertices:
        raise ShapeError(f"unknown vertex {v!r}")
    reach = set(_bfs(g.root, _fwd(g)))
    if v not in reach:
        return 0
    coreach = set(_bfs(v, _rev(g)))
    inside = reach & coreach
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
            and len(_bfs(g.root, _fwd(g))) == len(g.vertices))


def _fwd(g: Multigraph) -> dict[StateId, list[StateId]]:
    adj: dict[StateId, list[StateId]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.src].append(e.tgt)
    return adj


def _rev(g: Multigraph) -> dict[StateId, list[StateId]]:
    adj: dict[StateId, list[StateId]] = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e.tgt].append(e.src)
    return adj


def _bfs(start: StateId, adj: dict[StateId, list[StateId]]) -> list[StateId]:
    seen = {start}
    out = [start]
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                out.append(w)
                queue.append(w)
    return out
