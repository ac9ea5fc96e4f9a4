"""Reference answers on rooted multigraphs and partial DFAs, for tests of
the tree constructions: path counts by a topological dynamic program,
tree-ness by in-degrees, and the run of a DFA on one word.  None uses the
library's rooted walk (`coalgebra._root_paths`), which answers the first
two questions there, or its level-wise unfolding of words.
"""

from __future__ import annotations

import graphlib
import math
from collections import Counter

from coalg import (Edge, Multigraph, PartialDFA, ShapeError, StateId,
                   bfs_reachable)


def path_count(g: Multigraph, v: StateId):
    """|Path(root, v)| as an int, or math.inf when a cycle lies on a route.

    Any path from the root to v stays inside R ∩ B (reachable from the root,
    able to reach v), so a cycle there pumps infinitely many paths and an
    acyclic induced graph admits a topological dynamic program.
    """
    if v not in g.vertices:
        raise ShapeError(f"unknown vertex {v!r}")
    reach = bfs_reachable(g)
    if v not in reach:
        return 0
    reverse = Multigraph(g.vertices, tuple(Edge(e.id, e.tgt, e.src)
                                           for e in g.edges), v)
    coreach = bfs_reachable(reverse)
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
            and len(bfs_reachable(g)) == len(g.vertices))


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
