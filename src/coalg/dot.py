"""DOT rendering for coalgebras, automata, and multigraphs.

The point (or root, or initial state) gets an arrowless inbound marker.
Bag coalgebras label edges with multiplicities, DFA-shaped coalgebras and
automata with letters (accepting states drawn doubled), everything else
falls back to the canonical graph's edges.  Open frontier states are dashed.
Each state (in carrier order) and each label is escaped once, into a table
per document, and every line is rendered from it.
"""

from __future__ import annotations

from .automata import PartialDFA, dfa_functor
from .base import FiniteSet, ShapeError, fresh_namer
from .coalgebra import Multigraph, PointedCoalgebra, _successor_pairs
from .functors import Bag, FunctorExpr


def _esc(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dfa_alphabet(f: FunctorExpr) -> FiniteSet | None:
    """The alphabet when f is the partial-DFA functor 2 x (Id + 1)^A: the
    alphabet of its last part, when that is an exponent."""
    alphabet = getattr((f.children() or (f,))[-1], "alphabet", None)
    return alphabet if alphabet is not None and f == dfa_functor(alphabet) else None


def _render(states, point, edges, accepting=(), frontier=()) -> str:
    """Assemble a digraph; edges are (src, tgt, label-or-None) triples."""
    start = _esc(fresh_namer(states)("__start"))
    q = {x: _esc(x) for x in states}
    # no state is both accepting and open: an open state has no value
    style = {**dict.fromkeys(accepting, " [shape=doublecircle]"),
             **dict.fromkeys(frontier, " [style=dashed]")}
    label = {a: "" if a is None else f" [label={_esc(a)}]"
             for a in dict.fromkeys(a for _, _, a in edges)}
    lines = ["digraph {", "  rankdir=LR;", f'  {start} [shape=none, label=""];']
    lines += [f"  {e}{style.get(x, '')};" for x, e in q.items()]
    lines.append(f"  {start} -> {q[point]};")
    lines += [f"  {q[x]} -> {q[y]}{label[a]};" for x, y, a in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _coalgebra_dot(c: PointedCoalgebra) -> str:
    alphabet = _dfa_alphabet(c.functor)
    frontier = c.frontier.as_set()
    live = [(x, c.structure[x]) for x in c.carrier if x not in frontier]
    accepting = ()
    if alphabet is not None:
        accepting = {x for x, v in live if v.items[0].element == "1"}
        edges = [(x, w.value.member, a) for x, v in live
                 for a, w in v.items[1].entries if w.tag == 0]
    elif c.functor == Bag():
        edges = [(x, y, f"×{n}" if n > 1 else None) for x, v in live
                 for y, n in v.entries]
    else:
        edges = [(x, y, None) for x, y in _successor_pairs(c)]
    return _render(c.carrier, c.point, edges, accepting, frontier)


def to_dot(obj) -> str:
    if isinstance(obj, PointedCoalgebra):
        return _coalgebra_dot(obj)
    if isinstance(obj, PartialDFA):
        edges = [(q, q2, a) for (q, a), q2 in sorted(obj.delta.items())]
        return _render(obj.states, obj.initial, edges, obj.accepting)
    if isinstance(obj, Multigraph):
        edges = [(e.src, e.tgt, e.id) for e in obj.edges]
        return _render(obj.vertices, obj.root, edges)
    raise ShapeError(f"cannot render a {type(obj).__name__}")
