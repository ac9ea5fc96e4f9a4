"""DOT rendering for coalgebras, automata, and multigraphs.

The point (or root, or initial state) gets an arrowless inbound marker.
Bag coalgebras label edges with multiplicities, DFA-shaped coalgebras and
automata with letters (accepting states drawn doubled), everything else
falls back to the canonical graph.  Open frontier states are dashed.
"""

from __future__ import annotations

from .automata import PartialDFA, dfa_functor
from .base import FiniteSet, ShapeError, fresh_namer
from .coalgebra import Multigraph, PointedCoalgebra
from .functors import Bag, Const, Exponent, FunctorExpr, Product, TagVal


def _esc(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dfa_alphabet(f: FunctorExpr) -> FiniteSet | None:
    """The alphabet when f is the partial-DFA functor 2 x (Id + 1)^A."""
    if (isinstance(f, Product) and len(f.factors) == 2
            and isinstance(f.factors[0], Const)
            and isinstance(f.factors[1], Exponent)
            and f == dfa_functor(f.factors[1].alphabet)):
        return f.factors[1].alphabet
    return None


def _render(states, point, edges, accepting=(), frontier=()) -> str:
    """Assemble a digraph; edges are (src, tgt, label-or-None) triples."""
    start = fresh_namer(states)("__start")
    lines = ["digraph {", "  rankdir=LR;",
             f"  {_esc(start)} [shape=none, label=\"\"];"]
    for x in states:
        attrs = []
        if x in accepting:
            attrs.append("shape=doublecircle")
        if x in frontier:
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_esc(x)}{suffix};")
    lines.append(f"  {_esc(start)} -> {_esc(point)};")
    for src, tgt, label in edges:
        suffix = f" [label={_esc(label)}]" if label is not None else ""
        lines.append(f"  {_esc(src)} -> {_esc(tgt)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _coalgebra_dot(c: PointedCoalgebra) -> str:
    alphabet = _dfa_alphabet(c.functor)
    edges = []
    accepting = set()
    for x in c.carrier:
        if x in c.frontier:
            continue
        v = c.structure[x]
        if alphabet is not None:
            out, fun = v.items
            if out.element == "1":
                accepting.add(x)
            for a, w in fun.entries:
                if isinstance(w, TagVal) and w.tag == 0:
                    edges.append((x, w.value.member, a))
        elif isinstance(c.functor, Bag):
            for y, n in v.entries:
                edges.append((x, y, f"×{n}" if n > 1 else None))
        else:
            for y in dict.fromkeys(y for y, _ in c.successor_table()[x]):
                edges.append((x, y, None))
    return _render(c.carrier, c.point, edges, accepting, c.frontier.as_set())


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
