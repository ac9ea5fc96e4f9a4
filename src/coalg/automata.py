"""Partial deterministic automata and rooted multigraphs as coalgebras.

A partial DFA is a coalgebra for 2 x (Id + 1)^A; its defined inputs (the
words on which the run from the initial state stays defined) form a tree
coalgebra projecting onto the automaton via the extended transition map.
A rooted multigraph is a Bag coalgebra; its rooted paths form the analogous
tree, projecting each path to its target vertex.

Both trees are one unfolding, `_unfold`: a breadth-first walk of the rooted
paths in letter/edge order, one level at a time, so truncated carriers are
prefix-closed and reproducible.  Whether the tree is finite, and how many
paths it has, comes first from one counting walk (`coalgebra._root_paths`),
so a complete tree larger than the guard (`COALG_GUARD`) is refused before
it is built.  A truncated tree (a reachable cycle) is refused the same way:
its size to `max_len` is predicted by the level recurrence of the
depth-capped unravelling (`unravelling._tree_size`), with weight 1 per
letter or edge.  That walk reads each reachable state's transitions or
out-edges once, together with a word's output (the part of its value that
depends on its state alone), and the prediction reads them from the walk's
cache.  A path then costs its own name, which is its parent's name plus
one label (`ε` for the root), and its entry in the projection, so a listing
of the paths and their targets costs time linear in the total length of the
names it writes.  Only a bound on the names' size past their guard pays for
the exact level-by-level prediction, and each level is named in one pass.
The paths' values are the tree's business alone: they are built when the
result's `tree` is first read (see `unravelling.UnravelResult`), one value
per closed path, and never for a listing.  Until then a deferred tree holds
each path's name once, as a key of the projection's dict, which is also the
dict of the tree's carrier; a second dict of the open paths, for the
frontier; and one move per reachable state.  The walk's own lists of names
and targets are not kept: the tree's values are built from the projection's
dict, which lists the paths in the walk's order.  The automaton or graph
was validated when it was built, and the names are checked for collisions
once, so both trees, their values and projections are built with the
unchecked `_trusted` constructors (see `coalg.base`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import chain, islice, repeat

from .base import (FiniteSet, Record, SearchSpaceTooLarge, ShapeError,
                   StateId, TotalMap, _guard)
from .coalgebra import Multigraph, PointedCoalgebra, _root_paths
from .functors import (BOTTOM, Bag, BagVal, Const, ConstVal, Coproduct,
                       Exponent, FunVal, FunctorExpr, FValue, IdVal, Identity,
                       Product, TagVal, TupleVal)
from .unravelling import UnravelResult, _tree_size, _within_guard

# Both trees are unravellings: tree, projection, complete flag and frontier.
DefinedInputs = RootedPaths = UnravelResult

# characters the names of one unfolding may hold, per unit of COALG_GUARD
NAME_CHARS_PER_GUARD = 12


class PartialDFA(Record):
    __slots__ = ("alphabet", "states", "accepting", "delta", "initial")

    def __init__(self, alphabet: FiniteSet, states: FiniteSet,
                 accepting: Iterable[StateId],
                 delta: dict[tuple[StateId, str], StateId], initial: StateId):
        # checked in the order given, not in the frozen set's hash order, so
        # the error names the same state in every run
        accepting = tuple(accepting)
        Record.__init__(self, alphabet, states, frozenset(accepting),
                        dict(delta), initial)
        if len(self.alphabet) == 0:
            raise ShapeError("alphabet must be non-empty")
        # frozen sets: a FiniteSet's `in` is a Python call per test
        states, alphabet = self.states.as_set(), self.alphabet.as_set()
        if self.initial not in states:
            raise ShapeError(f"initial state {self.initial!r} not a state")
        for q in accepting:
            if q not in states:
                raise ShapeError(f"accepting state {q!r} not a state")
        for (q, a), q2 in self.delta.items():
            if q not in states:
                raise ShapeError(f"transition from unknown state {q!r}")
            if a not in alphabet:
                raise ShapeError(f"transition on unknown letter {a!r}")
            if q2 not in states:
                raise ShapeError(f"transition into unknown state {q2!r}")


def dfa_functor(alphabet: FiniteSet) -> FunctorExpr:
    """The partial-DFA shape 2 x (Id + 1)^A."""
    return Product((Const(FiniteSet(("0", "1"))),
                    Exponent(Coproduct((Identity(),
                                        Const(FiniteSet((BOTTOM,))))),
                             alphabet)))


# A state's move: the labels (letters or edge ids) of its successors and
# their targets, in order, and the part of the value of a path ending at
# the state that depends on the state alone (a word's output, or None).
Move = tuple[tuple[str, ...], tuple[StateId, ...], object]


def _dfa_step(d: PartialDFA) -> Callable[[StateId], Move]:
    """The function giving a state q's move: its defined letters in
    alphabet order, their targets, and q's output."""
    alphabet, delta, accepting = tuple(d.alphabet), d.delta, d.accepting
    outputs = ConstVal("0"), ConstVal("1")

    def step(q: StateId) -> Move:
        letters = tuple([a for a in alphabet if (q, a) in delta])
        return (letters, tuple([delta[q, a] for a in letters]),
                outputs[q in accepting])

    return step


def _dfa_values(alphabet: FiniteSet) -> Callable[[Move, list[StateId]],
                                                 TupleVal]:
    """The value builder of an automaton: the value of a state or word from
    its move and the targets of its defined letters, by `_dfa_value` on one
    table of every letter mapped to bottom, built here once."""
    template = dict.fromkeys(alphabet, TagVal(1, ConstVal(BOTTOM)))
    return lambda move, targets: _dfa_value(template, move, targets)


def _dfa_value(template: dict, move: Move,
               targets: Iterable[StateId]) -> TupleVal:
    """The value of a state or word whose defined letters lead to the given
    targets: its output, and the template with those letters filled in."""
    letters, _, out = move
    index = template.copy()
    for a, w in zip(letters, targets):
        index[a] = TagVal(0, IdVal(w))
    return TupleVal((out, FunVal._trusted(index)))


def _path_value(move: Move, kids: list[StateId]) -> BagVal:
    """The value of a closed path: each of its children once."""
    return BagVal._trusted(tuple(zip(kids, repeat(1))))


def dfa_to_coalgebra(d: PartialDFA) -> PointedCoalgebra:
    step, value = _dfa_step(d), _dfa_values(d.alphabet)
    structure = {}
    for q in d.states:
        move = step(q)
        structure[q] = value(move, move[1])
    return PointedCoalgebra._trusted(dfa_functor(d.alphabet), d.states,
                                     structure, d.initial,
                                     FiniteSet._trusted({}))


def _name_chars(root: StateId, moves: dict[StateId, Move], complete: bool,
                max_len: int, sep: str, guard: int) -> None:
    """Refuse names past NAME_CHARS_PER_GUARD characters per unit of the
    guard, predicted exactly level by level from each level's states."""
    limit = NAME_CHARS_PER_GUARD * guard
    # each state of a level: its paths, and the characters of their names
    # (the root's children are their labels alone)
    level, chars, depth = {root: (1, 0)}, 1, 0
    while level and (complete or depth < max_len):
        nxt: dict[StateId, tuple[int, int]] = {}
        for x, (n, held) in level.items():
            labels, ys, _ = moves[x]
            own = held + n * len(sep) if depth else 0
            for label, y in zip(labels, ys):
                m, more = nxt.get(y, (0, 0))
                nxt[y] = m + n, more + own + n * len(label)
        level, depth = nxt, depth + 1
        chars += sum(more for _, more in nxt.values())
        if chars > limit:
            raise SearchSpaceTooLarge(
                f"the names of the unfolding to depth {depth} would hold "
                f"more than {limit} characters, {NAME_CHARS_PER_GUARD} per "
                f"unit of COALG_GUARD={guard}")


def _unfold(functor: FunctorExpr, states: FiniteSet, root: StateId,
            step: Callable[[StateId], Move], max_len: int, sep: str,
            build: Callable[[Move, list[StateId]], FValue],
            collision: str) -> UnravelResult:
    """The tree of rooted paths, breadth-first in successor order.

    `step(x)` gives x's move; it is called once per reachable state.  A
    path is named by its parent's name, `sep` and its last label (`ε` for
    the root), so each name costs its own length once.  The tree is
    complete when no cycle is reachable (one counting walk decides it, and
    its counts give the tree's size, checked against the guard first);
    otherwise paths of length max_len stay open, and the tree's size is
    predicted, and checked against the guard, before a path is named.
    A long path has a long name, so before any is made the names are
    bounded by paths x longest path x (widest label + len(sep)); a bound
    past NAME_CHARS_PER_GUARD = 12 characters per unit of the guard (1.2 *
    10^8 by default) runs the exact prediction (`_name_chars`).  Each level
    is then named in one pass.  The walk gives the names, the projection and
    the frontier; the tree waits for the first read of the result's `tree`,
    which gives each closed path the value `build(move, kids)` from its
    state's move and its children's names.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    moves: dict[StateId, Move] = {}

    def successors(x: StateId):
        move = moves[x] = step(x)
        return zip(move[1], repeat(1))

    _, counts = _root_paths(root, successors)
    complete = counts is not None
    if complete:
        paths, longest = sum(counts.values()), len(counts)
        _within_guard(paths)
    else:
        paths = _tree_size(root, lambda x: zip(moves[x][1], repeat(1)),
                           max_len)
        longest = max_len
    widest = max(map(len, chain(*[m[0] for m in moves.values()])), default=0)
    guard = _guard()
    if paths * longest * (widest + len(sep)) > NAME_CHARS_PER_GUARD * guard:
        _name_chars(root, moves, complete, max_len, sep, guard)
    names, targets = ["ε"], [root]
    start, depth = 0, 0
    # the two lists grow in step behind the walk, a level at a time: a
    # breadth-first queue whose level [start:] is the open frontier at the
    # end.  One string per name: a `name + sep` prefix, freed at once,
    # leaves holes that a chain's longer names do not fit (half again the
    # names' size at the end of a long chain)
    while start < len(names) and (complete or depth < max_len):
        end = len(names)
        if end - start == 1:  # the root, or a level of a chain
            name, (labels, ys, _) = names[start], moves[targets[start]]
            names += [f"{name}{sep}{a}" for a in labels] if depth else labels
        else:
            level = [moves[x] for x in targets[start:end]]
            names += [f"{name}{sep}{a}" for name, (labels, _, _)
                      in zip(names[start:end], level) for a in labels]
            ys = [y for _, kids, _ in level for y in kids]
        targets += ys
        start, depth = end, depth + 1
    projected = dict(zip(names, targets))
    if len(projected) != len(names):
        raise ShapeError(collision)
    carrier = FiniteSet._trusted(projected)
    frontier = FiniteSet._trusted(dict.fromkeys(islice(names, start, None)))

    def grow() -> PointedCoalgebra:
        # the projection's dict lists the paths in the walk's order, and the
        # closed paths' children are the paths after the root: each closed
        # path's are the next len(labels) of them
        structure: dict[StateId, FValue] = {}
        kids = islice(projected, 1, None)
        for name, x in islice(projected.items(), start):
            move = moves[x]
            structure[name] = build(move, list(islice(kids, len(move[0]))))
        return PointedCoalgebra._trusted(functor, carrier, structure, "ε",
                                         frontier)

    return UnravelResult._deferred(
        grow, TotalMap._trusted(carrier, states, projected), complete,
        frontier)


def defined_inputs(d: PartialDFA, max_len: int) -> UnravelResult:
    """The coalgebra of words on which the run stays defined.

    Complete (all of P, ignoring max_len) iff no cycle is reachable from the
    initial state; otherwise truncated to length max_len, with every word of
    exactly that length left open.  Words are named by their letters, joined
    by `·` unless every letter is one character.  A word's value is its
    state's value with the transitions pointed at the word's children; the
    values are built when the result's `tree` is first read.
    """
    sep = "" if all(len(a) == 1 for a in d.alphabet) else "·"
    return _unfold(dfa_functor(d.alphabet), d.states, d.initial,
                   _dfa_step(d), max_len, sep, _dfa_values(d.alphabet),
                   "word names collide; rename the alphabet letters")


def rooted_paths(g: Multigraph, max_len: int) -> UnravelResult:
    """The Bag coalgebra of paths from the root, each successor with
    multiplicity 1; projection sends a path to its target vertex.

    Complete iff the root-reachable part is acyclic; otherwise truncated to
    max_len edges with the longest paths left open.  Paths are named by
    their edge ids joined by `·`.  The values are built when the result's
    `tree` is first read.
    """
    def step(v: StateId) -> Move:
        out = g.out_edges(v)
        return tuple([e.id for e in out]), tuple([e.tgt for e in out]), None

    return _unfold(Bag(), g.vertices, g.root, step, max_len, "·",
                   _path_value, "path names collide; rename the edge ids")
