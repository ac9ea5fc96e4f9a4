"""The DFA word tree and the multigraph path tree are one rooted-path
unfolding: each is checked against the tuple-keyed breadth-first walks it
replaced, kept here as the reference, on seeded random inputs; the size of
their names is predicted exactly, level by level from the paths to each
state, before the first name is made, and long chains unfold within a
time budget."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import deque

import pytest

from coalg import (
    BOTTOM,
    BagVal,
    ConstVal,
    Edge,
    FiniteSet,
    FunVal,
    IdVal,
    Multigraph,
    PartialDFA,
    SearchSpaceTooLarge,
    ShapeError,
    TagVal,
    TupleVal,
    defined_inputs,
    rooted_paths,
)

from coalg import automata

import generators

MAX_LENS = (0, 1, 3)


def reference_walk(root, size, successors, max_len):
    """The old walk: every path is a tuple of labels and a dict key.
    Complete iff no path has `size` edges, i.e. no cycle is reachable."""
    level = {root}
    for _ in range(size):
        level = {y for x in level for _, y in successors(x)}
    complete = not level
    paths = [()]
    target = {(): root}
    queue = deque([()])
    while queue:
        p = queue.popleft()
        if not complete and len(p) >= max_len:
            continue
        for label, y in successors(target[p]):
            paths.append(p + (label,))
            target[p + (label,)] = y
            queue.append(p + (label,))
    return paths, target, complete


def check(result, paths, target, complete, max_len, sep, value):
    names = {p: sep.join(p) if p else "ε" for p in paths}
    frontier = [names[p] for p in paths
                if not complete and len(p) == max_len]
    assert result.complete == complete
    assert list(result.tree.carrier) == [names[p] for p in paths]
    assert list(result.tree.frontier) == frontier
    assert list(result.frontier) == frontier
    assert result.tree.point == "ε"
    assert result.projection.mapping() == {names[p]: target[p]
                                           for p in paths}
    closed = [p for p in paths if names[p] not in frontier]
    assert list(result.tree.structure) == [names[p] for p in closed]
    for p in closed:
        assert result.tree.structure[names[p]] == value(p, names)


def check_dfa(d: PartialDFA, max_len: int) -> None:
    def successors(q):
        return [(a, d.delta[(q, a)]) for a in d.alphabet
                if (q, a) in d.delta]

    def value(w, names):
        q = target[w]
        entries = [(a, TagVal(0, IdVal(names[w + (a,)])) if (q, a) in d.delta
                    else TagVal(1, ConstVal(BOTTOM))) for a in d.alphabet]
        return TupleVal((ConstVal("1" if q in d.accepting else "0"),
                         FunVal(entries)))

    words, target, complete = reference_walk(d.initial, len(d.states),
                                             successors, max_len)
    sep = "" if all(len(a) == 1 for a in d.alphabet) else "·"
    check(defined_inputs(d, max_len), words, target, complete, max_len, sep,
          value)


def check_graph(g: Multigraph, max_len: int) -> None:
    def successors(v):
        return [(e.id, e.tgt) for e in g.edges if e.src == v]

    def value(p, names):
        return BagVal((names[p + (e,)], 1) for e, _ in successors(target[p]))

    paths, target, complete = reference_walk(g.root, len(g.vertices),
                                             successors, max_len)
    check(rooted_paths(g, max_len), paths, target, complete, max_len, "·",
          value)


def with_letters(d: PartialDFA, letters: dict[str, str]) -> PartialDFA:
    """d with every letter renamed."""
    return PartialDFA(FiniteSet(letters[a] for a in d.alphabet), d.states,
                      d.accepting,
                      {(q, letters[a]): q2 for (q, a), q2 in d.delta.items()},
                      d.initial)


def test_cyclic_dfa_words_match_the_reference():
    rng = random.Random(17)
    for _ in range(150):
        d = generators.random_dfa(rng, max_states=5, max_letters=3)
        for max_len in MAX_LENS:
            check_dfa(d, max_len)


def test_acyclic_dfa_words_match_the_reference():
    rng = random.Random(19)
    for _ in range(150):
        d = generators.random_acyclic_dfa(rng)
        for max_len in MAX_LENS:
            check_dfa(d, max_len)


def test_multi_character_letters_are_joined_by_dots():
    rng = random.Random(23)
    letters = {"a": "ab", "b": "b", "c": "x/y"}
    for _ in range(150):
        make = rng.choice((generators.random_dfa,
                           generators.random_acyclic_dfa))
        d = with_letters(make(rng), letters)
        for max_len in MAX_LENS:
            check_dfa(d, max_len)


def test_multigraph_paths_match_the_reference():
    rng = random.Random(29)
    for _ in range(200):
        g = generators.random_multigraph(rng, max_vertices=5)
        for max_len in MAX_LENS:
            check_graph(g, max_len)


def test_colliding_names_are_shape_errors():
    d = PartialDFA(FiniteSet(("a", "a·a")), FiniteSet(("q",)), frozenset(),
                   {("q", "a"): "q", ("q", "a·a"): "q"}, "q")
    with pytest.raises(ShapeError, match="word names collide"):
        defined_inputs(d, 2)
    g = Multigraph(FiniteSet(("v",)),
                   (Edge("e", "v", "v"), Edge("e·e", "v", "v")), "v")
    with pytest.raises(ShapeError, match="path names collide"):
        rooted_paths(g, 2)


def test_name_sizes_are_predicted_exactly(monkeypatch):
    # with one character per unit of the guard, a guard of exactly the
    # names' length passes and one less is refused by the name guard
    monkeypatch.setattr(automata, "NAME_CHARS_PER_GUARD", 1)
    rng = random.Random(37)
    letters = {"a": "ab", "b": "b", "c": "x/y"}
    refused = 0
    for _ in range(100):
        for unfold, obj in (
                (defined_inputs, generators.random_dfa(rng)),
                (defined_inputs, with_letters(
                    generators.random_acyclic_dfa(rng), letters)),
                (rooted_paths, generators.random_multigraph(rng))):
            for max_len in MAX_LENS:
                monkeypatch.delenv("COALG_GUARD", raising=False)
                names = unfold(obj, max_len).projection.domain
                size = sum(map(len, names))
                monkeypatch.setenv("COALG_GUARD", str(size))
                assert unfold(obj, max_len).projection.domain == names
                if len(names) < size and len(names) > 1:
                    monkeypatch.setenv("COALG_GUARD", str(size - 1))
                    with pytest.raises(SearchSpaceTooLarge,
                                       match="names of the unfolding"):
                        unfold(obj, max_len)
                    refused += 1
    assert refused >= 300


def chain_ids(n: int) -> list[str]:
    """n distinct two-character ids, so the path names of a chain (which
    hold n²/2 labels in all) stay small in memory."""
    chars = [chr(c) for c in range(33, 127)]
    return [a + b for a in chars for b in chars][:n]


@pytest.mark.parametrize("kind", ["words", "paths"])
def test_long_chains_unfold_within_budget(kind):
    n = 8000
    states = FiniteSet(f"q{i}" for i in range(n + 1))
    if kind == "words":
        d = PartialDFA(FiniteSet(("a",)), states, frozenset(),
                       {(f"q{i}", "a"): f"q{i + 1}" for i in range(n)}, "q0")
        start = time.perf_counter()
        result = defined_inputs(d, 0)
    else:
        ids = chain_ids(n)
        g = Multigraph(states, tuple(Edge(ids[i], f"q{i}", f"q{i + 1}")
                                     for i in range(n)), "q0")
        start = time.perf_counter()
        result = rooted_paths(g, 0)
    assert time.perf_counter() - start < 1.5
    assert result.complete
    assert len(result.tree.carrier) == n + 1
    assert result.projection[result.tree.carrier[n]] == f"q{n}"


@pytest.mark.parametrize("kind", ["words", "paths"])
def test_names_past_the_guard_are_refused_before_any_is_made(kind):
    # the 20,000-step chains of the CLI tests: their names would hold about
    # 6 * 10^8 (words joined by `·`) and 1.2 * 10^9 characters (paths), so
    # the prediction refuses them before the first name, in little memory
    n = 20000
    if kind == "words":
        obj = PartialDFA(FiniteSet(("ab",)),
                         FiniteSet(f"q{i}" for i in range(n + 1)), (),
                         {(f"q{i}", "ab"): f"q{i + 1}" for i in range(n)},
                         "q0")
        unfold = defined_inputs
    else:
        obj = Multigraph(FiniteSet(f"v{i}" for i in range(n + 1)),
                         tuple(Edge(f"e{i}", f"v{i}", f"v{i + 1}")
                               for i in range(n)), "v0")
        unfold = rooted_paths
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceTooLarge,
                           match="^the names of the unfolding to depth "):
            unfold(obj, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
