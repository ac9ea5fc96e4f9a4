"""The DFA word tree and the multigraph path tree are one rooted-path
unfolding: each is checked against the tuple-keyed breadth-first walks it
replaced, kept here as the reference, on seeded random inputs; the size of
their names is bounded, and past the bound predicted exactly, level by
level from the paths to each state, before the first name is made, and
long chains unfold within a time budget."""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import Counter, deque

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


def forward_dfa(rng: random.Random, n: int, letters: tuple[str, ...],
                loop: bool) -> PartialDFA:
    """Each state defines one letter, leading one to three states ahead (as
    the benchmark's deep-chain DFAs do), so every level of the words holds
    one word; with `loop` a step past the last state wraps around, so the
    words run on to max_len."""
    delta = {}
    for i in range(n):
        j = i + rng.randint(1, 3)
        if j < n or loop:
            delta[(f"q{i}", rng.choice(letters))] = f"q{j % n}"
    return PartialDFA(FiniteSet(letters), FiniteSet(f"q{i}" for i in range(n)),
                      (f"q{i}" for i in range(n) if rng.random() < 0.25),
                      delta, "q0")


def chain_graph(rng: random.Random, n: int, loop: bool) -> Multigraph:
    """A path of n edges with ids of random widths; with `loop` one more
    edge leads from its end back to a vertex on it."""
    edges = [Edge("x" * rng.randrange(3) + f"e{i}", f"v{i}", f"v{i + 1}")
             for i in range(n)]
    if loop:
        edges.append(Edge("back", f"v{n}", f"v{rng.randint(0, n)}"))
    return Multigraph(FiniteSet(f"v{i}" for i in range(n + 1)),
                      tuple(edges), "v0")


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


def test_single_path_levels_match_the_reference():
    # forward DFAs and chains: each level holds one path; one-character
    # letters are joined by "", longer ones by `·`
    rng = random.Random(41)
    for _ in range(100):
        n, loop = rng.randint(1, 10), rng.random() < 0.5
        for max_len in (*MAX_LENS, 12):
            for letters in (("a", "b"), ("ab", "b")):
                check_dfa(forward_dfa(rng, n, letters, loop), max_len)
            check_graph(chain_graph(rng, n, loop), max_len)


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


def unfolding_reference(obj, max_len):
    """The reference walk of a DFA's words or a multigraph's paths: the
    paths, their names, the frontier, and the states the walk reaches with
    their out-labels."""
    if isinstance(obj, PartialDFA):
        def successors(q):
            return [(a, obj.delta[(q, a)]) for a in obj.alphabet
                    if (q, a) in obj.delta]
        root, size = obj.initial, len(obj.states)
        sep = "" if all(len(a) == 1 for a in obj.alphabet) else "·"
    else:
        def successors(v):
            return [(e.id, e.tgt) for e in obj.edges if e.src == v]
        root, size, sep = obj.root, len(obj.vertices), "·"
    paths, _, complete = reference_walk(root, size, successors, max_len)
    names = [sep.join(p) if p else "ε" for p in paths]
    frontier = [name for p, name in zip(paths, names)
                if not complete and len(p) == max_len]
    reached, queue = {root: None}, deque([root])
    while queue:
        for _, y in successors(queue.popleft()):
            if y not in reached:
                reached[y] = None
                queue.append(y)
    labels = [a for x in reached for a, _ in successors(x)]
    return paths, names, frontier, complete, sep, len(reached), labels


def exact_refusal(paths, names, limit, per_guard, guard):
    """The exact prediction: the characters of the names, summed level by
    level; the message of the first level that takes them past the limit,
    or None."""
    chars, by_depth = 1, Counter()
    for p, name in zip(paths[1:], names[1:]):
        by_depth[len(p)] += len(name)
    for depth in sorted(by_depth):
        chars += by_depth[depth]
        if chars > limit:
            return (f"the names of the unfolding to depth {depth} would hold "
                    f"more than {limit} characters, {per_guard} per unit of "
                    f"COALG_GUARD={guard}")
    return None


def counted_predictions(monkeypatch) -> list:
    """The calls of the exact name-size prediction from now on."""
    calls, exact = [], automata._name_chars
    monkeypatch.setattr(automata, "_name_chars",
                        lambda *args: calls.append(args) or exact(*args))
    return calls


def test_the_bound_leaves_the_exact_prediction_its_outcome(monkeypatch):
    # on each side of the bound paths x longest path x (widest label +
    # len(sep)), the names, the frontier and any refusal are what the exact
    # prediction alone gives; it runs only when the bound is past the limit
    calls = counted_predictions(monkeypatch)
    rng = random.Random(43)
    seen = Counter()
    for _ in range(60):
        n, loop = rng.randint(1, 8), rng.random() < 0.5
        for unfold, obj in (
                (defined_inputs, generators.random_dfa(rng)),
                (defined_inputs, with_letters(
                    generators.random_acyclic_dfa(rng),
                    {"a": "ab", "b": "b", "c": "x/y"})),
                (defined_inputs, forward_dfa(rng, n, ("a", "b"), loop)),
                (defined_inputs, forward_dfa(rng, n, ("ab", "b"), loop)),
                (rooted_paths, generators.random_multigraph(rng)),
                (rooted_paths, chain_graph(rng, n, loop))):
            for max_len in MAX_LENS:
                (paths, names, frontier, complete, sep, reached,
                 labels) = unfolding_reference(obj, max_len)
                longest = reached if complete else max_len
                bound = (len(paths) * longest
                         * (max(map(len, labels), default=0) + len(sep)))
                size = sum(map(len, names))
                limits = {size - 1, size, bound - 1, bound,
                          rng.randint(size, max(size, bound))}
                for limit in sorted(limits):
                    # guards of at least the paths pass the size guard
                    for per_guard in (1, 3):
                        guard = max(len(paths), limit // per_guard)
                        limit = per_guard * guard
                        monkeypatch.setenv("COALG_GUARD", str(guard))
                        monkeypatch.setattr(automata, "NAME_CHARS_PER_GUARD",
                                            per_guard)
                        calls.clear()
                        refusal = exact_refusal(paths, names, limit,
                                                per_guard, guard)
                        if refusal:
                            with pytest.raises(SearchSpaceTooLarge) as err:
                                unfold(obj, max_len)
                            assert str(err.value) == refusal
                        else:
                            result = unfold(obj, max_len)
                            assert list(result.projection.domain) == names
                            assert list(result.frontier) == frontier
                        assert len(calls) == (bound > limit)
                        seen[bound > limit, refusal is None] += 1
    # skipped, run and admitted, run and refused
    assert seen[False, True] >= 2000
    assert seen[True, True] >= 1500
    assert seen[True, False] >= 500
    assert not seen[False, False]


def test_the_exact_prediction_runs_only_past_the_bound(monkeypatch):
    # one-letter chains: 4,001 words of at most 4,000 letters are bounded
    # by 1.6 * 10^7 characters, within 1.2 * 10^8; 12,001 words are bounded
    # by 1.44 * 10^8, so their 7.2 * 10^7 characters are predicted exactly
    calls = counted_predictions(monkeypatch)
    monkeypatch.delenv("COALG_GUARD", raising=False)
    for n, runs in ((4000, 0), (12000, 1)):
        d = PartialDFA(FiniteSet(("a",)),
                       FiniteSet(f"q{i}" for i in range(n + 1)), (),
                       {(f"q{i}", "a"): f"q{i + 1}" for i in range(n)}, "q0")
        calls.clear()
        result = defined_inputs(d, 0)
        assert len(calls) == runs
        assert result.complete
        assert result.projection.domain[n] == "a" * n


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
