from __future__ import annotations

import math
import random

import pytest

from coalg import (
    BOTTOM,
    Edge,
    FiniteSet,
    Multigraph,
    PartialDFA,
    SearchSpaceTooLarge,
    ShapeError,
    check_morphism,
    copy_counts,
    defined_inputs,
    dfa_functor,
    dfa_to_coalgebra,
    is_acyclic,
    is_reachable,
    is_tree,
    multigraph_to_bag,
    reachable_subgraph,
    rooted_paths,
    tree_fingerprint,
    tree_unravelling,
)

from coalg.unravelling import _tree_size

import generators
from conftest import load_fixture
from graph_reference import delta_star, graph_is_tree, path_count


def chain() -> PartialDFA:
    return load_fixture("chain_dfa")


def test_dfa_validation_rejects_stray_transitions():
    with pytest.raises(ShapeError):
        PartialDFA(FiniteSet(("a",)), FiniteSet(("q0",)), frozenset(),
                   {("q0", "b"): "q0"}, "q0")
    with pytest.raises(ShapeError):
        PartialDFA(FiniteSet(("a",)), FiniteSet(("q0",)), frozenset({"q9"}),
                   {}, "q0")


def test_dfa_coalgebra_encodes_output_and_partial_transitions():
    c = dfa_to_coalgebra(chain())
    assert c.functor == dfa_functor(FiniteSet(("a",)))
    out, step = c.structure["q1"].items
    assert out.element == "1"  # q1 accepts
    assert step["a"].tag == 1 and step["a"].value.element == BOTTOM
    assert c.structure["q0"].items[1]["a"].value.member == "q1"


def test_delta_star_follows_defined_runs():
    d = chain()
    assert delta_star(d, ()) == "q0"
    assert delta_star(d, ("a",)) == "q1"
    assert delta_star(d, ("a", "a")) is None
    with pytest.raises(ShapeError):
        delta_star(d, ("z",))


def test_defined_inputs_of_the_chain():
    result = defined_inputs(chain(), 10)
    assert result.complete
    assert list(result.tree.carrier) == ["ε", "a"]
    assert result.projection.mapping() == {"ε": "q0", "a": "q1"}
    assert is_tree(result.tree)
    assert check_morphism(result.projection, result.tree,
                          dfa_to_coalgebra(chain())).ok


def test_defined_inputs_truncates_on_cycles():
    result = defined_inputs(load_fixture("loop_dfa"), 3)
    assert not result.complete
    assert list(result.tree.carrier) == ["ε", "a", "aa", "aaa"]
    assert result.tree.frontier.as_set() == {"aaa"}


def test_defined_inputs_ignores_the_cap_when_acyclic():
    result = defined_inputs(chain(), 1)
    assert result.complete
    assert list(result.tree.carrier) == ["ε", "a"]


def test_rooted_paths_of_the_diamond():
    g = load_fixture("diamond")
    result = rooted_paths(g, 10)
    assert result.complete
    assert len(result.tree.carrier) == 9
    assert copy_counts(result.projection) == {"r": 1, "p": 1, "q": 3, "v": 4}
    assert list(result.tree.carrier)[0] == "ε"
    assert result.projection["e_rp·e_pq1·e_qv"] == "v"
    assert is_tree(result.tree)


def test_rooted_paths_match_the_bag_unravelling():
    g = load_fixture("diamond")
    paths = rooted_paths(g, 10)
    generic = tree_unravelling(load_fixture("diamond_bag"))
    assert generic.complete
    assert tree_fingerprint(paths.tree) == tree_fingerprint(generic.tree)


def test_path_counts_on_the_diamond():
    g = load_fixture("diamond")
    assert path_count(g, "r") == 1
    assert path_count(g, "p") == 1
    assert path_count(g, "q") == 3
    assert path_count(g, "v") == 4


def test_path_count_is_infinite_inside_cycles():
    g = Multigraph(FiniteSet(("a", "b")),
                   (Edge("e1", "a", "b"), Edge("e2", "b", "a")), "a")
    assert path_count(g, "a") == math.inf
    assert path_count(g, "b") == math.inf


def test_path_count_is_zero_off_the_reachable_part():
    g = Multigraph(FiniteSet(("a", "b")), (), "a")
    assert path_count(g, "b") == 0
    # a cycle elsewhere does not leak into the reachable part
    g2 = Multigraph(FiniteSet(("a", "b")), (Edge("e1", "b", "b"),), "a")
    assert path_count(g2, "a") == 1
    assert path_count(g2, "b") == 0


def test_graph_is_tree():
    assert not graph_is_tree(load_fixture("diamond"))
    assert not graph_is_tree(load_fixture("double_edge_graph"))
    chain_graph = Multigraph(FiniteSet(("a", "b")),
                             (Edge("e1", "a", "b"),), "a")
    assert graph_is_tree(chain_graph)


def test_graph_is_tree_on_long_chains():
    n = 5000
    vertices = FiniteSet(f"v{i}" for i in range(n))
    edges = tuple(Edge(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1))
    assert graph_is_tree(Multigraph(vertices, edges, "v0"))
    # a second way into the last vertex, then an edge back into the root
    shared = edges + (Edge("x", "v0", f"v{n - 1}"),)
    assert not graph_is_tree(Multigraph(vertices, shared, "v0"))
    looped = edges + (Edge("x", f"v{n - 1}", "v0"),)
    assert not graph_is_tree(Multigraph(vertices, looped, "v0"))
    assert not graph_is_tree(Multigraph(vertices, edges[1:], "v0"))


def test_truncated_path_trees_open_the_deepest_level():
    g = Multigraph(FiniteSet(("a",)), (Edge("e", "a", "a"),), "a")
    result = rooted_paths(g, 2)
    assert not result.complete
    assert list(result.tree.carrier) == ["ε", "e", "e·e"]
    assert result.tree.frontier.as_set() == {"e·e"}


def test_rooted_path_projection_is_a_morphism():
    g = load_fixture("diamond")
    result = rooted_paths(g, 10)
    bag = multigraph_to_bag(g)
    assert check_morphism(result.projection, result.tree, bag).ok
    assert not result.projection.is_bijective()  # the diamond is not a tree
    chain_graph = Multigraph(FiniteSet(("a", "b")),
                             (Edge("e1", "a", "b"),), "a")
    chain_paths = rooted_paths(chain_graph, 5)
    assert chain_paths.projection.is_bijective()
    assert graph_is_tree(chain_graph)


def all_words(alphabet, upto):
    words = [()]
    for _ in range(upto):
        words = [w + (a,) for w in words for a in alphabet] + words
    return set(words)


def test_dfa_reachability_agrees_with_word_enumeration():
    rng = random.Random(73)
    dfas = [load_fixture("chain_dfa"), load_fixture("loop_dfa")]
    dfas += [generators.random_acyclic_dfa(rng) for _ in range(40)]
    for d in dfas:
        hit = set()
        for w in all_words(list(d.alphabet), len(d.states)):
            q = delta_star(d, w)
            if q is not None:
                hit.add(q)
        assert is_reachable(dfa_to_coalgebra(d)) == \
            (hit == d.states.as_set())


def test_random_acyclic_dfa_inputs_are_tree_unravellings():
    rng = random.Random(59)
    for _ in range(60):
        d = generators.random_acyclic_dfa(rng)
        c = dfa_to_coalgebra(d)
        result = defined_inputs(d, len(d.states) + 1)
        assert result.complete
        assert is_tree(result.tree)
        assert check_morphism(result.projection, result.tree, c).ok
        generic = tree_unravelling(c)
        assert tree_fingerprint(result.tree) == \
            tree_fingerprint(generic.tree)
        for w in result.tree.carrier:
            assert result.projection[w] is not None


def dfa_graph(d: PartialDFA) -> Multigraph:
    """The transition graph of a DFA, one edge per defined transition."""
    return Multigraph(d.states, tuple(Edge(str(k), q, q2) for k, ((q, _), q2)
                                      in enumerate(d.delta.items())),
                      d.initial)


def test_complete_flags_agree_with_the_reachable_graph():
    rng = random.Random(101)
    seen = set()
    for _ in range(300):
        for d in (generators.random_dfa(rng),
                  generators.random_acyclic_dfa(rng)):
            acyclic = is_acyclic(reachable_subgraph(dfa_graph(d)))
            assert defined_inputs(d, 3).complete is acyclic
            seen.add(("dfa", acyclic))
        g = generators.random_multigraph(rng)
        acyclic = is_acyclic(reachable_subgraph(g))
        assert rooted_paths(g, 3).complete is acyclic
        seen.add(("graph", acyclic))
    assert len(seen) == 4


def test_complete_unfoldings_are_guarded_by_their_size(monkeypatch):
    diamond = load_fixture("diamond")
    monkeypatch.setenv("COALG_GUARD", "1")
    with pytest.raises(SearchSpaceTooLarge, match="2 tree states"):
        defined_inputs(chain(), 10)
    # a truncated word tree is not a complete one
    assert not defined_inputs(load_fixture("loop_dfa"), 0).complete
    monkeypatch.setenv("COALG_GUARD", "8")
    with pytest.raises(SearchSpaceTooLarge, match="9 tree states"):
        rooted_paths(diamond, 10)
    monkeypatch.setenv("COALG_GUARD", "9")
    assert len(rooted_paths(diamond, 10).tree.carrier) == 9


def test_truncated_sizes_are_predicted_exactly():
    rng = random.Random(109)
    cyclic = {"dfa": 0, "graph": 0}
    for _ in range(100):
        d = generators.random_dfa(rng)
        letters = lambda q: [(d.delta[(q, a)], 1) for a in d.alphabet
                             if (q, a) in d.delta]
        g = generators.random_multigraph(rng)
        edges = lambda v: [(e.tgt, 1) for e in g.edges if e.src == v]
        for kind, unfold, obj, root, succ in (
                ("dfa", defined_inputs, d, d.initial, letters),
                ("graph", rooted_paths, g, g.root, edges)):
            if unfold(obj, 0).complete:
                continue
            cyclic[kind] += 1
            for max_len in range(6):
                size = len(unfold(obj, max_len).tree.carrier)
                assert _tree_size(root, succ, max_len) == size
    assert min(cyclic.values()) >= 40


def test_truncated_unfoldings_are_guarded_by_their_prediction(monkeypatch):
    # one looping letter: 6 words up to length 5
    monkeypatch.setenv("COALG_GUARD", "5")
    with pytest.raises(SearchSpaceTooLarge, match="depth 5"):
        defined_inputs(load_fixture("loop_dfa"), 5)
    monkeypatch.setenv("COALG_GUARD", "6")
    assert len(defined_inputs(load_fixture("loop_dfa"), 5).tree.carrier) == 6
    loop = Multigraph(FiniteSet(("p",)), (Edge("e1", "p", "p"),
                                          Edge("e2", "p", "p")), "p")
    # 1 + 2 + 4 paths up to length 2
    with pytest.raises(SearchSpaceTooLarge, match="depth 2"):
        rooted_paths(loop, 2)
    monkeypatch.setenv("COALG_GUARD", "7")
    assert len(rooted_paths(loop, 2).tree.carrier) == 7
