from __future__ import annotations

import random

import pytest

from coalg import (
    BOTTOM,
    Bag,
    BagVal,
    ConstVal,
    CoalgebraError,
    Edge,
    FiniteSet,
    IdVal,
    Identity,
    Multigraph,
    PointedCoalgebra,
    ShapeError,
    TagVal,
    TotalMap,
    TupleVal,
    bfs_reachable,
    canonical_graph,
    check_morphism,
    coproduct,
    is_acyclic,
    multigraph_to_bag,
    parse_functor,
    reachable_subgraph,
    used_states,
)

import generators
from conftest import load_fixture


def test_point_must_be_a_state():
    with pytest.raises(CoalgebraError):
        PointedCoalgebra(Identity(), FiniteSet(("p",)), {"p": IdVal("p")}, "q")


def test_structure_must_cover_exactly_the_closed_states():
    with pytest.raises(CoalgebraError):
        PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p")
    c = PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p", FiniteSet(("q",)))
    assert not c.is_total()


def test_structure_values_are_shape_checked():
    f = parse_functor("Id x Id + 1")
    with pytest.raises(ShapeError):
        PointedCoalgebra(f, FiniteSet(("p",)), {"p": IdVal("p")}, "p")
    with pytest.raises(ShapeError):
        PointedCoalgebra(f, FiniteSet(("p",)),
                         {"p": TagVal(0, TupleVal((IdVal("p"), IdVal("zz"))))},
                         "p")


def test_identity_is_a_morphism(diamond_bag):
    h = TotalMap.identity(diamond_bag.carrier)
    assert check_morphism(h, diamond_bag, diamond_bag).ok


def test_collapse_of_the_two_cycle_is_a_morphism(two_cycle, self_loop):
    h = TotalMap(two_cycle.carrier, self_loop.carrier,
                 {"p0": "l", "p1": "l"})
    report = check_morphism(h, two_cycle, self_loop)
    assert report.ok and report.point_ok


def test_morphism_failures_name_the_offending_state(two_cycle):
    flip = TotalMap(two_cycle.carrier, two_cycle.carrier,
                    {"p0": "p0", "p1": "p0"})
    report = check_morphism(flip, two_cycle, two_cycle)
    assert not report.ok
    assert {x for x, _, _ in report.failures} <= {"p0", "p1"}
    assert report.failures


def test_morphism_check_skips_open_source_states():
    c = PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p", FiniteSet(("q",)))
    d = load_fixture("self_loop")
    h = TotalMap(c.carrier, d.carrier, {"p": "l", "q": "l"})
    report = check_morphism(h, c, d)
    assert report.ok
    assert "q" in report.skipped


def test_morphism_check_rejects_functor_mismatch(two_cycle, diamond_bag):
    h = TotalMap(two_cycle.carrier, diamond_bag.carrier,
                 {"p0": "r", "p1": "r"})
    with pytest.raises(ShapeError):
        check_morphism(h, two_cycle, diamond_bag)


def test_coproduct_injections_are_morphisms(two_leaf_tree):
    both = coproduct(two_leaf_tree, two_leaf_tree)
    assert both.point == "left.p"
    inl = TotalMap(two_leaf_tree.carrier, both.carrier,
                   {x: f"left.{x}" for x in two_leaf_tree.carrier})
    assert check_morphism(inl, two_leaf_tree, both).ok
    inr_map = {x: f"right.{x}" for x in two_leaf_tree.carrier}
    inr = TotalMap(two_leaf_tree.carrier, both.carrier, inr_map)
    report = check_morphism(inr, two_leaf_tree, both)
    assert not report.point_ok  # right copy does not contain the point
    assert not report.failures


def test_morphisms_compose(two_leaf_tree, two_tree_copies):
    inl = TotalMap(two_leaf_tree.carrier, two_tree_copies.carrier,
                   {x: f"left.{x}" for x in two_leaf_tree.carrier})
    fold = TotalMap(two_tree_copies.carrier, two_leaf_tree.carrier,
                    {x: x.split(".", 1)[1] for x in two_tree_copies.carrier})
    assert check_morphism(inl, two_leaf_tree, two_tree_copies).ok
    assert check_morphism(fold, two_tree_copies, two_leaf_tree).ok
    composite = TotalMap(two_leaf_tree.carrier, two_leaf_tree.carrier,
                         {x: fold[inl[x]] for x in two_leaf_tree.carrier})
    assert check_morphism(composite, two_leaf_tree, two_leaf_tree).ok


def test_canonical_graph_deduplicates_parallel_edges(diamond_bag):
    g = canonical_graph(diamond_bag)
    pairs = sorted((e.src, e.tgt) for e in g.edges)
    assert pairs == [("p", "q"), ("p", "v"), ("q", "v"), ("r", "p"),
                     ("r", "q")]
    assert g.root == "r"


def test_canonical_graph_gives_open_states_no_edges():
    c = PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p", FiniteSet(("q",)))
    g = canonical_graph(c)
    assert all(e.src != "q" for e in g.edges)


def test_multigraph_to_bag_matches_the_hand_written_coalgebra(diamond_bag):
    assert multigraph_to_bag(load_fixture("diamond")) == diamond_bag


def bag_edges(c: PointedCoalgebra) -> list[tuple[str, str]]:
    """The (source, target) pairs of a Bag coalgebra, one per unit of
    multiplicity, sorted."""
    return sorted((u, v) for u in c.carrier
                  for v, n in c.structure[u].entries for _ in range(n))


def test_bag_round_trip_preserves_edge_multiplicities():
    g = load_fixture("diamond")
    c = multigraph_to_bag(g)
    assert c.carrier.as_set() == g.vertices.as_set()
    assert bag_edges(c) == sorted((e.src, e.tgt) for e in g.edges)


def test_multigraph_edge_ids_are_non_empty_strings():
    vertices = FiniteSet(("r", "p"))
    with pytest.raises(ShapeError, match="non-empty strings"):
        Multigraph(vertices, (Edge("", "r", "p"),), "r")
    with pytest.raises(ShapeError, match="duplicate edge id"):
        Multigraph(vertices, (Edge("e", "r", "p"), Edge("e", "p", "r")), "r")


def test_reachable_vertices_in_discovery_order():
    g = load_fixture("diamond")
    assert list(reachable_subgraph(g).vertices) == list(bfs_reachable(g)) \
        == ["r", "p", "q", "v"]


def test_reachable_subgraph_drops_unreached_parts():
    g = Multigraph(FiniteSet(("a", "b", "c")),
                   (Edge("e1", "a", "b"), Edge("e2", "c", "a")), "a")
    sub = reachable_subgraph(g)
    assert sub.vertices.as_set() == {"a", "b"}
    assert [e.id for e in sub.edges] == ["e1"]


def test_acyclicity_checks():
    assert is_acyclic(load_fixture("diamond"))
    two = canonical_graph(load_fixture("two_cycle"))
    assert not is_acyclic(two)


def test_random_bag_round_trips():
    rng = random.Random(31)
    for _ in range(100):
        g = generators.random_multigraph(rng)
        c = multigraph_to_bag(g)
        assert c.carrier == g.vertices and c.point == g.root
        assert bag_edges(c) == sorted((e.src, e.tgt) for e in g.edges)


def test_bag_of_a_multigraph_is_the_checked_bag_of_its_out_edges():
    # parallel edges merge as the checked constructor merges them: at the
    # first edge to each target, with the multiplicities summed
    rng = random.Random(41)
    parallel = 0
    for _ in range(300):
        g = generators.random_multigraph(rng, max_vertices=5, max_edges=16)
        c = multigraph_to_bag(g)
        for u in g.vertices:
            checked = BagVal((e.tgt, 1) for e in g.out_edges(u))
            assert c.structure[u].entries == checked.entries
            parallel += len(checked.entries) < len(g.out_edges(u))
        assert list(c.structure) == list(g.vertices)
        assert c == PointedCoalgebra(
            Bag(), g.vertices,
            {u: BagVal((e.tgt, 1) for e in g.out_edges(u))
             for u in g.vertices}, g.root)
    assert parallel > 100


def test_canonical_graph_edges_are_exactly_the_used_states():
    rng = random.Random(37)
    for _ in range(100):
        c = generators.random_coalgebra(rng, open_states=True)
        g = canonical_graph(c)
        expected = {(x, y)
                    for x in c.carrier if x not in c.frontier
                    for y in used_states(c.functor, c.structure[x])}
        assert {(e.src, e.tgt) for e in g.edges} == expected
