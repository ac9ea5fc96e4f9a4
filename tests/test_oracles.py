from __future__ import annotations

import random

import pytest

from coalg import (
    Bag,
    BagVal,
    FiniteSet,
    IdVal,
    Identity,
    NotAHomomorphism,
    PointedCoalgebra,
    Pow,
    SearchSpaceTooLarge,
    SetVal,
    ShapeError,
    TotalMap,
    bfs_reachable,
    canonical_graph,
    check_morphism,
    enumerate_homs,
    fmap,
    is_reachable,
    is_split_epi,
    is_tree,
    reachable_by_definition,
    tree_refute_by_definition,
    value_preimages,
)

from coalg import oracles

import generators
from conftest import FIXTURE_NAMES, load_fixture


def test_the_only_endomorphism_of_a_rigid_tree_is_the_identity(two_leaf_tree):
    homs = enumerate_homs(two_leaf_tree, two_leaf_tree)
    assert len(homs) == 1
    (h,) = list(homs)
    assert h.mapping() == {"p": "p", "q": "q", "r": "r"}


def test_the_fork_admits_the_leaf_swap():
    fork = load_fixture("fork_tree")
    homs = enumerate_homs(fork, fork)
    maps = sorted(tuple(sorted(h.mapping().items())) for h in homs)
    assert maps == [
        (("p", "p"), ("q", "q"), ("r", "r")),
        (("p", "p"), ("q", "r"), ("r", "q")),
    ]
    assert all(h.is_bijective() for h in homs)


def test_hom_sets_between_cycles(two_cycle, self_loop):
    assert len(enumerate_homs(two_cycle, self_loop)) == 1
    assert len(enumerate_homs(self_loop, two_cycle)) == 0


def test_enumerate_homs_requires_matching_functors(two_cycle, diamond_bag):
    with pytest.raises(ShapeError):
        enumerate_homs(two_cycle, diamond_bag)


def test_enumerate_homs_is_guarded(monkeypatch, two_cycle):
    monkeypatch.setenv("COALG_GUARD", "1")
    with pytest.raises(SearchSpaceTooLarge):
        enumerate_homs(two_cycle, two_cycle)


def test_collapsing_a_cycle_is_not_split_epi(two_cycle, self_loop):
    g = TotalMap(two_cycle.carrier, self_loop.carrier,
                 {"p0": "l", "p1": "l"})
    assert check_morphism(g, two_cycle, self_loop).ok
    assert not is_split_epi(g, two_cycle, self_loop)


def test_the_codiagonal_is_split_epi(two_tree_copies, two_leaf_tree):
    fold = TotalMap(two_tree_copies.carrier, two_leaf_tree.carrier,
                    {x: x.split(".", 1)[1] for x in two_tree_copies.carrier})
    assert is_split_epi(fold, two_tree_copies, two_leaf_tree)
    # the left injection is a section by hand
    inl = TotalMap(two_leaf_tree.carrier, two_tree_copies.carrier,
                   {x: f"left.{x}" for x in two_leaf_tree.carrier})
    assert check_morphism(inl, two_leaf_tree, two_tree_copies).ok
    for x in two_leaf_tree.carrier:
        assert fold[inl[x]] == x


def test_is_split_epi_rejects_non_homomorphisms(two_cycle):
    flip = TotalMap(two_cycle.carrier, two_cycle.carrier,
                    {"p0": "p0", "p1": "p0"})
    with pytest.raises(NotAHomomorphism):
        is_split_epi(flip, two_cycle, two_cycle)


def test_definitional_reachability_agrees_on_small_fixtures():
    for name in FIXTURE_NAMES:
        obj = load_fixture(name)
        if not isinstance(obj, PointedCoalgebra) or len(obj.carrier) > 5:
            continue
        assert reachable_by_definition(obj) == is_reachable(obj), name


def test_definitional_reachability_agrees_on_random_instances():
    rng = random.Random(79)
    for _ in range(80):
        c = generators.random_coalgebra(rng, max_states=4)
        assert reachable_by_definition(c) == is_reachable(c)


def test_refuter_search_agrees_with_the_level_decision():
    # heuristic equivalence: within the small search bound, a refuter
    # exists exactly when the coalgebra is unreachable or not a tree
    for name in FIXTURE_NAMES:
        c = load_fixture(name)
        if not isinstance(c, PointedCoalgebra) or len(c.carrier) > 4:
            continue
        found = tree_refute_by_definition(c, min(len(c.carrier) + 2, 6))
        assert is_tree(c) == (found is None and is_reachable(c)), name


def test_definitional_reachability_is_guarded(two_tree_copies):
    with pytest.raises(SearchSpaceTooLarge):
        reachable_by_definition(two_tree_copies)


def test_bfs_reachable_is_an_independent_graph_walk(two_tree_copies):
    g = canonical_graph(two_tree_copies)
    assert bfs_reachable(g).as_set() == {"left.p", "left.q", "left.r"}
    assert bfs_reachable(load_fixture("diamond")).as_set() == \
        {"r", "p", "q", "v"}


def test_sharing_is_refuted_by_a_small_tree(shared_leaf):
    found = tree_refute_by_definition(shared_leaf, 3)
    assert found is not None
    assert check_morphism(found.hom, found.source, shared_leaf).ok
    assert not is_split_epi(found.hom, found.source, shared_leaf)
    assert not is_tree(shared_leaf)


def test_a_genuine_tree_has_no_refuter(two_leaf_tree):
    assert tree_refute_by_definition(two_leaf_tree, 4) is None


def test_powerset_edges_are_refuted():
    pow_edge = load_fixture("pow_edge")
    found = tree_refute_by_definition(pow_edge, 3)
    assert found is not None
    assert check_morphism(found.hom, found.source, pow_edge).ok


def test_refuter_search_is_bounded():
    with pytest.raises(SearchSpaceTooLarge):
        tree_refute_by_definition(load_fixture("two_leaf_tree"), 7)


def test_refuter_search_needs_a_total_coalgebra():
    c = PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p", FiniteSet(("q",)))
    with pytest.raises(ShapeError):
        tree_refute_by_definition(c, 3)


def test_value_preimages_map_back_to_the_value():
    rng = random.Random(61)
    xs = FiniteSet(("x1", "x2", "x3"))
    ys = FiniteSet(("y1", "y2"))
    for _ in range(120):
        functor = generators.random_functor(rng, depth=2)
        h = {x: rng.choice(list(ys)) for x in xs}
        pre = {y: [x for x in xs if h[x] == y] for y in ys}
        value = generators.random_value(rng, functor, ys)
        candidates = value_preimages(functor, value, lambda y: pre[y])
        for cand in candidates:
            assert fmap(functor, h, cand) == value
        assert len(candidates) == len(set(candidates))


def test_value_preimage_counts_for_bags_and_sets():
    pre = {"y": ["x1", "x2"]}.__getitem__
    bags = value_preimages(Bag(), BagVal((("y", 2),)), pre)
    assert len(bags) == 3  # {x1,x1}, {x1,x2}, {x2,x2}
    assert BagVal((("x1", 1), ("x2", 1))) in bags
    sets = value_preimages(Pow(), SetVal(("y",)), pre)
    assert sorted(sets, key=repr) == sorted(
        [SetVal(("x1",)), SetVal(("x2",)), SetVal(("x1", "x2"))], key=repr)


def test_value_preimages_can_be_empty():
    pre = {"y": []}.__getitem__
    assert value_preimages(Identity(), IdVal("y"), pre) == []
    assert value_preimages(Bag(), BagVal((("y", 1),)), pre) == []


def test_found_refuters_really_are_counterexamples():
    rng = random.Random(67)
    checked = 0
    for _ in range(40):
        c = generators.random_coalgebra(rng, max_states=3, depth=1)
        if not c.is_total():
            continue
        found = tree_refute_by_definition(c, 3)
        if found is None:
            continue
        checked += 1
        assert check_morphism(found.hom, found.source, c).ok
        assert not is_split_epi(found.hom, found.source, c)
    assert checked


def test_maps_that_miss_the_point_are_dropped_without_changing_the_result(
        monkeypatch):
    # an image map whose targets miss a state that one of their values uses
    # leaves that value without a preimage, so dropping it first changes no
    # result: with nothing used, no map is dropped early, and with only the
    # point's value used, only the maps that miss one of its states are
    real = oracles.used_states
    rng = random.Random(71)
    compared = found = 0
    for _ in range(80):
        c = generators.random_coalgebra(rng, max_states=3, depth=1)
        if not c.is_total():
            continue
        result = tree_refute_by_definition(c, 3)
        point_value = c.structure[c.point]
        for used in (lambda f, value: FiniteSet(),
                     lambda f, value: (real(f, value) if value is point_value
                                       else FiniteSet())):
            with monkeypatch.context() as m:
                m.setattr(oracles, "used_states", used)
                assert tree_refute_by_definition(c, 3) == result
        compared += 1
        found += result is not None
    assert compared >= 40 and found >= 10


def test_a_fourteen_state_chain_has_no_refuter_up_to_size_six():
    # every image map misses a used state: the point needs all 14 of them
    states = [f"c{i}" for i in range(14)]
    structure = {x: BagVal([(y, 1)]) for x, y in zip(states, states[1:])}
    structure["c13"] = BagVal()
    c = PointedCoalgebra(Bag(), FiniteSet(states), structure, "c0")
    assert tree_refute_by_definition(c, 6) is None
