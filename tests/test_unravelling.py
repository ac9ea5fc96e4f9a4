from __future__ import annotations

import random

import pytest

from coalg import (
    Bag,
    BagVal,
    FMap,
    FiniteSet,
    IdVal,
    Identity,
    PointedCoalgebra,
    PowNotPrecise,
    SearchSpaceTooLarge,
    ShapeError,
    TotalMap,
    canonical_graph,
    check_morphism,
    copy_counts,
    enumerate_homs,
    fmap,
    fresh_namer,
    is_acyclic,
    is_reachable,
    is_tree,
    parse_functor,
    parse_spec,
    multigraph_to_bag,
    precise_factorize,
    reachable_subgraph,
    tree_check,
    tree_fingerprint,
    tree_levels,
    tree_unravelling,
    unravel,
)
from coalg.unravelling import _tree_size

import generators
from conftest import load_fixture
from graph_reference import path_count


def test_tree_level_sizes_of_the_diamond(diamond_bag):
    tl = tree_levels(diamond_bag, 10)
    assert [len(level) for level in tl.levels] == [1, 2, 4, 2, 0]
    assert not tl.truncated


def test_diamond_unravelling_copy_counts(diamond_bag):
    result = unravel(diamond_bag, 4)
    assert result.complete
    assert len(result.tree.carrier) == 9
    assert copy_counts(result.projection) == {"r": 1, "p": 1, "q": 3, "v": 4}


def test_diamond_needs_depth_four_to_complete(diamond_bag):
    assert not unravel(diamond_bag, 3).complete
    assert unravel(diamond_bag, 4).complete


def test_unravelling_projection_is_a_morphism(diamond_bag):
    result = unravel(diamond_bag, 4)
    assert check_morphism(result.projection, result.tree, diamond_bag).ok
    assert is_tree(result.tree)


def test_truncated_unravelling_opens_the_whole_deepest_level(two_cycle):
    result = tree_unravelling(two_cycle)
    assert not result.complete
    # default truncation depth for a cyclic input is 3 * |carrier|
    assert list(result.tree.carrier) == \
        ["0:p0", "1:p1", "2:p0", "3:p1", "4:p0", "5:p1", "6:p0"]
    assert list(result.frontier) == ["6:p0"]
    assert result.tree.frontier.as_set() == {"6:p0"}
    assert check_morphism(result.projection, result.tree, two_cycle).ok


def test_acyclic_inputs_unravel_completely_by_default(diamond_bag):
    result = tree_unravelling(diamond_bag)
    assert result.complete
    assert len(result.frontier) == 0


def test_already_a_tree_unravels_to_itself(two_leaf_tree):
    result = tree_unravelling(two_leaf_tree)
    assert result.complete
    assert result.projection.is_bijective()
    assert tree_fingerprint(result.tree) == tree_fingerprint(two_leaf_tree)


def test_tree_verdicts_on_the_fixture_zoo():
    expected = {
        "two_leaf_tree": True,
        "shared_leaf": False,
        "two_tree_copies": False,
        "two_cycle": False,
        "self_loop": False,
        "fork_tree": True,
        "double_edge": False,
        "pow_edge": False,
        "pow_empty": True,
        "signature_cycle": False,
        "singleton_bottom": True,
        "diamond_bag": False,
    }
    for name, verdict in expected.items():
        assert is_tree(load_fixture(name)) is verdict, name


def test_sharing_diagnostic(shared_leaf):
    report = tree_check(shared_leaf)
    assert not report.ok
    assert report.reason == "sharing"
    assert report.detail == "coproduct of levels has 3 states, carrier has 2"


def test_cycle_diagnostic():
    report = tree_check(load_fixture("signature_cycle"))
    assert report.reason == "cycle"
    assert report.detail == "levels non-empty past bound"
    assert tree_check(load_fixture("self_loop")).reason == "cycle"


def test_unreached_states_diagnostic(two_tree_copies):
    report = tree_check(two_tree_copies)
    assert report.reason == "not-reachable"
    assert report.detail == "states never reached: right.p, right.q, right.r"


def test_powerset_edge_diagnostic():
    report = tree_check(load_fixture("pow_edge"))
    assert report.reason == "powerset-degenerate"


def test_open_states_cannot_be_unravelled():
    c = PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p", FiniteSet(("q",)))
    with pytest.raises(ShapeError):
        tree_levels(c, 3)
    with pytest.raises(ShapeError):
        tree_check(c)


def test_unravelling_a_shared_leaf_gives_the_two_leaf_tree(shared_leaf,
                                                           two_leaf_tree):
    result = tree_unravelling(shared_leaf)
    assert result.complete
    assert tree_fingerprint(result.tree) == tree_fingerprint(two_leaf_tree)


def test_fingerprints_separate_different_trees(two_leaf_tree):
    fork = load_fixture("fork_tree")
    assert tree_fingerprint(fork) != tree_fingerprint(two_leaf_tree)


def test_fingerprint_of_a_truncated_tree_marks_open_leaves(two_cycle):
    result = tree_unravelling(two_cycle)
    assert "?" in tree_fingerprint(result.tree)


def test_fingerprint_refuses_cycles(two_cycle):
    with pytest.raises(ShapeError):
        tree_fingerprint(two_cycle)


def test_fingerprints_of_long_chains_need_no_recursion():
    n = 5000
    states = [f"c{i}" for i in range(n)]
    structure = {x: BagVal(((y, 1),)) for x, y in zip(states, states[1:])}
    structure[states[-1]] = BagVal()
    chain = PointedCoalgebra(Bag(), FiniteSet(states), structure, "c0")
    expected = "[]"
    for _ in range(n - 1):
        expected = f"[{expected}*1]"
    assert tree_fingerprint(chain) == expected
    structure[states[-1]] = BagVal((("c0", 1),))
    loop = PointedCoalgebra(Bag(), FiniteSet(states), structure, "c0")
    with pytest.raises(ShapeError, match="cyclic"):
        tree_fingerprint(loop)


def test_complete_unravellings_are_unique_up_to_iso(shared_leaf):
    a = unravel(shared_leaf, 4).tree
    b = tree_unravelling(shared_leaf).tree
    homs = enumerate_homs(a, b)
    assert len(homs) >= 1
    assert all(h.is_bijective() for h in homs)


def test_copy_counts_equal_path_counts_on_acyclic_graphs():
    rng = random.Random(71)
    checked = 0
    for _ in range(120):
        g = generators.random_multigraph(rng, max_vertices=6, max_edges=9)
        if not is_acyclic(reachable_subgraph(g)):
            continue
        checked += 1
        result = tree_unravelling(multigraph_to_bag(g))
        assert result.complete
        counts = copy_counts(result.projection)
        for v in g.vertices:
            assert counts.get(v, 0) == path_count(g, v), v
    assert checked > 20


def test_trees_are_reachable():
    rng = random.Random(47)
    seen_trees = 0
    for _ in range(200):
        c = generators.random_coalgebra(rng, max_states=5)
        if is_tree(c):
            seen_trees += 1
            assert is_reachable(c)
    for name in ("two_leaf_tree", "fork_tree", "pow_empty",
                 "singleton_bottom"):
        assert is_reachable(load_fixture(name))
    assert seen_trees  # the generator does hit trees now and then


def test_shallow_unravellings_are_trees_when_complete():
    rng = random.Random(53)
    completes = 0
    for _ in range(100):
        c = generators.random_coalgebra(rng, max_states=6, pow_free=True)
        result = unravel(c, 3)
        assert check_morphism(result.projection, result.tree, c).ok
        if result.complete:
            completes += 1
            assert is_tree(result.tree)
            assert len(result.frontier) == 0
        else:
            assert result.tree.frontier.as_set() == set(result.frontier)
    assert completes


def test_tree_check_does_not_expand_bag_multiplicities():
    loop = parse_spec("functor: Bag\nstates: r\npoint: r\nr = [r*1000000000]\n")
    assert tree_check(loop).reason == "cycle"
    sets = parse_spec("functor: Bag . Pow\nstates: r\npoint: r\n"
                      "r = [{|r|}*1000000000]\n")
    assert tree_check(sets).reason == "powerset-degenerate"


def level_construction_check(c: PointedCoalgebra):
    """The tree decision as the level construction gives it: the powerset
    and cycle checks on the reachable canonical graph, then every tree level
    built and the projection from their coproduct checked for surjectivity
    and injectivity."""
    graph = reachable_subgraph(canonical_graph(c))
    for x in graph.vertices:
        if not c.functor.precise([c.structure[x]])[0]:
            return (False, "powerset-degenerate",
                    f"state {x} carries a non-empty powerset value")
    if not is_acyclic(graph):
        return False, "cycle", "levels non-empty past bound"
    proj = tree_levels(c, len(c.carrier) + 1).projection()
    if not proj.is_surjective():
        image = proj.image().as_set()
        missing = [x for x in c.carrier if x not in image]
        return (False, "not-reachable",
                f"states never reached: {', '.join(missing)}")
    if not proj.is_injective():
        return (False, "sharing",
                f"coproduct of levels has {len(proj.domain)} states, "
                f"carrier has {len(c.carrier)}")
    return True, None, None


def test_counting_walk_agrees_with_the_level_construction():
    rng = random.Random(89)
    for _ in range(2000):
        c = generators.random_coalgebra(rng)
        report = tree_check(c)
        assert (report.ok, report.reason, report.detail) == \
            level_construction_check(c)


def test_counting_walk_agrees_on_shared_dags():
    rng = random.Random(97)
    reasons = []
    for _ in range(600):
        c = generators.random_shared_dag(rng)
        report = tree_check(c)
        assert (report.ok, report.reason, report.detail) == \
            level_construction_check(c)
        reasons.append(report.reason)
    assert reasons.count("sharing") >= 200
    assert {"powerset-degenerate", "cycle", "not-reachable",
            None} <= set(reasons)


def test_sharing_counts_every_weighted_root_path():
    n = 41
    states = [f"v{i}" for i in range(n)]
    structure = {x: BagVal(((y, 2),)) for x, y in zip(states, states[1:])}
    structure[states[-1]] = BagVal()
    chain = PointedCoalgebra(Bag(), FiniteSet(states), structure, "v0")
    report = tree_check(chain)
    assert report.reason == "sharing"
    assert report.detail == (f"coproduct of levels has {2 ** n - 1} states, "
                             f"carrier has {n}")
    with pytest.raises(SearchSpaceTooLarge):
        tree_unravelling(chain)


def test_complete_unravellings_are_guarded_by_their_size(monkeypatch,
                                                         diamond_bag):
    monkeypatch.setenv("COALG_GUARD", "8")
    with pytest.raises(SearchSpaceTooLarge, match="9 tree states"):
        tree_unravelling(diamond_bag)
    monkeypatch.setenv("COALG_GUARD", "9")
    assert len(tree_unravelling(diamond_bag).tree.carrier) == 9
    # a truncated unravelling of a cyclic input is guarded by its
    # predicted size too: depth 6 on the 2-cycle gives 7 states
    monkeypatch.setenv("COALG_GUARD", "6")
    with pytest.raises(SearchSpaceTooLarge, match="depth 6"):
        tree_unravelling(load_fixture("two_cycle"))
    monkeypatch.setenv("COALG_GUARD", "7")
    result = tree_unravelling(load_fixture("two_cycle"))
    assert not result.complete and len(result.tree.carrier) == 7


def factor_then_rename(c: PointedCoalgebra, max_depth: int):
    """The tree levels built in two passes per level: a precise
    factorization with its default names, then every middle element
    renamed `<k>:<projected state>` and every value rebuilt by fmap."""
    alloc = fresh_namer()
    root = alloc(f"0:{c.point}")
    levels = [FiniteSet((root,))]
    projections = [TotalMap(levels[0], c.carrier, {root: c.point})]
    step_maps = []
    while len(levels[-1]) > 0 and len(step_maps) < max_depth:
        cur, h = levels[-1], projections[-1]
        f = FMap(cur, c.carrier, c.functor,
                 {x: c.structure[h[x]] for x in cur})
        middle, p, hm = precise_factorize(f).parts()
        depth = len(step_maps) + 1
        ren = {r: alloc(f"{depth}:{hm[r]}") for r in middle}
        nxt = FiniteSet(ren.values())
        levels.append(nxt)
        projections.append(TotalMap(nxt, c.carrier,
                                    {ren[r]: hm[r] for r in middle}))
        step_maps.append(FMap(cur, nxt, c.functor,
                              {x: fmap(c.functor, ren, p.value(x))
                               for x in cur}))
    return levels, step_maps, projections, len(levels[-1]) > 0


NAMING_FUNCTORS = ("Bag", "Bag . (Id x 2)", "(Id + 1)^{a,b}",
                   "(Bag + Id x 2)^{a,b}", "Id x Id + Bag + 1")


def test_one_pass_naming_matches_factor_then_rename():
    rng = random.Random(101)
    for i in range(150):
        functor = parse_functor(NAMING_FUNCTORS[i % len(NAMING_FUNCTORS)])
        carrier = FiniteSet(f"s{k}" for k in range(rng.randint(1, 6)))
        structure = {x: generators.random_value(rng, functor, carrier)
                     for x in carrier}
        c = PointedCoalgebra(functor, carrier, structure, "s0")
        for depth in range(5):
            tl = tree_levels(c, depth)
            levels, step_maps, projections, truncated = \
                factor_then_rename(c, depth)
            assert list(tl.levels) == levels
            assert list(tl.projections) == projections
            assert list(tl.step_maps) == step_maps
            # the stored order of every value too, which the emitted bytes
            # follow
            for t, old in zip(tl.step_maps, step_maps):
                assert [repr(v) for _, v in t.items()] == \
                    [repr(v) for _, v in old.items()]
            assert tl.truncated == truncated


def slot_edges(c: PointedCoalgebra):
    """The (successor, multiplicity) edges of a total coalgebra's states."""
    return lambda x: c.functor.slots(c.structure[x])


def test_predicted_sizes_equal_the_unravellings():
    rng = random.Random(103)
    for _ in range(300):
        c = generators.random_coalgebra(rng)
        for depth in range(5):
            try:
                size = len(unravel(c, depth).tree.carrier)
            except PowNotPrecise:
                continue
            assert _tree_size(c.point, slot_edges(c), depth) == size


def test_depth_capped_unravellings_are_guarded_by_their_prediction(
        monkeypatch):
    # 1 + 100 + 100^2 states to depth 2
    loop = parse_spec("functor: Bag\nstates: r\npoint: r\nr = [r*100]\n")
    monkeypatch.setenv("COALG_GUARD", "10100")
    with pytest.raises(SearchSpaceTooLarge, match="depth 2"):
        unravel(loop, 2)
    assert len(unravel(loop, 1).tree.carrier) == 101
    # the guard is checked before the non-empty powerset value is factored
    sets = parse_spec("functor: Pow\nstates: r\npoint: r\nr = {|r|}\n")
    monkeypatch.setenv("COALG_GUARD", "1")
    with pytest.raises(SearchSpaceTooLarge):
        unravel(sets, 1)
    monkeypatch.setenv("COALG_GUARD", "2")
    with pytest.raises(PowNotPrecise):
        unravel(sets, 1)
