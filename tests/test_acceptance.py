"""Acceptance gate: one test per shipped criterion, each with its stated
runtime budget.  Budgets are asserted, and every test prints a single
pass line so a `pytest -v -s` run reads as a checklist."""

from __future__ import annotations

import random
import time

from coalg import (
    Bag,
    FMap,
    FiniteSet,
    PointedCoalgebra,
    PreciseFactorization,
    TotalMap,
    bfs_reachable,
    canonical_graph,
    check_morphism,
    defined_inputs,
    dfa_to_coalgebra,
    enumerate_homs,
    factorization_iso,
    fmap,
    is_reachable,
    is_split_epi,
    is_tree,
    multigraph_to_bag,
    precise_factorize,
    reachable_by_definition,
    reachable_part,
    tree_fingerprint,
    tree_unravelling,
    unravel,
)

import generators
from conftest import FIXTURE_NAMES, load_fixture
from graph_reference import graph_is_tree

TREE_FIXTURES = ("two_leaf_tree", "fork_tree", "pow_empty",
                 "singleton_bottom")


def budget(started: float, seconds: float, label: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s (budget {seconds}s)"
    print(f"{label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_fixture_verdicts():
    started = time.perf_counter()
    tree_verdicts = {
        "two_leaf_tree": True,
        "shared_leaf": False,
        "two_tree_copies": False,
        "two_cycle": False,
        "self_loop": False,
        "fork_tree": True,
        "double_edge": False,
        "pow_edge": False,
        "signature_cycle": False,
    }
    for name, verdict in tree_verdicts.items():
        assert is_tree(load_fixture(name)) is verdict, name
    assert is_reachable(load_fixture("diamond_bag"))
    assert not is_reachable(load_fixture("two_tree_copies"))
    budget(started, 1.0, "criterion 1 (fixture verdicts)")


def test_criterion_2_unravelling_copy_counts():
    started = time.perf_counter()
    result = unravel(load_fixture("diamond_bag"), 4)
    assert result.complete
    counts = {}
    for x in result.tree.carrier:
        y = result.projection[x]
        counts[y] = counts.get(y, 0) + 1
    assert counts == {"r": 1, "p": 1, "q": 3, "v": 4}
    # the copy counts sum to 9 tree states (1 + 1 + 3 + 4)
    assert len(result.tree.carrier) == sum(counts.values()) == 9
    assert not unravel(load_fixture("diamond_bag"), 3).complete
    budget(started, 1.0, "criterion 2 (unravelling copy counts)")


def test_criterion_3_bag_precise_factorization_law():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(500):
        f = generators.random_bag_map(rng)
        pf = precise_factorize(f)
        for y in pf.middle:
            assert sum(pf.p.values[x].multiplicity(y)
                       for x in f.domain) == 1
        for x in f.domain:
            assert fmap(Bag(), pf.h, pf.p.values[x]) == f.values[x]
    budget(started, 10.0, "criterion 3 (bag precise factorization law)")


def test_criterion_4_reachability_matches_graph_search():
    started = time.perf_counter()
    rng = random.Random(103)
    for _ in range(500):
        c = generators.random_coalgebra(rng, max_states=8, open_states=True)
        part = reachable_part(c)
        assert part.sub.as_set() == \
            bfs_reachable(canonical_graph(c)).as_set()
    budget(started, 30.0, "criterion 4 (reachability vs graph search)")


def test_criterion_5_bag_trees_match_graph_trees():
    started = time.perf_counter()
    rng = random.Random(107)
    for _ in range(500):
        g = generators.random_multigraph(rng)
        assert is_tree(multigraph_to_bag(g)) == graph_is_tree(g)
    budget(started, 30.0, "criterion 5 (bag trees vs graph trees)")


def test_criterion_6_definitional_cross_checks():
    started = time.perf_counter()
    for name in FIXTURE_NAMES:
        obj = load_fixture(name)
        if isinstance(obj, PointedCoalgebra) and len(obj.carrier) <= 4:
            assert reachable_by_definition(obj) == is_reachable(obj), name

    two_cycle = load_fixture("two_cycle")
    self_loop = load_fixture("self_loop")
    collapse = TotalMap(two_cycle.carrier, self_loop.carrier,
                        {"p0": "l", "p1": "l"})
    assert check_morphism(collapse, two_cycle, self_loop).ok
    assert not is_split_epi(collapse, two_cycle, self_loop)

    both = load_fixture("two_tree_copies")
    one = load_fixture("two_leaf_tree")
    fold = TotalMap(both.carrier, one.carrier,
                    {x: x.split(".", 1)[1] for x in both.carrier})
    assert is_split_epi(fold, both, one)
    inl = TotalMap(one.carrier, both.carrier,
                   {x: f"left.{x}" for x in one.carrier})
    assert check_morphism(inl, one, both).ok
    assert all(fold[inl[x]] == x for x in one.carrier)
    budget(started, 60.0, "criterion 6 (definitional cross-checks)")


def test_criterion_7_theorem_suite():
    started = time.perf_counter()
    rng = random.Random(109)

    for _ in range(200):
        c = generators.random_coalgebra(rng, max_states=5)
        if is_tree(c):
            assert is_reachable(c)

    trees = {name: load_fixture(name) for name in TREE_FIXTURES}
    one = trees["two_leaf_tree"]
    trees["relabeled"] = PointedCoalgebra(
        one.functor, FiniteSet(("n1", "n2", "n3")),
        {"n1": fmap(one.functor, {"q": "n2", "r": "n3"},
                    one.structure["p"]),
         "n2": one.structure["q"], "n3": one.structure["r"]},
        "n1")
    for a_name, a in trees.items():
        for b_name, b in trees.items():
            if a.functor != b.functor:
                continue
            homs = enumerate_homs(a, b)
            for h in homs:
                assert h.is_bijective(), (a_name, b_name)
            if {a_name, b_name} == {"two_leaf_tree", "relabeled"}:
                assert len(homs) == 1

    for _ in range(60):
        d = generators.random_acyclic_dfa(rng)
        c = dfa_to_coalgebra(d)
        result = defined_inputs(d, len(d.states) + 1)
        assert result.complete
        assert is_tree(result.tree)
        assert check_morphism(result.projection, result.tree, c).ok
        generic = tree_unravelling(c)
        assert generic.complete
        assert tree_fingerprint(result.tree) == \
            tree_fingerprint(generic.tree)
    budget(started, 60.0, "criterion 7 (theorem suite)")


def test_criterion_8_factorizations_are_unique_up_to_iso():
    started = time.perf_counter()
    rng = random.Random(113)
    for _ in range(200):
        f = generators.random_fmap(rng, pow_free=True)
        direct = precise_factorize(f)

        reordered = FMap(generators.shuffled(rng, f.domain),
                         generators.shuffled(rng, f.codomain),
                         f.functor, dict(f.values))
        rho = generators.random_renaming(rng, direct.middle)
        other = precise_factorize(reordered)
        renamed = PreciseFactorization(
            rho.codomain,
            FMap(other.p.domain, rho.codomain, f.functor,
                 {x: fmap(f.functor, rho, other.p.values[x])
                  for x in other.p.domain}),
            TotalMap(rho.codomain, f.codomain,
                     {rho[m]: other.h[m] for m in other.middle}),
        )
        iso = factorization_iso(direct, renamed)
        assert iso.is_bijective()
        assert iso.mapping() == rho.mapping()
        for x in f.domain:
            assert fmap(f.functor, iso, direct.p.values[x]) == \
                renamed.p.values[x]
    budget(started, 10.0, "criterion 8 (factorization uniqueness)")
