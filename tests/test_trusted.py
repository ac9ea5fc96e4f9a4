"""The constructions build the carriers, maps, coalgebras, graphs and the
exponent and bag values they derive with the unchecked `_trusted`
constructors, as do coproducts, identity maps and the images of maps.  Each object they return is rebuilt here through its public,
validating constructor, from its raw fields, on seeded random inputs: the
constructor must accept it and give an equal object.  Every value is also
rebuilt through the public value constructors (`FunVal(...)`, `BagVal(...)`
and the others, by the functor's identity action), which must give it back
in the same stored form."""

from __future__ import annotations

import copy
import pickle
import random

from coalg import (
    FMap,
    FiniteSet,
    Multigraph,
    PointedCoalgebra,
    PowNotPrecise,
    TotalMap,
    canonical_graph,
    coproduct,
    defined_inputs,
    dfa_to_coalgebra,
    fmap,
    least_bound,
    multigraph_to_bag,
    precise_factorize,
    reach_levels,
    reachable_part,
    reachable_subgraph,
    rooted_paths,
    tree_levels,
    unravel,
)

import generators


def check_set(s: FiniteSet) -> None:
    again = FiniteSet(tuple(s._keys))
    assert again == s and list(again._keys) == list(s._keys)


def test_a_trusted_set_behaves_by_its_keys_alone():
    # the dict a set adopts may be a map's, whose values are images
    keys = {"b": "x", "a": "x", "c": None}
    s = FiniteSet._trusted(keys)
    plain = FiniteSet(["b", "a", "c"])
    assert s == plain and hash(s) == hash(plain) == hash(("b", "a", "c"))
    assert s != FiniteSet(["a", "b", "c"])
    assert repr(s) == repr(plain) == "FiniteSet(b, a, c)"
    assert s.as_set() == frozenset("abc")
    assert [s[0], s[1], s[-1]] == ["b", "a", "c"]
    assert list(s) == ["b", "a", "c"] and len(s) == 3 and "a" in s
    assert "x" not in s
    for again in (copy.copy(s), copy.deepcopy(s),
                  pickle.loads(pickle.dumps(s))):
        assert again == s and hash(again) == hash(s)
        assert repr(again) == repr(s) and list(again._keys) == list(keys)
    assert keys == {"b": "x", "a": "x", "c": None}


def check_map(m: TotalMap) -> None:
    check_set(m.domain)
    check_set(m.codomain)
    assert TotalMap(m.domain, m.codomain, m._mapping) == m


def check_value(functor, value) -> None:
    again = fmap(functor, lambda m: m, value)
    assert again == value and repr(again) == repr(value)


def check_fmap(f: FMap) -> None:
    check_set(f.domain)
    check_set(f.codomain)
    assert FMap(f.domain, f.codomain, f.functor, f.values) == f
    for _, v in f.items():
        check_value(f.functor, v)


def check_coalgebra(c: PointedCoalgebra) -> None:
    check_set(c.carrier)
    check_set(c.frontier)
    assert PointedCoalgebra(c.functor, c.carrier, c.structure, c.point,
                            c.frontier) == c
    for v in c.structure.values():
        check_value(c.functor, v)


def check_graph(g: Multigraph) -> None:
    check_set(g.vertices)
    again = Multigraph(g.vertices, g.edges, g.root)
    assert again == g and again._out == g._out


def test_factorizations_are_valid():
    rng = random.Random(17)
    for _ in range(300):
        c = generators.random_coalgebra(rng, open_states=True)
        for f in (generators.structure_map(c), generators.random_fmap(rng),
                  generators.random_bag_map(rng)):
            lb = least_bound(f)
            check_set(lb.sub)
            check_fmap(lb.g)
            check_map(lb.m)
            try:
                pf = precise_factorize(f)
            except PowNotPrecise:
                continue
            check_set(pf.middle)
            check_fmap(pf.p)
            check_map(pf.h)


def test_reachability_levels_and_parts_are_valid():
    rng = random.Random(19)
    for _ in range(300):
        c = generators.random_coalgebra(rng, open_states=True)
        seq = reach_levels(c)
        for level, inclusion in zip(seq.levels, seq.inclusions, strict=True):
            check_set(level)
            check_map(inclusion)
        for step in seq.step_maps:
            check_fmap(step)
        part = reachable_part(c)
        check_set(part.sub)
        check_map(part.embedding)
        check_coalgebra(part.coalgebra)
        assert part.structure == part.coalgebra.structure


def test_tree_levels_and_unravellings_are_valid():
    rng = random.Random(23)
    for i in range(300):
        if i % 3:
            c = generators.random_coalgebra(rng, pow_free=True)
        else:
            c = multigraph_to_bag(generators.random_multigraph(rng, 6, 8))
        depth = rng.randint(0, 3)
        tl = tree_levels(c, depth)
        for level in tl.levels:
            check_set(level)
        for step in tl.step_maps:
            check_fmap(step)
        for h in tl.projections:
            check_map(h)
        check_map(tl.projection())
        result = unravel(c, depth)
        check_coalgebra(result.tree)
        check_map(result.projection)
        check_set(result.frontier)


def test_defined_inputs_and_rooted_paths_are_valid():
    rng = random.Random(29)
    for _ in range(300):
        for d in (generators.random_acyclic_dfa(rng),
                  generators.random_dfa(rng)):
            result = defined_inputs(d, rng.randint(0, 4))
            check_coalgebra(result.tree)
            check_map(result.projection)
        result = rooted_paths(generators.random_multigraph(rng),
                              rng.randint(0, 4))
        check_coalgebra(result.tree)
        check_map(result.projection)


def test_coproducts_identities_and_images_are_valid():
    rng = random.Random(37)
    for _ in range(300):
        c = generators.random_coalgebra(rng, open_states=True)
        carrier = FiniteSet(f"t{i}" for i in range(rng.randint(1, 5)))
        other = PointedCoalgebra(
            c.functor, carrier,
            {x: generators.random_value(rng, c.functor, carrier)
             for x in carrier}, "t0")
        check_coalgebra(coproduct(c, other))
        check_coalgebra(coproduct(c, c))
        check_map(TotalMap.identity(c.carrier))
        m = TotalMap(c.carrier, carrier,
                     {x: rng.choice(list(carrier)) for x in c.carrier})
        check_set(m.image())
        check_set(TotalMap.identity(carrier).image())


def test_graph_views_are_valid():
    rng = random.Random(31)
    for _ in range(300):
        c = generators.random_coalgebra(rng, open_states=True)
        g = canonical_graph(c)
        check_graph(g)
        check_graph(reachable_subgraph(g))
        m = generators.random_multigraph(rng)
        check_coalgebra(multigraph_to_bag(m))
        check_graph(reachable_subgraph(m))
        for d in (generators.random_acyclic_dfa(rng),
                  generators.random_dfa(rng)):
            check_coalgebra(dfa_to_coalgebra(d))
