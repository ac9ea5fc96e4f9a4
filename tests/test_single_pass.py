"""The accumulate-as-you-go loops are single passes: each is checked against
the naive construction it replaced, kept here as the reference, on seeded
random inputs, and the long-chain commands run within a time budget."""

from __future__ import annotations

import random
import time

from coalg import (
    BagVal,
    FMap,
    FiniteSet,
    least_bound,
    multigraph_to_bag,
    reach_levels,
    reachable_part,
    tree_levels,
    used_states,
)
from coalg import base
from coalg.cli import main

import generators


def fold_union(sets) -> FiniteSet:
    """The old accumulation, one set after another, each adding its unseen
    elements in order; written out instead of calling the library."""
    acc: list[str] = []
    for s in sets:
        acc += [e for e in s if e not in acc]
    return FiniteSet(acc)


def probing_namer(taken=()):
    """The old allocator: probes candidate~2, candidate~3, ... from 2 on
    every call."""
    used = set(taken)

    def alloc(candidate):
        name = candidate
        k = 2
        while name in used:
            name = f"{candidate}~{k}"
            k += 1
        used.add(name)
        return name

    return alloc


def reference_levels(c) -> list[list[str]]:
    """Levels by their definition: the states the level's values use, in
    slot order, until a level adds no unseen state."""
    levels = [[c.point]]
    seen = {c.point}
    while True:
        nxt: list[str] = []
        for x in levels[-1]:
            if x in c.frontier:
                continue
            for y, _ in c.functor.slots(c.structure[x]):
                if y not in nxt:
                    nxt.append(y)
        levels.append(nxt)
        if seen.issuperset(nxt):
            return levels
        seen.update(nxt)


def test_least_bound_keeps_first_use_order():
    rng = random.Random(3)
    for _ in range(200):
        c = generators.random_coalgebra(rng, open_states=True)
        for f in (generators.structure_map(c), generators.random_fmap(rng)):
            parts = [used_states(f.functor, v) for _, v in f.items()]
            expected = fold_union(parts)
            assert FiniteSet().union(*parts) == expected
            lb = least_bound(f)
            assert lb.sub == expected
            assert lb.g == FMap(f.domain, expected, f.functor, f.values)


def test_reach_levels_and_their_union_match_the_references():
    rng = random.Random(5)
    for _ in range(200):
        c = generators.random_coalgebra(rng, open_states=True)
        seq = reach_levels(c)
        assert [list(level) for level in seq.levels] == reference_levels(c)
        assert seq.union() == fold_union(seq.levels)
        assert reachable_part(c).sub == seq.union()


def test_tree_states_match_the_fold():
    rng = random.Random(7)
    for _ in range(150):
        c = generators.random_coalgebra(rng, pow_free=True)
        tl = tree_levels(c, 3)
        states = tl.states()
        assert states == fold_union(tl.levels)
        assert tl.projection().domain == states


def test_out_edges_match_the_edge_filter():
    rng = random.Random(11)
    for _ in range(200):
        g = generators.random_multigraph(rng)
        for v in list(g.vertices) + ["nowhere"]:
            assert g.out_edges(v) == tuple(e for e in g.edges if e.src == v)
        bag = multigraph_to_bag(g)
        for u in g.vertices:
            assert bag.structure[u] == \
                BagVal((e.tgt, 1) for e in g.edges if e.src == u)


def test_fresh_names_match_the_probing_allocator():
    rng = random.Random(13)
    pool = ["x", "x~2", "x~3", "x~2~2", "x~10", "y", "y~2", "1:x", "1:x~2"]
    for _ in range(500):
        taken = rng.sample(pool, rng.randint(0, 4))
        fast, slow = base.fresh_namer(taken), probing_namer(taken)
        for _ in range(30):
            candidate = rng.choice(pool)
            assert fast(candidate) == slow(candidate)


def test_long_bag_chains_unravel_within_budget(tmp_path, capsys):
    n = 5000
    lines = ["functor: Bag", "states: " + ", ".join(f"s{i}" for i in range(n)),
             "point: s0"]
    lines += [f"s{i} = [s{i + 1}]" for i in range(n - 1)] + [f"s{n - 1} = []"]
    spec = tmp_path / "chain.spec"
    spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["unravel", str(spec)]) == 0
    assert main(["is-tree", str(spec)]) == 0
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["complete: true", f"tree states: {n}"]
    assert "note: input is already a tree" in out
    assert out[-1] == "true"
