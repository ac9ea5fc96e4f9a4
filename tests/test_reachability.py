from __future__ import annotations

import copy
import pickle
import random

import pytest

from coalg import (
    FMap,
    FiniteSet,
    IdVal,
    Identity,
    PointedCoalgebra,
    TotalMap,
    bfs_reachable,
    canonical_graph,
    check_morphism,
    fmap,
    is_reachable,
    least_bound,
    reach_levels,
    reachable_part,
    tree_levels,
)
from coalg import cli, reachability

import generators
from conftest import fixture_path, load_fixture


def test_levels_of_the_diamond(diamond_bag):
    seq = reach_levels(diamond_bag)
    assert [list(level) for level in seq.levels] == \
        [["r"], ["p", "q"], ["q", "v"], ["v"]]
    assert seq.union().as_set() == {"r", "p", "q", "v"}
    assert is_reachable(diamond_bag)


def test_levels_stop_at_the_first_non_growing_union(self_loop):
    seq = reach_levels(self_loop)
    assert [list(level) for level in seq.levels] == [["l"], ["l"]]


def test_step_maps_factor_each_level_into_the_next(diamond_bag):
    seq = reach_levels(diamond_bag)
    assert len(seq.step_maps) == len(seq.levels) - 1
    for level, step in zip(seq.levels, seq.step_maps):
        assert step.domain.as_set() <= level.as_set()
    assert len(seq.inclusions) == len(seq.levels)
    for level, incl in zip(seq.levels, seq.inclusions):
        assert incl.domain == level
        assert all(incl[x] == x for x in level)


def check_level_squares(c: PointedCoalgebra, levels, step_maps, maps):
    """The square law of one run of the level iteration, reachability or
    tree levels alike: h_k has domain level k, step map k is defined on the
    states of level k whose image is not open and lands in level k+1, and
    fmap(h_{k+1}, t_k(x)) = c(h_k(x))."""
    assert len(levels) == len(maps) == len(step_maps) + 1
    for level, h in zip(levels, maps):
        assert h.domain == level
        assert h.codomain == c.carrier
    for k, step in enumerate(step_maps):
        assert step.codomain == levels[k + 1]
        assert list(step.domain) == [x for x in levels[k]
                                     if maps[k][x] not in c.frontier]
        for x in step.domain:
            assert fmap(c.functor, maps[k + 1], step.values[x]) == \
                c.structure[maps[k][x]]


def test_level_squares_commute():
    rng = random.Random(39)
    cases = [load_fixture("diamond_bag"), load_fixture("signature_cycle")]
    cases += [generators.random_coalgebra(rng, open_states=True)
              for _ in range(300)]
    for c in cases:
        seq = reach_levels(c)
        check_level_squares(c, seq.levels, seq.step_maps, seq.inclusions)


def test_tree_level_squares_commute():
    rng = random.Random(40)
    for _ in range(300):
        c = generators.random_coalgebra(rng, pow_free=True)
        for depth in range(5):
            tl = tree_levels(c, depth)
            check_level_squares(c, tl.levels, tl.step_maps, tl.projections)


def reach_levels_by_hand(c: PointedCoalgebra):
    """The levels construction as its own loop: least bounds of the
    structure on each level's closed states, and each level's inclusion
    built as an identity map, until the union stops growing."""
    levels = [FiniteSet((c.point,))]
    inclusions = [TotalMap(levels[0], c.carrier, {c.point: c.point})]
    step_maps = []
    seen = {c.point}
    while True:
        closed = FiniteSet(x for x in levels[-1] if x not in c.frontier)
        f = FMap(closed, c.carrier, c.functor,
                 {x: c.structure[x] for x in closed})
        nxt, g, _ = least_bound(f).parts()
        levels.append(nxt)
        inclusions.append(TotalMap(nxt, c.carrier, dict(zip(nxt, nxt))))
        step_maps.append(g)
        if seen.issuperset(nxt):
            break
        seen.update(nxt)
    return levels, inclusions, step_maps


def test_levels_match_the_loop_written_out():
    rng = random.Random(47)
    opened = 0
    # about one draw in five has open states
    while opened < 300:
        c = generators.random_coalgebra(rng, open_states=True)
        opened += len(c.frontier) > 0
        seq = reach_levels(c)
        levels, inclusions, step_maps = reach_levels_by_hand(c)
        assert list(seq.levels) == levels
        assert list(seq.inclusions) == inclusions
        assert list(seq.step_maps) == step_maps
        # the stored order of every value too
        for t, old in zip(seq.step_maps, step_maps):
            assert [repr(v) for _, v in t.items()] == \
                [repr(v) for _, v in old.items()]


def test_disjoint_double_copy_is_not_reachable(two_tree_copies):
    assert not is_reachable(two_tree_copies)
    part = reachable_part(two_tree_copies)
    assert part.sub.as_set() == {"left.p", "left.q", "left.r"}
    assert part.point == "left.p"


def test_reachable_part_is_a_subcoalgebra(two_tree_copies):
    part = reachable_part(two_tree_copies)
    assert check_morphism(part.embedding, part.coalgebra,
                          two_tree_copies).ok
    assert is_reachable(part.coalgebra)


def test_reachable_part_embeds_each_state_as_itself():
    """The part's carrier and its embedding share one dict, which maps each
    reached state to itself, in the order the levels reach them."""
    rng = random.Random(16)
    for _ in range(150):
        c = generators.random_coalgebra(rng, open_states=True)
        part = reachable_part(c)
        assert part.embedding.domain is part.sub
        assert part.embedding.mapping() == {x: x for x in part.sub}
        assert part.embedding == TotalMap(part.sub, c.carrier,
                                          dict(zip(part.sub, part.sub)))
        assert list(part.sub) == list(dict.fromkeys(
            x for level in reach_levels(c).levels for x in level))


def test_open_states_have_no_successors():
    c = PointedCoalgebra(Identity(), FiniteSet(("p", "q")),
                         {"p": IdVal("q")}, "p", FiniteSet(("q",)))
    seq = reach_levels(c)
    assert seq.union().as_set() == {"p", "q"}
    part = reachable_part(c)
    assert part.coalgebra.frontier.as_set() == {"q"}


def test_singleton_is_reachable():
    assert is_reachable(load_fixture("singleton_bottom"))
    assert is_reachable(load_fixture("pow_empty"))


def test_reachable_part_is_idempotent():
    rng = random.Random(41)
    for _ in range(150):
        c = generators.random_coalgebra(rng, open_states=True)
        part = reachable_part(c)
        again = reachable_part(part.coalgebra)
        assert again.sub == part.coalgebra.carrier
        assert is_reachable(part.coalgebra)


def test_levels_agree_with_graph_search():
    rng = random.Random(43)
    for _ in range(150):
        c = generators.random_coalgebra(rng, open_states=True)
        sub = reachable_part(c).sub
        assert sub.as_set() == bfs_reachable(canonical_graph(c)).as_set()


def twin(c: PointedCoalgebra) -> PointedCoalgebra:
    return PointedCoalgebra(c.functor, c.carrier, c.structure, c.point,
                            c.frontier)


def test_levels_are_built_once_and_kept():
    rng = random.Random(47)
    for _ in range(100):
        c = generators.random_coalgebra(rng, open_states=True)
        seq = reach_levels(c)
        assert reach_levels(c) is seq
        assert seq == reach_levels(twin(c))


def test_kept_levels_are_invisible_to_equality_copies_and_pickles():
    rng = random.Random(53)
    for _ in range(100):
        c = generators.random_coalgebra(rng, open_states=True)
        fresh = twin(c)
        reach_levels(c)
        assert c == fresh and fresh == c
        assert repr(c) == repr(fresh)
        assert pickle.dumps(c) == pickle.dumps(fresh)
        for copied in (copy.copy(c), copy.deepcopy(c),
                       pickle.loads(pickle.dumps(c))):
            assert copied == c
            with pytest.raises(AttributeError):
                copied._levels
    with pytest.raises(AttributeError):
        c._levels = None


def test_parts_and_verdicts_from_kept_levels_match_fresh_ones():
    rng = random.Random(59)
    for _ in range(300):
        c = generators.random_coalgebra(rng, depth=3, open_states=True)
        reach_levels(c)
        assert reachable_part(c) == reachable_part(twin(c))
        assert is_reachable(c) == is_reachable(twin(c))


@pytest.mark.parametrize("fixture", ["diamond_bag", "two_tree_copies",
                                     "chain_dfa", "diamond"])
def test_one_reachable_call_iterates_once(monkeypatch, capsys, fixture):
    calls = []

    def counted(*args, original=reachability._iterate, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(reachability, "_iterate", counted)
    cli.main(["reachable", fixture_path(fixture)])
    assert len(calls) == 1
    capsys.readouterr()
