"""The successor table of a pointed coalgebra: its entries are the slots of
the values, every walk reads it instead of the values, and it is invisible
to equality, copies and pickles."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from coalg import (Bag, CoalgebraError, Compose, Const, Coproduct, Exponent,
                   Identity, PointedCoalgebra, Pow, Product, canonical_graph,
                   emit_spec, is_acyclic, least_bound, parse_spec,
                   reach_levels, reachable_subgraph, tree_check,
                   tree_fingerprint, tree_unravelling, unravel)
from coalg import cli

import generators

CONSTRUCTORS = (Identity, Const, Product, Coproduct, Exponent, Compose, Bag,
                Pow)


def constructors(f) -> set[type]:
    return {type(f)}.union(*(constructors(g) for g in f.children()))


def test_table_holds_the_slots_of_every_closed_state():
    rng = random.Random(17)
    seen: set[type] = set()
    for _ in range(400):
        c = generators.random_coalgebra(rng, depth=3, open_states=True)
        seen |= constructors(c.functor)
        table = c.successor_table()
        assert list(table) == [x for x in c.structure]
        for x in c.carrier:
            if x in c.frontier:
                assert x not in table
            else:
                assert table[x] == tuple(c.functor.slots(c.structure[x]))
        assert c.successor_table() is table
    assert seen == set(CONSTRUCTORS)


def test_a_bag_table_shares_the_stored_entries():
    c = parse_spec("functor: Bag\nstates: p, q\npoint: p\np = [q*2, p]\n"
                   "q = []\n")
    for x in c.carrier:
        assert c.successor_table()[x] is c.structure[x].entries


def test_least_bound_reads_the_table_as_it_reads_the_values():
    rng = random.Random(19)
    for _ in range(300):
        c = generators.random_coalgebra(rng, depth=3, open_states=True)
        f = generators.structure_map(c)
        assert least_bound(f, c.successor_table().__getitem__) == \
            least_bound(f)


def test_a_built_table_is_invisible_to_equality_copies_and_pickles():
    rng = random.Random(23)
    for _ in range(100):
        c = generators.random_coalgebra(rng, open_states=True)
        fresh = PointedCoalgebra(c.functor, c.carrier, c.structure, c.point,
                                 c.frontier)
        c.successor_table()
        assert c == fresh and fresh == c
        assert repr(c) == repr(fresh)
        assert pickle.dumps(c) == pickle.dumps(fresh)
        for twin in (copy.copy(c), copy.deepcopy(c),
                     pickle.loads(pickle.dumps(c))):
            assert twin == c
            with pytest.raises(AttributeError):
                twin._succ
    with pytest.raises(AttributeError):
        c._succ = {}


def outcome(walk, c):
    try:
        return walk(c)
    except CoalgebraError as e:
        return type(e), str(e)


def unravelling(c):
    """The tree of `tree_unravelling`, with a reachable cycle cut at depth
    4 instead of 3|C|, which on bag weights of 2 is too large to build."""
    if is_acyclic(reachable_subgraph(canonical_graph(c))):
        return tree_unravelling(c).tree
    return unravel(c, 4).tree


WALKS = (reach_levels, tree_check, lambda c: canonical_graph(c).edges,
         tree_fingerprint, unravelling)


def test_each_walk_gives_the_same_on_a_table_built_by_another():
    rng = random.Random(29)
    for _ in range(150):
        c = generators.random_shared_dag(rng)
        for first in WALKS:
            twin = PointedCoalgebra(c.functor, c.carrier, c.structure,
                                    c.point)
            outcome(first, twin)
            for walk in WALKS:
                assert outcome(walk, twin) == outcome(
                    walk, PointedCoalgebra(c.functor, c.carrier, c.structure,
                                           c.point))


@pytest.fixture
def slot_reads(monkeypatch):
    """Count the reads of the loaded coalgebra's values by its functor's
    `edges`, which `slots` calls too, once per value in each column it is
    given: a function giving the coalgebra of the last CLI call and the
    reads of each of its closed states."""
    loaded = {}
    reads: list[object] = []

    def load(text):
        loaded["c"] = c = parse_spec(text)
        return c

    monkeypatch.setattr(cli, "parse_spec", load)
    for cls in CONSTRUCTORS:
        def counted(self, values, original=cls.edges):
            if "c" in loaded and self is loaded["c"].functor:
                reads.extend(values)
            return original(self, values)

        monkeypatch.setattr(cls, "edges", counted)

    def per_state():
        c = loaded["c"]
        return c, {x: sum(v is c.structure[x] for v in reads)
                   for x in c.structure}
    return per_state


@pytest.mark.parametrize("functor", generators.DAG_FUNCTORS)
@pytest.mark.parametrize("command", ["reachable", "unravel"])
def test_cli_reads_each_state_once(tmp_path, capsys, slot_reads, functor,
                                   command):
    rng = random.Random(31)
    for i in range(20):
        c = generators.random_shared_dag(rng, max_states=12, functor=functor)
        spec = tmp_path / f"{i}.spec"
        spec.write_text(emit_spec(c), encoding="utf-8")
        cli.main([command, str(spec)])
        loaded, reads = slot_reads()
        assert loaded == c
        assert reads[c.point] == 1
        assert all(n <= 1 for n in reads.values()), reads
    capsys.readouterr()
