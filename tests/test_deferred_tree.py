"""The word and path trees are built when they are first read: a listing
(`dfa-inputs` or `paths` without `--emit` or `--dot`) builds no value of
them, a written tree builds each closed word's or path's value once, and a
deferred result compares, prints, copies and pickles as the result built
with its tree."""

from __future__ import annotations

import copy
import pickle
import random
import tracemalloc

import pytest

from coalg import (UnravelResult, automata, defined_inputs, parse_spec,
                   rooted_paths)
from coalg.cli import main

from conftest import fixture_path, load_fixture

import generators

LOOPS = "kind: multigraph\nvertices: p\nroot: p\nedge e1 p p\nedge e2 p p\n"
# a looping two-letter, three-state automaton: every word is defined
LOOP3 = ("kind: dfa\nalphabet: a, b\nstates: q0, q1, q2\ninitial: q0\n"
         "accepting: q2\ntrans q0 a q1\ntrans q0 b q2\ntrans q1 a q2\n"
         "trans q1 b q0\ntrans q2 a q0\ntrans q2 b q2\n")


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls of the word and path value builders."""
    counts = {"_dfa_value": 0, "_path_value": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(automata, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(automata, name, counted)
    return counts


def cases(tmp_path):
    """(command, spec path, flags, unfolding of the parsed spec, the value
    builder it calls): complete and truncated, words and paths."""
    loops = tmp_path / "loops.spec"
    loops.write_text(LOOPS, encoding="utf-8")
    return [
        ("dfa-inputs", fixture_path("chain_dfa"), [],
         lambda obj: defined_inputs(obj, 4), "_dfa_value"),
        ("dfa-inputs", fixture_path("loop_dfa"), ["--maxlen", "3"],
         lambda obj: defined_inputs(obj, 3), "_dfa_value"),
        ("paths", fixture_path("diamond"), [],
         lambda obj: rooted_paths(obj, 8), "_path_value"),
        ("paths", str(loops), ["--maxlen", "3"],
         lambda obj: rooted_paths(obj, 3), "_path_value"),
    ]


def closed_paths(result) -> int:
    return len(result.projection.domain) - len(result.frontier)


def test_listings_build_no_value(tmp_path, capsys, calls):
    for command, spec, flags, _, _ in cases(tmp_path):
        assert main([command, spec, *flags]) == 0
        assert capsys.readouterr().out
    assert calls == {"_dfa_value": 0, "_path_value": 0}


@pytest.mark.parametrize("written", [["--emit"], ["--dot"],
                                     ["--emit", "--dot"]])
def test_written_trees_build_each_value_once(tmp_path, capsys, calls,
                                             written):
    for k, (command, spec, flags, unfold, builder) in enumerate(
            cases(tmp_path)):
        with open(spec, encoding="utf-8") as fh:
            closed = closed_paths(unfold(parse_spec(fh.read())))
        outputs = []
        for flag in written:
            outputs += [flag, str(tmp_path / f"{k}{flag[2:]}")]
        before = dict(calls)
        assert main([command, spec, *flags, *outputs]) == 0
        capsys.readouterr()
        assert calls[builder] - before[builder] == closed > 0
        assert sum(calls.values()) - sum(before.values()) == closed


def test_a_read_tree_is_built_once_and_kept(calls):
    result = defined_inputs(load_fixture("loop_dfa"), 3)
    with pytest.raises(AttributeError):
        UnravelResult.tree.__get__(result, UnravelResult)
    assert calls["_dfa_value"] == 0
    tree = result.tree
    assert result.tree is tree and calls["_dfa_value"] == 3
    assert tree.carrier is result.projection.domain
    assert tree.frontier is result.frontier
    with pytest.raises(AttributeError):
        result._grow
    with pytest.raises(AttributeError):
        result.no_such_field
    with pytest.raises(AttributeError):
        result.tree = tree


def unfoldings(seed: int):
    """(unfold, obj, max_len) on seeded DFAs, cyclic or not, and
    multigraphs."""
    rng = random.Random(seed)
    for _ in range(100):
        for obj in (generators.random_acyclic_dfa(rng),
                    generators.random_dfa(rng)):
            yield defined_inputs, obj, rng.randint(0, 4)
        yield rooted_paths, generators.random_multigraph(rng), \
            rng.randint(0, 4)


def test_deferred_results_agree_with_eager_ones():
    for unfold, obj, max_len in unfoldings(41):
        walk = unfold(obj, max_len)
        eager = UnravelResult(walk.tree, walk.projection, walk.complete,
                              walk.frontier)
        # each check on a result whose tree has not been read yet
        assert unfold(obj, max_len) == eager
        assert eager == unfold(obj, max_len)
        assert repr(unfold(obj, max_len)) == repr(eager)
        for again in (pickle.loads(pickle.dumps(unfold(obj, max_len))),
                      copy.deepcopy(unfold(obj, max_len)),
                      copy.copy(unfold(obj, max_len))):
            assert type(again) is UnravelResult and again == eager
            assert again.tree.structure == eager.tree.structure
        assert pickle.dumps(unfold(obj, max_len)) == pickle.dumps(eager)


def test_a_deferred_word_tree_holds_at_most_160_bytes_per_word():
    # the names, the projection and the frontier, and nothing of the walk
    d = parse_spec(LOOP3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = defined_inputs(d, 14)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    words = len(result.projection.domain)
    assert words == 2 ** 15 - 1
    assert held / words <= 160
